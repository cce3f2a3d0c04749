"""The platform's authoritative DNS and the client resolver population.

Selective VIP exposure (knob K1) works by answering client DNS queries with
different VIPs at different frequencies.  Its dynamics are governed by the
answer TTL and by the fraction of clients that keep using stale answers in
violation of the TTL (Pang et al., IMC'04; Callahan et al., CCR'13 — both
cited by the paper).  We model both an agent-level resolver population (for
session-level simulations) and a fluid share model (for epoch-level
simulations of large systems).
"""

from repro.dns.records import DNSAnswer, VipWeight
from repro.dns.authority import AuthoritativeDNS
from repro.dns.resolver import Resolver
from repro.dns.population import FluidDNSModel, ResolverPopulation
from repro.dns.policy import (
    ExposurePolicy,
    InverseUtilizationPolicy,
    CheapestLinkPolicy,
)

__all__ = [
    "DNSAnswer",
    "VipWeight",
    "AuthoritativeDNS",
    "Resolver",
    "ResolverPopulation",
    "FluidDNSModel",
    "ExposurePolicy",
    "InverseUtilizationPolicy",
    "CheapestLinkPolicy",
]
