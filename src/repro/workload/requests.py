"""Deterministic per-epoch request streams for the traffic data plane.

The streaming demand model (:mod:`repro.workload.streaming`) drives
*placement* — how much CPU each app needs per epoch.  The data plane needs
the same thing one level down: individual client requests, each carrying
the client-side randomness the paper's traffic path consumes (which
resolver asks, which app it wants, the DNS answer draw, the RIP draw, and
how long the TCP session lives).

Determinism contract: all randomness for epoch *e* is drawn **up front**
from ``default_rng([seed, e])`` in one fixed order, as flat arrays.  The
chunked iterator yields views into those arrays, so chunked consumption is
trivially identical to materialized consumption for every chunk size, and
— crucially — the *same* arrays can be replayed request-for-request
through the object data plane (Resolver/LBSwitch/ConnectionTable) and the
columnar one, which is what the differential harness does.  A request's
``u_dns`` belongs to the request, not to a shared stream: a DNS cache hit
simply leaves it unconsumed on both sides.

One request epoch is resident at a time: the stream caches the epoch it
drew last (a repeated call returns the same arrays) and releases it
before drawing the next, so its memory is one epoch's five arrays, not
two.  The epoch is still drawn whole, field after field: the bounded
integer draws consume a data-dependent number of generator words, so a
later field's slice for one chunk cannot be reached without drawing the
earlier fields in full.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.dns.policy import bucketed_pick, weighted_cdf


class RequestChunk:
    """One contiguous slice of an epoch's requests (views, never copies)."""

    __slots__ = ("lo", "hi", "resolver", "app", "u_dns", "u_rip", "duration")

    def __init__(self, lo, hi, resolver, app, u_dns, u_rip, duration):
        self.lo = lo
        self.hi = hi
        self.resolver = resolver
        self.app = app
        self.u_dns = u_dns
        self.u_rip = u_rip
        self.duration = duration

    def __len__(self) -> int:
        return self.hi - self.lo


class RequestStream:
    """Seeded request generator over a fixed universe of (wired) apps.

    Parameters
    ----------
    n_resolvers:
        Client-side resolver population size; each request names one.
    app_weights:
        Relative request popularity per app slot (index = app slot in the
        caller's wired-app universe).  Typically the streaming workload's
        t=0 demand of the wired apps, so hot apps get hot VIPs.
    requests_per_epoch:
        Requests drawn each epoch.
    max_duration_epochs:
        Session length is uniform over ``[1, max_duration_epochs]`` epochs.
    violator_fraction:
        Fraction of resolvers that stretch TTLs (drawn once, seeded).
    """

    def __init__(
        self,
        n_resolvers: int,
        app_weights: np.ndarray,
        requests_per_epoch: int,
        seed: int = 0,
        max_duration_epochs: int = 3,
        violator_fraction: float = 0.1,
    ):
        if n_resolvers < 1:
            raise ValueError("need at least one resolver")
        if requests_per_epoch < 1:
            raise ValueError("need at least one request per epoch")
        if max_duration_epochs < 1:
            raise ValueError("sessions last at least one epoch")
        if not 0.0 <= violator_fraction <= 1.0:
            raise ValueError("violator_fraction must be in [0, 1]")
        self.n_resolvers = int(n_resolvers)
        self.n_apps = int(np.asarray(app_weights).shape[0])
        self.requests_per_epoch = int(requests_per_epoch)
        self.max_duration_epochs = int(max_duration_epochs)
        self.violator_fraction = float(violator_fraction)
        self.seed = int(seed)
        self._app_cdf = weighted_cdf(app_weights)
        self._cache: tuple[int, RequestChunk] | None = None

    # -- resolver population ------------------------------------------
    def violators(self) -> np.ndarray:
        """Boolean TTL-violator mask per resolver (stable across epochs)."""
        rng = np.random.default_rng([self.seed, 0x7F0])
        return rng.random(self.n_resolvers) < self.violator_fraction

    # -- per-epoch draws ----------------------------------------------
    def epoch_requests(self, epoch: int) -> RequestChunk:
        """All of epoch *e*'s requests as one chunk (drawn in fixed order)."""
        if self._cache is not None and self._cache[0] == epoch:
            return self._cache[1]
        # Let the previous epoch go before drawing this one, so only one
        # epoch of requests is ever resident.
        self._cache = None
        n = self.requests_per_epoch
        rng = np.random.default_rng([self.seed, int(epoch)])
        resolver = rng.integers(0, self.n_resolvers, n, dtype=np.int64)
        app = bucketed_pick(self._app_cdf, rng.random(n))
        u_dns = rng.random(n)
        u_rip = rng.random(n)
        duration = rng.integers(
            1, self.max_duration_epochs + 1, n, dtype=np.int64
        )
        chunk = RequestChunk(0, n, resolver, app, u_dns, u_rip, duration)
        self._cache = (epoch, chunk)
        return chunk

    def chunks(
        self, epoch: int, chunk_requests: Optional[int] = None
    ) -> Iterator[RequestChunk]:
        """Yield epoch *e*'s requests in bounded slices (views); a
        *chunk_requests* of ``None`` yields the whole epoch as one."""
        full = self.epoch_requests(epoch)
        n = len(full)
        step = n if chunk_requests is None else int(chunk_requests)
        if step < 1:
            raise ValueError("chunk_requests must be positive")
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            yield RequestChunk(
                lo, hi,
                full.resolver[lo:hi], full.app[lo:hi],
                full.u_dns[lo:hi], full.u_rip[lo:hi], full.duration[lo:hi],
            )
