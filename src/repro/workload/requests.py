"""Deterministic per-epoch request streams for the traffic data plane.

The streaming demand model (:mod:`repro.workload.streaming`) drives
*placement* — how much CPU each app needs per epoch.  The data plane needs
the same thing one level down: individual client requests, each carrying
the client-side randomness the paper's traffic path consumes (which
resolver asks, which app it wants, the DNS answer draw, the RIP draw, and
how long the TCP session lives).

Determinism contract: all randomness for epoch *e* comes from
``default_rng([seed, e])`` in one fixed order, field after field: the
resolver column, then the app uniforms, ``u_dns``, ``u_rip`` and the
session lengths.  Only the resolver column is drawn whole (as int32, 4 B
a request): its bounded draw consumes a data-dependent number of
generator words.  Every later field starts at a known offset: the app,
DNS and RIP uniforms take one 64-bit word a request, so field *k* of the
four starts ``k * n`` words past the state the resolver draw leaves, and
the session lengths, the last field, are drawn in stream order from
there.  :meth:`RequestStream.chunks` gives each of those four fields its
own generator at its offset (PCG64 ``advance``) and draws it one chunk at
a time, so a chunk's requests are drawn when it is consumed and one chunk
is resident, not one epoch, with bytes identical to the whole-epoch draw
for every chunk size.  The *same* requests can therefore be replayed
request-for-request through the object data plane
(Resolver/LBSwitch/ConnectionTable) and the columnar one, which is what
the differential harness does.  A request's ``u_dns`` belongs to the
request, not to a shared stream: a DNS cache hit simply leaves it
unconsumed on both sides.
"""

from __future__ import annotations

import copy
from typing import Iterator, Optional

import numpy as np

from repro.dns.policy import pick_bins, pick_table, table_pick, weighted_cdf


class RequestChunk:
    """One contiguous slice of an epoch's requests."""

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
        if not 1 <= n_resolvers < 2**31:
            # The resolver column is drawn as int32.
            raise ValueError("n_resolvers must be in [1, 2**31)")
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
        self._app_indptr = np.array([0, self.n_apps])
        self._app_pick = pick_table(
            self._app_cdf, self._app_indptr, pick_bins(self.n_apps)
        )

    # -- resolver population ------------------------------------------
    def violators(self) -> np.ndarray:
        """Boolean TTL-violator mask per resolver (stable across epochs)."""
        rng = np.random.default_rng([self.seed, 0x7F0])
        return rng.random(self.n_resolvers) < self.violator_fraction

    # -- per-epoch draws ----------------------------------------------
    def epoch_requests(self, epoch: int) -> RequestChunk:
        """All of epoch *e*'s requests as one chunk."""
        return next(self.chunks(epoch))

    def chunks(
        self, epoch: int, chunk_requests: Optional[int] = None
    ) -> Iterator[RequestChunk]:
        """Draw and yield epoch *e*'s requests in slices of
        *chunk_requests* (``None``: the whole epoch as one).  Each slice
        is drawn when it is asked for; the bytes do not depend on the
        slice size (see the module docstring)."""
        n = self.requests_per_epoch
        step = n if chunk_requests is None else int(chunk_requests)
        if step < 1:
            raise ValueError("chunk_requests must be positive")
        rng = np.random.default_rng([self.seed, int(epoch)])
        # Held whole, so int32: a bounded draw below 2**32 reads the same
        # 32-bit words at either width, so the values do not depend on it.
        resolver = rng.integers(0, self.n_resolvers, n, dtype=np.int32)
        app_rng, dns_rng, rip_rng, dur_rng = (
            _advanced(rng.bit_generator, k * n) for k in range(4)
        )
        high = self.max_duration_epochs + 1
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            m = hi - lo
            yield RequestChunk(
                lo, hi,
                resolver[lo:hi].astype(np.int64),
                table_pick(
                    self._app_pick, self._app_cdf, self._app_indptr, 0,
                    app_rng.random(m),
                ).astype(np.int64),
                dns_rng.random(m),
                rip_rng.random(m),
                dur_rng.integers(1, high, m, dtype=np.int64),
            )


def _advanced(bit_generator, words: int) -> np.random.Generator:
    """A generator over a copy of *bit_generator* advanced by *words*
    64-bit draws.  ``advance`` clears the buffered 32-bit half-word, so
    the copy gets the original's back: a bounded 32-bit draw there reads
    it first, as it would after *words* uniforms."""
    state = bit_generator.state
    twin = copy.deepcopy(bit_generator)
    twin.advance(words)
    twin.state = {
        **twin.state,
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }
    return np.random.Generator(twin)
