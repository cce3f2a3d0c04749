"""IP address pools for VIPs (public) and RIPs (private 10/8).

Section II: VIPs are external addresses; RIPs "can be taken from a private
address space such as the 10.0.0.0/8 block".  The pool hands out dotted-quad
strings deterministically and recycles released addresses FIFO.
"""

from __future__ import annotations

from collections import deque
from typing import Optional


class AddressPool:
    """Sequential allocator over an IPv4 block with FIFO recycling.

    ``lazy_recycle=True`` hands out fresh addresses while any remain and
    only then recycles — so a just-released address is not immediately
    reused while control-plane requests referencing it may still be in
    flight (the standard quarantine trick).
    """

    def __init__(self, base: str, size: int, label: str = "", lazy_recycle: bool = False):
        parts = [int(p) for p in base.split(".")]
        if len(parts) != 4 or any(not 0 <= p <= 255 for p in parts):
            raise ValueError(f"bad base address {base}")
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self._base_int = (
            (parts[0] << 24) | (parts[1] << 16) | (parts[2] << 8) | parts[3]
        )
        self._size = size
        self._next = 0
        self._freed: deque[str] = deque()
        self._allocated: set[str] = set()
        self.label = label
        self.lazy_recycle = lazy_recycle

    @staticmethod
    def _to_str(value: int) -> str:
        return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    def allocate(self) -> str:
        """Hand out an unused address."""
        fresh_available = self._next < self._size
        if self._freed and not (self.lazy_recycle and fresh_available):
            ip = self._freed.popleft()
        elif fresh_available:
            ip = self._to_str(self._base_int + self._next)
            self._next += 1
        else:
            raise RuntimeError(f"address pool {self.label!r} exhausted")
        self._allocated.add(ip)
        return ip

    def release(self, ip: str) -> None:
        if ip not in self._allocated:
            raise KeyError(f"{ip} was not allocated from pool {self.label!r}")
        self._allocated.remove(ip)
        self._freed.append(ip)

    def is_allocated(self, ip: str) -> bool:
        return ip in self._allocated


def PUBLIC_VIP_POOL(size: int = 1 << 20) -> AddressPool:
    """Factory: the platform's public VIP block."""
    return AddressPool("203.0.0.0", size, label="vip")


def PRIVATE_RIP_POOL(size: int = 1 << 24, lazy_recycle: bool = False) -> AddressPool:
    """Factory: the private 10/8 RIP block."""
    return AddressPool("10.0.0.0", size, label="rip", lazy_recycle=lazy_recycle)
