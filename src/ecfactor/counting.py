"""Ground-truth point counting.

`count_points_prime` evaluates the Legendre-sum formula
N = p + 1 + sum_x (x^3+Ax+B | p) with a cached character table, so
repeated counts at the same prime are cheap. Cached tables are evicted
least recently used first once they hold more than `_TABLE_CACHE_BYTES`
together. A table is built by
scattering squares: every entry starts at -1, the (p-1)/2 values x^2 mod p
for 1 <= x <= (p-1)/2 (which are exactly the nonzero squares) are set to 1,
and entry 0 to 0. Primes above `_LEGENDRE_LIMIT` are refused before anything
is allocated: the cubic is evaluated in int64 with intermediates up to
2p^2 + p, and a count holds about 18p bytes of transient arrays.
`count_affine_bruteforce` counts solutions by enumerating squares instead of
evaluating symbols, which keeps it an independent cross-check of the same
quantities.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .arith import is_probable_prime


@dataclass(frozen=True)
class PrimeCount:
    p: int
    npoints: int
    trace: int


# Far below the int64 overflow of the cubic (p ~ 2.1e9), and a count's
# transient arrays stay near 2.4 GB.
_LEGENDRE_LIMIT = 2 ** 27

# Room for two tables at the size limit, so a semiprime there never rebuilds one.
_TABLE_CACHE_BYTES = 2 * _LEGENDRE_LIMIT
_tables: OrderedDict[int, np.ndarray] = OrderedDict()  # least recently used first
_table_bytes = 0


def _legendre_table(p: int) -> np.ndarray:
    global _table_bytes
    chi = _tables.get(p)
    if chi is not None:
        _tables.move_to_end(p)
        return chi
    if p < 5 or p > _LEGENDRE_LIMIT or not is_probable_prime(p):
        raise ValueError(
            f"count_points_prime: p must be a prime in [5, {_LEGENDRE_LIMIT}], got {p}"
        )
    chi = np.full(p, -1, dtype=np.int8)
    x = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    chi[x * x % p] = 1
    chi[0] = 0
    chi.flags.writeable = False  # shared by every later count at p
    _tables[p] = chi
    _table_bytes += chi.nbytes
    while _table_bytes > _TABLE_CACHE_BYTES:
        _table_bytes -= _tables.popitem(last=False)[1].nbytes
    return chi


def count_points_prime(p: int, A: int, B: int) -> PrimeCount:
    """Exact projective point count of y^2 = x^3 + Ax + B over F_p."""
    chi = _legendre_table(p)
    A %= p
    B %= p
    if (4 * A ** 3 + 27 * B ** 2) % p == 0:
        raise ValueError(f"count_points_prime: singular curve ({A},{B}) mod {p}")
    x = np.arange(p, dtype=np.int64)
    f = x * x  # Horner in place: every intermediate stays below 2p^2 + p
    f %= p
    f += A
    f *= x
    f += B
    f %= p
    npoints = p + 1 + int(chi[f].sum())
    return PrimeCount(p, npoints, p + 1 - npoints)


def count_points_squarefree(primes: list[int], A: int, B: int) -> int:
    """Product of per-prime counts: the point count mod n = prod(primes)."""
    if len(set(primes)) != len(primes):
        raise ValueError("count_points_squarefree: primes must be distinct")
    out = 1
    for p in primes:
        out *= count_points_prime(p, A % p, B % p).npoints
    return out


_BRUTEFORCE_LIMIT = 10 ** 5


def count_affine_bruteforce(n: int, A: int, B: int) -> int:
    """#{(x,y) in (Z/n)^2 : y^2 = x^3 + Ax + B} by exhaustive enumeration."""
    if n < 2 or n > _BRUTEFORCE_LIMIT:
        raise ValueError(f"count_affine_bruteforce: need 2 <= n <= {_BRUTEFORCE_LIMIT}")
    y = np.arange(n, dtype=np.int64)
    nsqrt = np.bincount(y * y % n, minlength=n)
    f = (y * y % n * y + (A % n) * y + B % n) % n  # reuse y as the x range
    return int(nsqrt[f].sum())

