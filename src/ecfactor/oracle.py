"""Point-counting oracles.

The factoring driver only ever sees `query(m, A, B) -> |E_m|`. Two
implementations are provided: one that knows the prime factorization
(the simulated black box the reduction is measured against) and one that
trial-divides and brute-forces, used to cross-check the first. Both admit,
check and count queries through the one `Oracle.query`.

`FactoredOracle` answers quadratic twists of a curve it has already counted
without counting again. At a prime p, curves with A*B != 0 mod p share the
key (p, A^3/B^2 mod p) exactly when they are twists of one another:
(A, B) = (A0*d^2, B0*d^3) with d = A*B0/(A0*B) mod p, and then
a_p(E) = (d|p)*a_p(E0) for the stored (A0, B0, a_p(E0)). A miss, and any
curve with A = 0 or B = 0 mod p (j = 0 or 1728, where the key cannot tell
quadratic twists from sextic or quartic ones), is counted in full. The memo
lives as long as the oracle instance. Every query is still recorded, hit or
not, so the query count does not depend on the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import counting
from .arith import factor_small, jacobi
from .counting import _BRUTEFORCE_LIMIT, count_affine_bruteforce
from .curves import SMOOTH, screen


class SingularCurveError(ValueError):
    """Query on a curve with gcd(discriminant, m) != 1."""


class UnsupportedModulusError(ValueError):
    """Query modulus outside the oracle's admissible set."""


@dataclass
class OracleStats:
    queries: int = 0
    per_modulus: dict[int, int] = field(default_factory=dict)

    def record(self, m: int) -> None:
        self.queries += 1
        self.per_modulus[m] = self.per_modulus.get(m, 0) + 1


class Oracle:
    """The one query path: admit m, require a smooth curve, record, count.

    Subclasses supply `_primes(m)`, the primes of m or UnsupportedModulusError,
    and `_count(primes, A, B)`, the point count mod their product.
    """

    def __init__(self) -> None:
        self.stats = OracleStats()

    def query(self, m: int, A: int, B: int) -> int:
        primes = self._primes(m)
        s = screen(m, A, B)
        if s.kind != SMOOTH:
            raise SingularCurveError(
                f"gcd(disc, {m}) = {s.factor or m}; oracle requires smooth curves"
            )
        self.stats.record(m)
        return self._count(primes, A, B)


class FactoredOracle(Oracle):
    """Oracle backed by hidden knowledge of the prime factorization.

    Admissible moduli are squarefree products of any subset of the
    configured primes; that covers the cofactors the recursion asks about.
    """

    def __init__(self, primes: list[int]):
        super().__init__()
        primes = sorted(primes)
        if len(set(primes)) != len(primes) or any(p < 5 for p in primes):
            raise ValueError("FactoredOracle: primes must be distinct and >= 5")
        self.primes = primes
        # (p, A^3/B^2 mod p) -> (A0, B0, a_p) of the first curve counted there
        self._twists: dict[tuple[int, int], tuple[int, int, int]] = {}

    def _primes(self, m: int) -> list[int]:
        parts = []
        rest = m
        for p in self.primes:
            if rest % p == 0:
                parts.append(p)
                rest //= p
        if rest != 1 or m < 2:
            raise UnsupportedModulusError(
                f"modulus {m} is not a squarefree product of the oracle's primes"
            )
        return parts

    def _count(self, primes: list[int], A: int, B: int) -> int:
        out = 1
        for p in primes:
            out *= p + 1 - self._trace(p, A % p, B % p)
        return out

    def _trace(self, p: int, A: int, B: int) -> int:
        if A == 0 or B == 0:
            return counting.count_points_prime(p, A, B).trace
        key = (p, A ** 3 * pow(B, -2, p) % p)
        hit = self._twists.get(key)
        if hit is not None:
            A0, B0, a0 = hit
            return jacobi(A * B0 * pow(A0 * B, -1, p) % p, p) * a0
        # a module lookup, not a copied name, so bench/tracer.py can wrap it
        a0 = counting.count_points_prime(p, A, B).trace
        self._twists[key] = (A, B, a0)
        return a0


class DirectOracle(Oracle):
    """Oracle that factors m itself and counts each prime by brute force."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def _primes(self, m: int) -> list[int]:
        if m < 2 or m > self.limit:
            raise UnsupportedModulusError(f"modulus {m} outside [2, {self.limit}]")
        facts = factor_small(m).factors
        if any(e > 1 for _, e in facts) or any(p < 5 for p, _ in facts):
            raise UnsupportedModulusError(
                f"modulus {m} must be squarefree with prime factors >= 5"
            )
        if facts[-1][0] > _BRUTEFORCE_LIMIT:
            raise UnsupportedModulusError(
                f"modulus {m} has prime factor {facts[-1][0]} above the "
                f"brute-force limit {_BRUTEFORCE_LIMIT}"
            )
        return [p for p, _ in facts]

    def _count(self, primes: list[int], A: int, B: int) -> int:
        out = 1
        for p in primes:
            out *= count_affine_bruteforce(p, A % p, B % p) + 1  # + point at infinity
        return out
