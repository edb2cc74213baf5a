"""Point-counting oracles.

The factoring driver only ever sees `query(m, A, B) -> |E_m|`. Two
implementations are provided: one that knows the prime factorization
(the simulated black box the reduction is measured against) and one that
factors m with `factor_small` and brute-forces each prime, a cross-check.
Both go through the one `Oracle.query`, which multiplies per-prime counts.

`FactoredOracle` counts each quadratic twist class once per prime. At a
prime p, a curve E: y^2 = x^3 + Ax + B with A*B != 0 mod p is the quadratic
twist by B/A of the normal form E_t: y^2 = x^3 + t*x + t, t = A^3/B^2 mod p
(Silverman, AEC III.1), so a_p(E) = (AB|p)*a_t with a_t the trace of E_t.
At a prime with a character table (p <= the crossover in `counting`) the
oracle reads la = log_g A and lb = log_g B off `counting.discrete_logs(p)`:
the memo key is (p, 3*la - 2*lb mod p - 1), which is log_g t, and
(AB|p) = (-1)^(la + lb), as the primitive root g is a non-residue. A twist
E^d has A*d^2 and B*d^3, so the same key, and a hit takes no modular power.
Above the crossover the key is (p, t), t = A^3 * B^-2 mod p, and (AB|p)
comes from Euler's criterion, (AB)^((p-1)/2) mod p. p decides which key a
prime uses, so the two never collide. On a miss the memo counts E_t. A
curve with A = 0 or B = 0 mod p (j = 0 or 1728, whose classes can be sextic
or quartic twists of one another) is counted in full. The oracle also
remembers the primes of each modulus it has admitted; a refused modulus is
refused again on every query. The memos live as long as the oracle
instance. Every answered query is counted, hit or not, so the query count
does not depend on them.
"""

from __future__ import annotations

import math

from . import counting
from .arith import factor_small
from .counting import BRUTEFORCE_LIMIT, count_affine_bruteforce
from .curves import screen


class SingularCurveError(ValueError):
    """Query on a curve with gcd(discriminant, m) != 1."""


class UnsupportedModulusError(ValueError):
    """Query modulus outside the oracle's admissible set."""


class Oracle:
    """The one query path: admit m, require a smooth curve, tally the query, count.

    `queries` is the number of answered queries over the oracle's life; a
    refused query is not counted, and a run's cost is the difference across
    it. Subclasses supply `_primes(m)`, the primes of m or
    UnsupportedModulusError, and `_count_prime(p, A, B)`, the count over F_p
    for 0 <= A, B < p.
    """

    def __init__(self) -> None:
        self.queries = 0

    def query(self, m: int, A: int, B: int) -> int:
        primes = self._primes(m)
        g = screen(m, A, B)
        if g != 1:
            raise SingularCurveError(f"gcd(disc, {m}) = {g}; oracle requires smooth curves")
        self.queries += 1
        return math.prod(self._count_prime(p, A % p, B % p) for p in primes)


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
        # (p, log_g t) at table primes, (p, t) above them -> a_t, the trace
        # of y^2 = x^3 + t*x + t over F_p
        self._twists: dict[tuple[int, int], int] = {}
        # p -> (g, memoryview of counting.discrete_logs(p)), or () above the
        # crossover
        self._logs: dict[int, tuple] = {}
        # admitted modulus -> its primes
        self._moduli: dict[int, tuple[int, ...]] = {}

    def _primes(self, m: int) -> tuple[int, ...]:
        parts = self._moduli.get(m)
        if parts is not None:
            return parts
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
        self._moduli[m] = parts = tuple(parts)
        return parts

    def _count_prime(self, p: int, A: int, B: int) -> int:
        # counting.count_points_prime is a module lookup, not a copied name,
        # so bench/tracer.py can wrap it
        if A == 0 or B == 0:
            return counting.count_points_prime(p, A, B)
        logs = self._logs.get(p)
        if logs is None:
            found = counting.discrete_logs(p)
            logs = self._logs[p] = () if found is None else (found[0], memoryview(found[1]))
        if logs:
            g, log = logs
            la, lb = log[A], log[B]  # memoryview items are ints, and quicker than numpy's
            e = (3 * la - 2 * lb) % (p - 1)  # log_g t
            a = self._twists.get((p, e))
            if a is None:
                t = pow(g, e, p)
                a = self._twists[p, e] = p + 1 - counting.count_points_prime(p, t, t)
            # (AB|p) = (g|p)^(la + lb), and a primitive root is a non-residue
            return p + 1 + a if (la + lb) & 1 else p + 1 - a
        t = A ** 3 * pow(B, -2, p) % p
        a = self._twists.get((p, t))
        if a is None:
            a = self._twists[p, t] = p + 1 - counting.count_points_prime(p, t, t)
        # Euler's criterion: (AB)^((p-1)/2) is 1 or p - 1, as (AB|p) is 1 or -1
        return p + 1 - a if pow(A * B, p >> 1, p) == 1 else p + 1 + a


class DirectOracle(Oracle):
    """Oracle that factors m itself and counts each prime by brute force."""

    def __init__(self, _unused: int | None = None):
        # No modulus cap: factor_small's 2^64 contract and the brute-force
        # prime limit bound the work. bench/workloads.py calls DirectOracle(m).
        super().__init__()

    def _primes(self, m: int) -> list[int]:
        """Primes of m from `factor_small`, each at most the brute-force limit."""
        if m < 2:
            raise UnsupportedModulusError(f"modulus {m} must be >= 2")
        try:
            facts = factor_small(m)
        except ValueError as exc:  # m > 2^64 with a composite cofactor; names m
            raise UnsupportedModulusError(str(exc)) from None
        if (big := facts[-1][0]) > BRUTEFORCE_LIMIT:
            raise UnsupportedModulusError(
                f"modulus {m} has a factor {big} above the brute-force limit "
                f"{BRUTEFORCE_LIMIT}"
            )
        if facts[0][0] < 5 or any(e > 1 for _, e in facts):
            raise UnsupportedModulusError(
                f"modulus {m} must be squarefree with prime factors >= 5"
            )
        return [p for p, _ in facts]

    def _count_prime(self, p: int, A: int, B: int) -> int:
        return count_affine_bruteforce(p, A, B) + 1  # + point at infinity
