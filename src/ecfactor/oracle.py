"""Point-counting oracles.

The reduction only ever sees `query(m, A, B, d) -> |E^d_m|`, the
count of the quadratic twist E^d: y^2 = x^3 + A*d^2*x + B*d^3 of
E: y^2 = x^3 + Ax + B, for a d coprime to m; d = 1, the default, asks for E
itself. Two implementations are provided: one that knows the prime
factorization (the simulated black box the reduction is measured against)
and one that factors m with `factor_small` and brute-forces each prime, a
cross-check. Both go through the one `Oracle.query`: it admits m once per
oracle into a plan it keeps (so `DirectOracle` factors each modulus once)
and lets the implementation answer from its record. Any query the record
does not answer is twisted by `curves.twist`, which refuses a d sharing a
prime with m, screened, and handed with the plan to the implementation's
count, the product of per-prime counts. Every answered query is tallied,
from the record or not, so the query count does not depend on the plans.

`FactoredOracle` answers a twist of the last curve it counted on a modulus
without counting. A smooth curve and its quadratic twist by a non-square
have n_p + n'_p = 2(p + 1) at every prime p, j = 0 and 1728 included, and
a twist by a square is isomorphic to the curve, so with c_p the curve's
count at p, E^d has c_p points when (d|p) = 1 and 2p + 2 - c_p when
(d|p) = -1. Its plan for m, built when m is first admitted, holds (p, chi)
for each prime of m and the record: the last curve counted there, as the
(A, B) it was counted as, and a row (p, chi, c_p, 2p + 2 - c_p) per prime.
A query of that (A, B) reads (d|p) and one of the two counts per prime, in
one inline loop with no count and no screen: E^d's discriminant is d^6
times E's, so E^d is smooth exactly when E is, and E was screened when it
became the record. At a table prime (p <= the crossover in `counting`) chi
is `counting.character_table(p)` as a memoryview and the symbol is
chi[d mod p]; above the crossover chi is None and the symbol comes from
`jacobi`. A symbol 0 means p divides d, and the query goes the other way,
where `curves.twist` refuses it. The oracle admits each of its primes and
takes its chi once, at construction, and every plan takes chi from there.
Any other query is counted prime by prime through
`counting.count_points_prime`, and the curve counted, E^d, becomes the new
record. The plans and the per-prime chi are the oracle's caches, and live
as long as the oracle instance; a plan is not shared between moduli, since
a cofactor's split draws fresh curves. A refused modulus gets no plan, so
it is refused again on every query.
"""

from __future__ import annotations

import math

from . import counting, curves
from .arith import factor_small, jacobi
from .counting import BRUTEFORCE_LIMIT, count_affine_bruteforce


class SingularCurveError(ValueError):
    """Query on a curve with gcd(discriminant, m) != 1."""


class UnsupportedModulusError(ValueError):
    """Query modulus outside the oracle's admissible set."""


class Oracle:
    """The one query path: admit m, answer from the record or twist, screen
    and count, tally the query.

    `queries` is the number of answered queries over the oracle's life; a
    refused query is not counted, and a run's cost is the difference across
    it. Subclasses supply two hooks: `_plan(m)` admits m, or raises
    UnsupportedModulusError, and returns m's plan, which `query` keeps for
    the oracle's life; `_count(plan, A, B)` returns |E_m| for a smooth curve
    from that plan. One that keeps a record also supplies
    `_recorded(plan, A, B, d)`, |E^d_m| from what the plan records, or None,
    the default. Every query it leaves goes through `curves.twist` and the
    screen, so the d and smoothness contracts are checked in this one place
    for both oracles.
    """

    def __init__(self) -> None:
        self.queries = 0
        self._plans: dict = {}  # admitted modulus -> its plan; none for a refused one

    def query(self, m: int, A: int, B: int, d: int = 1) -> int:
        plan = self._plans.get(m)
        if plan is None:
            plan = self._plans[m] = self._plan(m)
        N = self._recorded(plan, A, B, d)
        if N is None:
            if d != 1:
                A, B = curves.twist(m, A, B, d)  # a ValueError unless gcd(d, m) = 1
            g = curves.screen(m, A, B)  # a module lookup, so bench/tracer.py sees it
            if g != 1:
                raise SingularCurveError(f"gcd(disc, {m}) = {g}; oracle requires smooth curves")
            N = self._count(plan, A, B)
        self.queries += 1
        return N

    def _recorded(self, plan, A: int, B: int, d: int) -> int | None:
        """None: an oracle that keeps no record counts every query."""
        return None


class FactoredOracle(Oracle):
    """Oracle backed by hidden knowledge of the prime factorization.

    Admissible moduli are squarefree products of any subset of the
    configured primes; that covers the cofactors the recursion asks about.
    Each configured prime must be a prime in [5, 2^60), and is refused at
    construction otherwise. A query of the last curve counted on a modulus
    is answered off its record, c_p or 2p + 2 - c_p at each prime by (d|p).
    """

    def __init__(self, primes: list[int]):
        super().__init__()
        primes = sorted(primes)
        if len(set(primes)) != len(primes):
            raise ValueError("FactoredOracle: primes must be distinct")
        # prime -> its character table as a memoryview, or None above the
        # crossover
        self._tables: dict[int, memoryview | None] = {}
        for p in primes:
            chi = counting.character_table(p)  # admits p: a prime in [5, 2^60)
            self._tables[p] = None if chi is None else memoryview(chi)

    def _plan(self, m: int) -> list:
        parts = []
        rest = m
        for p, chi in self._tables.items():
            if rest % p == 0:
                parts.append((p, chi))
                rest //= p
        if rest != 1 or m < 2:
            raise UnsupportedModulusError(
                f"modulus {m} is not a squarefree product of the oracle's primes"
            )
        return [(None, None, ()), tuple(parts)]  # no record yet

    def _recorded(self, plan: list, A: int, B: int, d: int) -> int | None:
        A0, B0, rows = plan[0]
        if A != A0 or B != B0:
            return None
        N = 1
        for p, chi, c, twin in rows:
            x = d % p
            s = chi[x] if chi is not None else jacobi(x, p)
            if s == 0:  # p | d: left to curves.twist, which refuses it
                return None
            N *= c if s == 1 else twin
        return N

    def _count(self, plan: list, A: int, B: int) -> int:
        # counting.count_points_prime is a module lookup, not a copied name,
        # so bench/tracer.py can wrap it
        rows = []
        N = 1
        for p, chi in plan[1]:
            c = counting.count_points_prime(p, A % p, B % p)
            rows.append((p, chi, c, 2 * p + 2 - c))  # n_p + n'_p = 2(p + 1)
            N *= c
        plan[0] = (A, B, tuple(rows))
        return N


class DirectOracle(Oracle):
    """Oracle that factors m itself and counts each prime by brute force."""

    def __init__(self, _unused: int | None = None):
        # No modulus cap: factor_small's 2^64 contract and the brute-force
        # prime limit bound the work. bench/workloads.py calls DirectOracle(m).
        super().__init__()

    def _plan(self, m: int) -> list[int]:
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

    def _count(self, plan: list[int], A: int, B: int) -> int:
        # + 1 at each prime for the point at infinity
        return math.prod(count_affine_bruteforce(p, A % p, B % p) + 1 for p in plan)
