"""Point-counting oracles.

The factoring driver only ever sees `query(m, A, B) -> |E_m|`. Two
implementations are provided: one that knows the prime factorization
(the simulated black box the reduction is measured against) and one that
factors m with `factor_small` and brute-forces each prime, a cross-check.
Both go through the one `Oracle.query`: it admits m once per oracle into
a plan it keeps (so `DirectOracle` factors each modulus once), screens the
curve, tallies the query and hands the plan to the implementation's count,
the product of per-prime counts.

`FactoredOracle` answers a twist of the last curve it counted on a modulus
without counting. At a prime p, a curve E: y^2 = x^3 + Ax + B with
A*B != 0 mod p is the quadratic twist by B/A of the normal form
E_t: y^2 = x^3 + t*x + t, t = A^3/B^2 mod p (Silverman, AEC III.1). E_t has
A*B = t^2, a square, and a twist pair has n_p + n'_p = 2(p + 1), so two
curves with one t have the same count when (AB|p) is the same for both, and
counts summing to 2p + 2 otherwise. Its plan for m, built when m is first
admitted, holds (p, chi) for each prime of m and the record: the last curve
(A0, B0) counted there, as A0^3 mod m, B0^2 mod m and, for each prime, a
row (p, chi, by_symbol).
by_symbol is a 3-tuple indexed by the symbol (AB|p) of a query: entry 1
holds the count for +1 and entry -1 the count for -1, that is c_p and
2p + 2 - c_p in the order that s_p = (A0*B0|p) puts them, c_p the record's
count. A query with A^3*B0^2 = A0^3*B^2 (mod m) has the record's t at
every prime, so it reads one symbol and one entry per prime, in one inline
loop with no count. At a table prime (p <= the crossover in `counting`)
chi is `counting.character_table(p)` as a memoryview and the symbol is
chi[AB mod p]; above the crossover chi is None and the symbol comes from
`jacobi`. The oracle admits each of its primes and takes its chi once,
at construction, and every plan takes chi from there. Any other query is
counted prime by prime through `counting.count_points_prime` and becomes
the new record. A prime where A or B is 0 (j = 0 or 1728, whose classes
can be sextic or quartic twists of one another) gets by_symbol = None in the
record, and a member query has a 0 there too, since A^3*B0^2 = A0^3*B^2
with a smooth curve puts the zero on the same coefficient. It is counted
once per isomorphism class, b*(F_p^*)^6 of y^2 = x^3 + b and a*(F_p^*)^4
of y^2 = x^3 + ax, which one power names exactly: b^((p-1)/gcd(6, p-1))
and a^((p-1)/gcd(4, p-1)) mod p. Those class counts are kept per oracle,
keyed by p, so a cofactor reuses its parent modulus's. The plans, the
class counts and the per-prime chi are the oracle's caches, and live as
long as the oracle instance; a plan is not shared between moduli, since a
cofactor's split draws fresh curves. A refused modulus gets no plan, so it
is refused again on every query. Every answered query is counted, from the
record or not, so the query count does not depend on the plans.
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
    """The one query path: admit m, require a smooth curve, tally the query, count.

    `queries` is the number of answered queries over the oracle's life; a
    refused query is not counted, and a run's cost is the difference across
    it. Subclasses supply two hooks: `_plan(m)` admits m, or raises
    UnsupportedModulusError, and returns m's plan, which `query` keeps for
    the oracle's life; `_count(plan, A, B)` returns |E_m| for a smooth curve
    from that plan. The screen sits between them, so the smoothness contract
    is checked in this one place for both oracles.
    """

    def __init__(self) -> None:
        self.queries = 0
        self._plans: dict = {}  # admitted modulus -> its plan; none for a refused one

    def query(self, m: int, A: int, B: int) -> int:
        plan = self._plans.get(m)
        if plan is None:
            plan = self._plans[m] = self._plan(m)
        g = curves.screen(m, A, B)  # a module lookup, so bench/tracer.py sees it
        if g != 1:
            raise SingularCurveError(f"gcd(disc, {m}) = {g}; oracle requires smooth curves")
        self.queries += 1
        return self._count(plan, A, B)


class FactoredOracle(Oracle):
    """Oracle backed by hidden knowledge of the prime factorization.

    Admissible moduli are squarefree products of any subset of the
    configured primes; that covers the cofactors the recursion asks about.
    Each configured prime must be a prime in [5, 2^60), and is refused at
    construction otherwise.
    """

    def __init__(self, primes: list[int]):
        super().__init__()
        primes = sorted(primes)
        if len(set(primes)) != len(primes):
            raise ValueError("FactoredOracle: primes must be distinct")
        # (p, zero coefficient, class power) -> count, for j = 0 and 1728
        self._classes: dict[tuple[int, int, int], int] = {}
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
        return [None, m, tuple(parts)]

    def _count(self, plan: list, A: int, B: int) -> int:
        # counting.count_points_prime is a module lookup, not a copied name,
        # so bench/tracer.py can wrap it
        record, m, parts = plan
        classes = self._classes
        if record is not None and (A * A * A * record[1] - record[0] * B * B) % m == 0:
            # t = A^3/B^2 is the record's at every prime: where A0*B0 != 0,
            # a quadratic twist of the recorded curve
            ab = A * B
            N = 1
            for p, chi, by_symbol in record[2]:
                if by_symbol is None:  # A = 0 or B = 0 mod p, as for the record
                    N *= _class_count(classes, p, A % p, B % p)
                else:
                    x = ab % p
                    N *= by_symbol[chi[x] if chi is not None else jacobi(x, p)]
            return N
        rows = []
        N = 1
        for p, chi in parts:
            a, b = A % p, B % p
            if a == 0 or b == 0:
                c, by_symbol = _class_count(classes, p, a, b), None
            else:
                c = counting.count_points_prime(p, a, b)
                x = a * b % p
                twin = 2 * p + 2 - c  # n_p + n'_p = 2(p + 1)
                if (chi[x] if chi is not None else jacobi(x, p)) == 1:
                    by_symbol = (None, c, twin)
                else:
                    by_symbol = (None, twin, c)
            rows.append((p, chi, by_symbol))
            N *= c
        plan[0] = (A * A * A % m, B * B % m, rows)
        return N


def _class_count(classes: dict, p: int, a: int, b: int) -> int:
    """The count of y^2 = x^3 + b (a = 0) or y^2 = x^3 + ax (b = 0) mod p,
    once per isomorphism class: b*(F_p^*)^6 is read off b^((p-1)/gcd(6, p-1)),
    and a*(F_p^*)^4 off a^((p-1)/gcd(4, p-1))."""
    if a == 0:
        key = (p, 0, pow(b, (p - 1) // math.gcd(6, p - 1), p))
    else:
        key = (p, 1, pow(a, (p - 1) // math.gcd(4, p - 1), p))
    c = classes.get(key)
    if c is None:
        c = classes[key] = counting.count_points_prime(p, a, b)
    return c


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
