"""Point-counting oracles.

The factoring driver only ever sees `query(m, A, B) -> |E_m|`. Two
implementations are provided: one that knows the prime factorization
(the simulated black box the reduction is measured against) and one that
factors m with `factor_small` and brute-forces each prime, a cross-check.
Both go through the one `Oracle.query`: it admits m once into a plan,
screens the curve, tallies the query and hands the plan to the
implementation's count, the product of per-prime counts.

`FactoredOracle` counts each quadratic twist class once per prime of a
modulus. At a prime p, a curve E: y^2 = x^3 + Ax + B with A*B != 0 mod p is
the quadratic twist by B/A of the normal form E_t: y^2 = x^3 + t*x + t,
t = A^3/B^2 mod p (Silverman, AEC III.1), so a_p(E) = (AB|p)*a_t with a_t
the trace of E_t. Its plan for m is a tuple with one state per prime of m,
built when m is first admitted: (p, p - 1, g, log, memo), with memo mapping
a twist class to a_t. The plans are the oracle's one cache; a state is not
shared between moduli, since a cofactor's split draws fresh curves. At a
prime with a character table (p <= the crossover in `counting`), g and log
come from `counting.discrete_logs(p)`, log as a memoryview. The count reads
la = log_g A and lb = log_g B off it: the memo key is 3*la - 2*lb mod p - 1,
which is log_g t, and (AB|p) = (-1)^(la + lb), as the primitive root g is a
non-residue. A twist E^d has A*d^2 and B*d^3, so the same key, and a hit
takes no modular power and no method call. Above the crossover g and log
are None, the key is t = A^3 * B^-2 mod p, and (AB|p) comes from Euler's
criterion, (AB)^((p-1)/2) mod p. Each memo belongs to one prime, so the two
kinds of key never meet. On a miss the memo counts E_t through
`counting.count_points_prime`. A curve with A = 0 or B = 0 mod p (j = 0 or
1728, whose classes can be sextic or quartic twists of one another) is
counted in full. A refused modulus gets no plan, so it is refused again on
every query. Plans live as long as the oracle instance. Every answered
query is counted, hit or not, so the query count does not depend on them.
"""

from __future__ import annotations

import math

from . import counting, curves
from .arith import factor_small
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
    UnsupportedModulusError, and returns what the count needs to know about
    m; `_count(plan, A, B)` returns |E_m| for a smooth curve from that plan.
    The screen sits between them, so the smoothness contract is checked in
    this one place for both oracles.
    """

    def __init__(self) -> None:
        self.queries = 0

    def query(self, m: int, A: int, B: int) -> int:
        plan = self._plan(m)
        g = curves.screen(m, A, B)  # a module lookup, so bench/tracer.py sees it
        if g != 1:
            raise SingularCurveError(f"gcd(disc, {m}) = {g}; oracle requires smooth curves")
        self.queries += 1
        return self._count(plan, A, B)


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
        # admitted modulus -> (p, p - 1, g, log, memo) for each of its primes
        self._plans: dict[int, tuple[tuple, ...]] = {}

    def _plan(self, m: int) -> tuple[tuple, ...]:
        plan = self._plans.get(m)
        if plan is not None:
            return plan
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
        states = []
        for p in parts:
            found = counting.discrete_logs(p)
            g, log = (None, None) if found is None else (found[0], memoryview(found[1]))
            states.append((p, p - 1, g, log, {}))
        self._plans[m] = plan = tuple(states)
        return plan

    def _count(self, plan: tuple[tuple, ...], A: int, B: int) -> int:
        # counting.count_points_prime is a module lookup, not a copied name,
        # so bench/tracer.py can wrap it
        N = 1
        for p, p1, g, log, memo in plan:
            a, b = A % p, B % p
            if log is None or a == 0 or b == 0:
                N *= self._count_prime(p, memo, a, b)
                continue
            la, lb = log[a], log[b]  # memoryview items are ints, and quicker than numpy's
            e = (3 * la - 2 * lb) % p1  # log_g t
            at = memo.get(e)
            if at is None:
                t = pow(g, e, p)
                at = memo[e] = p + 1 - counting.count_points_prime(p, t, t)
            # (AB|p) = (g|p)^(la + lb), and a primitive root is a non-residue
            N *= p + 1 + at if (la + lb) & 1 else p + 1 - at
        return N

    @staticmethod
    def _count_prime(p: int, memo: dict[int, int], A: int, B: int) -> int:
        """The count at p for 0 <= A, B < p off the log path: A = 0 or B = 0,
        or p above the crossover, where memo is keyed by t itself."""
        if A == 0 or B == 0:
            return counting.count_points_prime(p, A, B)
        t = A ** 3 * pow(B, -2, p) % p
        at = memo.get(t)
        if at is None:
            at = memo[t] = p + 1 - counting.count_points_prime(p, t, t)
        # Euler's criterion: (AB)^((p-1)/2) is 1 or p - 1, as (AB|p) is 1 or -1
        return p + 1 - at if pow(A * B, p >> 1, p) == 1 else p + 1 + at


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
