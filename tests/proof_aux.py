"""Exact checks of the paper's proof auxiliaries, divisor functions and a
totient sieve.

They are used only by the tests: the two checks are acceptance criterion 10,
tau, omega and euler_phi are the references for the census's closed-form
bounds, which lower_bounds_reference evaluates, the sieve is the reference
for euler_phi, and divisors serves the divisor-sum identity of euler_phi.
phi_reference counts phi(p, D) by a plain loop, and euler_sum_reference
sums the Legendre symbols of a curve by Euler's criterion, for any integer
coefficients. special_curves gives the curves of the
classes at j = 0 and j = 1728, whose traces the counting and census tests
check one curve at a time. argparse_reference is the command-line grammar
the CLI's one-pass parser is checked against. bsgs_count_reference,
mul_reference, factor_small_reference, brent_rho_reference,
recover_reference, is_probable_prime_reference, legendre_table_reference and
normal_form_weights_reference are the slow references for eight fast paths:
the Shanks-Mestre count that strips every point order, the scalar
multiplication in Jacobian coordinates, trial division by every prime below
2^12, Brent's rho on signed differences, the ratio recovery's candidates
kept by hand as a progression that stops at the first one >= n, primality
by division by the Miller-Rabin witnesses and then Miller-Rabin, the
character table by scattering squares, and the weights by discrete
logarithms. legendre_count_reference counts a curve by the Legendre sum
over that table at any prime up to about 1e7, above the crossover too.
count_reference counts a curve by Euler's sum over a table of squares, in
chunks, with no code shared with `counting.count_points_prime`, and
ReferenceOracle is `ecfactor.oracle.DirectOracle` counting by it, with no
cap on its primes: the reference for `ecfactor.oracle.FactoredOracle` above
the brute-force limit. LoggingOracle is `ecfactor.oracle.FactoredOracle`
logging every answered query, and recount answers a logged query afresh,
prime by prime through `counting.count_points_prime`, with no record: the
replay of the record path where no independent count reaches.
"""

import argparse
import bisect
import contextlib
import functools
import io
import math
import random
from collections import Counter

import numpy as np

from ecfactor import arith, counting, curves
from ecfactor.arith import factor_small, is_probable_prime, jacobi, primes_between
from ecfactor.oracle import DirectOracle, FactoredOracle, UnsupportedModulusError
from ecfactor.reduction import Recovery


def tau(x: int) -> int:
    """Number of divisors."""
    out = 1
    for _, e in factor_small(x):
        out *= e + 1
    return out


def divisors(x: int) -> list[int]:
    """All divisors of x, sorted increasing."""
    out = [1]
    for p, e in factor_small(x):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def omega(x: int) -> int:
    """Number of distinct prime factors."""
    return len(factor_small(x))


def euler_phi(x: int) -> int:
    out = x
    for p, _ in factor_small(x):
        out = out // p * (p - 1)
    return out


def phi_reference(p: int, D: int) -> int:
    """phi(p, D) by a plain loop: the 1 <= a <= floor(2*sqrt(p)) with
    gcd(a, p+1) <= D, D = 0 read as p + 1, for any p >= 1 and D >= 0."""
    return sum(1 for a in range(1, math.isqrt(4 * p) + 1) if math.gcd(a, p + 1) <= (D or p + 1))


def lower_bounds_reference(p, D):
    """The closed-form bounds with each divisor function factoring afresh."""
    sp = math.sqrt(p)
    b22 = 2 * sp - (2 * sp / D) * tau(p + 1) - tau((p + 1) ** 2)
    P = arith.odd_part(p + 1)
    b23 = sp * euler_phi(P) / P - 2 ** omega(P)
    return b22, b23


def euler_sum_reference(p: int, A: int, B: int) -> int:
    """sum_x (x^3+Ax+B | p) over 0 <= x < p, for an odd prime p and any
    integers A and B, by Euler's criterion in Python integers: the symbol is
    f^((p-1)/2) mod p, with p - 1 read as -1."""
    total = 0
    for x in range(p):
        r = pow(x ** 3 + A * x + B, (p - 1) // 2, p)
        total += -1 if r == p - 1 else r
    return total


def primorial_check(l: int) -> bool:
    """Exact check that the product of the first l primes is >= l^l."""
    if not 1 <= l <= 64:
        raise ValueError("primorial_check: need 1 <= l <= 64")
    primes = primes_between(2, 400)  # 64th prime is 311
    prod = 1
    for q in primes[:l]:
        prod *= q
    return prod >= l ** l


def phi_lower_check(x: int) -> bool:
    """Check phi(x) > x / (4 ln x)."""
    if x < 3:
        raise ValueError("phi_lower_check: need x >= 3")
    return euler_phi(x) > x / (4 * math.log(x))


def totient_sieve(limit: int) -> list[int]:
    """phi(0..limit) in one sweep."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def special_curves(p: int) -> list[tuple[int, int]]:
    """One curve of each F_p-isomorphism class with j = 0 or j = 1728, for a
    prime 5 <= p <= 2^14: y^2 = x^3 + g^i for i < gcd(6, p - 1) and
    y^2 = x^3 + g^i x for i < gcd(4, p - 1), with g a primitive root, whose
    powers g^0, ..., g^(k-1) meet each coset of (F_p*)^k once."""
    g = arith.primitive_root(p)
    curves = [(0, pow(g, i, p)) for i in range(math.gcd(6, p - 1))]
    return curves + [(pow(g, i, p), 0) for i in range(math.gcd(4, p - 1))]


def argparse_reference(argv: list[str]):
    """(command, values) that argparse reads from argv, or None when it
    refuses argv: the slow reference for `ecfactor.cli.parse`, the grammar of
    `ecfactor.cli.COMMANDS` built with argparse's subparsers. Unlike `parse`,
    argparse takes unambiguous prefixes of an option and reads a value like
    `-1,2` after `--opt` as an option, not a value."""
    parser = argparse.ArgumentParser(prog="ecfactor")
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor")
    p_factor.add_argument("n", type=int)
    p_factor.add_argument("--D", type=int, default=12)
    p_factor.add_argument("--max-d", type=int, default=None)
    p_factor.add_argument("--max-curves", type=int, default=None)
    p_factor.add_argument("--seed", type=int, default=0)
    p_factor.add_argument("--oracle", choices=("factored", "direct"), default="factored")

    p_census = sub.add_parser("census")
    p_census.add_argument("--pmin", type=int, default=5)
    p_census.add_argument("--pmax", type=int, required=True)
    p_census.add_argument("--D-list", dest="D_list", default="1,2,3,5,10")
    p_census.add_argument("--out", default="-")
    p_census.add_argument("--classes-max", type=int, default=1000)

    p_count = sub.add_parser("count")
    p_count.add_argument("n", type=int)
    p_count.add_argument("A", type=int)
    p_count.add_argument("B", type=int)

    p_nr = sub.add_parser("nonresidue")
    p_nr.add_argument("p", type=int)
    p_nr.add_argument("m", type=int)
    p_nr.add_argument("--cap", type=int, default=10 ** 4)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            values = vars(parser.parse_args(argv))
    except SystemExit:
        return None
    return values.pop("command"), values


def mul_reference(k: int, P, a: int, p: int):
    """[k]P on Y^2 = X^3 + aX + b for k >= 0, by right-to-left double-and-add
    in affine coordinates, one modular inverse per group operation in
    `counting._add`: the slow reference for `counting._mul`."""
    R = None
    while k:
        if k & 1:
            R = counting._add(R, P, a, p)
        k >>= 1
        if k:
            P = counting._add(P, P, a, p)
    return R


def bsgs_count_reference(p: int, A: int, B: int) -> int:
    """#E(F_p) for 0 <= A, B < p, p > 229, by the Shanks-Mestre walk of
    `counting` with every baby-step/giant-step match stripped to the exact
    point order, also a match in the upper half of its interval, and every
    scalar multiplication outside `counting._bsgs` taken by `mul_reference`."""
    r = math.isqrt(4 * p)
    lo, hi = p + 1 - r, p + 1 + r
    L = [1, 1]  # lcm of the point orders seen on E and on its twist
    for x0 in range(p):
        f = ((x0 * x0 + A) * x0 + B) % p
        if f == 0:
            continue
        side = (1 - jacobi(f, p)) // 2
        a = A * f * f % p
        Q = mul_reference(L[side], (x0 * f % p, f * f % p), a, p)
        if Q is not None:
            k = counting._bsgs(Q, -(-lo // L[side]), hi // L[side], a, p)
            for q, e in factor_small(k):  # strip k down to the order of Q
                for _ in range(e):
                    if mul_reference(k // q, Q, a, p) is not None:
                        break
                    k //= q
            L[side] *= k
        N = counting._unique_count(p, lo, hi, L[0], L[1])
        if N is not None:
            return N
    raise ArithmeticError(f"no unique count for ({A},{B}) mod {p}")


def factor_small_reference(x: int) -> tuple[tuple[int, int], ...]:
    """`arith.factor_small` without its shortcut: trial division by every
    prime below 2^12 until q^2 exceeds what is left, then the same decision
    on the cofactor."""
    if x < 1:
        raise ValueError("factor_small: x must be >= 1")
    n = x
    factors = []
    for q in arith._TRIAL_PRIMES:
        if q * q > x:
            break
        if x % q == 0:
            e = 0
            while x % q == 0:
                x //= q
                e += 1
            factors.append((q, e))
    if x > arith._TRIAL_LIMIT ** 2 and not is_probable_prime(x):
        if n > arith._RHO_LIMIT:
            raise ValueError(
                f"factor_small: {n} is above 2^64 and its cofactor {x} after "
                f"trial division to {arith._TRIAL_LIMIT} is composite"
            )
        factors += sorted(Counter(arith._rho_primes(x)).items())
    elif x > 1:
        factors.append((x, 1))
    return tuple(factors)


def brent_rho_reference(x: int, c: int) -> int:
    """`arith._brent_rho` with the absolute value of every difference taken
    before it is multiplied in or its gcd with x is taken."""
    y, r, prod, g = 2, 1, 1, 1
    while g == 1:
        x0 = y
        for _ in range(r):
            y = (y * y + c) % x
        k = 0
        while k < r and g == 1:
            y_saved = y
            for _ in range(min(64, r - k)):
                y = (y * y + c) % x
                prod = prod * abs(x0 - y) % x
            g = math.gcd(prod, x)
            k += 64
        r *= 2
    if g == x:
        g = 1
        while g == 1:
            y_saved = (y_saved * y_saved + c) % x
            g = math.gcd(abs(x0 - y_saved), x)
    return g


def recover_reference(N: int, Nd: int, D: int, n: int) -> Recovery | None:
    """`reduction.recover_from_ratio` with its candidates g*s/2 - 1 taken by
    one addition per multiplier g, and the scan stopped at the first
    candidate >= n."""
    if N < 1 or Nd < 1:
        raise ValueError("recover_from_ratio: counts must be >= 1")
    s = (N + Nd) // math.gcd(N, Nd)  # numerator + denominator of N/Nd
    step = 1 + s % 2
    h = step * s // 2  # the candidates g*s/2 - 1 step by h as g steps by step
    cand = -1
    for g in range(step, 2 * D + 1, step):
        cand += h
        if cand >= n:
            break
        if cand > 1 and n % cand == 0:
            return Recovery(cand, g)
    return None


def is_probable_prime_reference(x: int) -> bool:
    """`arith.is_probable_prime` by division by the 13 Miller-Rabin witnesses,
    then the witnesses x needs, and 64 seeded random ones above psi_13."""
    if x < 2:
        return False
    for p in arith._MR_WITNESSES:
        if x % p == 0:
            return x == p
    k = bisect.bisect_right(arith._MR_PSI, x) + 1  # witnesses x needs; 14 above psi_13
    if not all(arith._miller_rabin(x, w) for w in arith._MR_WITNESSES[:k]):
        return False
    if k <= len(arith._MR_PSI):
        return True
    rng = random.Random(x)
    return all(arith._miller_rabin(x, rng.randrange(2, x - 1)) for _ in range(64))


@functools.lru_cache(maxsize=4)  # the counts of one test at one prime share it
def legendre_table_reference(p: int) -> np.ndarray:
    """The int8 table of (x | p) for 0 <= x < p and an odd prime p, by
    scattering squares: every entry starts at -1, the (p-1)/2 values x^2 mod p
    for 1 <= x <= (p-1)/2 (exactly the nonzero squares) are set to 1, and
    entry 0 to 0."""
    chi = np.full(p, -1, dtype=np.int8)
    x = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    chi[x * x % p] = 1
    chi[0] = 0
    return chi


def legendre_count_reference(p: int, A: int, B: int) -> int:
    """p + 1 + sum_x (x^3+Ax+B | p) over `legendre_table_reference`, for a
    prime p and 0 <= A, B < p; about 24p bytes of transient arrays."""
    x = np.arange(p, dtype=np.int64)
    f = (x * x % p + A) * x + B  # Horner: every intermediate stays below 2p^2 + p
    f %= p
    return p + 1 + int(legendre_table_reference(p)[f].sum())


def normal_form_weights_reference(p: int) -> np.ndarray:
    """The weights w(s) of `counting` for a prime 5 <= p <= 2^14, by discrete
    logarithms to the least primitive root g: log s = 3 log x - log(x + 1)
    mod p - 1 for x != 0, -1, one bincount of chi(x + 1) by log s, and one
    gather at log s; x = 0 is the one x with s = 0. An int16 array."""
    g = arith.primitive_root(p)
    power = [1]
    for _ in range(p - 2):
        power.append(power[-1] * g % p)
    log = np.zeros(p, dtype=np.int64)  # g^log[x] = x for 0 < x < p
    log[power] = np.arange(p - 1)
    e = (3 * log[1 : p - 1] - log[2:]) % (p - 1)  # log s for x = 1 .. p - 2
    by_log = np.bincount(e, weights=legendre_table_reference(p)[2:], minlength=p - 1)
    w = np.empty(p, dtype=np.int16)
    w[0] = 1  # x = 0, the one x with s = 0
    w[1:] = by_log[log[1:]]
    return w


def count_reference(p: int, A: int, B: int) -> int:
    """#E(F_p) = p + 1 + sum_x (x^3+Ax+B | p) for an odd prime p and any
    integers A and B. The nonzero squares mod p are flagged in one uint8
    table of p bytes, and f(x) is evaluated for 2^20 x at a time in int64,
    exact for p < 2^31."""
    A, B = A % p, B % p
    square = np.zeros(p, dtype=np.uint8)
    for lo in range(1, (p + 1) // 2, 1 << 20):
        y = np.arange(lo, min(lo + (1 << 20), (p + 1) // 2), dtype=np.int64)
        square[y * y % p] = 1
    total = p + 1
    for lo in range(0, p, 1 << 20):
        x = np.arange(lo, min(lo + (1 << 20), p), dtype=np.int64)
        f = ((x * x % p + A) * x + B) % p  # every intermediate stays below 2p^2 + p
        # (f | p) is 1 on a flagged f, 0 at f = 0 and -1 elsewhere
        total += 2 * int(square[f].sum(dtype=np.int64)) - len(f) + int((f == 0).sum())
    return total


class ReferenceOracle(DirectOracle):
    """`ecfactor.oracle.DirectOracle` that admits a squarefree m with prime
    factors >= 5 by `factor_small`, with no cap on the primes, and counts
    each prime by `count_reference`."""

    def _plan(self, m: int) -> list[int]:
        if m < 2:
            raise UnsupportedModulusError(f"modulus {m} must be >= 2")
        facts = factor_small(m)
        if facts[0][0] < 5 or any(e > 1 for _, e in facts):
            raise UnsupportedModulusError(
                f"modulus {m} must be squarefree with prime factors >= 5"
            )
        return [p for p, _ in facts]

    def _count(self, plan: list[int], A: int, B: int) -> int:
        return math.prod(count_reference(p, A, B) for p in plan)


class LoggingOracle(FactoredOracle):
    """`ecfactor.oracle.FactoredOracle` that logs (m, A, B, d, N) for every
    answered query in `log`."""

    def __init__(self, primes: list[int]):
        super().__init__(primes)
        self.log: list[tuple[int, int, int, int, int]] = []

    def query(self, m: int, A: int, B: int, d: int = 1) -> int:
        N = super().query(m, A, B, d)
        self.log.append((m, A, B, d, N))
        return N


def recount(primes: list[int], m: int, A: int, B: int, d: int) -> int:
    """|E^d_m| as the product over the primes p of m of
    `counting.count_points_prime` on E^d mod p: a fresh count at every prime,
    with no record."""
    return math.prod(
        counting.count_points_prime(p, *curves.twist(p, A, B, d)) for p in primes if m % p == 0
    )
