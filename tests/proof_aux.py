"""Exact checks of the paper's proof auxiliaries, divisor functions and a
totient sieve.

They are used only by the tests: the two checks are acceptance criterion 10,
tau, omega and euler_phi are the references for the census's closed-form
bounds, the sieve is the reference for euler_phi, and divisors serves the
divisor-sum identity of euler_phi. special_curves gives the curves of the
classes at j = 0 and j = 1728, whose traces the counting and census tests
check one curve at a time.
"""

import math

from ecfactor.arith import factor_small, primes_between
from ecfactor.counting import discrete_logs


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
    g, _ = discrete_logs(p)
    curves = [(0, pow(g, i, p)) for i in range(math.gcd(6, p - 1))]
    return curves + [(pow(g, i, p), 0) for i in range(math.gcd(4, p - 1))]
