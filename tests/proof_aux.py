"""Exact checks of the paper's proof auxiliaries, and a totient sieve.

They are used only by the tests: the first two are acceptance criterion 10,
and the sieve is the reference for `arith.euler_phi`.
"""

import math

from ecfactor.arith import euler_phi, primes_up_to


def primorial_check(l: int) -> bool:
    """Exact check that the product of the first l primes is >= l^l."""
    if not 1 <= l <= 64:
        raise ValueError("primorial_check: need 1 <= l <= 64")
    primes = primes_up_to(400)  # 64th prime is 311
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
