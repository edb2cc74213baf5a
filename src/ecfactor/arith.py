"""Exact integer arithmetic kernel.

Everything here works on plain Python ints (arbitrary precision), so there
is no overflow anywhere in the pipeline. Factoring is trial division by
the primes below 2**12, a table the module's sieve builds once, followed by
one decision on the cofactor: 1 or a prime is kept, and a composite is split
by Brent's rho. An x above 2**24 that is coprime to the product of those
primes skips the trial loop: one gcd (about 4 us) shows the loop would find
nothing, where the loop takes 40-60 us on a `factor-cold` n. Rho runs only
on inputs up to 2**64, where it takes about 2**16 steps at most; above that
a composite cofactor is refused. That contract is checked once, on the
cofactor. The factoring algorithm proper never calls it on anything it could
not handle.

Primality rests on the same table and product. An x <= 2**12 is looked up
in the table. A larger x is composite when it shares a factor with the
product, and otherwise has no prime factor below 2**12, so it is prime
when x <= 2**24; only a coprime x above 2**24 runs Miller-Rabin. A
composite with a prime below 2**12, such as each of the 280 composite
cofactors a `factor-twist` batch tests (products of 2-8 primes in
[1e3, 2e3]), is settled by that one gcd, with no modular power.
`factor_small` takes the gcd once per x and hands its cofactor, which has
no prime below 2**12, straight to the Miller-Rabin step.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from math import gcd, isqrt


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a|m) for odd m >= 1; equals Legendre when m is prime.

    Negative a is reduced mod m first, so signed traces can be passed in.
    """
    if m <= 0 or m % 2 == 0:
        raise ValueError("jacobi: modulus must be odd and positive, got %r" % (m,))
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


# Miller-Rabin witnesses, the first 13 primes. _MR_PSI[k - 1] is psi_k, the
# least odd composite that is a strong pseudoprime to each of the first k
# (OEIS A014233), so the first k witnesses decide every x < psi_k.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


def _miller_rabin(x: int, base: int) -> bool:
    d = x - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    b = pow(base % x, d, x)
    if b == 1 or b == x - 1:
        return True
    for _ in range(s - 1):
        b = b * b % x
        if b == x - 1:
            return True
    return False


def is_probable_prime(x: int) -> bool:
    """Primality test: deterministic below 3.3e24, error < 2**-128 above."""
    if x <= _TRIAL_LIMIT:
        return x in _TRIAL_PRIME_SET
    return gcd(x, _TRIAL_PRODUCT) == 1 and _sieved_is_prime(x)


def _sieved_is_prime(x: int) -> bool:
    """Primality of an x > 2**12 with no prime factor below 2**12: prime up
    to 2**24, and decided by Miller-Rabin above."""
    if x <= _TRIAL_LIMIT ** 2:
        return True
    k = bisect.bisect_right(_MR_PSI, x) + 1  # witnesses x needs; 14 above psi_13
    if not all(_miller_rabin(x, w) for w in _MR_WITNESSES[:k]):
        return False
    if k <= len(_MR_PSI):
        return True
    rng = random.Random(x)
    return all(_miller_rabin(x, rng.randrange(2, x - 1)) for _ in range(64))


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi by Eratosthenes, sieving [lo, hi] alone.

    The composites there are crossed out by the primes up to isqrt(hi), which
    come from the same sieve and end the recursion at hi < 4, so memory is
    O(hi - lo + sqrt(hi)), however large hi is, and a narrow range near
    1e10 takes milliseconds.
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    segment = bytearray([1]) * (hi - lo + 1)
    for p in primes_between(2, isqrt(hi)):
        first = max(p * p, -(-lo // p) * p) - lo
        segment[first::p] = bytearray(len(segment[first::p]))
    return [lo + i for i, flag in enumerate(segment) if flag]


# Trial division stops here; every x <= _TRIAL_LIMIT**2 is factored by it alone.
# Below about 2**12 a trial step costs less than the primality tests rho needs
# for each piece it splits off.
_TRIAL_LIMIT = 1 << 12

# The primes trial division divides by, built once, and their product.
_TRIAL_PRIMES = tuple(primes_between(2, _TRIAL_LIMIT))
_TRIAL_PRIME_SET = frozenset(_TRIAL_PRIMES)
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)

# Rho runs only on cofactors of inputs up to here.
_RHO_LIMIT = 1 << 64


def _brent_rho(x: int, c: int) -> int:
    """A divisor of the odd composite x from Brent's rho on y -> y^2 + c, start 2.

    Differences are multiplied in batches of 64 between gcds; a batch that
    overshoots to gcd = x is replayed one step at a time. They are signed:
    the product then differs from that of their absolute values at most in
    sign mod x, which no gcd with x sees. Returns x when this c fails, and
    the caller tries the next c.
    """
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
                prod = prod * (x0 - y) % x
            g = gcd(prod, x)
            k += 64
        r *= 2
    if g == x:
        g = 1
        while g == 1:
            y_saved = (y_saved * y_saved + c) % x
            g = gcd(x0 - y_saved, x)
    return g


def _rho_primes(x: int) -> list[int]:
    """Prime factors with multiplicity of a composite x with no prime factor
    below 2**12, split by rho; each part split off is tested once, and only
    a composite part is split again."""
    c = 1
    while (f := _brent_rho(x, c)) == x:
        c += 1
    return [q for part in (f, x // f)
            for q in ([part] if _sieved_is_prime(part) else _rho_primes(part))]


def factor_small(x: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of x, primes increasing, by trial division
    by the primes below 2**12, then Brent's rho on a composite cofactor.
    Above 2**64, x is refused unless that cofactor is 1 or prime."""
    if x < 1:
        raise ValueError("factor_small: x must be >= 1")
    n = x
    factors = []
    trial = _TRIAL_PRIMES
    if x > _TRIAL_LIMIT ** 2 and gcd(x, _TRIAL_PRODUCT) == 1:
        trial = ()  # the loop would run to its end and divide nothing out
    for q in trial:
        if q * q > x:
            break
        if x % q == 0:
            e = 0
            while x % q == 0:
                x //= q
                e += 1
            factors.append((q, e))
    # x is 1 or prime if the loop stopped at q*q > x, and otherwise has no
    # prime factor below 2**12; either way x <= 2**24 is 1 or prime
    if x > _TRIAL_LIMIT ** 2 and not _sieved_is_prime(x):
        if n > _RHO_LIMIT:
            raise ValueError(
                f"factor_small: {n} is above 2^64 and its cofactor {x} after "
                f"trial division to {_TRIAL_LIMIT} is composite"
            )
        factors += sorted(Counter(_rho_primes(x)).items())
    elif x > 1:
        factors.append((x, 1))
    return tuple(factors)


def primitive_root(p: int) -> int:
    """The least primitive root mod an odd prime p: the least g >= 2 with
    g^((p-1)/q) != 1 mod p for every prime q | p - 1."""
    qs = [q for q, _ in factor_small(p - 1)]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def odd_part(x: int) -> int:
    """Largest odd divisor of x."""
    if x < 1:
        raise ValueError("odd_part: x must be >= 1")
    return x >> ((x & -x).bit_length() - 1)
