import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecfactor import arith
from ecfactor.arith import (
    _MR_WITNESSES,
    _miller_rabin,
    factor_small,
    gcd,
    is_probable_prime,
    isqrt,
    jacobi,
    odd_part,
    primes_between,
    primitive_root,
)
from proof_aux import (
    brent_rho_reference,
    divisors,
    euler_phi,
    factor_small_reference,
    is_probable_prime_reference,
    omega,
    tau,
    totient_sieve,
)


def test_gcd_examples():
    assert gcd(45, 15) == 15
    assert gcd(0, 7) == 7
    assert gcd(12, 35) == 1
    assert gcd(0, 0) == 0


class TestJacobi:
    def test_examples(self):
        assert jacobi(2, 5) == -1
        assert jacobi(2, 7) == 1
        assert jacobi(5, 35) == 0
        for m in range(1, 100, 2):
            assert jacobi(1, m) == 1

    def test_brute_force_squares_mod_small_primes(self):
        for p in (5, 7, 11, 13):
            squares = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                assert jacobi(a, p) == (1 if a in squares else -1)

    def test_rejects_even_or_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            jacobi(3, 4)
        with pytest.raises(ValueError):
            jacobi(3, 0)

    def test_negative_argument_reduced(self):
        assert jacobi(-1, 5) == jacobi(4, 5)

    def test_multiplicative(self):
        rng = random.Random(1)
        for _ in range(10 ** 4):
            m = 2 * rng.randrange(1, 5000) + 1
            a = rng.randrange(-10 ** 6, 10 ** 6)
            b = rng.randrange(-10 ** 6, 10 ** 6)
            assert jacobi(a * b, m) == jacobi(a, m) * jacobi(b, m)

    def test_euler_criterion_all_primes_below_1000(self):
        for p in primes_between(2, 999):
            if p == 2:
                continue
            for a in range(1, p):
                assert jacobi(a, p) % p == pow(a, (p - 1) // 2, p)


class TestIsqrt:
    def test_examples(self):
        assert isqrt(16) == 4
        assert isqrt(24) == 4
        assert isqrt(20) == 4  # floor(2*sqrt(5))

    @settings(max_examples=300)
    @given(st.integers(min_value=0, max_value=10 ** 40))
    def test_bracketing(self, x):
        t = isqrt(x)
        assert t * t <= x < (t + 1) * (t + 1)

    def test_bracketing_bulk(self):
        rng = random.Random(2)
        for _ in range(10 ** 5):
            x = rng.randrange(10 ** 12)
            t = isqrt(x)
            assert t * t <= x < (t + 1) * (t + 1)


class TestPrimitiveRoot:
    def test_least_primitive_root_to_1000_and_at_16381(self):
        # g has order p - 1, and no smaller h >= 2 reaches every residue
        for p in primes_between(3, 1000) + [16381]:
            g = primitive_root(p)
            assert len({pow(g, i, p) for i in range(p - 1)}) == p - 1, p
            for h in range(2, g):
                assert len({pow(h, i, p) for i in range(p - 1)}) < p - 1, (p, h)


class TestFactorSmall:
    def test_reconstruction_and_ordering(self):
        for x in list(range(1, 2000)) + [2 ** 61 - 1, 10 ** 12 + 39]:
            f = factor_small(x)
            assert math.prod(p ** e for p, e in f) == x
            ps = [p for p, _ in f]
            assert ps == sorted(ps)
            assert all(is_probable_prime(p) for p in ps)
            assert all(e >= 1 for _, e in f)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor_small(0)
        with pytest.raises(ValueError, match="odd_part: x must be >= 1"):
            odd_part(0)

    def test_rho_retries_with_the_next_c(self):
        # 14591 * 20341 is above 2^24 with no prime factor below 2^12, and
        # rho at c = 1 meets both primes at once, so factor_small tries c = 2
        x = 296795531
        assert x == 14591 * 20341 and x > 2 ** 24
        assert math.gcd(x, math.prod(arith._TRIAL_PRIMES)) == 1
        assert arith._brent_rho(x, 1) == x
        assert factor_small(x) == ((14591, 1), (20341, 1))

    def test_matches_trial_division_to_2_40(self):
        # every x <= 3*10^4, then semiprimes to 2^40: factors above the
        # trial-division bound 2**12 are split by rho, including squares and
        # cubes; small cofactors mix both paths, and the cases around 4096^2
        # sit where the prime table ends
        def trial_division(x):
            factors, d = [], 2
            while d * d <= x:
                e = 0
                while x % d == 0:
                    x //= d
                    e += 1
                if e:
                    factors.append((d, e))
                d += 1 if d == 2 else 2
            if x > 1:
                factors.append((x, 1))
            return tuple(factors)

        def prime_of(bits):
            while True:
                x = rng.getrandbits(bits) | 1 << (bits - 1) | 1
                if is_probable_prime(x):
                    return x

        rng = random.Random(40)
        samples = list(range(1, 3 * 10 ** 4 + 1))
        for _ in range(40):
            b = rng.randrange(6, 21)
            p = prime_of(b)
            samples += [p * prime_of(rng.randrange(b, 41 - b)), p * p]
        samples += [12 * 4099 * 4111, 7 * 4099 ** 3, 4095 * 4097]
        samples += [4093 ** 2, 4093 * 4099, 4099 ** 2, 4096 ** 2 - 1, 4096 ** 2 + 1,
                    4093 * 4099 * 4111]
        for x in samples:
            assert x < 2 ** 40
            assert factor_small(x) == trial_division(x), x

    def test_size_contract_above_2_64(self):
        # above 2^64 only inputs that trial division to 2^12 reduces to 1 or a
        # prime are factored; rho would need about 2^30 steps on p * q below
        p, q = 2 ** 61 - 1, 2 ** 89 - 1
        start = time.perf_counter()
        with pytest.raises(ValueError, match=str(p * q)):
            factor_small(p * q)
        with pytest.raises(ValueError, match=str(4093 * p * q)):
            factor_small(4093 * p * q)
        assert time.perf_counter() - start < 1.0
        assert factor_small(4093 * q) == ((4093, 1), (q, 1))
        x = 6 * 4093 ** 2 * 4091 * 1009 ** 8
        assert math.prod(p ** e for p, e in factor_small(x)) == x
        # at and below 2^64 rho still splits what trial division leaves
        assert factor_small(4294967291 * 4294967279) == (
            (4294967279, 1), (4294967291, 1)
        )

    def test_brent_rho_matches_the_abs_reference(self):
        # seeded odd composites up to 2^64 with no prime factor below 2^12:
        # semiprimes with a least prime of 13 to 22 bits, squares, three
        # primes, and a few balanced near 2^64, at every c the caller tries
        def prime_in(lo, hi):
            while True:
                x = rng.randrange(lo, hi)
                if is_probable_prime(x):
                    return x

        rng = random.Random(35)
        samples = []
        for _ in range(66):
            p = prime_in(2 ** 12, 2 ** rng.randrange(13, 23))
            samples += [p * prime_in(p, 2 ** 64 // p), p * p]
            samples.append(p * prime_in(2 ** 12, 2 ** 20) * prime_in(2 ** 12, 2 ** 20))
        samples += [prime_in(2 ** 31, 2 ** 32) * prime_in(2 ** 31, 2 ** 32) for _ in range(4)]
        for x in samples:
            assert x < 2 ** 64 and math.gcd(x, math.prod(arith._TRIAL_PRIMES)) == 1, x
            for c in (1, 2, 3):
                assert arith._brent_rho(x, c) == brent_rho_reference(x, c), (x, c)
        assert len(samples) >= 200

    def test_matches_the_full_trial_loop_above_2_24(self):
        # above 2^24 an x coprime to every trial prime skips the trial loop
        def prime_in(lo, hi):
            while True:
                x = rng.randrange(lo, hi)
                if is_probable_prime(x):
                    return x

        rng = random.Random(24)
        samples = []
        for _ in range(30):
            p, q = prime_in(4097, 2 ** 24), prime_in(4097, 2 ** 24)
            samples += [p * q, 5 * 7 * p * q, 2 ** rng.randrange(1, 17) * p * q, 4093 * q]
        samples += [prime_in(2 ** 24, 2 ** 40), prime_in(2 ** 63, 2 ** 64)]
        samples += [2 ** 64 - k for k in range(1, 60, 2)] + [2 ** 24 + 1, 4099 * 4111]
        for x in samples:
            assert x > 2 ** 24
            assert factor_small(x) == factor_small_reference(x), x
        # above 2^64 both factor what trial division leaves 1 or prime, and
        # refuse a composite cofactor with one message
        for x in (2 ** 64 + 13, 2 ** 64 + 1, (2 ** 61 - 1) * (2 ** 89 - 1),
                  5 * 7 * (2 ** 89 - 1), 2 ** 5 * 4093 * (2 ** 61 - 1)):
            try:
                expected = factor_small_reference(x)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    factor_small(x)
                assert str(got.value) == str(e)
            else:
                assert factor_small(x) == expected, x

    def test_derived_functions(self):
        assert tau(36) == 9
        assert euler_phi(6) == 2
        assert odd_part(6) == 3
        assert omega(30) == 3
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_totient_divisor_sum_identity(self):
        # sum over d | m of phi(d) = m
        for m in range(1, 10 ** 4 + 1):
            assert sum(euler_phi(d) for d in divisors(m)) == m

    def test_totient_sieve_matches_factored_phi(self):
        phi = totient_sieve(3000)
        for m in range(1, 3001):
            assert phi[m] == euler_phi(m)


class TestPrimality:
    def test_examples(self):
        assert is_probable_prime(7)
        assert not is_probable_prime(35)
        assert not is_probable_prime(1)

    def test_against_sieve(self):
        primes = set(primes_between(2, 10 ** 4))
        for x in range(10 ** 4 + 1):
            assert is_probable_prime(x) == (x in primes)

    def test_segment_sieve_matches_full_sieve(self):
        for lo, hi in [(0, 3000), (2, 2), (5, 7), (24, 28), (1000, 1010), (2909, 3000),
                       (3000, 2999), (-5, 1)]:
            expected = [x for x in range(lo, hi + 1) if is_probable_prime(x)]
            assert primes_between(lo, hi) == expected, (lo, hi)
        for limit in range(-1, 51):  # the base case of the recursion is hi < 4
            assert primes_between(2, limit) == [x for x in range(limit + 1) if is_probable_prime(x)]
        near = range(10 ** 10 - 1000, 10 ** 10 + 1)
        assert primes_between(near[0], near[-1]) == [x for x in near if is_probable_prime(x)]

    def test_large_values(self):
        assert is_probable_prime(2 ** 127 - 1)
        assert not is_probable_prime((2 ** 61 - 1) * (2 ** 89 - 1))

    def test_cached_answers_equal_cold_ones(self):
        # psi_k and its even neighbours, Carmichael numbers, base-2 strong
        # pseudoprimes, and primes among them
        psi = [row[0] for row in self.PSI]
        carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                      321197185, 5394826801, 232250619601, 9746347772161]
        spsp2 = [2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633,
                 65281, 74665, 80581, 85489, 88357, 90751]
        primes = [1000003, 2 ** 31 - 1, 4294967291, 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1]
        xs = [x + e for x in psi for e in (-1, 0, 1)] + carmichael + spsp2 + primes
        # the primality test keeps no cache: a repeat of a sequence answers alike
        cold = [is_probable_prime(x) for x in xs]
        warm = [is_probable_prime(x) for x in xs]
        assert warm == cold == [x in primes for x in xs]

    # psi_k (OEIS A014233), the least odd composite that is a strong
    # pseudoprime to each of the first k prime bases, with its factors
    PSI = [
        (2047, (23, 89)),
        (1373653, (829, 1657)),
        (25326001, (2251, 11251)),
        (3215031751, (151, 751, 28351)),
        (2152302898747, (6763, 10627, 29947)),
        (3474749660383, (1303, 16927, 157543)),
        (341550071728321, (10670053, 32010157)),
        (341550071728321, (10670053, 32010157)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (318665857834031151167461, (399165290221, 798330580441)),
        (3317044064679887385961981, (1287836182261, 2575672364521)),
    ]

    def test_matches_the_witness_division_reference(self):
        # the table to 2^12, one gcd with the trial product to 2^24, and
        # Miller-Rabin only past it, against division by the 13 witnesses
        # and Miller-Rabin on everything else
        rng = random.Random("primality reference")
        xs = list(range(-2, 1 << 16))
        xs += [rng.randrange((1 << 16) + 1, (1 << 24) + 1) for _ in range(20000)]
        pool = primes_between(1000, 2000)  # the factor-twist cofactors
        xs += [math.prod(rng.sample(pool, k)) for k in range(2, 9) for _ in range(300)]
        # above 2^64 with a prime below 2^12
        xs += [rng.choice(arith._TRIAL_PRIMES) * rng.randrange(1 << 64, 1 << 90)
               for _ in range(300)]
        # the least composites the gcd cannot see: two primes above 2^12
        above = primes_between(1 << 12, 4400)
        xs += [q * r for i, q in enumerate(above) for r in above[i:]]
        xs += [psi + e for psi in arith._MR_PSI for e in (-2, 0, 2)]
        xs += [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
               5394826801, 232250619601, 9746347772161]
        psi_13 = arith._MR_PSI[-1]
        for lo, hi in ((1 << 24, 1 << 32), (1 << 32, 1 << 64), (psi_13, 1 << 100)):
            found = 0
            while found < 40:
                x = rng.randrange(lo + 1, hi)
                found += is_probable_prime_reference(x)
                xs.append(x)
        for x in xs:
            assert is_probable_prime(x) == is_probable_prime_reference(x), x

    @pytest.mark.parametrize("k, psi, factors", [(k, *row) for k, row in enumerate(PSI, 1)])
    def test_psi_k_needs_more_than_k_witnesses(self, k, psi, factors):
        # psi_k passes the first k witnesses, so a test that stops at k
        # witnesses for x = psi_k, one too few, calls it prime
        assert math.prod(factors) == psi
        assert all(_miller_rabin(psi, w) for w in _MR_WITNESSES[:k])
        assert not is_probable_prime(psi)
