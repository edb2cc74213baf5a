import random

import numpy as np
import pytest

from ecfactor import curves
from ecfactor.arith import primes_between
from ecfactor.curves import (
    CurveSupplyExhausted,
    FactorFound,
    isomorphic_gcd,
    sample_curve,
    screen,
    twist,
)


class TestScreen:
    def test_examples(self):
        assert screen(35, 1, 1) == 1
        assert screen(35, 0, 7) == 7
        assert screen(5, 0, 0) == 5

    def test_factor_soundness(self):
        rng = random.Random(3)
        for _ in range(2000):
            n = 5 * 7 * 11
            g = screen(n, rng.randrange(n), rng.randrange(n))
            assert 1 <= g <= n and n % g == 0

    def test_rejects_moduli_below_2(self):
        with pytest.raises(ValueError, match="screen: modulus must be >= 2"):
            screen(1, 0, 0)


class TestTwist:
    def test_examples(self):
        assert twist(5, 1, 1, 2) == (4, 3)
        assert twist(35, 1, 1, 1) == (1, 1)
        assert twist(35, 1, 1, 2) == (4, 8)

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            twist(35, 1, 1, 7)


class TestIsomorphicGcd:
    def test_examples(self):
        c = (1, 1)
        assert isomorphic_gcd(5, c, c) == 5
        assert isomorphic_gcd(5, c, (4, 3)) == 5  # its twist by 2
        assert isomorphic_gcd(5, c, (1, 2)) == 1

    def test_factor_outcome(self):
        # related mod 5 (twist) but generically unrelated mod 7
        assert isomorphic_gcd(35, (1, 1), (4, 3)) == 5

    def test_symmetric_classification(self):
        rng = random.Random(4)
        n = 5 * 7 * 11
        for _ in range(1000):
            c1 = rng.randrange(n), rng.randrange(n)
            c2 = rng.randrange(n), rng.randrange(n)
            assert isomorphic_gcd(n, c1, c2) == isomorphic_gcd(n, c2, c1)

    def test_twist_involution_at_prime_modulus(self, monkeypatch):
        # twisting twice by the same d lands back in the same class, for every
        # smooth (A, B) and every d at every p < 100. A and B are int64
        # arrays of all smooth (A, B) at p, one call per (p, d), with the
        # module's gcd swapped for numpy's elementwise one; every value the
        # formulas reach stays below p^5 < 2^63
        monkeypatch.setattr(curves, "gcd", np.gcd)
        for p in primes_between(5, 99):
            A, B = np.divmod(np.arange(p * p, dtype=np.int64), p)
            smooth = (4 * A ** 3 + 27 * B ** 2) % p != 0
            A, B = A[smooth], B[smooth]
            assert len(A) == p * p - p  # the singular ones are (-3u^2, 2u^3), u in F_p
            for d in range(1, p):
                twice = twist(p, *twist(p, A, B, d), d)
                assert (isomorphic_gcd(p, twice, (A, B)) == p).all(), (p, d)


class TestSampleCurve:
    def test_deterministic(self):
        c1 = sample_curve(35, random.Random(0), [])
        c2 = sample_curve(35, random.Random(0), [])
        assert c1 == c2
        assert screen(35, *c1) == 1

    def test_avoids_used(self):
        used = [(1, 1)]
        for seed in range(20):
            try:
                c = sample_curve(35, random.Random(seed), used)
            except FactorFound as ff:
                assert 1 < ff.factor < 35 and 35 % ff.factor == 0
                continue
            assert isomorphic_gcd(35, c, used[0]) == 1

    def test_factor_found_propagates(self):
        # seed search: some seed must draw a pair with gcd(disc, 35) in {5, 7}
        hit = False
        for seed in range(500):
            try:
                sample_curve(35, random.Random(seed), [])
            except FactorFound as ff:
                assert ff.factor in (5, 7)
                hit = True
                break
        assert hit

    def test_rejects_moduli_below_5(self):
        with pytest.raises(ValueError, match="sample_curve: modulus must be >= 5"):
            sample_curve(4, random.Random(0), [])

    def test_exhaustion_cap(self):
        # a full used-list of every class mod 5 forces exhaustion; at a prime
        # modulus every gcd is 1 or 5, so no FactorFound can be raised
        used = []
        rng = random.Random(0)
        with pytest.raises(CurveSupplyExhausted):
            for _ in range(10 ** 4):
                used.append(sample_curve(5, rng, used))
