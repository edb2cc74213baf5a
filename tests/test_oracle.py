import random
from math import gcd

import pytest

from ecfactor.arith import factor_small
from ecfactor.oracle import (
    DirectOracle,
    FactoredOracle,
    SingularCurveError,
    UnsupportedModulusError,
)
from ecfactor.reduction import ReductionConfig, factor_completely


def random_smooth_pair(rng, m):
    while True:
        A, B = rng.randrange(m), rng.randrange(m)
        if gcd((4 * A ** 3 + 27 * B ** 2) % m, m) == 1:
            return A, B


class TestFactoredOracle:
    def test_examples(self):
        o = FactoredOracle([5, 7])
        assert o.query(35, 1, 1) == 45
        assert o.query(5, 1, 1) == 9
        with pytest.raises(UnsupportedModulusError):
            o.query(6, 1, 1)

    def test_rejects_singular(self):
        o = FactoredOracle([5, 7])
        with pytest.raises(SingularCurveError):
            o.query(35, 0, 0)
        with pytest.raises(SingularCurveError):
            o.query(35, 0, 7)  # gcd(disc, 35) = 7: still an error, not an answer

    def test_divisor_moduli_allowed(self):
        o = FactoredOracle([5, 7, 11])
        assert o.query(55, 1, 1) == o.query(5, 1, 1) * o.query(11, 1, 1)

    def test_rejects_bad_prime_set(self):
        with pytest.raises(ValueError):
            FactoredOracle([3, 5])
        with pytest.raises(ValueError):
            FactoredOracle([5, 5])


class TestDirectOracle:
    def test_examples(self):
        o = DirectOracle(10 ** 5)
        assert o.query(35, 1, 1) == 45
        assert o.query(35, 4, 8) == 15
        with pytest.raises(UnsupportedModulusError):
            DirectOracle(10 ** 5).query(10 ** 7, 1, 1)

    def test_rejects_primes_above_bruteforce_limit(self):
        o = DirectOracle(10 ** 11)
        with pytest.raises(UnsupportedModulusError, match="100019"):
            o.query(10002200057, 1, 1)  # 100003 * 100019
        assert o.stats.queries == 0

    def test_rejects_non_squarefree_or_even(self):
        o = DirectOracle(10 ** 4)
        with pytest.raises(UnsupportedModulusError):
            o.query(25, 1, 1)
        with pytest.raises(UnsupportedModulusError):
            o.query(10, 1, 1)


def test_oracle_equivalence_sample():
    rng = random.Random(9)
    direct = DirectOracle(3000)
    for m in range(5, 1001, 2):
        facts = factor_small(m).factors
        if any(e > 1 for _, e in facts) or any(p < 5 for p, _ in facts):
            continue
        fact = FactoredOracle([p for p, _ in facts])
        for _ in range(3):
            A, B = random_smooth_pair(rng, m)
            assert fact.query(m, A, B) == direct.query(m, A, B)


def test_stats_discipline():
    class CountingWrapper:
        def __init__(self, inner):
            self.inner = inner
            self.observed = 0
            self.stats = inner.stats

        def query(self, m, A, B):
            value = self.inner.query(m, A, B)
            self.observed += 1  # only successful queries are recorded
            return value

    inner = FactoredOracle([5, 7, 11, 13])
    wrapper = CountingWrapper(inner)
    result = factor_completely(5 * 7 * 11 * 13, wrapper, ReductionConfig(seed=17))
    assert result.success
    assert inner.stats.queries == wrapper.observed
    assert inner.stats.queries == sum(inner.stats.per_modulus.values())


def test_stats_monotone_and_per_modulus():
    o = FactoredOracle([5, 7])
    o.query(35, 1, 1)
    o.query(35, 4, 8)
    o.query(5, 1, 1)
    assert o.stats.queries == 3
    assert o.stats.per_modulus == {35: 2, 5: 1}
