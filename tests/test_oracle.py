import math
import random
import time
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecfactor import counting, curves, oracle
from ecfactor.arith import factor_small, is_probable_prime, jacobi, primes_between
from ecfactor.counting import _legendre_count, count_points_prime
from ecfactor.oracle import (
    DirectOracle,
    FactoredOracle,
    SingularCurveError,
    UnsupportedModulusError,
)
from ecfactor.reduction import ReductionConfig, factor_completely
from proof_aux import LoggingOracle, ReferenceOracle, legendre_count_reference, recount


def random_smooth_pair(rng, m):
    while True:
        A, B = rng.randrange(m), rng.randrange(m)
        if gcd((4 * A ** 3 + 27 * B ** 2) % m, m) == 1:
            return A, B


def seeded_prime(rng, lo, hi):
    """A prime drawn uniformly from [lo, hi)."""
    while not is_probable_prime(x := rng.randrange(lo, hi)):
        pass
    return x


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

    def test_twists_at_primes_above_the_legendre_range(self):
        # baby-step/giant-step primes, beyond DirectOracle's brute force; the
        # twists give (d|p) = +1 and -1 at each prime, all four sign pairs
        p, q = 16411, 100003
        assert p > 2 ** 14 and is_probable_prime(p) and is_probable_prime(q)
        rng = random.Random(16)
        o = FactoredOracle([p, q])
        signs = set()
        for _ in range(6):
            A, B = random_smooth_pair(rng, p * q)
            for d in range(1, 12):
                Ad, Bd = A * d * d % (p * q), B * d ** 3 % (p * q)
                signs.add((jacobi(d, p), jacobi(d, q)))
                cp, cq = count_points_prime(p, Ad % p, Bd % p), count_points_prime(q, Ad % q, Bd % q)
                assert o.query(p, Ad, Bd) == cp, (A, B, d)
                assert o.query(p * q, Ad, Bd) == cp * cq, (A, B, d)
        assert signs == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_rejects_bad_prime_set(self):
        with pytest.raises(ValueError):
            FactoredOracle([3, 5])
        with pytest.raises(ValueError):
            FactoredOracle([5, 5])

    @pytest.mark.parametrize("primes, bad", [([5, 9], 9), ([7, 100003 * 100019], 100003 * 100019)])
    def test_rejects_a_composite_at_construction(self, primes, bad):
        # each prime is admitted once, when the oracle is built, not at the
        # first query whose modulus holds it; below and above the crossover
        with pytest.raises(ValueError, match=f"got {bad}$"):
            FactoredOracle(primes)


class TestTwistMemo:
    """FactoredOracle's answers from the record of the last curve counted
    on a modulus, against uncached counts."""

    def test_criterion_7_samples(self, monkeypatch):
        # criterion 7's sampler, one oracle per prime reused across samples;
        # each sample's twist by d is asked as query(p, A, B, d) and read off
        # the record of the curve counted just before, j = 0 and 1728 included
        full_counts = []

        def counted(p, A, B):
            full_counts.append(p)
            return count_points_prime(p, A, B)

        monkeypatch.setattr(counting, "count_points_prime", counted)
        rng = random.Random(7)
        primes = primes_between(5, 10 ** 4)
        oracles = {}
        for _ in range(10 ** 4):
            p = rng.choice(primes)
            A, B = random_smooth_pair(rng, p)
            d = rng.randrange(1, p)
            o = oracles.setdefault(p, FactoredOracle([p]))
            for e in (1, d):
                expected = count_points_prime(p, A * e * e % p, B * e ** 3 % p)
                assert o.query(p, A, B, e) == expected, (p, A, B, e)
        # every twist was answered from the record without a count, and the
        # full counts went through counting.count_points_prime, where a
        # wrapper sees them
        assert len(oracles) <= len(full_counts) <= 10 ** 4

    def test_j_0_and_1728_curves_and_their_twists(self):
        # all curves y^2 = x^3 + B and y^2 = x^3 + Ax, so every twist of each;
        # at p = 1 mod 3 (resp. 1 mod 4) their sextic (quartic) twists differ
        for p in (5, 7, 13, 37, 101, 103):
            o = FactoredOracle([p])
            for c in range(1, p):
                for A, B in ((0, c), (c, 0)):
                    assert o.query(p, A, B) == count_points_prime(p, A, B), (p, A, B)

    def test_multi_prime_modulus(self):
        rng = random.Random(11)
        primes = [1009, 1013, 1019]
        m = 1009 * 1013 * 1019
        o = FactoredOracle(primes)
        for _ in range(50):
            A, B = random_smooth_pair(rng, m)
            for d in (1, 2, 3, 5, 6, 7):
                Ad, Bd = A * d * d % m, B * d ** 3 % m
                expected = math.prod(count_points_prime(p, Ad, Bd) for p in primes)
                assert o.query(m, Ad, Bd) == expected, (A, B, d)

    def test_hits_are_still_recorded(self):
        o = FactoredOracle([5, 7])
        assert o.queries == 0
        o.query(35, 1, 1)
        o.query(35, 4, 8)  # the twist by d = 2: answered from the record
        assert o.queries == 2
        o.query(7, 1, 1)  # the same curve mod 7: counted, on a plan of its own
        o.query(5, 1, 1)  # and mod 5, a modulus not asked about before
        assert o.queries == 4


_STEPS = ("fresh", "twist", "old twist", "j = 0", "j = 1728")
_TWIST_STEPS = ("fresh", "j = 0", "j = 1728", "twist by d", "old twist by d")


class TestRecord:
    """FactoredOracle keeps, per modulus, the record of the last curve it
    counted; a query of that curve, twisted by any d coprime to the modulus,
    is answered from it, and any other query is counted, and the curve it
    counts replaces the record."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(_STEPS), st.integers(1, 2 ** 64), st.integers(0, 2 ** 64)),
        min_size=1, max_size=16,
    ))
    def test_query_sequences_against_the_direct_oracle(self, steps):
        # 1009 has a character table and 16411 does not; a sequence mixes
        # fresh curves, twists of the last curve, twists of a curve the record
        # has since replaced, and curves with A = 0 or B = 0 modulo one prime
        # or both, and their twists
        p, q = 1009, 16411
        m = p * q
        o, direct = FactoredOracle([p, q]), DirectOracle()
        drawn = [(2, 3)]  # every curve drawn, the newest last
        answered = 0
        for step, x, y in steps:
            if step == "fresh":
                A, B = x % m, y % m
            elif step in ("twist", "old twist"):
                A, B = drawn[-1] if step == "twist" else drawn[y % len(drawn)]
                A, B = A * x * x % m, B * x ** 3 % m
            else:
                zero = (m, p, q)[y % 3]  # A or B is 0 modulo zero
                c = zero * (y // 3 % (m // zero))
                A, B = (c, x % m) if step == "j = 0" else (x % m, c)
            drawn.append((A, B))
            try:
                expected = direct.query(m, A, B)
            except SingularCurveError:
                with pytest.raises(SingularCurveError):
                    o.query(m, A, B)
                continue
            assert o.query(m, A, B) == expected, (step, A, B)
            answered += 1
        assert o.queries == direct.queries == answered

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(_TWIST_STEPS), st.integers(1, 2 ** 64), st.integers(0, 2 ** 64)),
        min_size=1, max_size=16,
    ))
    def test_twist_query_sequences_against_the_direct_oracle(self, steps):
        # fresh curves and curves with A = 0 or B = 0 modulo one prime or
        # both, asked as they are, and their twists by d, asked as
        # query(m, A, B, d): of the last curve counted, read off its record
        # with no count, or of an older one, counted; a d sharing a prime
        # with m is refused by both oracles
        counts = []

        def counted(p, A, B):
            counts.append(p)
            return count_points_prime(p, A, B)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(counting, "count_points_prime", counted)
            self._twist_sequence(steps, counts)

    def _twist_sequence(self, steps, counts):
        p, q = 1009, 16411
        m = p * q
        o, direct = FactoredOracle([p, q]), DirectOracle()
        drawn = [(2, 3)]  # every curve asked as it is, the newest last
        last = None  # the last curve counted, as the oracle counted it
        answered = 0
        for step, x, y in steps:
            d = 1
            if step == "fresh":
                A, B = x % m, y % m
            elif step in ("j = 0", "j = 1728"):
                zero = (m, p, q)[y % 3]  # A or B is 0 modulo zero
                c = zero * (y // 3 % (m // zero))
                A, B = (c, x % m) if step == "j = 0" else (x % m, c)
            else:
                A, B = (last or drawn[-1]) if step == "twist by d" else drawn[y % len(drawn)]
                d = x * (1, 1, p, q)[y % 4]  # a quarter share a prime with m
            if d == 1:
                drawn.append((A, B))
            try:
                expected = direct.query(m, A, B, d)
            except ValueError as exc:  # SingularCurveError, or gcd(d, m) != 1
                before = len(counts)
                with pytest.raises(type(exc)):
                    o.query(m, A, B, d)
                assert len(counts) == before
                continue
            before = len(counts)
            assert o.query(m, A, B, d) == expected, (step, A, B, d)
            if (A, B) == last:
                assert len(counts) == before, (step, A, B, d)
            else:
                last = (A, B) if d == 1 else (A * d * d % m, B * d ** 3 % m)
            answered += 1
        assert o.queries == direct.queries == answered

    def test_j_0_and_1728_twists_are_read_off_the_record(self, monkeypatch):
        # y^2 = x^3 + b and y^2 = x^3 + ax are counted once, and their twists
        # by square and non-square d are read off the record with no count;
        # 1009 has a character table and 16411 does not, and both are 1 mod 3
        # and 1009 is 1 mod 4, so the sextic and quartic twists differ there
        full_counts = []

        def counted(p, A, B):
            full_counts.append(p)
            return count_points_prime(p, A, B)

        monkeypatch.setattr(counting, "count_points_prime", counted)
        for p in (1009, 16411):
            assert p % 3 == 1 and (p <= counting._CROSSOVER) == (p % 4 == 1)
            o = FactoredOracle([p])
            for A, B in ((0, 2), (0, 7), (3, 0), (5, 0)):
                full_counts.clear()
                symbols = set()
                for d in range(1, 41):
                    expected = count_points_prime(p, A * d * d % p, B * d ** 3 % p)
                    assert o.query(p, A, B, d) == expected, (p, A, B, d)
                    symbols.add(jacobi(d, p))
                assert full_counts == [p], (p, A, B)
                assert symbols == {1, -1}
            assert o.queries == 160


class TestSymbolRows:
    """Twists at table primes and above the crossover, where the record
    reads (d|p) off the character table and by jacobi, against the Legendre
    sum and brute force. count_points_prime shares the table and the weights
    at table primes, so it is not the reference here."""

    def test_every_smooth_curve_and_every_twist_below_60(self):
        for p in primes_between(5, 59):
            o = FactoredOracle([p])
            expected = {}
            for A in range(p):
                for B in range(p):
                    if (4 * A ** 3 + 27 * B ** 2) % p:
                        expected[A, B] = _legendre_count(p, A, B)
            for A, B in expected:
                for d in range(1, p):
                    Ad, Bd = A * d * d % p, B * d ** 3 % p
                    assert o.query(p, Ad, Bd) == expected[Ad, Bd], (p, A, B, d)

    def test_twists_on_a_modulus_straddling_the_crossover(self):
        # 16381 has a table and 16411 does not, and both are within
        # DirectOracle's brute force; the twists give all four sign pairs
        p, q = 16381, 16411
        assert p <= counting._CROSSOVER < q
        rng = random.Random(19)
        o, direct = FactoredOracle([p, q]), DirectOracle()
        signs = set()
        for _ in range(4):
            A, B = random_smooth_pair(rng, p * q)
            for d in range(1, 12):
                Ad, Bd = A * d * d % (p * q), B * d ** 3 % (p * q)
                signs.add((jacobi(d, p), jacobi(d, q)))
                assert o.query(p * q, Ad, Bd) == direct.query(p * q, Ad, Bd), (A, B, d)
        assert signs == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.sampled_from(primes_between(5, counting._CROSSOVER)),
        st.integers(0, 2 ** 64),
        st.integers(0, 2 ** 64),
        st.integers(1, 2 ** 64),
    )
    def test_property_curve_then_twist(self, p, A, B, d):
        A, B, d = A % p, B % p, d % p
        assume((4 * A ** 3 + 27 * B ** 2) % p and d)
        o = FactoredOracle([p])
        for a, b in ((A, B), (A * d * d % p, B * d ** 3 % p)):  # counted, then from the record
            assert o.query(p, a, b) == _legendre_count(p, a, b), (p, a, b)

    @pytest.mark.parametrize(
        "primes",
        [[1009, 1013, 1019], [16411, 100003], [1009, 16411]],
        ids=["table", "above-crossover", "straddling"],
    )
    def test_twists_share_one_count_per_prime(self, monkeypatch, primes):
        # every twist is asked as query(m, A, B, d) of the curve counted
        # first, so each prime is counted once, at a table prime or above the
        # crossover
        m = math.prod(primes)
        counts = []

        def counted(p, A, B):
            counts.append(p)
            return count_points_prime(p, A, B)

        monkeypatch.setattr(counting, "count_points_prime", counted)
        o = FactoredOracle(primes)
        A, B = 2, 3  # A*B != 0 mod each prime
        for d in range(1, 21):
            Ad, Bd = A * d * d % m, B * d ** 3 % m
            expected = math.prod(legendre_count_reference(p, Ad % p, Bd % p) for p in primes)
            assert o.query(m, A, B, d) == expected, d
        assert sorted(counts) == primes


_BOTH = pytest.mark.parametrize(
    "make_oracle", [FactoredOracle, lambda primes: DirectOracle()], ids=["factored", "direct"]
)


class TestPlan:
    """Oracle.query admits a modulus once per oracle into a plan and keeps it;
    FactoredOracle's plans of per-prime states answer queries, checked
    against DirectOracle's brute force."""

    @_BOTH
    def test_a_refused_modulus_is_refused_again(self, make_oracle):
        o = make_oracle([5, 7])
        assert o.query(35, 1, 1) == 45
        for _ in range(2):
            for m in (15, 175, 1):  # 3 is not an oracle prime; 175 = 5^2 * 7
                with pytest.raises(UnsupportedModulusError):
                    o.query(m, 1, 1)
            assert o.queries == 1
        assert o.query(35, 1, 1) == 45
        assert o.queries == 2

    @_BOTH
    def test_one_plan_per_modulus(self, make_oracle, monkeypatch):
        # 20 queries on one modulus build its plan once, and DirectOracle
        # factors it once
        factored = []

        def counted(x):
            factored.append(x)
            return factor_small(x)

        monkeypatch.setattr(oracle, "factor_small", counted)
        primes = [1009, 1013]
        m = math.prod(primes)
        o = make_oracle(primes)
        planned = []
        plan = o._plan
        monkeypatch.setattr(o, "_plan", lambda k: planned.append(k) or plan(k))
        rng = random.Random(20)
        for _ in range(20):
            A, B = random_smooth_pair(rng, m)
            assert o.query(m, A, B) == math.prod(count_points_prime(p, A, B) for p in primes)
        assert planned == [m]
        assert factored == ([m] if isinstance(o, DirectOracle) else [])
        assert o.queries == 20

    def test_interleaved_twists_on_a_modulus_and_its_divisor(self):
        # each modulus has its own plan, with its own states at the primes
        # the two share; 1009 has a character table and 16411 does not
        m = 1009 * 1013 * 16411
        o, direct = FactoredOracle([1009, 1013, 16411]), DirectOracle()
        rng = random.Random(24)
        for _ in range(3):
            A, B = random_smooth_pair(rng, m)
            for d in range(1, 8):
                for k in (m, 1009 * 16411):
                    Ad, Bd = A * d * d % k, B * d ** 3 % k
                    assert o.query(k, Ad, Bd) == direct.query(k, Ad, Bd), (k, A, B, d)
        assert o.queries == direct.queries == 42

    def test_singular_query_on_a_planned_modulus(self):
        m = 1009 * 1013
        o, direct = FactoredOracle([1009, 1013]), DirectOracle()
        assert o.query(m, 2, 3) == direct.query(m, 2, 3)
        assert o.queries == 1
        A, B = m - 3, 2 + 2 * 1009  # -3 and 2 mod 1009, singular there alone
        assert gcd((4 * A ** 3 + 27 * B ** 2) % m, m) == 1009
        for a, b in ((A, B), (0, 0), (0, m)):
            with pytest.raises(SingularCurveError):
                o.query(m, a, b)
        assert o.queries == 1
        rng = random.Random(22)
        for _ in range(3):
            a, b = random_smooth_pair(rng, m)
            assert o.query(m, a, b) == direct.query(m, a, b), (a, b)
        assert o.queries == 4

    def test_j_0_and_1728_on_a_modulus_with_a_table_prime_and_one_above(self):
        # 1009 has a character table and 16411 does not, and both are within
        # DirectOracle's brute force; A or B is 0 modulo one prime or both
        p, q = 1009, 16411
        assert p <= counting._CROSSOVER < q <= 10 ** 5
        m = p * q
        o, direct = FactoredOracle([p, q]), DirectOracle()
        rng = random.Random(1728)
        curves = []
        for zero in (m, p, q):
            for _ in range(2):
                c = rng.randrange(1, m)
                curves += [(0, c), (c, 0), (zero * rng.randrange(m // zero), c), (c, zero)]
        tried = 0
        for A, B in curves:
            for d in range(1, 9):
                Ad, Bd = A * d * d % m, B * d ** 3 % m
                if (4 * Ad ** 3 + 27 * Bd ** 2) % p == 0 or (4 * Ad ** 3 + 27 * Bd ** 2) % q == 0:
                    continue
                tried += 1
                assert o.query(m, Ad, Bd) == direct.query(m, Ad, Bd), (A, B, d)
        assert tried > 100

    def test_a_cofactor_reads_its_twists_off_its_own_record(self, monkeypatch):
        # y^2 = x^3 + 2 (j = 0 at every prime) is counted once per prime on
        # the modulus and once per prime on each cofactor, which has a plan
        # and a record of its own; its twists, on each modulus and back on
        # the first after the cofactors, are read off that modulus's record
        primes = [1009, 1013, 16411]
        m = math.prod(primes)
        counts = []

        def counted(p, A, B):
            counts.append(p)
            return count_points_prime(p, A, B)

        monkeypatch.setattr(counting, "count_points_prime", counted)
        o = FactoredOracle(primes)
        moduli = (m, 1009 * 16411, 1013)
        for k in moduli + moduli:
            for d in range(1, 13):
                expected = math.prod(
                    count_points_prime(p, 0, 2 * d ** 3 % p) for p in primes if k % p == 0
                )
                assert o.query(k, 0, 2, d) == expected, (k, d)
        assert sorted(counts) == sorted(primes + [1009, 16411, 1013])


class TestAgainstTheReferenceOracle:
    """The record path above the brute-force limit, against
    `proof_aux.ReferenceOracle`, which counts every query prime by prime with
    a reference that shares no code with `counting.count_points_prime`."""

    @pytest.mark.parametrize(
        "octaves", [(14, 19), (15, 17, 19)], ids=["two primes", "three primes"]
    )
    def test_query_sequences(self, octaves, monkeypatch):
        # a prime in each [2^e, 2^(e+1)); a fresh curve, twists of the record
        # until (d|p) has been +1 and -1 at each prime, a second fresh curve,
        # then a twist of the first, which the record has since left
        rng = random.Random(sum(octaves))
        primes = [seeded_prime(rng, 2 ** e, 2 ** (e + 1)) for e in octaves]
        m = math.prod(primes)
        o, reference = FactoredOracle(primes), ReferenceOracle()
        counts = []

        def counted(p, A, B):
            counts.append(p)
            return count_points_prime(p, A, B)

        monkeypatch.setattr(counting, "count_points_prime", counted)
        first, second = random_smooth_pair(rng, m), random_smooth_pair(rng, m)
        assert o.query(m, *first) == reference.query(m, *first)
        signs = set()
        for d in range(2, 100):
            if gcd(d, m) == 1 and not {(p, jacobi(d, p)) for p in primes} <= signs:
                signs |= {(p, jacobi(d, p)) for p in primes}
                assert o.query(m, *first, d) == reference.query(m, *first, d), d
        assert signs == {(p, s) for p in primes for s in (1, -1)}
        assert len(counts) == len(primes)  # every twist read off the record
        assert o.query(m, *second) == reference.query(m, *second)
        d = next(d for d in range(2, 100) if gcd(d, m) == 1 and jacobi(d, primes[-1]) == -1)
        assert o.query(m, *first, d) == reference.query(m, *first, d)
        assert len(counts) == 3 * len(primes)
        for A, B in (curves.twist(m, *first, d), second):  # the record's curve, and another
            for d in (primes[0], 2 * primes[-1]):
                for oracle in (o, reference):
                    with pytest.raises(ValueError, match="gcd"):
                        oracle.query(m, A, B, d)
        assert o.queries == reference.queries


class TestReplayAtScale:
    """The record path where no independent count reaches: every answer is
    replayed by `proof_aux.recount`, a fresh count at each prime with no
    record."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_walk_at_primes_near_2_30(self, k):
        # three n of k primes from [2^30, 2^30 + 40000], drawn as the scale rows are
        lo = 2 ** 30
        rng = random.Random(f"scale:{k}:{lo}")
        pool = primes_between(lo, lo + 40000)
        for _ in range(3):
            primes = sorted(rng.sample(pool, k))
            o = LoggingOracle(primes)
            cfg = ReductionConfig(seed=rng.randrange(2 ** 32))
            result = factor_completely(math.prod(primes), o, cfg)
            assert result.factors == tuple(primes) and result.success
            assert len(o.log) == result.queries
            for m, A, B, d, N in o.log:
                assert recount(primes, m, A, B, d) == N, (m, A, B, d)

    def test_twists_at_the_largest_prime_below_2_60(self, monkeypatch):
        # p's symbol is jacobi, q's a lookup in its character table; a twist
        # by each pair of signs other than (+1, +1) is read off the record
        p, q = 2 ** 60 - 93, 1009
        m = p * q
        o = LoggingOracle([p, q])
        counts = []

        def counted(prime, A, B):
            counts.append(prime)
            return count_points_prime(prime, A, B)

        monkeypatch.setattr(counting, "count_points_prime", counted)
        A, B = random_smooth_pair(random.Random(60), m)
        twists = [
            next(d for d in range(2, 1000) if (jacobi(d, p), jacobi(d, q)) == signs)
            for signs in ((-1, 1), (1, -1), (-1, -1))
        ]
        for d in [1, *twists]:
            o.query(m, A, B, d)
        assert sorted(counts) == [q, p]
        monkeypatch.undo()
        for m, A, B, d, N in o.log[1:]:
            assert recount([p, q], m, A, B, d) == N, d


class TestDirectOracle:
    def test_examples(self):
        o = DirectOracle()
        assert o.query(35, 1, 1) == 45
        assert o.query(35, 4, 8) == 15
        with pytest.raises(UnsupportedModulusError):
            DirectOracle().query(10 ** 7, 1, 1)

    def test_rejects_primes_above_bruteforce_limit(self):
        o = DirectOracle()
        with pytest.raises(UnsupportedModulusError, match="100019"):
            o.query(10002200057, 1, 1)  # 100003 * 100019
        assert o.queries == 0

    def test_refuses_above_2_64_and_above_the_bruteforce_limit(self):
        # above 2^64, a modulus whose cofactor after trial division is
        # composite is refused as it stands, without running rho on it; a
        # prime above the brute-force limit of 1e5 is refused by name, even
        # squared; a square of a prime below the limit is refused as not
        # squarefree; every refusal is quick and counts no query
        n = (2 ** 61 - 1) * (2 ** 89 - 1)
        o = DirectOracle()
        start = time.perf_counter()
        with pytest.raises(UnsupportedModulusError, match=str(n)):
            o.query(n, 1, 1)
        with pytest.raises(UnsupportedModulusError, match="100003"):
            o.query(7 * 100003 ** 2, 1, 1)  # the least prime above 1e5, twice
        with pytest.raises(UnsupportedModulusError, match="squarefree"):
            o.query(7 * 99991 ** 2, 1, 1)  # the largest prime below 1e5, twice
        assert time.perf_counter() - start < 1.0
        assert o._plan(5 * 99991 * 99989) == [5, 99989, 99991]
        assert o.queries == 0

    def test_modulus_argument_is_ignored(self):
        # bench/workloads.py constructs DirectOracle(m) for its cross-check
        assert DirectOracle(35).query(35, 1, 1) == DirectOracle().query(35, 1, 1) == 45
        assert DirectOracle(35).query(1001, 1, 1) == DirectOracle().query(1001, 1, 1)

    def test_rejects_moduli_below_2(self):
        for m in (1, 0, -35):
            with pytest.raises(UnsupportedModulusError, match=f"modulus {m} must be >= 2"):
                DirectOracle().query(m, 1, 1)

    def test_rejects_non_squarefree_or_even(self):
        o = DirectOracle()
        with pytest.raises(UnsupportedModulusError):
            o.query(25, 1, 1)
        with pytest.raises(UnsupportedModulusError):
            o.query(10, 1, 1)


def test_oracle_equivalence_sample():
    rng = random.Random(9)
    direct = DirectOracle()
    for m in range(5, 1001, 2):
        facts = factor_small(m)
        if any(e > 1 for _, e in facts) or any(p < 5 for p, _ in facts):
            continue
        fact = FactoredOracle([p for p, _ in facts])
        for _ in range(3):
            A, B = random_smooth_pair(rng, m)
            assert fact.query(m, A, B) == direct.query(m, A, B)


@pytest.mark.parametrize(
    "make_oracle", [lambda: FactoredOracle([5, 7]), DirectOracle], ids=["factored", "direct"]
)
def test_every_screen_goes_through_the_curves_module(make_oracle, monkeypatch):
    # one curves.screen call per answered query and per refused singular
    # query, looked up where a wrapper installed on the module sees it; a
    # modulus refused before the screen makes none
    calls = []

    def counted(m, A, B):
        calls.append((m, A, B))
        return gcd((4 * A ** 3 + 27 * B ** 2) % m, m)

    monkeypatch.setattr(curves, "screen", counted)
    o = make_oracle()
    assert o.query(35, 1, 1) == 45
    assert o.query(35, 4, 8) == 15
    with pytest.raises(SingularCurveError):
        o.query(35, 0, 7)
    with pytest.raises(UnsupportedModulusError):
        o.query(25, 1, 1)
    assert calls == [(35, 1, 1), (35, 4, 8), (35, 0, 7)]
    assert o.queries == 2


@pytest.mark.parametrize(
    "make_oracle", [lambda: FactoredOracle([1009, 16411]), DirectOracle],
    ids=["factored", "direct"],
)
def test_a_d_sharing_a_prime_with_m_is_refused(make_oracle, monkeypatch):
    # on the record's curve and on another, at a table prime and above the
    # crossover: a ValueError, no count and no query
    counts = []

    def counted(p, A, B):
        counts.append(p)
        return count_points_prime(p, A, B)

    monkeypatch.setattr(counting, "count_points_prime", counted)
    m = 1009 * 16411
    o = make_oracle()
    assert o.query(m, 2, 3) == DirectOracle().query(m, 2, 3)
    before = len(counts)
    for A, B in ((2, 3), (5, 7)):
        for d in (1009, 2 * 16411, m, 0):
            with pytest.raises(ValueError, match="gcd"):
                o.query(m, A, B, d)
    assert len(counts) == before
    assert o.queries == 1


def test_stats_discipline():
    class CountingWrapper:
        def __init__(self, inner):
            self.inner = inner
            self.observed = 0

        @property
        def queries(self):
            return self.inner.queries

        def query(self, m, A, B, d=1):
            value = self.inner.query(m, A, B, d)
            self.observed += 1  # only successful queries are counted
            return value

    inner = FactoredOracle([5, 7, 11, 13])
    wrapper = CountingWrapper(inner)
    result = factor_completely(5 * 7 * 11 * 13, wrapper, ReductionConfig(seed=17))
    assert result.success
    assert result.queries == inner.queries == wrapper.observed > 0
