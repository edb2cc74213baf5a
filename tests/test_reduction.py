import hashlib
import json
import math
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecfactor.reduction
from ecfactor import cli
from ecfactor.arith import factor_small, is_probable_prime, jacobi, primes_between
from ecfactor.counting import count_points_prime
from ecfactor.curves import CurveSupplyExhausted, FactorFound, sample_curve, twist
from ecfactor.oracle import DirectOracle, FactoredOracle, Oracle, UnsupportedModulusError
from ecfactor.reduction import (
    D_MAX,
    MAX_D_LIMIT,
    Recovery,
    ReductionConfig,
    _squarefree,
    _twists,
    factor_completely,
    recover_from_ratio,
    split,
)
from proof_aux import recover_reference


class TestRecoverFromRatio:
    def test_worked_example(self):
        rec = recover_from_ratio(45, 15, 3, 35)
        assert rec is not None
        assert rec.factor == 5
        assert rec.multiplier == 3  # N/Nd = 3/1, and 3 * (3 + 1) / 2 - 1 = 5

    def test_unit_ratio(self):
        # ratio 1/1 usually means d was a residue at every prime, but it is
        # also what a zero trace produces; the multiplier sweep still finds
        # p when p + 1 <= 2D, and finds nothing otherwise
        rec = recover_from_ratio(45, 45, 3, 35)
        assert rec is not None and rec.factor == 5 and rec.multiplier == 6
        assert recover_from_ratio(45, 45, 2, 35) is None

    def test_double_flip_yields_nothing(self):
        # d = 3 flips both primes of 35; |E^3| = 33, ratio 15/11
        assert recover_from_ratio(45, 33, 3, 35) is None

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            recover_from_ratio(0, 3, 1, 35)

    def test_exhaustive_small_semiprimes(self):
        # whenever gcd(a_p, p+1) <= D and d flips only the smaller prime,
        # the recovered factor is exactly p
        D = 12
        rng = random.Random(10)
        primes = primes_between(5, 60)
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                n = p * q
                for _ in range(8):
                    while True:
                        A, B = rng.randrange(n), rng.randrange(n)
                        if gcd((4 * A ** 3 + 27 * B ** 2) % n, n) == 1:
                            break
                    ap = p + 1 - count_points_prime(p, A % p, B % p)
                    aq = q + 1 - count_points_prime(q, A % q, B % q)
                    if gcd(abs(ap), p + 1) > D:
                        continue
                    N = (p + 1 - ap) * (q + 1 - aq)
                    Nd = (p + 1 + ap) * (q + 1 - aq)
                    rec = recover_from_ratio(N, Nd, D, n)
                    assert rec is not None and rec.factor == p
                    # N/Nd reduces to (p+1-a_p)/(p+1+a_p) over their common
                    # factor, and the multiplier scales the terms back up
                    assert rec.multiplier == gcd(p + 1 - ap, p + 1 + ap)

    @staticmethod
    def reference(N, Nd, D, n):
        """The full scan: every g up to 2D, odd g*s skipped after computing it."""
        s = (N + Nd) // gcd(N, Nd)
        for g in range(1, 2 * D + 1):
            v = g * s
            if v % 2:
                continue
            cand = v // 2 - 1
            if 1 < cand < n and n % cand == 0:
                return Recovery(cand, g)
        return None

    def test_matches_the_reference_scan(self):
        # raw counts and the counts of a twist flipping one prime, as in
        # _ratio_inputs; every (parity of s, hit or miss) pair must occur
        # the scan stops at the first candidate >= n: a long scan that passes
        # n early, s = 2(n+1) - 1, 2(n+1) and 2(n+1) + 1, and s far above n
        edges = [(1000, 1006, 10 ** 4, 5005), (1, 70, 24, 35), (1, 71, 24, 35),
                 (1, 72, 24, 35), (10 ** 6, 10 ** 6 - 1, 24, 1001)]
        for N, Nd, D, n in edges:
            assert recover_from_ratio(N, Nd, D, n) == self.reference(N, Nd, D, n)
        rng = random.Random(2024)
        seen = set()
        for _ in range(5000):
            n = math.prod(rng.sample(_SMALL_PRIMES, rng.randint(1, 3)))
            D = rng.randint(1, 24)
            if rng.random() < 0.5:
                N, Nd = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
            else:
                p = rng.choice([q for q in _SMALL_PRIMES if n % q == 0])
                a = rng.randint(-math.isqrt(4 * p), math.isqrt(4 * p))
                rest = rng.randint(1, 10 ** 4)
                N, Nd = (p + 1 - a) * rest, (p + 1 + a) * rest
            rec = recover_from_ratio(N, Nd, D, n)
            assert rec == self.reference(N, Nd, D, n), (N, Nd, D, n)
            seen.add(((N + Nd) // gcd(N, Nd) % 2, rec is None))
        assert seen == {(0, False), (0, True), (1, False), (1, True)}

    @pytest.mark.parametrize("N, Nd, D, n, expected", [
        # N = Nd: s = 2 and h = 1, so the candidates 0 and 1 are passed over
        (7, 7, 1, 35, None),
        (7, 7, 3, 35, Recovery(5, 6)),
        # odd s = 3: only even g, whose candidates are 2, 5, ...
        (1, 2, 1, 35, None),
        (1, 2, 2, 35, Recovery(5, 4)),
        # the candidates reach n = 7, which divides n but is not taken
        (1, 1, D_MAX, 7, None),
    ])
    def test_edges_match_the_progression_reference(self, N, Nd, D, n, expected):
        assert recover_from_ratio(N, Nd, D, n) == expected
        assert recover_reference(N, Nd, D, n) == expected

    @staticmethod
    def every_candidate(N, Nd, D, n):
        """The progression from h - 1, testing cand > 1 at each candidate."""
        s = (N + Nd) // gcd(N, Nd)
        step = 1 + s % 2
        h = step * s // 2
        for cand in range(h - 1, min(2 * D // step * h, n), h):
            if cand > 1 and n % cand == 0:
                return Recovery(cand, (cand + 1) // h * step)
        return None

    @pytest.mark.parametrize("N, Nd, D, n, expected", [
        # s = 4, h = 2: the candidates 1, 3, 5, ... start at 3
        (1, 3, 1, 21, Recovery(3, 2)),
        (3, 1, 2, 35, Recovery(5, 3)),
        (1, 3, 1, 35, None),
        (9, 3, 6, 11 * 13, Recovery(11, 6)),
    ])
    def test_h_2_starts_at_3(self, N, Nd, D, n, expected):
        assert recover_from_ratio(N, Nd, D, n) == expected
        assert self.every_candidate(N, Nd, D, n) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 2 ** 128), st.integers(1, 2 ** 128), st.integers(1, D_MAX),
       st.integers(2, 2 ** 127).map(lambda k: 2 * k + 1))
def test_recovery_matches_the_progression_reference(N, Nd, D, n):
    def key(rec):
        return None if rec is None else (rec.factor, rec.multiplier)

    assert key(recover_from_ratio(N, Nd, D, n)) == key(recover_reference(N, Nd, D, n))


_SMALL_PRIMES = primes_between(5, 200)


@st.composite
def _ratio_inputs(draw):
    """(N, Nd, D, n): half raw counts, half the counts of a twist that flips
    one prime p of n, as the twist loop produces them."""
    n = math.prod(draw(st.lists(st.sampled_from(_SMALL_PRIMES), min_size=1, max_size=3,
                                unique=True)))
    D = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 6)), D, n
    p = draw(st.sampled_from([q for q in _SMALL_PRIMES if n % q == 0]))
    a = draw(st.integers(-math.isqrt(4 * p), math.isqrt(4 * p)))
    rest = draw(st.integers(1, 10 ** 4))
    return (p + 1 - a) * rest, (p + 1 + a) * rest, D, n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ratio_inputs())
def test_recovered_factor_is_a_proper_divisor(args):
    rec = recover_from_ratio(*args)
    n = args[3]
    if rec is not None:
        assert 1 < rec.factor < n and n % rec.factor == 0


class TestSplit:
    def test_worked_example_35(self):
        oracle = FactoredOracle([5, 7])
        out = split(35, oracle, ReductionConfig(D=3, seed=1))
        assert out.factor in (5, 7)
        assert 35 % out.factor == 0

    def test_three_prime_modulus(self):
        oracle = FactoredOracle([5, 7, 11])
        out = split(385, oracle, ReductionConfig(seed=2))
        assert out.factor in (5, 7, 11, 35, 55, 77)
        assert 385 % out.factor == 0

    def test_rejects_bad_inputs(self):
        oracle = FactoredOracle([5, 7])
        with pytest.raises(ValueError):
            split(35 * 3, oracle, ReductionConfig(seed=0))

    def test_determinism(self):
        for seed in range(5):
            outs = [
                split(1001, FactoredOracle([7, 11, 13]), ReductionConfig(seed=seed))
                for _ in range(2)
            ]
            assert outs[0] == outs[1]

    def test_query_budget(self):
        cfg = ReductionConfig(seed=3)
        oracle = FactoredOracle([5, 7])
        split(35, oracle, cfg)
        max_curves = cfg.resolved_max_curves(35)
        max_d = cfg.resolved_max_d(35)
        assert 0 < oracle.queries <= max_curves * max_d + max_curves

    def test_witness_replays(self, monkeypatch):
        # seed 0 ends in a ratio recovery; replaying its last twist gives the
        # same counts, hence the same recovery, at the reference's witness
        twists = _record_twists(monkeypatch)
        cfg = ReductionConfig(D=3, seed=0)
        out = split(35, FactoredOracle([5, 7]), cfg)
        assert out.source == "ratio"
        c, d = _final_witness(35, out.source, twists)
        A, B = c
        oracle = FactoredOracle([5, 7])
        N = oracle.query(35, A, B)
        Nd = oracle.query(35, A * d * d % 35, B * d ** 3 % 35)
        assert recover_from_ratio(N, Nd, 3, 35).factor == out.factor
        assert _reference_split(35, FactoredOracle([5, 7]), cfg)[:4] == (
            out.factor, out.curves_tried, c, d)


# each case pinned by a seeded search over split(35, ...)
_EXITS = {
    "d_gcd": dict(D=1, seed=0),
    "ratio": dict(D=3, seed=0),
    "screen_gcd": dict(D=3, seed=1),
    "iso_gcd": dict(D=1, max_d=2, seed=7),
    "curves_exhausted": dict(max_curves=0),
    # not reached in 12000 seeded splits of n <= 1001, so sample_curve raises it
    "supply_exhausted": dict(),
}


@pytest.mark.parametrize("source", _EXITS)
def test_every_split_exit_names_its_source(source, monkeypatch):
    raised = []

    def recording_sample_curve(n, rng, used):
        if source == "supply_exhausted":
            raise CurveSupplyExhausted("no fresh curve")
        try:
            return sample_curve(n, rng, used)
        except FactorFound as ff:
            raised.append(ff.source)
            raise

    monkeypatch.setattr(ecfactor.reduction, "sample_curve", recording_sample_curve)
    twists = _record_twists(monkeypatch)
    cfg = ReductionConfig(**_EXITS[source])
    out = split(35, FactoredOracle([5, 7]), cfg)
    assert out.source == source
    if source.endswith("_exhausted"):
        assert out.factor is None
    else:
        assert out.factor in (5, 7)
    assert raised == ([source] if source in ("screen_gcd", "iso_gcd") else [])
    if source != "supply_exhausted":  # the reference samples its own curves
        witness = _final_witness(35, source, twists)
        assert _reference_split(35, FactoredOracle([5, 7]), cfg)[:4] == (
            out.factor, out.curves_tried, *witness)


def _seeded_moduli(k_values, lo, hi, per_k, tag):
    """(n, primes, seed) for per_k seeded products of k primes in [lo, hi]."""
    pool = primes_between(lo, hi)
    rng = random.Random(tag)
    out = []
    for k in k_values:
        for _ in range(per_k):
            primes = sorted(rng.sample(pool, k))
            out.append((math.prod(primes), primes, rng.randrange(2 ** 32)))
    return out


def _is_squarefree(d):
    return all(d % (q * q) for q in range(2, math.isqrt(d) + 1))


_ORACLES = {
    "factored": FactoredOracle,
    "direct": lambda primes: DirectOracle(),
}


def _record_twists(monkeypatch):
    """Record every (n, curve, d) that an oracle's `query` is asked with
    d != 1, the twists a split makes; returns the list."""
    twists = []
    query = Oracle.query

    def recording_query(self, n, A, B, d=1):
        if d != 1:
            twists.append((n, (A, B), d))
        return query(self, n, A, B, d)

    monkeypatch.setattr(Oracle, "query", recording_query)
    return twists


def _final_witness(n, source, twists):
    """The (curve, d) a split ended on, read off the twists it made.

    A ratio exit ends on its last twist. A d_gcd exit ends at n's least
    prime, the least d sharing a factor with n, on the curve of the last
    twist (so some d below that prime must have (d|n) = -1, as it does for
    the moduli here). Any other exit ends on no twist.
    """
    if source == "ratio":
        return twists[-1][1:]
    if source == "d_gcd":
        return twists[-1][1], next(p for p in range(2, n) if n % p == 0)
    return None, None


def _reference_split(n, oracle, cfg):
    """The twist walk with the (d|n) = -1 filter alone: every such d is queried.

    Returns (factor, curves tried, witness curve, witness d, queries).
    """
    rng = random.Random(cfg.seed)
    before = oracle.queries
    used = []

    def result(factor, curve=None, d=None):
        return factor, len(used), curve, d, oracle.queries - before

    try:
        for _ in range(cfg.resolved_max_curves(n)):
            c = sample_curve(n, rng, used)
            used.append(c)
            N = oracle.query(n, *c)
            for d in range(2, cfg.resolved_max_d(n) + 1):
                g = gcd(d, n)
                if g > 1:
                    if g < n:
                        return result(g, c, d)
                    continue
                if jacobi(d, n) != -1:
                    continue
                rec = recover_from_ratio(N, oracle.query(n, *twist(n, *c, d)), cfg.D, n)
                if rec is not None:
                    return result(rec.factor, c, d)
    except FactorFound as ff:
        return result(ff.factor)
    except CurveSupplyExhausted:
        pass
    return result(None)


class TestTwistWalk:
    def test_every_query_can_isolate_a_prime(self, monkeypatch):
        # each twist queried has (d|n) = -1, the parity of a d that is a
        # non-residue at exactly one prime, and is squarefree, so it is not
        # d0*m^2 for a d0 the walk queried before
        twists = _record_twists(monkeypatch)
        for n, primes, seed in _seeded_moduli((3, 4), 100, 1000, 20, "every query"):
            for make_oracle in _ORACLES.values():
                split(n, make_oracle(primes), ReductionConfig(seed=seed))
        assert any(d > 8 for _, _, d in twists)  # 8 is the least non-square d that is not squarefree
        for n, _, d in twists:
            assert jacobi(d, n) == -1, (n, d)
            assert _is_squarefree(d), (n, d)

    @pytest.mark.parametrize("make_oracle", _ORACLES.values(), ids=_ORACLES.keys())
    def test_matches_the_reference_walk(self, make_oracle, monkeypatch):
        # the squarefree skip only drops queries whose count repeats an
        # earlier twist's, so factor, curves and witness stay the reference's
        twists = _record_twists(monkeypatch)
        saved = 0
        for n, primes, seed in _seeded_moduli((2, 3, 4), 100, 3000, 30, "reference"):
            cfg = ReductionConfig(seed=seed)
            oracle = make_oracle(primes)
            twists.clear()
            out = split(n, oracle, cfg)
            witness = _final_witness(n, out.source, twists)
            factor, curves, curve, d, queries = _reference_split(n, make_oracle(primes), cfg)
            assert (out.factor, out.curves_tried, *witness) == (factor, curves, curve, d), n
            assert oracle.queries <= queries, n
            saved += queries - oracle.queries
        assert saved > 0  # the sample reaches non-squarefree d with (d|n) = -1

    def test_pinned_walk(self):
        # every exit, factor, curve count and query count of 600 seeded
        # splits, under both oracles; the d_gcd exit is n's least prime, the
        # first d the ascending walk reaches that shares a prime with n
        rng = random.Random("walk pin")
        pool = primes_between(5, 500)
        rows = []
        for k in (2, 3, 4):
            for _ in range(100):
                primes = sorted(rng.sample(pool, k))
                seed = rng.randrange(2 ** 32)
                n = math.prod(primes)
                for name, make_oracle in _ORACLES.items():
                    oracle = make_oracle(primes)
                    out = split(n, oracle, ReductionConfig(seed=seed))
                    rows.append((name, n, out.factor, out.source, out.curves_tried,
                                 oracle.queries))
                    if out.source == "d_gcd":
                        assert out.factor == primes[0], n
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "8f442725bb7aac891a79e71c0a068d9d30a86a27c7dd140bb1ee978789cbdb34")


def _recoveries_per_curve(monkeypatch):
    """Wrap `split`'s sample_curve and recover_from_ratio; returns a list with
    one list per curve drawn, of the (N, N_d) that recovery was called on."""
    per_curve = []

    def sampling(n, rng, used):
        curve = sample_curve(n, rng, used)
        per_curve.append([])
        return curve

    def recovering(N, Nd, D, n):
        per_curve[-1].append((N, Nd))
        return recover_from_ratio(N, Nd, D, n)

    monkeypatch.setattr(ecfactor.reduction, "sample_curve", sampling)
    monkeypatch.setattr(ecfactor.reduction, "recover_from_ratio", recovering)
    return per_curve


class TestRecoveryOncePerCount:
    """`split` runs recovery once per distinct N_d on a curve: the same ratio
    N/N_d fails the same way, so a repeated N_d is queried but not recovered."""

    def test_the_dead_first_curve(self, monkeypatch, capsys):
        # a first curve whose gcd(a_p, p+1) exceeds D at both primes walks
        # every admissible d up to max_d, but its twists have two counts, so
        # recovery runs twice on it and once on the second curve, which splits n
        per_curve = _recoveries_per_curve(monkeypatch)
        assert cli.main(["factor", "1077272742627746153", "--seed", "419625122"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["factors"] == [1009900799, 1066711447]
        assert report["oracle_queries"] == 2086
        assert report["curves_used"] == 2
        assert [len(calls) for calls in per_curve] == [2, 1]
        assert len(set(per_curve[0])) == 2

    def test_at_most_two_per_curve_for_two_primes(self, monkeypatch):
        # for n = pq a twist with (d|n) = -1 is a non-residue at p alone or at
        # q alone, and N_d is one of two products, so recovery runs at most
        # twice per curve; the sample has curves that fail at both
        per_curve = _recoveries_per_curve(monkeypatch)
        queried = 0
        for n, primes, seed in _seeded_moduli((2,), 1000, 100_000, 150, "two primes"):
            oracle = FactoredOracle(primes)
            split(n, oracle, ReductionConfig(seed=seed))
            queried += oracle.queries
        assert max(len(calls) for calls in per_curve) == 2
        for calls in per_curve:
            assert len(set(calls)) == len(calls)
        # each curve's own query is not a twist, and some twists repeated a count
        assert queried - len(per_curve) > sum(len(calls) for calls in per_curve)


class TestTwistSchedule:
    """The walk's d come off one cached sieve of squarefree flags below the
    least power of two above max_d."""

    def test_entries_are_the_squarefree_d(self):
        # every cut at a power of two: at the last d below it, at it, and one
        # past it
        squarefree = [d for d in range(2, 2 ** 15 + 2) if all(e == 1 for _, e in factor_small(d))]
        for top in (2999, *(2 ** k + i for k in range(1, 16) for i in (-1, 0, 1))):
            assert list(_twists(top)) == [d for d in squarefree if d <= top], top

    def test_the_longest_walk_keeps_under_a_megabyte(self):
        # a walk to MAX_D_LIMIT reads the flags below 2^20 and caches nothing
        # else; 607926 integers up to 10^6 are squarefree, 1 among them
        _squarefree.cache_clear()
        assert sum(1 for _ in _twists(MAX_D_LIMIT)) == 607925
        info = _squarefree.cache_info()
        assert info.currsize <= 19
        cached = len(_squarefree(2 ** 20))
        assert _squarefree.cache_info().currsize == info.currsize
        assert cached < 2 ** 20

    def test_a_dead_walk_to_20000(self, capsys):
        # the first curve of this n is dead and walks to max_d; queries,
        # curves and factors are pinned
        argv = ["factor", "1077272742627746153", "--seed", "419625122", "--max-d", "20000"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["factors"] == [1009900799, 1066711447]
        assert report["oracle_queries"] == 6102
        assert report["curves_used"] == 2

    def test_a_dead_walk_to_100000(self, capsys):
        # the same dead curve walks to 10^5
        argv = ["factor", "1077272742627746153", "--seed", "419625122", "--max-d", "100000"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["factors"] == [1009900799, 1066711447]
        assert report["oracle_queries"] == 30338
        assert report["curves_used"] == 2


class TestFactorCompletely:
    def test_examples(self):
        res = factor_completely(35, FactoredOracle([5, 7]), ReductionConfig(seed=1))
        assert res.factors == (5, 7)
        res = factor_completely(
            1155, FactoredOracle([5, 7, 11]), ReductionConfig(seed=1)
        )
        assert res.factors == (3, 5, 7, 11)
        res = factor_completely(7, FactoredOracle([7]), ReductionConfig(seed=1))
        assert res.factors == (7,)
        assert res.queries == 0

    def test_soundness_many_seeds(self):
        moduli = {
            5 * 7: [5, 7],
            11 * 13: [11, 13],
            5 * 7 * 11: [5, 7, 11],
            5 * 7 * 11 * 13: [5, 7, 11, 13],
            2 * 3 * 5 * 7: [5, 7],
        }
        for n, primes in moduli.items():
            for seed in range(10):
                res = factor_completely(n, FactoredOracle(primes), ReductionConfig(seed=seed))
                assert res.success
                assert math.prod(res.factors) == n
                assert all(is_probable_prime(f) for f in res.factors)
                assert list(res.factors) == sorted(res.factors)

    def test_determinism(self):
        runs = [
            factor_completely(5 * 7 * 11, FactoredOracle([5, 7, 11]), ReductionConfig(seed=9))
            for _ in range(2)
        ]
        assert runs[0].factors == runs[1].factors
        assert runs[0].curves_used == runs[1].curves_used
        assert runs[0].queries == runs[1].queries

    @pytest.mark.parametrize(
        "budget",
        [
            {"D": 0}, {"D": -5}, {"max_d": 1}, {"max_d": -3}, {"max_curves": -1},
            {"max_d": MAX_D_LIMIT + 1},
        ],
    )
    def test_config_rejects_bad_budgets(self, budget):
        with pytest.raises(ValueError, match="ReductionConfig"):
            ReductionConfig(**budget)

    def test_default_max_d_stops_at_the_cap(self):
        # 4*ceil(ln(n)^2) passes MAX_D_LIMIT from about 722 bits on; an
        # explicit max_d is returned as given
        cfg = ReductionConfig()
        assert cfg.resolved_max_d(2 ** 961 + 1) == MAX_D_LIMIT
        assert cfg.resolved_max_d(2 ** 240 + 1) == 110700
        assert ReductionConfig(max_d=5).resolved_max_d(2 ** 961 + 1) == 5
        assert ReductionConfig(max_d=MAX_D_LIMIT).resolved_max_d(35) == MAX_D_LIMIT

    def test_config_caps_d(self):
        assert ReductionConfig(D=D_MAX).D == D_MAX
        with pytest.raises(ValueError, match=f"ReductionConfig: D must be <= {D_MAX}"):
            ReductionConfig(D=D_MAX + 1)

    def test_rejects_squares_at_entry(self):
        # 4 | 140 and 9 | 18 are caught before any split; 5^2 | 25 is caught
        # by the oracle when it is asked about 25 (its UnsupportedModulusError
        # is a ValueError), or at the end when 5 comes back twice; n = 1 is
        # refused before anything
        with pytest.raises(ValueError, match="factor_completely: n must be >= 2"):
            factor_completely(1, FactoredOracle([5, 7]), ReductionConfig())
        for n in (140, 18, 36):
            with pytest.raises(ValueError, match=f"factor_completely: {n} is not squarefree"):
                factor_completely(n, FactoredOracle([5, 7]), ReductionConfig())
        with pytest.raises(ValueError, match="25"):
            factor_completely(25, FactoredOracle([5, 7]), ReductionConfig())

    @pytest.mark.parametrize("n, primes", [(25, [5, 7]), (539, [7, 11]), (1925, [5, 7, 11])])
    def test_a_repeated_prime_is_refused(self, n, primes):
        # a screening gcd can split off p before the oracle is asked about any
        # modulus holding p^2, so both parts reduce to p; 18 of these 120
        # runs get that far, and the rest are refused by the oracle
        repeated = 0
        for seed in range(40):
            with pytest.raises(ValueError) as exc:
                factor_completely(n, FactoredOracle(primes), ReductionConfig(seed=seed))
            if exc.type is not UnsupportedModulusError:
                assert str(exc.value).startswith(f"factor_completely: {n} is not squarefree")
                repeated += 1
        assert repeated > 0

    def test_exhausted_names_cofactor(self):
        # max_curves 0 can never split anything
        cfg = ReductionConfig(max_curves=0, seed=0)
        res = factor_completely(35, FactoredOracle([5, 7]), cfg)
        assert not res.success
        assert res.failed_cofactor == 35

    def test_stats_are_per_run_on_a_reused_oracle(self):
        n, primes = 5 * 7 * 11 * 13, [5, 7, 11, 13]
        oracle = FactoredOracle(primes)
        runs = [factor_completely(n, oracle, ReductionConfig(seed=s)) for s in (4, 5)]
        for seed, run in zip((4, 5), runs):
            fresh = factor_completely(n, FactoredOracle(primes), ReductionConfig(seed=seed))
            assert run == fresh
            assert run.queries > 0
        assert runs[0].queries + runs[1].queries == oracle.queries


class LyingOracle(FactoredOracle):
    """A FactoredOracle that adds +-2 to a seeded share of its answers,
    counted or read off a record."""

    def __init__(self, primes, share, seed):
        super().__init__(primes)
        self.share = share
        self.rng = random.Random(seed)

    def query(self, m, A, B, d=1):
        N = super().query(m, A, B, d)
        # N >= 4 for k >= 2 primes >= 5, so every answer stays >= 2
        return N + self.rng.choice((-2, 2)) if self.rng.random() < self.share else N


class TestLyingOracle:
    """A wrong count may cost the split its factor, never the factors' truth:
    a run either finds exactly the primes of n or reports a stuck cofactor,
    with every factor it did report a true prime of n."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.sampled_from([2, 3, 4, 8]),
        st.sampled_from([0.01, 0.1, 0.5, 1]),
        st.integers(0, 2 ** 32),
    )
    def test_wrong_answers_give_no_wrong_factor(self, k, share, seed):
        rng = random.Random(seed)
        primes = sorted(rng.sample(primes_between(1000, 2000), k))
        n = math.prod(primes)
        oracle = LyingOracle(primes, share, seed)
        res = factor_completely(n, oracle, ReductionConfig(max_curves=8, max_d=64, seed=seed))
        if res.success:
            assert list(res.factors) == primes
        else:
            assert set(res.factors) <= set(primes)
            assert n % res.failed_cofactor == 0


# The per-curve methods `split` can run. Each takes the contract below.
_METHODS = [ecfactor.reduction.twist_walk]


@pytest.mark.parametrize("method", _METHODS, ids=lambda method: method.__name__)
class TestMethodContract:
    """Each method, run by `split` on every curve: its parts are pairwise
    coprime, each > 1, and multiply to n under both oracles, and a lying
    oracle costs a run its factors but never their truth."""

    @pytest.mark.parametrize("make_oracle", _ORACLES.values(), ids=_ORACLES.keys())
    def test_parts_are_coprime_and_multiply_to_n(self, method, make_oracle, monkeypatch):
        monkeypatch.setattr(ecfactor.reduction, "twist_walk", method)
        # the small primes also end splits by a gcd, with the method's
        # parts or with split's own
        moduli = _seeded_moduli((2, 3, 4), 1000, 20_000, 12, "method contract")
        moduli += _seeded_moduli((2, 3), 5, 60, 20, "method contract, small primes")
        sources = set()
        for n, primes, seed in moduli:
            out = split(n, make_oracle(primes), ReductionConfig(seed=seed))
            sources.add(out.source)
            assert math.prod(out.parts) == n, (n, out)
            assert all(part > 1 for part in out.parts), (n, out)
            assert all(gcd(a, b) == 1 for i, a in enumerate(out.parts) for b in out.parts[i + 1:])
            assert (out.factor is None) == (out.parts == (n,)), (n, out)
        assert {"ratio", "d_gcd", "screen_gcd"} <= sources

    def test_a_lying_oracle_gives_no_wrong_factor(self, method, monkeypatch):
        # TestLyingOracle's check, on seeded draws of its k, share and seed
        monkeypatch.setattr(ecfactor.reduction, "twist_walk", method)
        rng = random.Random("method contract, lying oracle")
        for _ in range(40):
            k, share = rng.choice([2, 3, 4, 8]), rng.choice([0.01, 0.1, 0.5, 1])
            seed = rng.randrange(2 ** 32)
            primes = sorted(random.Random(seed).sample(primes_between(1000, 2000), k))
            n = math.prod(primes)
            oracle = LyingOracle(primes, share, seed)
            res = factor_completely(n, oracle, ReductionConfig(max_curves=8, max_d=64, seed=seed))
            if res.success:
                assert list(res.factors) == primes
            else:
                assert set(res.factors) <= set(primes)
                assert n % res.failed_cofactor == 0
