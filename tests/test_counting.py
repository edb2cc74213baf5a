"""Point counts against slow exact references.

At table primes (p <= 2^14) `legendre_sums` is the reference for the
one-lag count: the two agree on every smooth curve at every prime below 60,
on the j = 0 and j = 1728 classes and seeded curves at 997, 9973 and 16381,
and on a Hypothesis sample of primes up to the crossover. The one build of
the table and the weights equals the scattered-squares table and the
discrete-log weights at every prime below 3000, at seeded primes up to 2^14
and at 16381. Above the crossover the reference is `proof_aux`'s Legendre
count over the scattered-squares table: the Shanks-Mestre count agrees with
it at every prime in (229, 1e4], on all j = 0 and j = 1728 classes there,
and at seeded primes up to 1e7; `proof_aux.count_reference`, which shares
no code with the count, agrees with it on seeded curves, j = 0 and 1728
among them, at a prime in each octave of [2^14, 2^22]. From 1e7 to 2^40,
where no enumeration
reaches, counts are checked by the group law: [N]P = O for points of the
count's own walk on E and [2p + 2 - N]P = O on its twist, while N +- 2 fails
on the same points.
"""

import random
import time
from collections import Counter
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecfactor import counting
from ecfactor.arith import factor_small, is_probable_prime, jacobi, primes_between
from ecfactor.counting import (
    _bsgs_count,
    _legendre_count,
    _table_and_weights,
    count_affine_bruteforce,
    count_points_prime,
    legendre_sums,
    normal_form_traces,
    symbol,
)
from proof_aux import (
    bsgs_count_reference,
    count_reference,
    divisors,
    euler_sum_reference,
    legendre_count_reference,
    legendre_table_reference,
    mul_reference,
    normal_form_weights_reference,
    special_curves,
)


def random_smooth_pair(rng, m):
    while True:
        A, B = rng.randrange(m), rng.randrange(m)
        if gcd((4 * A ** 3 + 27 * B ** 2) % m, m) == 1:
            return A, B


def seeded_primes(rng, lo, hi, k):
    """k primes drawn uniformly from [lo, hi)."""
    out = []
    while len(out) < k:
        x = rng.randrange(lo, hi)
        if is_probable_prime(x):
            out.append(x)
    return out


class TestCountPointsPrime:
    def test_examples(self):
        assert count_points_prime(5, 1, 1) == 9
        assert count_points_prime(7, 1, 1) == 5
        assert count_points_prime(5, 4, 3) == 3

    def test_matches_naive_double_loop(self):
        for p in (5, 7, 11, 13):
            for A in range(p):
                for B in range(p):
                    if (4 * A ** 3 + 27 * B ** 2) % p == 0:
                        continue
                    affine = sum(
                        1
                        for x in range(p)
                        for y in range(p)
                        if (y * y - (x ** 3 + A * x + B)) % p == 0
                    )
                    assert count_points_prime(p, A, B) == affine + 1

    def test_rejects_singular_and_tiny_primes(self):
        with pytest.raises(ValueError):
            count_points_prime(5, 0, 0)
        with pytest.raises(ValueError):
            count_points_prime(3, 1, 1)
        with pytest.raises(ValueError):
            count_points_prime(9, 1, 1)

    def test_rejects_primes_above_the_size_limit(self):
        # 1152921504606847009 is the least prime above 2^60 and 2^61 - 1 is
        # prime; a count there would take seconds, so both are refused at once
        for p in (1152921504606847009, 2 ** 61 - 1):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=str(p)):
                count_points_prime(p, 1, 1)
            assert time.perf_counter() - start < 1.0

    def test_hasse_random(self):
        rng = random.Random(5)
        primes = primes_between(5, 10 ** 4)
        for _ in range(10 ** 4):
            p = rng.choice(primes)
            A, B = random_smooth_pair(rng, p)
            N = count_points_prime(p, A, B)
            assert type(N) is int
            a = p + 1 - N
            assert a ** 2 <= 4 * p
            assert abs(a) <= isqrt(4 * p)

    def test_twist_identity(self):
        # every twist is counted by the code under test, the curve itself by
        # the Legendre sum: at these primes a count with AB != 0 applies the
        # twist identity itself
        rng = random.Random(6)
        for p in primes_between(5, 299):
            for _ in range(20):
                A, B = random_smooth_pair(rng, p)
                n0 = _legendre_count(p, A, B)
                for d in range(1, p):
                    nd = count_points_prime(p, A * d * d % p, B * d ** 3 % p)
                    if jacobi(d, p) == -1:
                        assert n0 + nd == 2 * (p + 1)
                    else:
                        assert n0 == nd

    def test_twist_normal_form(self):
        # with AB != 0, y^2 = x^3 + Ax + B is the twist by B/A of
        # E_t: y^2 = x^3 + tx + t, t = A^3/B^2, so a_p(E) = (AB|p) * a_p(E_t);
        # the table-prime count (counting._normal_form_count) and the class
        # census both rely on it
        def check(p, A, B):
            t = A ** 3 * pow(B, -2, p) % p
            a_t = p + 1 - count_points_prime(p, t, t)
            assert p + 1 - count_points_prime(p, A, B) == jacobi(A * B, p) * a_t, (p, A, B)

        for p in primes_between(5, 60):
            for A in range(1, p):
                for B in range(1, p):
                    if (4 * A ** 3 + 27 * B ** 2) % p:
                        check(p, A, B)
        rng = random.Random(13)
        above = next(q for q in range(counting._CROSSOVER + 1, 2 * counting._CROSSOVER)
                     if is_probable_prime(q))
        for p in (above, 1000003, 2 ** 31 - 1):
            for _ in range(20):
                A, B = random_smooth_pair(rng, p)
                if A * B % p:
                    check(p, A, B)


class TestLegendreTable:
    """The character table, and the scattered-squares reference that the
    counts above the crossover are checked against, against jacobi, symbol
    by symbol."""

    def test_matches_jacobi_below_3000(self):
        for p in primes_between(5, 2999):
            expected = [0] + [jacobi(r, p) for r in range(1, p)]
            assert _table_and_weights(p)[0].tolist() == expected, p

    def test_matches_jacobi_near_1e6(self):
        rng = random.Random(10)
        primes = [p for p in range(10 ** 6 - 200, 10 ** 6 + 200) if is_probable_prime(p)]
        for p in primes[:3]:
            chi = legendre_table_reference(p)
            for r in [rng.randrange(p) for _ in range(10 ** 4)]:
                assert chi[r] == jacobi(r, p), (p, r)


class TestCharacterSums:
    """The census's batched sums against the counter's, curve by curve."""

    def test_normal_form_traces_match_the_count_per_t(self):
        # the census table of a(t) against the Legendre sum per t, not
        # count_points_prime, which reads the same weights
        for p in primes_between(5, 200) + [997]:
            ts = [t for t in range(1, p) if (4 * t + 27) % p]
            traces = normal_form_traces(p).tolist()
            assert traces == [p + 1 - _legendre_count(p, t, t) for t in ts], p
        # the float64 correlation above p = 1000, up to the largest table prime
        rng = random.Random("normal form traces above 1000")
        for p in (4093, 9973, 16381):
            ts = [t for t in range(1, p) if (4 * t + 27) % p]
            traces = normal_form_traces(p).tolist()
            assert len(traces) == len(ts) == p - 2, p
            for i in sorted(rng.sample(range(p - 2), 200)):
                assert traces[i] == p + 1 - _legendre_count(p, ts[i], ts[i]), (p, ts[i])

    def test_legendre_sums_over_a_column_match_one_curve_at_a_time(self):
        rng = random.Random(14)
        for p in primes_between(5, 200) + [997, 9973]:
            curves = special_curves(p)
            curves += [random_smooth_pair(rng, p) for _ in range(5)]
            A = np.array([[A] for A, _ in curves], dtype=np.int64)
            B = np.array([[B] for _, B in curves], dtype=np.int64)
            sums = legendre_sums(p, A, B).tolist()
            assert sums == [_legendre_count(p, A, B) - p - 1 for A, B in curves], p

    def test_legendre_sums_take_any_integer_coefficients(self):
        # negative A and B, and A and B whose Horner terms overflow int64 or
        # that are past it, read mod p, as one curve and, where they fit int64,
        # as a column
        values = [-5, 2 ** 62, 2 ** 62 + 3, 10 ** 30, -10 ** 30]
        pairs = [(A, B) for A in values for B in values]
        column = [(A, B) for A, B in pairs if abs(A) < 2 ** 63 and abs(B) < 2 ** 63]
        for p in [5, 7, 11, 13, 101, 997, 16381]:
            reduced = [int(legendre_sums(p, A % p, B % p)) for A, B in pairs]
            assert [legendre_sums(p, A, B) for A, B in pairs] == reduced, p
            A = np.array([[A] for A, _ in column], dtype=np.int64)
            B = np.array([[B] for _, B in column], dtype=np.int64)
            assert legendre_sums(p, A, B).tolist() == [
                reduced[pairs.index(pair)] for pair in column
            ], p
        assert legendre_sums(7, 2 ** 62, 1) == euler_sum_reference(7, 2 ** 62, 1) == -3
        for p, A, B in [(7, 10 ** 30, 1), (11, -10 ** 30, 2 ** 62 + 3), (101, -5, 10 ** 30)]:
            assert legendre_sums(p, A, B) == euler_sum_reference(p, A, B), (p, A, B)

    def test_normal_form_traces_refuse_primes_above_the_crossover(self):
        # 16411 is the least prime above 2^14, where no weights are built
        with pytest.raises(ValueError, match=f"<= {counting._CROSSOVER}, got 16411$"):
            normal_form_traces(16411)

    # 2^40 + 15 is prime, but above the crossover it has no character table
    @pytest.mark.parametrize("p", [9, 15, 2, 1099511627791])
    def test_legendre_sums_refuse_a_non_prime_or_small_p(self, p):
        bound = f"<= {counting._CROSSOVER}" if p > 1 << 24 else "a prime in \\[5, 2\\^60\\)"
        with pytest.raises(ValueError, match=f"p must be {bound}, got {p}$"):
            legendre_sums(p, 1, 1)


class TestOneLagCount:
    """The one-lag count at table primes against the Legendre sum."""

    def test_every_smooth_curve_below_60(self):
        for p in primes_between(5, 59):
            for A in range(p):
                for B in range(p):
                    if (4 * A ** 3 + 27 * B ** 2) % p:
                        assert count_points_prime(p, A, B) == _legendre_count(p, A, B), (p, A, B)

    def test_seeded_curves_up_to_the_crossover(self):
        # 16381 is the largest prime below 2^14; the j = 0 and j = 1728
        # classes take the Legendre sum, the random curves the one-lag count
        rng = random.Random(15)
        for p in (997, 9973, 16381):
            curves = special_curves(p)
            curves += [random_smooth_pair(rng, p) for _ in range(40)]
            for A, B in curves:
                assert count_points_prime(p, A, B) == _legendre_count(p, A, B), (p, A, B)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.sampled_from(primes_between(5, counting._CROSSOVER)),
        st.integers(0, 2 ** 64),
        st.integers(0, 2 ** 64),
    )
    def test_property_matches_legendre(self, p, A, B):
        A, B = A % p, B % p
        assume((4 * A ** 3 + 27 * B ** 2) % p)
        assert count_points_prime(p, A, B) == _legendre_count(p, A, B)

    def test_int16_dots_cannot_overflow(self):
        p = primes_between(2, counting._CROSSOVER)[-1]
        assert p == 16381
        w = _table_and_weights(p)[1]
        assert w.dtype == np.int16
        assert np.abs(w.astype(np.int64)).sum() <= p - 1 < 2 ** 15


class TestCharacterTable:
    def test_table_is_the_legendre_symbol(self):
        rng = random.Random(31)
        table_primes = primes_between(5, counting._CROSSOVER)
        for p in rng.sample(table_primes, 24) + [5, 16381]:
            chi = _table_and_weights(p)[0]
            assert not chi.flags.writeable, p
            assert chi.tolist() == [jacobi(x, p) for x in range(p)], p
            assert list(map(symbol(p), range(p))) == chi.tolist(), p

    def test_a_view_of_the_first_half_of_a_doubled_table(self):
        for p in (5, 1499, 16381):
            chi = _table_and_weights(p)[0]
            assert len(chi) == p, p
            doubled = chi.base
            assert len(doubled) == 2 * p and not doubled.flags.writeable, p
            assert (doubled[:p] == doubled[p:]).all(), p

    def test_none_above_the_crossover(self):
        # no table above the crossover: the symbol there is jacobi, and
        # taking it adds no cache entry
        rng = random.Random(32)
        before = _table_and_weights.cache_info().currsize
        for p in (16411, 1000003):
            xs = [0, 1, p - 1] + [rng.randrange(p) for _ in range(200)]
            assert [symbol(p)(x) for x in xs] == [jacobi(x, p) for x in xs], p
        assert _table_and_weights.cache_info().currsize == before
        for p in (9, 16413):
            with pytest.raises(ValueError, match=f"got {p}$"):
                symbol(p)


@pytest.fixture
def fresh_tables():
    # start from empty caches, and let the tables a test builds (the
    # reference's far above the crossover) go when it ends
    for cache in (_table_and_weights, legendre_table_reference):
        cache.cache_clear()
    yield
    for cache in (_table_and_weights, legendre_table_reference):
        cache.cache_clear()


class TestTableCache:
    def test_counts_at_one_prime_share_one_read_only_table(self, fresh_tables):
        count_points_prime(1009, 1, 1)
        table = _table_and_weights(1009)[0]
        count_points_prime(1009, 2, 3)
        assert _table_and_weights(1009)[0] is table
        assert not table.flags.writeable
        assert _table_and_weights.cache_info().currsize == 1

    def test_counts_at_one_prime_share_one_read_only_weights_array(self, fresh_tables):
        count_points_prime(1009, 1, 1)
        weights = _table_and_weights(1009)[1]
        count_points_prime(1009, 2, 3)
        assert _table_and_weights(1009)[1] is weights
        assert not weights.flags.writeable
        assert _table_and_weights.cache_info().currsize == 1


class TestOneBuild:
    """The table and the weights from one array of powers, against the
    scattered-squares table and the discrete-log weights."""

    @staticmethod
    def check(p):
        chi, w = _table_and_weights(p)
        assert chi.dtype == np.int8 and w.dtype == np.int16, p
        assert np.array_equal(chi, legendre_table_reference(p)), p
        assert np.array_equal(w, normal_form_weights_reference(p)), p

    def test_every_prime_below_3000(self, fresh_tables):
        for p in primes_between(5, 2999):
            self.check(p)

    def test_seeded_primes_to_the_crossover(self, fresh_tables):
        # 16381 is the largest table prime
        rng = random.Random("one build")
        for p in rng.sample(primes_between(3000, counting._CROSSOVER), 12) + [16381]:
            self.check(p)


class TestShanksMestre:
    """Baby-step/giant-step against the Legendre sum, helper against helper."""

    def test_every_prime_to_1e4_with_all_j0_and_j1728_classes(self, fresh_tables):
        # every coset of (F_p*)^6 for j = 0 and of (F_p*)^4 for j = 1728 is
        # one class, and they hold the extreme traces, e.g. |a| = floor(2 sqrt p)
        # at j = 1728 when p = u^2 + 1
        rng = random.Random(11)
        for p in primes_between(230, 10 ** 4):
            curves = special_curves(p)
            curves.append(random_smooth_pair(rng, p))
            for A, B in curves:
                assert _bsgs_count(p, A, B) == legendre_count_reference(p, A, B), (p, A, B)

    def test_seeded_primes_near_1e6_to_1e7(self, fresh_tables):
        # the Legendre side costs about 40 ms per count at 1e6 and 0.4 s at
        # 1e7, so all but one prime sit near the low end
        rng = random.Random(12)
        primes = seeded_primes(rng, 10 ** 6, 15 * 10 ** 5, 32)
        primes += seeded_primes(rng, 10 ** 7, 10 ** 7 + 10 ** 5, 1)
        for p in primes:
            A, B = random_smooth_pair(rng, p)
            assert _bsgs_count(p, A, B) == legendre_count_reference(p, A, B), (p, A, B)
            legendre_table_reference.cache_clear()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.sampled_from(primes_between(230, 3 * 10 ** 4)),
        st.integers(0, 2 ** 64),
        st.integers(0, 2 ** 64),
    )
    def test_property_matches_legendre(self, p, A, B):
        A, B = A % p, B % p
        assume((4 * A ** 3 + 27 * B ** 2) % p)
        assert _bsgs_count(p, A, B) == legendre_count_reference(p, A, B)

    def test_dispatch_on_the_crossover(self, fresh_tables):
        # a count above the crossover builds no character table and no weights
        below = primes_between(2, counting._CROSSOVER)[-1]
        above = next(q for q in range(counting._CROSSOVER, 2 * counting._CROSSOVER)
                     if is_probable_prime(q))
        count_points_prime(above, 1, 1)
        count_points_prime(1000003, 2, 3)
        assert _table_and_weights.cache_info().currsize == 0
        count_points_prime(below, 1, 1)
        assert _table_and_weights.cache_info().currsize == 1

    def test_upper_half_exit_against_the_always_strip_reference(self, monkeypatch):
        # A match k with 2k >= kmin + kmax ends the count at once; a lower-half
        # match is stripped. The reference strips every match. Near the
        # crossover the Hasse window is widest against p, and the j = 0 and
        # 1728 curves there are the likeliest to hold two matches in it: the
        # least is then not the group order, and a count that skipped the
        # strip would go wrong (a few in a hundred such curves).
        folds = []  # [upper half?, what _fold_order returned] per match
        bsgs, fold_order = counting._bsgs, counting._fold_order

        def recording_bsgs(Q, kmin, kmax, a, p):
            k = bsgs(Q, kmin, kmax, a, p)
            folds.append([2 * k >= kmin + kmax, None])
            return k

        def recording_fold_order(*args):
            before = len(folds)
            M = fold_order(*args)
            if len(folds) > before:
                folds[-1][1] = M
            return M

        rng = random.Random(25)
        curves = [(p, *random_smooth_pair(rng, p)) for p in seeded_primes(rng, 16411, 10 ** 6, 80)]
        for p in seeded_primes(rng, 16411, 10 ** 6, 20) + seeded_primes(rng, 16411, 1 << 15, 60):
            curves += [(p, 0, rng.randrange(1, p)), (p, rng.randrange(1, p), 0)]  # j = 0, 1728
        monkeypatch.setattr(counting, "_bsgs", recording_bsgs)
        monkeypatch.setattr(counting, "_fold_order", recording_fold_order)
        exits = {"E": 0, "twist": 0}
        stripped = 0
        for p, A, B in curves:
            expected = bsgs_count_reference(p, A, B)
            folds.clear()
            N = _bsgs_count(p, A, B)
            assert N == expected, (p, A, B)
            stripped += not all(upper for upper, _ in folds)
            if folds and folds[-1][0]:
                assert folds[-1][1] in (N, 2 * p + 2 - N), (p, A, B)
                exits["E" if folds[-1][1] == N else "twist"] += 1
        assert stripped >= len(curves) / 3, stripped
        assert sum(exits.values()) >= len(curves) / 3, exits
        assert min(exits.values()) >= len(curves) / 10, exits

    def test_divisor_test_against_the_always_strip_reference(self, monkeypatch):
        # The curves of the upper-half test, whose j = 0 and 1728 curves near
        # the crossover often hold a lower-half match and a second point on a
        # side (L > 1). Every fold must return L times the order of [L]P, by
        # the reference's strip, or its side's group order, and make no more
        # scalar multiplications after the match k than k has prime factors.
        rng = random.Random(25)
        curves = [(p, *random_smooth_pair(rng, p)) for p in seeded_primes(rng, 16411, 10 ** 6, 80)]
        for p in seeded_primes(rng, 16411, 10 ** 6, 20) + seeded_primes(rng, 16411, 1 << 15, 60):
            curves += [(p, 0, rng.randrange(1, p)), (p, rng.randrange(1, p), 0)]  # j = 0, 1728
        bsgs, fold_order, mul = counting._bsgs, counting._fold_order, counting._mul
        state = {}  # the match of the current fold and the _mul calls since

        def recording_bsgs(Q, kmin, kmax, a, p):
            k = bsgs(Q, kmin, kmax, a, p)
            state.update(k=k, kmin=kmin, kmax=kmax, muls=0)
            return k

        def counting_mul(k, P, a, p):
            if "k" in state:
                state["muls"] += 1
            return mul(k, P, a, p)

        folds = []  # (P, L, a, k, candidates, muls, result) per fold past its match

        def recording_fold_order(P, L, lo, hi, a, p):
            state.clear()
            M = fold_order(P, L, lo, hi, a, p)
            if "k" in state:
                k, kmin, kmax = state["k"], state["kmin"], state["kmax"]
                candidates = sum(k - kmin < d <= kmax - k for d in divisors(k))
                folds.append((P, L, a, k, candidates, state["muls"], M))
            state.clear()
            return M

        monkeypatch.setattr(counting, "_bsgs", recording_bsgs)
        monkeypatch.setattr(counting, "_mul", counting_mul)
        monkeypatch.setattr(counting, "_fold_order", recording_fold_order)
        second_points = tested = stripped = 0
        for p, A, B in curves:
            folds.clear()
            N = _bsgs_count(p, A, B)
            assert N == bsgs_count_reference(p, A, B), (p, A, B)
            for P, L, a, k, candidates, muls, M in folds:
                omega = sum(e for _, e in factor_small(k))
                assert muls <= omega, (p, A, B, k, muls)
                Q = mul_reference(L, P, a, p)
                order = k
                for q, e in factor_small(k):
                    for _ in range(e):
                        if mul_reference(order // q, Q, a, p) is not None:
                            break
                        order //= q
                if M != L * order:
                    assert M in (N, 2 * p + 2 - N), (p, A, B, L, k, M)
                    assert mul_reference(M, P, a, p) is None, (p, A, B, L, k, M)
                second_points += L > 1
                tested += 0 < candidates <= omega
                stripped += candidates > omega
        # 46 folds of a second point, 38 by the divisor test, 88 by the strip
        assert second_points >= 30 and tested >= 20 and stripped >= 40, (second_points, tested, stripped)


class TestCountsTo2_22:
    def test_seeded_curves_against_the_chunked_reference(self, monkeypatch):
        # a random curve, one with A = 0 and one with B = 0 at a seeded prime
        # in each [2^e, 2^(e+1)), 14 <= e < 22; each fold past a match is
        # sorted by the rule that settles it: the upper-half exit, the divisor
        # test or the strip (`counting._fold_order`), and the lower half's two
        # rules must both run
        rng = random.Random(47)
        curves = []
        for e in range(14, 22):
            p = seeded_primes(rng, 2 ** e, 2 ** (e + 1), 1)[0]
            curves += [(p, *random_smooth_pair(rng, p)), (p, 0, rng.randrange(1, p)),
                       (p, rng.randrange(1, p), 0)]
        bsgs, fold_order = counting._bsgs, counting._fold_order
        match = {}
        rules = Counter()

        def recording_bsgs(Q, kmin, kmax, a, p):
            k = bsgs(Q, kmin, kmax, a, p)
            match.update(k=k, kmin=kmin, kmax=kmax)
            return k

        def sorting_fold_order(*args):
            match.clear()
            M = fold_order(*args)
            if match:
                k, kmin, kmax = match["k"], match["kmin"], match["kmax"]
                candidates = sum(k - kmin < d <= kmax - k for d in divisors(k))
                if 2 * k >= kmin + kmax:
                    rules["upper"] += 1
                elif candidates <= sum(e for _, e in factor_small(k)):
                    rules["divisors"] += 1
                else:
                    rules["strip"] += 1
            return M

        monkeypatch.setattr(counting, "_bsgs", recording_bsgs)
        monkeypatch.setattr(counting, "_fold_order", sorting_fold_order)
        for p, A, B in curves:
            assert count_points_prime(p, A, B) == count_reference(p, A, B), (p, A, B)
        assert rules["divisors"] >= 3 and rules["strip"] >= 3, rules


class TestScalarMul:
    """`_mul` in Jacobian coordinates against the affine `mul_reference`, exactly."""

    P16411 = next(q for q in range(counting._CROSSOVER + 1, 2 * counting._CROSSOVER)
                  if is_probable_prime(q))

    def test_infinity_and_zero(self):
        p = self.P16411
        assert counting._mul(5, None, 1, p) is None
        assert counting._mul(0, None, 1, p) is None
        assert counting._mul(0, (3, 7), 1, p) is None
        assert mul_reference(0, (3, 7), 1, p) is None

    def test_points_with_y_zero(self):
        # (r, 0) lies on Y^2 = X^3 + aX - r^3 - ar and has order 2
        rng = random.Random(31)
        for p in (self.P16411, 1000003, 2 ** 31 - 1, 1152921504606846883):
            for _ in range(10):
                P, a = (rng.randrange(p), 0), rng.randrange(p)
                for k in list(range(12)) + [rng.randrange(2 ** 64) for _ in range(4)]:
                    assert counting._mul(k, P, a, p) == mul_reference(k, P, a, p), (p, P, a, k)
                    assert counting._mul(k, P, a, p) == (P if k & 1 else None)

    def test_small_orders_reach_the_plus_minus_P_branch(self, monkeypatch):
        # points of order 3 to 60, from [N/d] of walk points on curves at
        # 16411; k = ord - 1, ord + 1, 2 ord and every k below 3 ord + 2
        rng = random.Random(32)
        p = self.P16411
        points = {}  # order -> (Q, a)
        while len(points) < 20:
            A, B = random_smooth_pair(rng, p)
            N = count_points_prime(p, A, B)
            x0 = rng.randrange(p)
            f = ((x0 * x0 + A) * x0 + B) % p
            if not f or jacobi(f, p) != 1:
                continue
            P, a = (x0 * f % p, f * f % p), A * f * f % p
            for d in range(3, 61):
                Q = mul_reference(N // d, P, a, p) if N % d == 0 else None
                if Q is not None:
                    order = next(j for j in range(1, d + 1) if mul_reference(j, Q, a, p) is None)
                    points.setdefault(order, (Q, a))
        cases = [(order, Q, a, k, mul_reference(k, Q, a, p))
                 for order, (Q, a) in points.items()
                 for k in sorted({order - 1, order + 1, 2 * order, *range(3 * order + 2)})]
        add, branch = counting._add, []

        def recording_add(P, Q, a, p):
            R = add(P, Q, a, p)
            branch.append(R is None)
            return R

        monkeypatch.setattr(counting, "_add", recording_add)
        for order, Q, a, k, expected in cases:
            assert counting._mul(k, Q, a, p) == expected, (order, k)
        # both the R = P and the R = -P cases of the branch were reached
        assert branch.count(True) >= 10 and branch.count(False) >= 10, branch

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.integers(counting._CROSSOVER + 1, (1 << 60) - 1),
        st.integers(0, 2 ** 64),
        st.integers(0, 2 ** 64),
        st.integers(0, 2 ** 64),
        st.integers(0, 2 ** 64 - 1),
    )
    def test_property_matches_the_affine_reference(self, p, A, B, x0, k):
        while not is_probable_prime(p):
            p += 1
        assume(p < 1 << 60)
        A, B, x0 = A % p, B % p, x0 % p
        f = ((x0 * x0 + A) * x0 + B) % p  # a walk point, on E or on its twist
        assume(f)
        P, a = (x0 * f % p, f * f % p), A * f * f % p
        assert counting._mul(k, P, a, p) == mul_reference(k, P, a, p)


class TestCountsAbove1e7:
    """Counts no enumeration reaches, checked by the group law: [N]P = O on E
    and [2p + 2 - N]P = O on its twist, for the points (x0 f, f^2) of the
    count's own walk, which lie on Y^2 = X^3 + A f^2 X + B f^3."""

    @staticmethod
    def kills(p, A, B, N, per_side=3):
        seen = {0: 0, 1: 0}
        for x0 in range(p):
            f = ((x0 * x0 + A) * x0 + B) % p
            if f == 0:
                continue
            side = (1 - jacobi(f, p)) // 2
            if seen[side] == per_side:
                if min(seen.values()) == per_side:
                    return True
                continue
            seen[side] += 1
            order = N if side == 0 else 2 * p + 2 - N
            if mul_reference(order, (x0 * f % p, f * f % p), A * f * f % p, p) is not None:
                return False
        raise AssertionError(f"fewer than {per_side} points on a side at {p}")

    def test_seeded_primes_from_1e7_to_2_40(self):
        rng = random.Random(26)
        primes = [seeded_primes(rng, lo, 2 * lo, 1)[0]
                  for lo in (10 ** 7, 2 ** 25, 2 ** 27, 2 ** 29, 2 ** 31, 2 ** 33,
                             2 ** 34, 2 ** 35, 2 ** 36, 2 ** 37, 2 ** 38, 2 ** 39)]
        assert primes[-1] < 2 ** 40
        start = time.perf_counter()
        for p in primes:
            A, B = random_smooth_pair(rng, p)
            N = count_points_prime(p, A, B)
            assert (N - p - 1) ** 2 <= 4 * p, (p, A, B, N)
            assert self.kills(p, A, B, N), (p, A, B, N)
            assert not self.kills(p, A, B, N + 2), (p, A, B, N)
            assert not self.kills(p, A, B, N - 2), (p, A, B, N)
        assert time.perf_counter() - start < 5.0


class TestAffineBruteforce:
    def test_examples(self):
        assert count_affine_bruteforce(5, 1, 1) == 8
        assert count_affine_bruteforce(35, 1, 1) == 32
        assert count_affine_bruteforce(7, 1, 1) == 4

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            count_affine_bruteforce(10 ** 5 + 1, 1, 1)

    def test_crt_cross_check(self):
        # affine count mod n equals the product of per-prime affine counts
        rng = random.Random(7)
        for n in range(5, 3001, 2):
            facts = factor_small(n)
            if any(e > 1 for _, e in facts) or any(p < 5 for p, _ in facts):
                continue
            primes = [p for p, _ in facts]
            for _ in range(10):
                A, B = random_smooth_pair(rng, n)
                prod = 1
                for p in primes:
                    prod *= count_points_prime(p, A % p, B % p) - 1
                assert count_affine_bruteforce(n, A, B) == prod

    def test_legendre_sum_within_hasse(self):
        rng = random.Random(8)
        primes = primes_between(5, 3000)
        for _ in range(500):
            p = rng.choice(primes)
            A, B = random_smooth_pair(rng, p)
            s = count_points_prime(p, A, B) - (p + 1)
            assert abs(s) <= isqrt(4 * p)
