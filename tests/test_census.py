"""The census kernels, sweeps and CSV against plain references.

The class enumeration is checked against two slow ones kept here: the orbit
walk of (A, B) under (l^4 A, l^6 B), at every prime up to 400 and three
seeded primes up to 1000, and one count per j (`j_loop_traces`, which counts
the j = 0 and j = 1728 classes with `count_points_prime`) at every prime up
to the enumeration limit, 1000.
"""

import gc
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from math import gcd, isqrt
from pathlib import Path

import numpy as np
import pytest

from ecfactor import census
from ecfactor.arith import is_probable_prime, primes_between
from ecfactor.census import (
    CSV_HEADER,
    NonResidueNotFound,
    census_sweep,
    isomorphism_class_traces,
    lower_bounds,
    nonresidue_search,
    phi_direct,
    phi_mobius,
)
from ecfactor.counting import count_points_prime
from proof_aux import (
    lower_bounds_reference,
    phi_lower_check,
    phi_reference,
    primorial_check,
    special_curves,
    tau,
)


def sweep_csv(*args, **kwargs):
    """The whole census CSV of one sweep, its blocks joined."""
    return "".join(census_sweep(*args, **kwargs))


def sweep_rows(*args, **kwargs):
    """The lines of one sweep, each a dict from column name to field."""
    lines = sweep_csv(*args, **kwargs).splitlines()
    return [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines[1:]]


def reference_lines(p, d_list, with_classes):
    """The census lines of p x d_list from the scalar kernels, each field
    formatted on its own, with the classes counted by a plain gcd loop."""
    gcds = [gcd(a, p + 1) for a in isomorphism_class_traces(p)] if with_classes else []
    lines = []
    for D in d_list:
        b22, b23 = lower_bounds(p, D)
        classes = f"{sum(g <= (D or p + 1) for g in gcds)},{len(gcds)}" if gcds else ","
        lines.append(
            f"{p},{D or p + 1},{phi_direct(p, D)},{phi_mobius(p, D)},"
            f"{b22:.6g},{b23:.6g},{classes}"
        )
    return lines


class TestPhiCounts:
    def test_examples(self):
        assert phi_direct(5, 1) == 1
        assert phi_direct(5, 6) == 4
        assert phi_direct(7, 1) == 3
        assert phi_mobius(5, 1) == 1
        assert phi_mobius(5, 6) == 4
        assert phi_mobius(7, 1) == 3
        # a negative D is refused, as the sweep and the CLI refuse it
        with pytest.raises(ValueError, match="D must be >= 0"):
            phi_direct(101, -40000)

    @pytest.mark.parametrize("D", [-1, -3, -100, -40000])
    @pytest.mark.parametrize("kernel", [phi_direct, phi_mobius, lower_bounds])
    def test_every_kernel_refuses_a_negative_D(self, kernel, D):
        # one message for every kernel, scalar or block, whatever the other D;
        # 16519 takes phi_direct past its gcd table
        message = f"^census: D must be >= 0, got {D}$"
        with pytest.raises(ValueError, match=message):
            kernel(101, D)
        with pytest.raises(ValueError, match=message):
            kernel(np.array([5, 101, 16519]), [1, D, 0])

    @pytest.mark.parametrize("kernel", [phi_direct, phi_mobius, lower_bounds])
    def test_every_kernel_answers_an_empty_D_list(self, kernel):
        # no D is a grid of no columns, for one prime and for a block; 16519
        # takes phi_direct past its gcd table
        dtype = np.float64 if kernel is lower_bounds else np.int64
        for p in (101, np.array([5, 101, 16519])):
            out = kernel(p, [])
            for grid in out if kernel is lower_bounds else (out,):
                assert grid.dtype == dtype and grid.shape == (np.size(p), 0)

    def test_identity_medium_sweep(self):
        # D = 0 reads as p + 1; 110 > 2*sqrt(3000); 2^70 does not fit int64
        primes = primes_between(5, 3000)
        d_list = [0, 1, 2, 3, 5, 7, 10, 12, 40, 110, 2 ** 70]
        block = phi_direct(np.array(primes), d_list), phi_mobius(np.array(primes), d_list)
        for i, p in enumerate(primes):
            bound = isqrt(4 * p)
            for k, D in enumerate(d_list + [p + 1]):
                plain = sum(1 for a in range(1, bound + 1) if gcd(a, p + 1) <= (D or p + 1))
                assert phi_direct(p, D) == phi_mobius(p, D) == plain, (p, D)
                if k < len(d_list):
                    assert block[0][i, k] == block[1][i, k] == plain, (p, D)

    def test_identity_at_large_p_and_repeated_D(self):
        # D on both sides of sqrt(B) and just below, at and past B, D = 0, a
        # D past int64 and a repeated D, at one prime a block and all three
        # in one block
        rng = random.Random("phi identity at large p")
        primes = []
        for k in (20, 30, 40):
            p = (1 << k) + rng.randrange(1 << 10)
            while not is_probable_prime(p):
                p += 1
            primes.append(p)
        d_lists = []
        for p in primes:
            top = isqrt(4 * p)
            r = isqrt(top)
            d_lists.append([1, 2, r, r + 1, top - 1, top, top + 1, 0, 2 ** 70, 3, 3])
        blocks = [([p], ds) for p, ds in zip(primes, d_lists)]
        blocks.append((primes, sum(d_lists, [])))
        for block, d_list in blocks:
            ps = np.array(block)
            direct, mobius = phi_direct(ps, d_list), phi_mobius(ps, d_list)
            assert direct.shape == mobius.shape == (len(block), len(d_list))
            for i, p in enumerate(block):
                for k, D in enumerate(d_list):
                    assert mobius[i, k] == direct[i, k], (p, D)

    def test_gcd_table_is_gcd(self):
        # every (a, r) in the table's square, gcd(a, 0) = a and gcd(0, 0) = 0
        a = np.arange(census._GCD_TOP + 1)
        assert (census._gcd_table() == np.gcd.outer(a, a)).all()

    def test_table_and_gcd_paths_agree_at_the_table_bound(self, monkeypatch):
        # floor(2*sqrt(p)) passes _GCD_TOP = 256 at p = 16513: the primes up to
        # it make a block that reads the table, and one prime above 17000 forces
        # the same rows onto np.gcd
        reads = []
        table = census._gcd_table
        monkeypatch.setattr(census, "_gcd_table", lambda: reads.append(1) or table())
        primes = primes_between(16000, 17000)
        low = [p for p in primes if isqrt(4 * p) <= census._GCD_TOP]
        assert 0 < len(low) < len(primes)
        d_list = [0, 1, 255, 256, 257, 10 ** 30]
        from_table = phi_direct(np.array(low), d_list)
        forced = phi_direct(np.array(low + [17011]), d_list)
        assert len(reads) == 1
        assert (from_table == forced[:-1]).all()
        assert (forced == phi_mobius(np.array(low + [17011]), d_list)).all()

    def test_direct_compares_once_per_distinct_D(self, monkeypatch):
        # a D at or past the block's top bound counts every a <= bound, so the
        # 3002 D over the primes of [5, 300] take one comparison per distinct
        # min(D, top), D = 0 counting as top: 34, however many D
        primes = np.array(primes_between(5, 300))
        d_list = [*range(3001), 2 ** 70]
        top = isqrt(4 * int(primes[-1]))
        calls = []
        count = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda *a, **k: calls.append(1) or count(*a, **k))
        direct = phi_direct(primes, d_list)
        monkeypatch.undo()
        assert len(calls) == len({min(D or top, top) for D in d_list}) == 34, len(calls)
        assert (direct == phi_mobius(primes, d_list)).all()
        reference = [[phi_reference(p, D) for D in d_list] for p in primes.tolist()]
        assert direct.tolist() == reference

    def test_mobius_passes_do_not_grow_with_D(self, monkeypatch):
        # phi_mobius makes one difference pass per prime among the block's
        # divisors, found by one is_probable_prime call per divisor, whatever
        # the D: as many calls with 3002 D as with one
        primes = np.array(primes_between(5, 300))
        calls = []
        prime = census.is_probable_prime
        monkeypatch.setattr(census, "is_probable_prime", lambda q: calls.append(q) or prime(q))
        d_list = [*range(3001), 2 ** 70]
        mobius = phi_mobius(primes, d_list)
        many = len(calls)
        one = phi_mobius(primes, [1])
        monkeypatch.undo()
        assert 0 < many == len(calls) - many, (many, len(calls))
        reference = [[phi_reference(p, D) for D in d_list] for p in primes.tolist()]
        assert mobius.tolist() == reference
        assert one[:, 0].tolist() == [phi_reference(p, 1) for p in primes.tolist()]

    def test_mobius_at_p_plus_1_a_power_of_2(self):
        # p + 1 = 2^k: the one prime q = 2 carries every power of the divisors
        mersenne = [8191, 131071, 524287, 2 ** 31 - 1]
        d_lists = []
        for p in mersenne:
            B = isqrt(4 * p)
            r = isqrt(B)
            d_lists.append([0, 1, 2, 3, 4, 5, 8, r, r + 1, B // 2, B, B + 1])
        for p, d_list in zip(mersenne, d_lists):
            reference = [phi_reference(p, D) for D in d_list]
            assert [phi_mobius(p, D) for D in d_list] == reference, p
            assert phi_direct(np.array([p]), d_list)[0].tolist() == reference, p
        d_list = sum(d_lists, [])
        block = phi_mobius(np.array(mersenne), d_list)
        assert (block == phi_direct(np.array(mersenne), d_list)).all()

    def test_zero_D_is_p_plus_1_everywhere(self):
        for p in (5, 7, 13, 101, 997):
            assert phi_direct(p, 0) == phi_mobius(p, 0) == isqrt(4 * p)
            assert lower_bounds(p, 0) == lower_bounds(p, p + 1)
            (line,) = reference_lines(p, [0], True)
            assert sweep_csv(p, p, [0]) == sweep_csv(p, p, [p + 1]) == f"{CSV_HEADER}\n{line}\n"
            (row,) = sweep_rows(p, p, [0])
            assert row["D"] == str(p + 1) and row["s_classes"] == row["total_classes"]

    def test_monotone_in_D_and_saturates(self):
        for p in (13, 101, 997):
            prev = 0
            for D in range(1, 20):
                cur = phi_direct(p, D)
                assert cur >= prev
                prev = cur
            assert phi_direct(p, p + 1) == isqrt(4 * p)


class TestLowerBounds:
    def test_worked_101_example(self):
        _, b23 = lower_bounds(101, 1)
        assert b23 == pytest.approx(math.sqrt(101) * 32 / 51 - 4, abs=1e-12)
        assert phi_direct(101, 1) >= b23

    def test_matches_reference_formula_to_3000(self):
        # bit-identical floats, so the census CSV cannot move
        for p in primes_between(5, 3000):
            for D in (1, 2, 3, 5, 10, 12, p + 1):
                assert lower_bounds(p, D) == lower_bounds_reference(p, D), (p, D)

    def test_bounds_hold_medium_sweep(self):
        for p in primes_between(5, 1000):
            for D in (1, 2, 3, 5, 10, p + 1):
                b22, b23 = lower_bounds(p, D)
                direct = phi_direct(p, D)
                assert direct >= b22
                assert direct >= b23

    def test_maximal_D_bound(self):
        for p in (5, 13, 101):
            b22, _ = lower_bounds(p, p + 1)
            assert b22 <= phi_direct(p, p + 1) == isqrt(4 * p)


def orbit_walk_traces(p):
    """Reference class enumeration: one trace per orbit of (A, B) under
    (A, B) -> (l^4 A, l^6 B), l in F_p*, walking every smooth (A, B)."""
    seen = bytearray(p * p)
    l4 = [pow(l, 4, p) for l in range(1, p)]
    l6 = [pow(l, 6, p) for l in range(1, p)]
    traces = []
    for A in range(p):
        for B in range(p):
            if seen[A * p + B] or (4 * A * A * A + 27 * B * B) % p == 0:
                continue
            for f4, f6 in zip(l4, l6):
                seen[(f4 * A % p) * p + f6 * B % p] = 1
            traces.append(p + 1 - count_points_prime(p, A, B))
    return traces


def j_loop_traces(p):
    """Reference class enumeration by j-invariant with one count per j:
    y^2 = x^3 + 3j(1728-j) x + 2j(1728-j)^2 and its twist for j != 0, 1728,
    and one count per coset class at j = 0 and j = 1728."""
    traces = []
    for j in range(1, p):
        k = (1728 - j) % p
        if k == 0:
            continue
        a = p + 1 - count_points_prime(p, 3 * j * k, 2 * j * k * k)
        traces += (a, -a)
    traces += [p + 1 - count_points_prime(p, A, B) for A, B in special_curves(p)]
    return traces


class TestClassCensus:
    def test_correlation_matches_j_loop_to_the_enumeration_limit(self):
        for p in primes_between(5, 1000):
            traces = isomorphism_class_traces(p)
            assert Counter(traces) == Counter(j_loop_traces(p)), p
            assert len(traces) == 2 * p + {1: 6, 5: 2, 7: 4, 11: 0}[p % 12]

    def test_j_invariant_enumeration_matches_orbit_walk(self):
        rng = random.Random(5)
        large = rng.sample(primes_between(401, 1000), 3)
        for p in primes_between(5, 400) + large:
            traces = isomorphism_class_traces(p)
            assert Counter(traces) == Counter(orbit_walk_traces(p)), p
            assert len(traces) == 2 * p + {1: 6, 5: 2, 7: 4, 11: 0}[p % 12]

    def test_p5_examples(self):
        at_6, at_1 = sweep_rows(5, 5, [6, 1])
        assert at_6["total_classes"] == "12"
        assert at_6["s_classes"] == "12"
        assert at_1["s_classes"] == "2"

    def test_p5_trace_multiset(self):
        traces = sorted(isomorphism_class_traces(5))
        assert traces == [-4, -3, -2, -2, -1, 0, 0, 1, 2, 2, 3, 4]

    def test_trace_multiset_symmetric_and_balanced(self):
        for p in primes_between(5, 200):
            counts = Counter(isomorphism_class_traces(p))
            assert sum(a * c for a, c in counts.items()) == 0
            for a, c in counts.items():
                assert counts[-a] == c

    def test_class_floor(self):
        # every admissible +-a pair is realized by at least one class each
        for row in sweep_rows(5, 200, [1, 3, 10, 0]):
            p, D = int(row["p"]), int(row["D"])
            assert int(row["s_classes"]) >= 2 * phi_direct(p, D), (p, D)

    def test_signed_trace_doubling(self):
        for p in primes_between(5, 200):
            bound = isqrt(4 * p)
            for D in (1, 3, 10):
                signed = sum(
                    2
                    for a in range(1, bound + 1)
                    if gcd(a, p + 1) <= D
                )
                assert signed == 2 * phi_direct(p, D)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            isomorphism_class_traces(3)
        with pytest.raises(ValueError):
            isomorphism_class_traces(1009)


class TestNonResidueSearch:
    def test_examples(self):
        assert nonresidue_search(5, 7).d_min == 2
        assert nonresidue_search(7, 5).d_min == 6
        assert nonresidue_search(3, 1).d_min == 2

    def test_minimality_and_symbols(self):
        from ecfactor.arith import jacobi

        for p, m in ((5, 7), (7, 5), (11, 13), (13, 33)):
            rec = nonresidue_search(p, m)
            assert jacobi(rec.d_min, p) == -1
            assert jacobi(rec.d_min, m) == 1
            for d in range(1, rec.d_min):
                assert not (
                    jacobi(d, p) == -1 and gcd(d, m) == 1 and jacobi(d, m) == 1
                )

    def test_cap_exceeded(self):
        with pytest.raises(NonResidueNotFound):
            nonresidue_search(5, 7, cap=1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            nonresidue_search(5, 10)  # even m
        with pytest.raises(ValueError):
            nonresidue_search(5, 15)  # shared factor
        for p, m, cap in [(15, 7, 10), (9, 5, 10), (7, 5, 0), (7, 5, -1)]:
            with pytest.raises(ValueError):
                nonresidue_search(p, m, cap)  # composite p, or an empty cap


class TestProofAuxiliaries:
    def test_primorial_range(self):
        for l in range(13, 32):
            assert primorial_check(l)
        assert primorial_check(1)

    def test_phi_lower_small(self):
        assert phi_lower_check(6)
        assert phi_lower_check(30)
        assert phi_lower_check(3)


class TestCsvOutput:
    def test_header_and_shape(self):
        lines = sweep_csv(5, 7, [1]).strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("5,1,1,1,")
        assert lines[2].startswith("7,1,3,3,")

    def test_class_columns_empty_above_cap(self):
        for line in sweep_csv(5, 13, [1], classes_max=7).strip().split("\n")[1:]:
            p = int(line.split(",")[0])
            s_col, t_col = line.split(",")[6:8]
            if p <= 7:
                assert s_col and t_col
            else:
                assert s_col == "" and t_col == ""

    @pytest.mark.parametrize(
        "classes_max, d_list",
        [
            pytest.param(400, [0, 1, 7, 2 ** 70], id="400"),
            pytest.param(401, [0, 1, 7, 2 ** 70], id="401"),
            pytest.param(113, [*range(61), 2 ** 70], id="113-every-D-to-60"),
        ],
    )
    def test_class_columns_stop_inside_a_block(self, classes_max, d_list):
        # [5, 500] is one block, and its class columns stop after 397, 401 or 113
        reference = [CSV_HEADER]
        for p in primes_between(5, 500):
            reference += reference_lines(p, d_list, p <= classes_max)
        assert sweep_csv(5, 500, d_list, classes_max=classes_max) == "\n".join(reference) + "\n"

    def test_rejects_negative_D(self):
        with pytest.raises(ValueError, match="D must be >= 0"):
            census_sweep(5, 20, [1, -1])

    @pytest.mark.parametrize(
        "d_list, message",
        [
            pytest.param(
                "range(1, 10 ** 12 + 1)",
                "census_sweep: [101, 101] x 1000000000000 D holds 1000000000000 "
                "(prime, D) lines, more than 4194304",
                id="lines",
            ),
            pytest.param(
                "range(10 ** 12, -2, -1)", "census: D must be >= 0, got -1", id="negative"
            ),
        ],
    )
    def test_an_over_long_range_of_D_is_refused_at_once(self, d_list, message):
        # a range's least D is read off its ends: scanning 10^12 D took hours.
        # A child process, so that a scan ends at the timeout
        src = str(Path(census.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "from ecfactor.census import census_sweep\n"
            "try:\n"
            f"    census_sweep(101, 101, {d_list}, 0)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=10,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, message + "\n", "")

    def test_class_limit_checked_before_any_row(self, monkeypatch):
        def no_work(p):
            raise AssertionError(f"classes enumerated at p = {p}")

        monkeypatch.setattr("ecfactor.census.isomorphism_class_traces", no_work)
        with pytest.raises(ValueError, match="1009"):
            census_sweep(5, 1010, [1], classes_max=2000)
        # primes above the limit are fine when classes_max leaves them out
        assert len(sweep_csv(1000, 1010, [1], classes_max=1000).splitlines()) == 2

    def test_width_checked_before_the_sieve(self, monkeypatch):
        def no_sieve(lo, hi):
            raise AssertionError(f"sieved [{lo}, {hi}]")

        monkeypatch.setattr("ecfactor.census.primes_between", no_sieve)
        with pytest.raises(ValueError, match="wider than 1000000"):
            census_sweep(5, 10 ** 6 + 6, [1])
        with pytest.raises(AssertionError, match="sieved"):  # the width counts from 5
            census_sweep(-10, 10 ** 6 + 5, [1])

    def test_pmax_limit_checked_before_the_sieve(self, monkeypatch):
        def no_sieve(lo, hi):
            raise AssertionError(f"sieved [{lo}, {hi}]")

        monkeypatch.setattr("ecfactor.census.primes_between", no_sieve)
        with pytest.raises(ValueError, match=f"pmax must be <= {2 ** 40}"):
            census_sweep(2 ** 40 - 10, 2 ** 40 + 1, [1])
        with pytest.raises(AssertionError, match="sieved"):
            census_sweep(2 ** 40 - 10, 2 ** 40, [1])

    def test_cells_checked_after_the_sieve_before_any_line(self, monkeypatch):
        # a sweep's cells are the sum of floor(2*sqrt(p)) over its primes; a
        # width-1e6 sweep ending at 2^40 holds 7.5e10 and is refused, while
        # [0, 1e6] (1.015e8 cells) and width 928 near 2^40 (6.08e7) are taken.
        # The accepted generators are not read
        def no_work(p, D):
            raise AssertionError("a line was computed")

        monkeypatch.setattr("ecfactor.census.phi_direct", no_work)
        with pytest.raises(ValueError, match="75497436000 .* more than 134217728"):
            census_sweep(2 ** 40 - 10 ** 6, 2 ** 40, [1])
        for pmin, pmax in ((0, 10 ** 6), (2 ** 40 - 2000, 2 ** 40 - 1072)):
            census_sweep(pmin, pmax, [1])

    def test_lines_and_comparisons_checked_after_the_sieve_before_any_line(self, monkeypatch):
        # [5, 10^6] x 400 D holds 31398400 lines and 4.06e10 comparisons; near
        # 2^40, 29 primes x 400 D hold 11600 lines but 2.43e10 comparisons.
        # The widest default sweep and the benchmark's sweep are taken, and
        # the accepted generators are not read
        def no_work(p, D):
            raise AssertionError("a line was computed")

        monkeypatch.setattr("ecfactor.census.phi_direct", no_work)
        d_list = list(range(1, 401))
        with pytest.raises(ValueError, match="31398400 .* lines, more than 4194304"):
            census_sweep(5, 10 ** 6, d_list)
        with pytest.raises(ValueError, match="24326951600 .* comparisons, more than 2147483648"):
            census_sweep(2 ** 40 - 2000, 2 ** 40 - 1072, d_list)
        census_sweep(0, 10 ** 6, [1, 2, 3, 5, 10])
        census_sweep(5, 10_500, [1, 2, 3, 5, 10, 0], classes_max=400)

    def test_blocks_give_the_rows_of_one_block(self, monkeypatch):
        # 2*sqrt(3000) < 110, so the default cap holds [5, 3000] in one block
        d_list = [0, 1, 7, 40, 200]
        whole = sweep_csv(5, 3000, d_list)
        primes = primes_between(5, 3000)
        lines = whole.splitlines()[1:]
        assert [int(line.split(",")[0]) for line in lines[::len(d_list)]] == primes
        blocks = []
        kernel = census.phi_direct

        def counted(p, D):
            blocks.append(len(p))
            return kernel(p, D)

        monkeypatch.setattr("ecfactor.census.phi_direct", counted)
        for cells, per_block in ((1, 1), (500, 500 // isqrt(4 * 2999))):
            monkeypatch.setattr("ecfactor.census._BLOCK_CELLS", cells)
            blocks.clear()
            assert sweep_csv(5, 3000, d_list) == whole
            assert blocks == [per_block] * (len(primes) // per_block) + (
                [len(primes) % per_block] if len(primes) % per_block else []
            )

    def test_blocks_count_their_lines(self, monkeypatch):
        # a block holds at most _BLOCK_CELLS (prime, a) cells plus (prime, D)
        # lines, so a long D list shrinks it: [5, 3000] x 300 D is not one block
        d_list = list(range(300))
        blocks = []
        kernel = census.phi_direct

        def counted(p, D):
            blocks.append(p.tolist())
            return kernel(p, D)

        monkeypatch.setattr("ecfactor.census.phi_direct", counted)
        for _ in census_sweep(5, 3000, d_list, classes_max=0):
            pass
        assert sum(blocks, []) == primes_between(5, 3000)
        for block in blocks:
            if len(block) > 1:
                bound = isqrt(4 * block[-1])
                assert len(block) * (bound + len(d_list)) <= census._BLOCK_CELLS, block
        # one prime's D list is cut into runs of at most _BLOCK_CELLS D, in order
        runs = []

        def counted_runs(p, D):
            runs.append(len(D))
            return kernel(p, D)

        monkeypatch.setattr("ecfactor.census.phi_direct", counted_runs)
        monkeypatch.setattr("ecfactor.census._BLOCK_CELLS", 64)
        csv = "".join(census_sweep(101, 101, d_list, 101))
        assert runs and all(run <= 64 for run in runs), runs
        assert csv == "\n".join([CSV_HEADER, *reference_lines(101, d_list, True)]) + "\n"

    def test_a_sweep_leaves_nothing_behind(self):
        # memory is bounded by one block: once drained, a sweep over 2260
        # primes keeps nothing per prime (about 0.04 MiB in all)
        tracemalloc.start()
        try:
            for _ in census_sweep(5, 20000, [1, 2, 3, 5, 10, 0], 0):
                pass
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2 ** 18, kept

    def test_class_columns_hold_no_D_by_classes_array(self):
        # 20000 D against the 2000 classes of 997 would be a 40 MB comparison
        # matrix; one cumulative count of the class gcds reads every D
        tracemalloc.start()
        try:
            csv = sweep_csv(997, 997, range(1, 20001), 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 24, peak
        reference = reference_lines(997, range(1, 20001), True)
        assert csv == "\n".join([CSV_HEADER, *reference]) + "\n"

    def test_a_range_of_D_is_sliced_not_copied(self):
        # 2^20 D at one prime are 16 runs of census._BLOCK_CELLS D; read from
        # the caller's range, two runs hold no list or array of all 2^20 D
        d_list = range(1, 2 ** 20 + 1)
        tracemalloc.start()
        try:
            lines = census_sweep(101, 101, d_list, 0)
            header, *blocks = (next(lines) for _ in range(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20, peak
        assert header == CSV_HEADER + "\n"
        run = census._BLOCK_CELLS
        for k, block in enumerate(blocks):
            block = block.splitlines()
            assert len(block) == run
            for i in (0, run - 1):
                assert block[i] == reference_lines(101, [d_list[k * run + i]], False)[0]

    def test_rejects_reversed_range(self, monkeypatch):
        def no_sieve(lo, hi):
            raise AssertionError(f"sieved [{lo}, {hi}]")

        monkeypatch.setattr("ecfactor.census.primes_between", no_sieve)
        with pytest.raises(ValueError, match="pmin must be <= pmax"):
            census_sweep(10, 5, [1])

    def test_empty_range_header_only(self):
        assert sweep_csv(24, 28, [1]) == CSV_HEADER + "\n"
        assert sweep_csv(5, 20, []) == CSV_HEADER + "\n"

    def test_six_significant_digit_reals(self):
        b22, b23 = lower_bounds(101, 1)
        (row,) = sweep_rows(101, 101, [1], classes_max=0)
        assert [row["bound22"], row["bound23"]] == [f"{b22:.6g}", f"{b23:.6g}"]

    @pytest.mark.parametrize("cells", [1, 500, None])
    def test_streamed_csv_matches_scalar_rows(self, monkeypatch, cells):
        # blocks of one prime, of four primes, and one block for [5, 3000]
        if cells is not None:
            monkeypatch.setattr("ecfactor.census._BLOCK_CELLS", cells)
        primes = primes_between(5, 3000)
        d_list = [0, 1, 7, 40, 200, 2 ** 70]
        reference = [CSV_HEADER]
        for p in primes:
            with_classes = p <= 1000
            reference += reference_lines(p, d_list, with_classes)
            # D = p + 2 is a column of its own here, one sweep per prime
            (line,) = reference_lines(p, [p + 2], with_classes)
            assert sweep_csv(p, p, [p + 2]) == f"{CSV_HEADER}\n{line}\n", p
        assert sweep_csv(5, 3000, d_list) == "\n".join(reference) + "\n"

    def test_D_beyond_the_float_range_reads_as_infinity(self):
        huge = 10 ** 400
        b22, b23 = lower_bounds(101, huge)
        assert b22 == 2 * math.sqrt(101) - tau(102 ** 2)
        assert b23 == lower_bounds(101, 1)[1]
        assert phi_direct(101, huge) == phi_mobius(101, huge) == isqrt(4 * 101)
        # the largest float and every D below it keep their finite bound
        largest = int(sys.float_info.max)
        assert lower_bounds(101, largest) == lower_bounds_reference(101, largest)
        (row,) = sweep_rows(101, 101, [huge])
        assert (row["D"], row["bound22"]) == (str(huge), f"{b22:.6g}")
        assert row["s_classes"] == row["total_classes"]
