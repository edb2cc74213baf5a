"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and the informational statistics (success rate, query medians,
non-residue ratio).
"""

import math
import random
import statistics
import time
from math import gcd, isqrt

import pytest

from ecfactor.arith import factor_small, is_probable_prime, jacobi, primes_between
from ecfactor.census import (
    CSV_HEADER,
    census_sweep,
    lower_bounds,
    nonresidue_search,
    phi_direct,
    phi_mobius,
)
from ecfactor.counting import count_points_prime
from ecfactor.oracle import DirectOracle, FactoredOracle
from ecfactor.reduction import ReductionConfig, factor_completely, recover_from_ratio
from proof_aux import phi_lower_check, primorial_check, totient_sieve


def random_smooth_pair(rng, m):
    while True:
        A, B = rng.randrange(m), rng.randrange(m)
        if gcd((4 * A ** 3 + 27 * B ** 2) % m, m) == 1:
            return A, B


def report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_01_worked_example_exactness():
    started = time.monotonic()
    oracle = FactoredOracle([5, 7])
    N = oracle.query(35, 1, 1)
    Nd = oracle.query(35, 1 * 4 % 35, 1 * 8 % 35)  # twist by d = 2
    assert N == 45
    assert Nd == 15
    g = gcd(N, Nd)
    assert (N // g, Nd // g) == (3, 1)
    rec = recover_from_ratio(N, Nd, 3, 35)
    assert rec is not None
    assert rec.multiplier == 3
    assert rec.factor == 5
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, f"(all five intermediates exact, {elapsed:.3f}s)")


@pytest.fixture(scope="module")
def semiprime_runs():
    rng = random.Random(20240824)
    primes = primes_between(10 ** 3, 10 ** 4)
    runs = []
    for i in range(100):
        p, q = rng.sample(primes, 2)
        n = p * q
        cfg = ReductionConfig(seed=i)
        oracle = FactoredOracle([p, q])
        result = factor_completely(n, oracle, cfg)
        runs.append((n, (p, q), cfg, result))
    return runs


def test_criterion_02_end_to_end_reduction(semiprime_runs):
    started = time.monotonic()
    successes = 0
    for n, (p, q), _cfg, result in semiprime_runs:
        if result.success:
            successes += 1
            assert math.prod(result.factors) == n
            assert all(is_probable_prime(f) for f in result.factors)
            assert set(result.factors) == {p, q}
    elapsed = time.monotonic() - started
    assert successes >= 95
    report(
        2,
        f"(success {successes}/100 empirically, vs the asymptotic 1-eps claim; "
        f"{elapsed:.1f}s)",
    )


def test_criterion_03_exhaustive_recovery_soundness():
    started = time.monotonic()
    D = 12
    primes = primes_between(5, 200)
    rng = random.Random(3)
    checked = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            n = p * q
            for _ in range(20):
                A, B = random_smooth_pair(rng, n)
                ap = p + 1 - count_points_prime(p, A % p, B % p)
                aq = q + 1 - count_points_prime(q, A % q, B % q)
                if gcd(abs(ap), p + 1) > D:
                    continue
                N = (p + 1 - ap) * (q + 1 - aq)
                for d in range(2, 51):
                    if gcd(d, n) > 1:
                        continue
                    if not (jacobi(d, p) == -1 and jacobi(d, q) == 1):
                        continue
                    Nd = (p + 1 + ap) * (q + 1 - aq)
                    rec = recover_from_ratio(N, Nd, D, n)
                    assert rec is not None, (p, q, A, B, d)
                    assert rec.factor == p, (p, q, A, B, d, rec)
                    # N/Nd reduces to (p+1-a_p)/(p+1+a_p) over their common
                    # factor, and the multiplier scales the terms back up
                    assert rec.multiplier == gcd(p + 1 - ap, p + 1 + ap)
                    checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600
    report(3, f"({checked} recoveries, zero exceptions, {elapsed:.1f}s)")


D_SWEEP = (1, 2, 3, 5, 10, 0)  # 0 stands for p+1


def test_criterion_04_mobius_identity():
    started = time.monotonic()
    for p in primes_between(5, 10 ** 4):
        for D in D_SWEEP:
            D = p + 1 if D == 0 else D
            assert phi_direct(p, D) == phi_mobius(p, D), (p, D)
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(4, f"(exact agreement over all p <= 1e4, {elapsed:.1f}s)")


def test_criterion_05_lower_bounds():
    violations = 0
    for p in primes_between(5, 10 ** 4):
        for D in D_SWEEP:
            D = p + 1 if D == 0 else D
            direct = phi_direct(p, D)
            b22, b23 = lower_bounds(p, D)
            if direct < b22 or direct < b23:
                violations += 1
    assert violations == 0
    report(5, "(zero bound violations over the sweep)")


def test_criterion_06_class_census():
    started = time.monotonic()
    columns = CSV_HEADER.split(",")
    lines = "".join(census_sweep(5, 200, [6, 1, *D_SWEEP])).splitlines()[1:]
    rows = [dict(zip(columns, line.split(","))) for line in lines]
    assert rows[0]["total_classes"] == rows[0]["s_classes"] == "12"
    assert rows[1]["s_classes"] == "2"
    for row in rows:
        p, D = int(row["p"]), int(row["D"])
        assert int(row["s_classes"]) >= 2 * phi_direct(p, D), (p, D)
    elapsed = time.monotonic() - started
    assert elapsed < 120
    report(6, f"(class floor holds for all p <= 200, {elapsed:.1f}s)")


def test_criterion_07_twist_and_hasse_suite():
    rng = random.Random(7)
    primes = primes_between(5, 10 ** 4)
    for _ in range(10 ** 4):
        p = rng.choice(primes)
        A, B = random_smooth_pair(rng, p)
        d = rng.randrange(1, p)
        n0 = count_points_prime(p, A, B)
        assert (p + 1 - n0) ** 2 <= 4 * p
        nd = count_points_prime(p, A * d * d % p, B * d ** 3 % p)
        if jacobi(d, p) == -1:
            assert n0 + nd == 2 * (p + 1)
        else:
            assert n0 == nd
    report(7, "(1e4 samples, zero violations)")


def test_criterion_08_oracle_equivalence():
    rng = random.Random(8)
    direct = DirectOracle()
    moduli = 0
    for m in range(5, 3001, 2):
        if m % 3 == 0:
            continue
        facts = factor_small(m)
        if any(e > 1 for _, e in facts):
            continue
        if any(p < 5 for p, _ in facts):
            continue
        fact = FactoredOracle([p for p, _ in facts])
        for _ in range(5):
            A, B = random_smooth_pair(rng, m)
            assert fact.query(m, A, B) == direct.query(m, A, B), (m, A, B)
        moduli += 1
    report(8, f"(equal on {moduli} moduli x 5 curves)")


def test_criterion_09_nonresidue_empirics():
    primes = primes_between(3, 500)
    worst = None
    for p in primes:
        for m in primes:
            if p == m:
                continue
            rec = nonresidue_search(p, m, cap=10 ** 4)
            if worst is None or rec.ratio > worst.ratio:
                worst = rec
    report(
        9,
        f"(all pairs found; max d_min/(ln pm)^2 = {worst.ratio:.4f} "
        f"at (p, m) = ({worst.p}, {worst.m}), d_min = {worst.d_min})",
    )


def test_criterion_10_proof_auxiliaries():
    for l in range(13, 32):
        assert primorial_check(l), l
    phi = totient_sieve(10 ** 5)
    for x in range(3, 10 ** 5 + 1):
        assert phi[x] > x / (4 * math.log(x)), x
    assert phi_lower_check(3)
    report(10, "(primorial check and totient lower bound both exact)")


def test_criterion_11_queries_within_budget(semiprime_runs):
    # a budget bound that holds by construction: a semiprime's run is one
    # split, at most one query per curve plus one per d; it shows no growth
    per_n = []
    for n, _pq, cfg, result in semiprime_runs:
        budget = cfg.resolved_max_curves(n) * (cfg.resolved_max_d(n) + 1)
        assert result.queries <= budget, (n, result.queries, budget)
        if result.success:
            per_n.append(result.queries)
    median = statistics.median(per_n)
    report(
        11,
        f"(queries within the budget max_curves*(max_d+1) on every n, by "
        f"construction; median {median} per n over {len(per_n)} successes)",
    )


def test_criterion_12_queries_at_four_primes():
    # a split needs a d that is a non-residue at exactly one prime; the walk
    # queries only squarefree d with (d|n) = -1, which halves the cost
    rng = random.Random(20261018)
    primes = primes_between(1000, 2000)
    per_n = []
    for _ in range(40):
        ps = sorted(rng.sample(primes, 4))
        n = math.prod(ps)
        cfg = ReductionConfig(seed=rng.randrange(2 ** 32))
        result = factor_completely(n, FactoredOracle(ps), cfg)
        assert result.success and list(result.factors) == ps, n
        per_n.append(result.queries)
    median = statistics.median(per_n)
    assert median <= 12, median
    report(12, f"(median {median} oracle queries per n over 40 products of 4 primes)")
