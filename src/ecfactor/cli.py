"""Command-line front end.

Single results are printed as one JSON document on stdout; census sweeps
are CSV. Exit codes: 0 success, 1 usage/contract error, 2 the algorithm
exhausted its budgets. Commands raise; only `main` maps `ValueError` and
`OSError` to 1 and `NonResidueNotFound` to 2. Anything else is a bug.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from math import gcd

from . import census as census_mod
from .arith import divisors, euler_phi, factor_small, jacobi, primes_up_to
from .counting import count_points_prime
from .oracle import DirectOracle, FactoredOracle
from .reduction import ReductionConfig, factor_completely

SEED_ENV = "ECFACTOR_SEED"


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV, "0"))


def _emit(report: dict, started: float) -> None:
    report["wall_ms"] = round((time.monotonic() - started) * 1000, 3)
    print(json.dumps(report))


def cmd_factor(args) -> int:
    started = time.monotonic()
    n = args.n
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    facts = factor_small(n).factors
    for p, e in facts:
        if e > 1:
            raise ValueError(f"{n} is not squarefree ({p}^{e})")
    odd_primes = [p for p, _ in facts if p >= 5]
    oracle = FactoredOracle(odd_primes) if args.oracle == "factored" else DirectOracle(n)
    cfg = ReductionConfig(
        D=args.D, max_d=args.max_d, max_curves=args.max_curves, seed=args.seed
    )
    result = factor_completely(n, oracle, cfg)
    report = {
        "command": "factor",
        "n": n,
        "config": {
            "D": cfg.D,
            "max_d": cfg.max_d,
            "max_curves": cfg.max_curves,
            "oracle": args.oracle,
            "seed": cfg.seed,
        },
        "factors": list(result.factors),
        "curves_used": result.curves_used,
        "oracle_queries": result.stats.queries,
        "seed": cfg.seed,
    }
    if not result.success:
        report["stuck_cofactor"] = result.failed_cofactor
    _emit(report, started)
    return 0 if result.success else 2


def cmd_census(args) -> int:
    d_list = [int(tok) for tok in args.D_list.split(",") if tok]
    if args.pmin > args.pmax:
        raise ValueError("--pmin must be <= --pmax")
    rows = census_mod.census_sweep(args.pmin, args.pmax, d_list, args.classes_max)
    csv_text = census_mod.rows_to_csv(rows)
    if args.out == "-":
        sys.stdout.write(csv_text)
    else:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    return 0


def cmd_count(args) -> int:
    started = time.monotonic()
    value = DirectOracle(args.n).query(args.n, args.A, args.B)
    _emit(
        {"command": "count", "n": args.n, "A": args.A, "B": args.B, "count": value},
        started,
    )
    return 0


def cmd_nonresidue(args) -> int:
    started = time.monotonic()
    rec = census_mod.nonresidue_search(args.p, args.m, args.cap)
    _emit(
        {
            "command": "nonresidue",
            "p": rec.p,
            "m": rec.m,
            "d_min": rec.d_min,
            "ratio": round(rec.ratio, 6),
        },
        started,
    )
    return 0


def _selftest_checks():
    rng = random.Random(12345)

    def arith_checks() -> bool:
        for _ in range(500):
            m = rng.randrange(1, 500) * 2 + 1
            a, b = rng.randrange(-200, 200), rng.randrange(-200, 200)
            if jacobi(a * b, m) != jacobi(a, m) * jacobi(b, m):
                return False
        for m in range(1, 301):
            if sum(euler_phi(d) for d in divisors(m)) != m:
                return False
        return True

    def counting_checks() -> bool:
        primes = [p for p in primes_up_to(300) if p >= 5]
        for _ in range(200):
            p = rng.choice(primes)
            A, B = rng.randrange(p), rng.randrange(p)
            if (4 * A ** 3 + 27 * B ** 2) % p == 0:
                continue
            t = count_points_prime(p, A, B).trace
            if t * t > 4 * p:
                return False
            d = rng.randrange(1, p)
            nd = count_points_prime(p, A * d * d % p, B * d ** 3 % p).npoints
            n0 = p + 1 - t
            if jacobi(d, p) == -1 and n0 + nd != 2 * (p + 1):
                return False
            if jacobi(d, p) == 1 and n0 != nd:
                return False
        return True

    def oracle_checks() -> bool:
        direct = DirectOracle(500)
        for m in (35, 55, 77, 455):
            primes = [p for p, _ in factor_small(m).factors]
            fact = FactoredOracle(primes)
            for _ in range(3):
                A, B = rng.randrange(m), rng.randrange(m)
                if gcd((4 * A ** 3 + 27 * B ** 2) % m, m) != 1:
                    continue
                if fact.query(m, A, B) != direct.query(m, A, B):
                    return False
        return True

    def reduction_checks() -> bool:
        for n in (35, 385, 1001):
            primes = [p for p, _ in factor_small(n).factors]
            oracle = FactoredOracle(primes)
            res = factor_completely(n, oracle, ReductionConfig(seed=7))
            if not res.success or math.prod(res.factors) != n:
                return False
        return True

    def census_checks() -> bool:
        for p in [q for q in primes_up_to(200) if q >= 5]:
            for D in (1, 3, 10, p + 1):
                direct = census_mod.phi_direct(p, D)
                if direct != census_mod.phi_mobius(p, D):
                    return False
                b22, b23 = census_mod.lower_bounds(p, D)
                if direct < b22 or direct < b23:
                    return False
        return all(census_mod.primorial_check(l) for l in range(13, 32))

    return [
        ("arith", arith_checks),
        ("counting", counting_checks),
        ("oracle", oracle_checks),
        ("reduction", reduction_checks),
        ("census", census_checks),
    ]


def cmd_selftest(_args) -> int:
    ok = True
    for name, check in _selftest_checks():
        passed = check()
        ok = ok and passed
        print(f"selftest {name}: {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecfactor",
        description="Factor squarefree integers via a point-counting oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor a squarefree integer")
    p_factor.add_argument("n", type=int)
    p_factor.add_argument("--D", type=int, default=12)
    p_factor.add_argument("--max-d", type=int, default=None)
    p_factor.add_argument("--max-curves", type=int, default=None)
    p_factor.add_argument("--seed", type=int, default=_default_seed())
    p_factor.add_argument("--oracle", choices=("factored", "direct"), default="factored")
    p_factor.set_defaults(func=cmd_factor)

    p_census = sub.add_parser("census", help="sweep the trace-count census to CSV")
    p_census.add_argument("--pmin", type=int, default=5)
    p_census.add_argument("--pmax", type=int, required=True)
    p_census.add_argument("--D-list", dest="D_list", default="1,2,3,5,10")
    p_census.add_argument("--out", default="-")
    p_census.add_argument("--classes-max", type=int, default=1000)
    p_census.set_defaults(func=cmd_census)

    p_count = sub.add_parser("count", help="count points mod a squarefree n")
    p_count.add_argument("n", type=int)
    p_count.add_argument("A", type=int)
    p_count.add_argument("B", type=int)
    p_count.set_defaults(func=cmd_count)

    p_nr = sub.add_parser("nonresidue", help="least d non-residue mod p, residue mod m")
    p_nr.add_argument("p", type=int)
    p_nr.add_argument("m", type=int)
    p_nr.add_argument("--cap", type=int, default=10 ** 4)
    p_nr.set_defaults(func=cmd_nonresidue)

    p_self = sub.add_parser("selftest", help="reduced-scale invariant battery")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except census_mod.NonResidueNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
