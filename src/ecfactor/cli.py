"""Command-line front end.

Single results are printed as one JSON document on stdout; census sweeps
are CSV. Exit codes: 0 success, 1 usage/contract error, 2 the algorithm
exhausted its budgets. Commands raise; only `main` maps `ValueError` and
`OSError` to 1 and `NonResidueNotFound` to 2. Anything else is a bug.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import census as census_mod
from .arith import factor_small
from .oracle import DirectOracle, FactoredOracle
from .reduction import ReductionConfig, factor_completely


def _emit(report: dict, started: float) -> None:
    report["wall_ms"] = round((time.monotonic() - started) * 1000, 3)
    print(json.dumps(report))


def cmd_factor(args) -> int:
    started = time.monotonic()
    n = args.n
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    facts = factor_small(n)
    for p, e in facts:
        if e > 1:
            raise ValueError(f"{n} is not squarefree ({p}^{e})")
    odd_primes = [p for p, _ in facts if p >= 5]
    oracle = FactoredOracle(odd_primes) if args.oracle == "factored" else DirectOracle()
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
        "oracle_queries": result.queries,
        "seed": cfg.seed,
    }
    if not result.success:
        report["stuck_cofactor"] = result.failed_cofactor
    _emit(report, started)
    return 0 if result.success else 2


def cmd_census(args) -> int:
    d_list = [int(tok) for tok in args.D_list.split(",") if tok]
    # contracts are checked here, before --out is opened; blocks follow as read
    blocks = census_mod.census_sweep(args.pmin, args.pmax, d_list, args.classes_max)
    if args.out == "-":
        sys.stdout.writelines(blocks)
    else:
        with open(args.out, "w") as fh:
            fh.writelines(blocks)
    return 0


def cmd_count(args) -> int:
    started = time.monotonic()
    value = DirectOracle().query(args.n, args.A, args.B)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.

    Building it costs far more than a parse, and `parse_args` leaves it
    unchanged, so every `main` call shares it.
    """
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
    p_factor.add_argument("--seed", type=int, default=0)
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
