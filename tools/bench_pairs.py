"""Paired benchmark runs of this checkout against a base checkout, as one JSON.

    python3 tools/bench_pairs.py --base DIR --seeds 51-60 \
        [--workloads factor-twist,factor-cold,census-sweep] \
        [--claim factor-twist:wall_ref_s] [--description TEXT] > BENCH_N.json

It copies `src/` and `bench/` of the base tree (the parent) and of this one
(the change) to `parent/` and `change/` under one temporary directory, so
both sides run from fresh files at paths that differ in one name: identical
code read 5% slower on `factor-cold` when one side ran from the repository
checkout. For each workload and each seed it runs

    python3 bench/run.py --workload W --seed S --seconds 30 --trace 0

once from the root of each copy, back to back: the parent first at odd seeds
and the change first at even seeds. DIR is a second tree of the program, for
example a `git archive` of the parent commit unpacked elsewhere. The script
refuses to run (exit 2) if the two trees' `bench/` files differ, since the
pairs would then not run the same benchmark, and, before any copy or run,
if a workload is not in `BENCHMARK.json`, if the claim's workload is not
among those run or its metric is not an end-to-end metric there, or if
fewer than two seeds are given, since the summary needs two data points.

It prints one JSON object: every run's printed lines, result and
`elapsed_s` (its wall seconds), the total `elapsed_s`, and a summary per
workload and end-to-end metric of `BENCHMARK.json`: q1, median and q3 of
each side by `statistics.quantiles(n=4, method='inclusive')`,
`change_vs_parent_median` (change median / parent median - 1), the metric's
bound, `worse_than_bound` (the change's median is worse than the parent's
by more than that relative bound), the parent's interquartile range and
`pairs_change_better`. `regressions` lists every `workload/metric` worse
than its bound; a change that claims no gain must leave it empty. With
`--claim W:METRIC`, `claim` says whether the claim rule holds on that
metric: the change is better in at least 9 of 10 pairs, and the gap between
the medians is larger than the parent's interquartile range.

The `BENCH_*.json` files from `BENCH_30.json` on come from it. Ten seeds of
the three workloads took 386 s for `BENCH_48.json` on a 2-core x86 host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNT_LINES = ("failed_share", "oracle crosscheck", "oracle_queries", "curves_used")


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def pairs_better(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads better than the parent."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's summary over paired runs, in the shape of `BENCH_*.json`."""
    qp, qc = quartiles(parent), quartiles(change)
    ratio = qc["median"] / qp["median"] - 1
    return {
        "parent": {k: round(v, 4) for k, v in qp.items()},
        "change": {k: round(v, 4) for k, v in qc.items()},
        "change_vs_parent_median": round(ratio, 4),
        "bound": bound,
        "worse_than_bound": (ratio if better == "lower" else -ratio) > bound,
        "parent_interquartile_range": round(qp["q3"] - qp["q1"], 4),
        "pairs_change_better": f"{pairs_better(parent, change, better)} of {len(parent)}",
    }


def claim_holds(parent: list[float], change: list[float], better: str) -> dict:
    """The claim rule: better in at least 9 of 10 pairs, and a gap between the
    medians larger than the parent's interquartile range."""
    won = pairs_better(parent, change, better)
    qp = quartiles(parent)
    gap = qp["median"] - statistics.median(change)
    if better != "lower":
        gap = -gap
    iqr = qp["q3"] - qp["q1"]
    return {
        "pairs_change_better": f"{won} of {len(parent)}",
        "median_gap": round(gap, 4),
        "parent_interquartile_range": round(iqr, 4),
        "met": 10 * won >= 9 * len(parent) and gap > iqr,
    }


def bench_files(tree: Path) -> dict[str, bytes]:
    return {
        str(f.relative_to(tree)): f.read_bytes()
        for f in sorted((tree / "bench").rglob("*"))
        if f.is_file() and not {"__pycache__", "out"} & set(f.relative_to(tree / "bench").parts)
    }


def stage(trees: dict[str, Path], into: Path) -> dict[str, Path]:
    """Copy `src/` and `bench/` of each tree to into/<side>, without bytecode
    or benchmark output, and return the copies' roots by side."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    for side, tree in trees.items():
        for part in ("src", "bench"):
            shutil.copytree(tree / part, into / side / part, ignore=skip)
    return {side: into / side for side in trees}


def run(tree: Path, workload: str, seed: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "30", "--trace", "0"],
        capture_output=True, text=True, cwd=tree, timeout=1800,
    )
    elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "trace": 0,
            "printed": lines[:-1] if result else lines, "rc": proc.returncode, "result": result,
            "elapsed_s": round(elapsed, 2)}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="root of the parent's tree")
    parser.add_argument("--seeds", type=seed_range, required=True, help="LO-HI, inclusive")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    base = args.base.resolve()
    if bench_files(base) != bench_files(ROOT):
        print(f"error: bench/ differs between {ROOT} and {base}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    metrics = spec["end_to_end"]
    claimed, colon, claimed_metric = (args.claim or "").partition(":")
    refusal = None
    if not set(workloads) <= set(known):
        refusal = f"unknown workloads {sorted(set(workloads) - set(known))}; BENCHMARK.json has {known}"
    elif args.claim is not None and (not colon or claimed not in workloads):
        refusal = f"--claim is WORKLOAD:METRIC with a workload that runs, not {args.claim!r}"
    elif args.claim is not None and claimed_metric not in [m["name"] for m in metrics]:
        refusal = f"--claim metric {claimed_metric!r} is not an end-to-end metric of BENCHMARK.json"
    elif len(args.seeds) < 2:
        refusal = f"--seeds needs at least two seeds, not {args.seeds}"
    if refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    runs = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        sides = stage({"parent": base, "change": ROOT}, Path(tmp))
        for workload in workloads:
            for seed in args.seeds:
                for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                    print(f"{workload} seed {seed} {side}", file=sys.stderr)
                    runs.append({"side": side, **run(sides[side], workload, seed)})

    def values(side, workload, metric):
        return [r["result"]["metrics"][metric]["value"] for r in runs
                if r["side"] == side and r["workload"] == workload]

    missing = [r for r in runs if r["result"] is None]
    summary = claim = regressions = None
    if not missing:
        summary = {
            w: {m["name"]: summarize(values("parent", w, m["name"]),
                                     values("change", w, m["name"]), m["better"], m["bound"])
                for m in metrics}
            for w in workloads
        }
        regressions = [f"{w}/{m}" for w, by_metric in summary.items()
                       for m, s in by_metric.items() if s["worse_than_bound"]]
        if args.claim:
            better = next(m["better"] for m in metrics if m["name"] == claimed_metric)
            claim = {"workload": claimed, "metric": claimed_metric,
                     **claim_holds(values("parent", claimed, claimed_metric),
                                   values("change", claimed, claimed_metric), better)}
    counts = lambda r: [line for line in r["printed"] if line.startswith(COUNT_LINES)]
    identical = all(counts(a) == counts(b) for a, b in zip(runs[::2], runs[1::2]))
    doc = {
        "description": args.description,
        "command": "python3 bench/run.py --workload W --seed S --seconds 30 --trace 0, "
                   "from the root of each side's copy",
        "machine": f"{platform.machine()} {platform.system()}, {os.cpu_count()} cores"
                   f", Python {platform.python_version()}; the two runs of one "
                   "(workload, seed) pair ran back to back, parent first at odd seeds "
                   "and change first at even seeds",
        "seeds": {"pairs": args.seeds},
        "claim": claim,
        "summary": summary,
        "regressions": regressions,
        "failed_operations": {
            side: sum(r["result"]["failed"] for r in runs if r["side"] == side and r["result"])
            for side in sides
        },
        "runs_without_result": len(missing),
        "elapsed_s": round(time.perf_counter() - start, 1),
        "printed_counts_identical": identical,
        "runs": runs,
    }
    print(json.dumps(doc, indent=1))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
