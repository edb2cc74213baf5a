"""Seeded benchmark of the ecfactor CLI.

    python3 bench/run.py --workload factor-cold --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout. One client drives `ecfactor.cli.main`
in a closed loop: each input is sent only after the previous call returned.
A workload is a sequence of seeded batches of inputs; each batch runs in a
fresh interpreter (bench/worker.py), so it starts with the empty caches a CLI
session starts with, and the batches run one after another. Timings are
medians over the batches; `wall_ref_s` is the batch wall time rescaled to a
fixed host speed (bench/refclock.py). Every output is checked; the last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

--trace 0 reports the end-to-end metrics. --trace 1 runs every batch twice,
untraced and traced, checks that both give the same payloads, and reports the
per-layer metrics of the traced runs plus the tracing overhead; the spans of
the first traced batch are written to bench/out/spans-<workload>.txt.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from tracer import FIRST, REPEAT
from workloads import failures, operations, payload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PER_BATCH = 2
BATCH_TIMEOUT_S = 150

# (metric, span name, span field, unit)
PER_LAYER = [
    (FIRST + ".calls", FIRST, "calls", "count"),
    (FIRST + ".ms", FIRST, "ms", "ms"),
    (REPEAT + ".calls", REPEAT, "calls", "count"),
    (REPEAT + ".ms", REPEAT, "ms", "ms"),
    ("counting.distinct_primes", FIRST, "calls", "count"),
    ("oracle.query.calls", "oracle.query", "calls", "count"),
    ("oracle.query.ms", "oracle.query", "ms", "ms"),
    ("oracle.query.self_ms", "oracle.query", "self_ms", "ms"),
    ("oracle.query.errors", "oracle.query", "raised", "count"),
    ("reduction.split.calls", "reduction.split", "calls", "count"),
    ("reduction.split.self_ms", "reduction.split", "self_ms", "ms"),
    ("reduction.recover_from_ratio.calls", "reduction.recover_from_ratio", "calls", "count"),
    ("reduction.recover_from_ratio.ms", "reduction.recover_from_ratio", "ms", "ms"),
    ("reduction.recover_from_ratio.hits", "reduction.recover_from_ratio", "hits", "count"),
    ("curves.twist.calls", "curves.twist", "calls", "count"),
    ("curves.twist.ms", "curves.twist", "ms", "ms"),
    ("curves.sample_curve.calls", "curves.sample_curve", "calls", "count"),
    ("curves.sample_curve.ms", "curves.sample_curve", "ms", "ms"),
    ("curves.screen.calls", "curves.screen", "calls", "count"),
    ("curves.isomorphic_gcd.calls", "curves.isomorphic_gcd", "calls", "count"),
    ("census.isomorphism_class_traces.calls", "census.isomorphism_class_traces", "calls", "count"),
    ("census.isomorphism_class_traces.ms", "census.isomorphism_class_traces", "ms", "ms"),
    ("census.isomorphism_class_traces.self_ms", "census.isomorphism_class_traces", "self_ms", "ms"),
    ("census.phi_direct.ms", "census.phi_direct", "ms", "ms"),
    ("census.phi_mobius.ms", "census.phi_mobius", "ms", "ms"),
    ("census.lower_bounds.ms", "census.lower_bounds", "ms", "ms"),
    ("arith.factor_small.calls", "arith.factor_small", "calls", "count"),
    ("arith.factor_small.ms", "arith.factor_small", "ms", "ms"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layers: dict) -> dict[str, tuple[float, str]]:
    def get(span: str, field: str) -> float:
        return layers.get(span, {}).get(field, 0)

    out = {name: (get(span, field), unit) for name, span, field, unit in PER_LAYER}
    out["oracle.queries_per_split"] = (
        _ratio(get("oracle.query", "calls"), get("reduction.split", "calls")), "ratio")
    out["reduction.recover_hit_ratio"] = (
        _ratio(get("reduction.recover_from_ratio", "hits"),
               get("reduction.recover_from_ratio", "calls")), "ratio")
    returned = get("curves.sample_curve", "calls") - get("curves.sample_curve", "raised")
    out["curves.accept_ratio"] = (_ratio(returned, get("curves.screen", "calls")), "ratio")
    return out


def _env() -> dict[str, str]:
    """Child environment: ecfactor from src/, with bytecode caching on, as an
    installed package has it, whatever the caller's setting."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_seconds(runs: int) -> list[float]:
    """Time to import ecfactor.cli in a fresh interpreter, `runs` times."""
    code = "import time; t = time.perf_counter(); import ecfactor.cli; print(time.perf_counter() - t)"
    return [
        float(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=_env(), cwd=ROOT, timeout=60, check=True,
        ).stdout)
        for _ in range(runs)
    ]


def run_batch(inputs: list[workloads.Input], trace: bool, spans_out: Path | None) -> dict | None:
    """One batch in a fresh worker; None if the worker crashed or hung."""
    spec = {
        "inputs": [{"id": inp.id, "argv": inp.argv} for inp in inputs],
        "trace": trace,
        "spans_out": str(spans_out) if spans_out else None,
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")], input=json.dumps(spec),
            capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=BATCH_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"batch timed out after {BATCH_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def check(inputs: list[workloads.Input], plain: dict | None, traced: dict | None,
          trace: bool) -> tuple[int, int]:
    """(attempted, failed) operations of one batch, counting both of its runs.

    Besides each output's own checks, the traced run must reproduce the
    untraced run's payloads byte for byte (timing removed).
    """
    attempted = failed = 0
    for rep in (plain, traced) if trace else (plain,):
        for k, inp in enumerate(inputs):
            ops = operations(inp)
            attempted += ops
            if rep is None:
                failed += ops
                continue
            call = rep["calls"][k]
            if call["exc"]:
                sys.stderr.write(call["exc"])
            bad = failures(inp, call)
            if not bad and rep is traced and (
                plain is None or payload(inp, call["out"]) != payload(inp, plain["calls"][k]["out"])
            ):
                bad = ops
            failed += bad
    return attempted, failed


def factor_totals(runs) -> dict[str, int]:
    """Exact cost counts summed over the untraced factor calls that passed."""
    totals = {"oracle_queries": 0, "curves_used": 0}
    for inputs, plain, _ in runs:
        for inp, call in zip(inputs, plain["calls"] if plain else ()):
            if inp.argv[0] == "factor" and not failures(inp, call):
                doc = json.loads(call["out"])
                for key in totals:
                    totals[key] += doc[key]
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ecfactor" / "cli.py").is_file():
        print(f"error: no ecfactor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)

    # The batch count follows from --seconds and the nominal batch time, not
    # from a clock, so a seed always gives the same inputs and exact counts.
    nominal = workloads.WORKLOADS[args.workload][1] * (2 if trace else 1)
    n_batches = max(1, int(args.seconds // nominal))
    setup: list[float] = []
    if not trace:
        setup_seconds(1)  # untimed: writes the bytecode cache, as an installed package has it
    spans_out = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_out = OUT / f"spans-{args.workload}.txt"
    attempted = failed = 0
    runs = []
    for j in range(n_batches):
        inputs = workloads.batch(args.workload, args.seed, j)
        if not trace:
            # Spread over the run, so that no short host phase sets the median.
            setup += setup_seconds(SETUP_PER_BATCH)
        p = run_batch(inputs, False, None)
        t = run_batch(inputs, True, spans_out if j == 0 else None) if trace else None
        a, f = check(inputs, p, t, trace)
        attempted, failed = attempted + a, failed + f
        runs.append((inputs, p, t))
    crosscheck_ok = workloads.oracle_crosscheck(
        args.workload, [inp for inputs, _, _ in runs for inp in inputs], args.seed)
    plain = [p for _, p, _ in runs if p is not None]
    traced = [t for _, _, t in runs if t is not None]
    crashed = len(plain) < n_batches or (trace and len(traced) < n_batches)

    lat = [c["ms"] for r in plain for c in r["calls"]]
    print(f"workload {args.workload} seed {args.seed}: {n_batches} batches of "
          f"{len(runs[0][0])} inputs{', each run untraced and traced' if trace else ''}")
    print("batch wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    if not trace:
        print("batch wall_ref_s: " + " ".join(f"{r['wall_ref_s']:.3f}" for r in plain))
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted} operations)")
    print(f"oracle crosscheck: {'pass' if crosscheck_ok else 'FAIL'}")
    for key, value in factor_totals(runs).items():
        print(f"{key} {value} over all batches")
    if lat:
        print(f"latency_ms_p50 {statistics.median(lat):.3f} ms over {len(lat)} calls")

    metrics: dict[str, tuple[float, str]] = {}
    if plain and not trace:
        print(f"wall_s {statistics.median(r['wall_s'] for r in plain):.6g} s (not rescaled)")
        metrics["wall_ref_s"] = (statistics.median(r["wall_ref_s"] for r in plain), "s")
        metrics["peak_rss_mb"] = (statistics.median(r["rss_kb"] / 1024 for r in plain), "MB")
        metrics["setup_s"] = (statistics.median(setup), "s")
    if plain and traced and trace:
        per_batch = [layer_metrics(r["layers"]) for r in traced]
        for name, (_, unit) in per_batch[0].items():
            metrics[name] = (statistics.median(m[name][0] for m in per_batch), unit)
        wall_plain = statistics.median(r["wall_s"] for r in plain)
        wall_traced = statistics.median(r["wall_s"] for r in traced)
        metrics["tracing_overhead_s"] = (wall_traced - wall_plain, "s")
        share = lambda ms: f"{ms / 1e3 / wall_traced:.1%}"
        print(f"median batch wall_s traced {wall_traced:.3f}, untraced {wall_plain:.3f}; "
              f"share of traced wall: first counts {share(metrics[FIRST + '.ms'][0])}, "
              f"repeat counts + oracle.query self "
              f"{share(metrics[REPEAT + '.ms'][0] + metrics['oracle.query.self_ms'][0])}, "
              f"isomorphism_class_traces {share(metrics['census.isomorphism_class_traces.ms'][0])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    result = {
        "correct": failed == 0 and crosscheck_ok and not crashed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
