"""One sha256 over the payloads of the benchmark's inputs.

    python3 tools/payload_digest.py [--src DIR]

Runs `ecfactor.cli.main` in-process on batches 0-1 of seeds 1-4 of every
workload in `bench/workloads.py`, in that order, then on the census sweeps
in `CENSUS`, with stdout captured. Each call's payload is its output with
the factor JSON's `wall_ms` dropped (`workloads.payload`), so two versions
of the program that answer alike print the same digest: it covers
`factors`, `curves_used`, `oracle_queries` and the census CSV bytes. Prints
the hex digest of one sha256 over the argv, exit code and payload of every
call. Exits 2 if there are no ecfactor sources to run, and 1 if the run
imported ecfactor from elsewhere. A run takes 1.4-1.9 s on a 2-core Intel
Xeon host with Python 3.11.7 (five fresh processes).

The inputs always come from the `bench/` next to this script. `--src` names
the `src` directory of the program to run, by default the one next to this
script, so a second checkout of another commit can be run on the same inputs:

    python3 tools/payload_digest.py --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4)
BATCHES = (0, 1)
# Census sweeps past the benchmark's reach, whose primes stop at 10500, class
# columns at 400 and D at 10 or p + 1: a bound of 260, past census._GCD_TOP, so
# the gcds come from np.gcd; class columns to census._CLASS_ENUM_LIMIT with a D
# past int64; one prime whose D list is longer than census._BLOCK_CELLS; and
# the one prime of [2^40 - 100, 2^40], with B = 2^21 - 1 and sqrt(B) near 1448,
# at D on both sides of sqrt(B) and just below, at and past B.
# tests/test_tools.py fails if a pin loses its reach.
CENSUS = (
    ["census", "--pmin", "16000", "--pmax", "17000", "--D-list", "1,2,3,255,256,257,0",
     "--classes-max", "0"],
    ["census", "--pmin", "5", "--pmax", "1100", "--D-list",
     "0,1,7,40,200,1180591620717411303424", "--classes-max", "1000"],
    ["census", "--pmin", "101", "--pmax", "101", "--D-list", ",".join(map(str, range(70000))),
     "--classes-max", "101"],
    ["census", "--pmin", "1099511627676", "--pmax", "1099511627776", "--D-list",
     "1,2,3,1447,1448,1449,2097151,2097152,0", "--classes-max", "0"],
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    src = parser.parse_args(argv).src.resolve()
    if not (src / "ecfactor" / "cli.py").is_file():
        print(f"error: no ecfactor sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    import ecfactor.cli as cli
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: ecfactor imported from {cli.__file__}, not under {src}", file=sys.stderr)
        return 1
    inputs = [inp for name in sorted(workloads.WORKLOADS) for seed in SEEDS
              for j in BATCHES for inp in workloads.batch(name, seed, j)]
    inputs += [workloads.Input(0, argv) for argv in CENSUS]
    digest = hashlib.sha256()
    for inp in inputs:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(inp.argv)
        record = [inp.argv, rc, workloads.payload(inp, out.getvalue())]
        digest.update(json.dumps(record).encode() + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
