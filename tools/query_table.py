"""The README's "queries per n" rows for the current twist walk.

    python3 tools/query_table.py

For each row (k, lo, n) a generator `random.Random(f"queries-per-n:{k}:{lo}")`,
with lo an int (100000, not 1e5), draws k primes with `.sample` from the
primes in [lo, 2·lo] and then a seed with `randrange(2**32)`, n times;
`factor_completely` runs on each product with a `FactoredOracle` on its
primes and default budgets at its seed. Prints one Markdown row per k: the
oracle queries per n as median / mean (max), as in the README's "both
filters" column, and the number of n that failed.
Runs the `src` next to this script.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ecfactor.arith import primes_between  # noqa: E402
from ecfactor.oracle import FactoredOracle  # noqa: E402
from ecfactor.reduction import ReductionConfig, factor_completely  # noqa: E402

# (k, e, n): k primes per n drawn from [lo, 2·lo] with lo = 10^e, n of them per row
ROWS = ((2, 5, 150), (3, 6, 100), (4, 3, 150), (8, 3, 100), (12, 3, 10))


def queries_per_n(k: int, lo: int, count: int) -> tuple[list[int], int]:
    """The queries of each of `count` seeded n, and how many n failed."""
    rng = random.Random(f"queries-per-n:{k}:{lo}")
    pool = primes_between(lo, 2 * lo)
    queries, failed = [], 0
    for _ in range(count):
        primes = rng.sample(pool, k)
        cfg = ReductionConfig(seed=rng.randrange(2 ** 32))
        result = factor_completely(math.prod(primes), FactoredOracle(primes), cfg)
        queries.append(result.queries)
        failed += not result.success
    return queries, failed


def main() -> int:
    print("| k | lo | n | queries per n | failed |")
    print("|---|---|---|---|---|")
    for k, e, count in ROWS:
        queries, failed = queries_per_n(k, 10 ** e, count)
        cell = f"{statistics.median(queries):g} / {statistics.mean(queries):.1f} ({max(queries)})"
        print(f"| {k} | 1e{e} | {count} | {cell} | {failed} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
