"""Seeded inputs for each workload, and the checks every output must pass.

The benchmark generates its inputs and the expected answers itself, with its
own sieve, so a check never trusts the program under test. The reasons for
each workload's shape are in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Input:
    id: int
    argv: list[str]
    primes: tuple[int, ...] = ()  # expected factors of a factor input


@lru_cache(maxsize=None)
def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi."""
    sieve = bytearray([1]) * hi
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, hi, p)))
    return [p for p in range(lo, hi) if sieve[p]]


def _factor_input(i: int, primes: list[int], rng: random.Random) -> Input:
    primes = sorted(primes)
    argv = ["factor", str(math.prod(primes)), "--seed", str(rng.randrange(2**32))]
    return Input(i, argv, tuple(primes))


# factor-cold: n = p*q, p and q fresh primes in [1e5, 2e5]. The range is cut
# into 2*COLD_N strata, one prime is drawn from each, and the lowest stratum is
# paired with the highest and so on: no prime repeats within a batch, and every
# n carries about the same table-build work (which grows with p + q).
COLD_N = 4
COLD_RANGE = (100_000, 200_000)


def cold_batch(rng: random.Random, j: int) -> list[Input]:
    lo, hi = COLD_RANGE
    pool = primes_between(lo, hi)
    cuts = [lo + (hi - lo) * k // (2 * COLD_N) for k in range(2 * COLD_N + 1)]
    picks = [rng.choice([p for p in pool if a <= p < b]) for a, b in zip(cuts, cuts[1:])]
    pairs = [(picks[k], picks[-1 - k]) for k in range(COLD_N)]
    rng.shuffle(pairs)
    return [_factor_input(j * 1000 + i, list(pq), rng) for i, pq in enumerate(pairs)]


# factor-twist: n is a product of TWIST_K primes in TWIST_RANGE, default
# budgets. A split walks d = 2, 3, ... until d is a non-residue mod exactly
# one prime of n, about 2^k/k twists for k primes, so each n costs dozens of
# queries at primes whose tables already exist. The per-n query count is
# roughly geometric, so a batch holds many n to keep its total steady.
TWIST_N = 40
TWIST_K = 8
TWIST_RANGE = (1_000, 2_000)


def twist_batch(rng: random.Random, j: int) -> list[Input]:
    pool = primes_between(*TWIST_RANGE)
    return [_factor_input(j * 1000 + i, rng.sample(pool, TWIST_K), rng) for i in range(TWIST_N)]


# census-sweep: one census over primes 5..pmax with class enumeration up to
# CENSUS_CLASSES_MAX. The seed moves pmax within [9500, 10500]; the class
# enumeration, which is most of the work, is the same for every seed.
CENSUS_D = (1, 2, 3, 5, 10, 0)
CENSUS_CLASSES_MAX = 400
CENSUS_HEADER = "p,D,phi_direct,phi_mobius,bound22,bound23,s_classes,total_classes"
# Number of F_p-isomorphism classes of elliptic curves, by p mod 12.
CLASS_OFFSET = {1: 6, 5: 2, 7: 4, 11: 0}


def census_batch(rng: random.Random, j: int) -> list[Input]:
    pmax = 9_500 + rng.randrange(1_001)
    argv = [
        "census", "--pmin", "5", "--pmax", str(pmax),
        "--D-list", ",".join(map(str, CENSUS_D)),
        "--classes-max", str(CENSUS_CLASSES_MAX),
    ]
    return [Input(j * 1000, argv)]


# workload -> (batch maker, nominal seconds per batch at the baseline,
# including the worker's start-up)
WORKLOADS = {
    "factor-cold": (cold_batch, 4.0),
    "factor-twist": (twist_batch, 3.0),
    "census-sweep": (census_batch, 4.0),
}


def batch(workload: str, seed: int, j: int) -> list[Input]:
    """Batch j of a workload: the same (workload, seed, j) gives the same inputs."""
    make, _ = WORKLOADS[workload]
    return make(random.Random(f"{workload}:{seed}:{j}"), j)


def census_pmax(inp: Input) -> int:
    return int(inp.argv[inp.argv.index("--pmax") + 1])


def operations(inp: Input) -> int:
    """Operations one input stands for: one per factor input, one per census row."""
    if inp.argv[0] != "census":
        return 1
    return len(primes_between(5, census_pmax(inp) + 1)) * len(CENSUS_D)


def payload(inp: Input, out: str) -> str:
    """The output with its timing removed; it must not vary between runs."""
    if inp.argv[0] != "factor":
        return out
    try:
        doc = json.loads(out)
    except ValueError:
        return out
    doc.pop("wall_ms", None)
    return json.dumps(doc)


def failures(inp: Input, call: dict) -> int:
    """Failed operations in one call's output; a crash fails all of them."""
    if call["exc"] is not None or call["rc"] != 0:
        return operations(inp)
    if inp.argv[0] == "factor":
        return 0 if _factor_ok(inp, call["out"]) else 1
    return _census_failures(inp, call["out"])


def _factor_ok(inp: Input, out: str) -> bool:
    try:
        doc = json.loads(out)
    except ValueError:
        return False
    return (
        doc.get("n") == math.prod(inp.primes)
        and doc.get("factors") == list(inp.primes)
        and isinstance(doc.get("oracle_queries"), int)
        and isinstance(doc.get("curves_used"), int)
    )


def _census_failures(inp: Input, out: str) -> int:
    expected = [
        (p, p + 1 if D == 0 else D)
        for p in primes_between(5, census_pmax(inp) + 1)
        for D in CENSUS_D
    ]
    lines = out.splitlines()
    if not lines or lines[0] != CENSUS_HEADER:
        return len(expected)
    rows = list(csv.reader(lines[1:]))
    bad = abs(len(rows) - len(expected))
    for (p, D), row in zip(expected, rows):
        bad += not _census_row_ok(p, D, row)
    return min(bad, len(expected))


def _census_row_ok(p: int, D: int, row: list[str]) -> bool:
    try:
        rp, rD, direct, mobius = (int(v) for v in row[:4])
        b22, b23 = float(row[4]), float(row[5])
        s, total = row[6], row[7]
    except (ValueError, IndexError):
        return False
    ok = (rp, rD) == (p, D) and direct == mobius and direct >= b22 and direct >= b23
    if p > CENSUS_CLASSES_MAX:
        return ok and s == "" and total == ""
    try:
        s, total = int(s), int(total)
    except ValueError:
        return False
    return ok and s <= total and total == 2 * p + CLASS_OFFSET[p % 12]


CROSSCHECK_SAMPLES = 16


def oracle_crosscheck(workload: str, inputs: list[Input], seed: int) -> bool:
    """FactoredOracle must agree with DirectOracle on a seeded sample.

    factor-cold is not sampled: its primes exceed the brute-force counter's
    cap of 1e5, where DirectOracle accepts the modulus and then fails.
    """
    from ecfactor.oracle import DirectOracle, FactoredOracle

    rng = random.Random(f"crosscheck:{workload}:{seed}")
    if workload == "factor-twist":
        groups = [inp.primes for inp in inputs]
    elif workload == "census-sweep":
        groups = [(p,) for p in primes_between(5, census_pmax(inputs[0]) + 1)]
    else:
        return True
    for _ in range(CROSSCHECK_SAMPLES):
        primes = rng.choice(groups)
        part = rng.sample(primes, rng.randint(1, len(primes)))
        m = math.prod(part)
        while True:
            A, B = rng.randrange(m), rng.randrange(m)
            if math.gcd((4 * A**3 + 27 * B**2) % m, m) == 1:
                break
        if FactoredOracle(list(primes)).query(m, A, B) != DirectOracle(m).query(m, A, B):
            return False
    return True
