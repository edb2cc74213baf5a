"""Command-line front end.

Single results are printed as one JSON document on stdout; census sweeps
are CSV. Exit codes: 0 success, 1 usage/contract error, 2 the algorithm
exhausted its budgets. Commands raise; only `main` maps `ValueError` and
`OSError` to 1 and `NonResidueNotFound` to 2. Anything else is a bug.

One table, `COMMANDS`, holds each command's handler, arguments and options
with their defaults; `parse` reads an argv against it in one pass, and `-h`
prints usage generated from it. `main` may be called many times in one
process, as a session or the benchmark does; a call, or its usage error,
leaves nothing for the next.
"""

from __future__ import annotations

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


def cmd_factor(n, D, max_d, max_curves, seed, oracle) -> int:
    started = time.monotonic()
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    facts = factor_small(n)
    for p, e in facts:
        if e > 1:
            raise ValueError(f"{n} is not squarefree ({p}^{e})")
    # one odd prime is never split, so the oracle counts at none: a prime n
    # above the oracle's 2^60 limit is still answered
    odd_primes = [p for p, _ in facts if p >= 5]
    if len(odd_primes) < 2:
        odd_primes = []
    counter = FactoredOracle(odd_primes) if oracle == "factored" else DirectOracle()
    cfg = ReductionConfig(D=D, max_d=max_d, max_curves=max_curves, seed=seed)
    result = factor_completely(n, counter, cfg)
    report = {
        "command": "factor",
        "n": n,
        "config": {
            "D": cfg.D,
            "max_d": cfg.max_d,
            "max_curves": cfg.max_curves,
            "oracle": oracle,
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


def cmd_census(pmin, pmax, D_list, out, classes_max) -> int:
    d_list = [int(tok) for tok in D_list.split(",") if tok]
    # contracts are checked here, before --out is opened; blocks follow as read
    blocks = census_mod.census_sweep(pmin, pmax, d_list, classes_max)
    if out == "-":
        sys.stdout.writelines(blocks)
    else:
        with open(out, "w") as fh:
            fh.writelines(blocks)
    return 0


def cmd_count(n, A, B) -> int:
    started = time.monotonic()
    value = DirectOracle().query(n, A, B)
    _emit({"command": "count", "n": n, "A": A, "B": B, "count": value}, started)
    return 0


def cmd_nonresidue(p, m, cap) -> int:
    started = time.monotonic()
    rec = census_mod.nonresidue_search(p, m, cap)
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


# command -> (handler, positional names, {"--option": (dest, default, choices)}).
# Positionals are ints. An option's value is a string when its default is one
# or it has choices, and an int otherwise; a default of ... makes it required.
COMMANDS = {
    "factor": (cmd_factor, ("n",), {
        "--D": ("D", 12, None),
        "--max-d": ("max_d", None, None),
        "--max-curves": ("max_curves", None, None),
        "--seed": ("seed", 0, None),
        "--oracle": ("oracle", "factored", ("factored", "direct")),
    }),
    "census": (cmd_census, (), {
        "--pmin": ("pmin", 5, None),
        "--pmax": ("pmax", ..., None),
        "--D-list": ("D_list", "1,2,3,5,10", None),
        "--out": ("out", "-", None),
        "--classes-max": ("classes_max", 1000, None),
    }),
    "count": (cmd_count, ("n", "A", "B"), {}),
    "nonresidue": (cmd_nonresidue, ("p", "m"), {"--cap": ("cap", 10 ** 4, None)}),
}


class UsageError(ValueError):
    """An argv outside the grammar of COMMANDS."""


def _value(name: str, token: str, default=None, choices=None):
    if choices and token not in choices:
        raise UsageError(f"{name} must be one of {', '.join(choices)}, got {token!r}")
    try:
        return token if choices or isinstance(default, str) else int(token)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {token!r}") from None


def parse(argv: list[str]):
    """(handler, its keyword arguments) for argv, read in one pass. Options are
    spelled exactly; a value is `--opt=value` or the next token, whatever it is."""
    if not argv or argv[0] not in COMMANDS:
        raise UsageError(f"the command must be one of {', '.join(COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    handler, names, options = COMMANDS[command]
    values = {dest: default for dest, default, _ in options.values()}
    positionals = []
    for token in tokens:
        if not token.startswith("--"):
            positionals.append(token)
            continue
        flag, has_value, value = token.partition("=")
        if flag not in options:
            raise UsageError(f"{command} has no option {flag}")
        if not has_value and (value := next(tokens, None)) is None:
            raise UsageError(f"{flag} needs a value")
        values[options[flag][0]] = _value(flag, value, *options[flag][1:])
    for flag, (dest, *_) in options.items():
        if values[dest] is ...:
            raise UsageError(f"{command} needs {flag}")
    if len(positionals) != len(names):
        raise UsageError(
            f"{command} expects {len(names)} argument(s), got {len(positionals)}")
    values.update((name, _value(name, tok)) for name, tok in zip(names, positionals))
    return handler, values


def usage() -> int:
    """Print every command and option in COMMANDS to stdout; [options] are optional."""
    print("usage: ecfactor COMMAND ARGUMENTS, with --option value or --option=value")
    for command, (_, names, options) in COMMANDS.items():
        words = [command, *names]
        for flag, (dest, default, choices) in options.items():
            value = "|".join(choices or ()) or dest.upper()
            words.append(f"{flag} {value}" if default is ... else f"[{flag} {value}]")
        print("  " + " ".join(words))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        return usage()
    try:
        handler, values = parse(argv)
        return handler(**values)
    except census_mod.NonResidueNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
