"""Contract fuzzer for the command line: every argv ends in a right answer or
a clean error.

Hypothesis draws argvs for all four subcommands from edge values (0, +-1,
D_MAX, the sweep width +- 1, 2^12 up to 2^64 + 13, +-10^30, 10^400) and
small ints, and `cli.main` runs each in-process under a wall-clock alarm.
Exit 0 must carry a right payload, exit 1 stderr starting `error: `, and
exit 2 an `error:` line or, for `factor`, the JSON of a stuck cofactor.

A second fuzzer calls the census and counting kernels directly, with p drawn
from primes and small composites and D, A and B from edge values: each call
raises `ValueError` exactly where the kernel's domain ends (D < 0, or p not a
prime with a character table) and otherwise equals a plain reference.

Inputs whose valid runs are slow by design are kept out of the strategies:
census widths stop at 2000 below the 10^6 cap (a sweep of width 10^6 takes
about 11 s), while widths just above it, which are refused before the sieve,
are drawn; and `--max-d` is never MAX_D_LIMIT itself, whose walk on a curve
that never splits n can take about 15 s.
"""

import io
import json
import math
import signal
import sys
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecfactor.arith import is_probable_prime, jacobi, primes_between
from ecfactor.census import CSV_HEADER, lower_bounds, phi_direct, phi_mobius
from ecfactor.cli import COMMANDS, main
from ecfactor.counting import legendre_sums, normal_form_traces
from ecfactor.reduction import D_MAX, MAX_D_LIMIT
from proof_aux import euler_sum_reference, lower_bounds_reference, phi_reference

TIME_BOUND_S = 10
SWEEP_WIDTH = 10 ** 6
EDGES = [
    0, 1, -1, 2, 3, 4, 5, 35, D_MAX, D_MAX + 1, MAX_D_LIMIT + 1,
    SWEEP_WIDTH - 1, SWEEP_WIDTH, SWEEP_WIDTH + 1, 2 ** 12, 2 ** 32 + 15,
    2 ** 61 - 1, 2 ** 64 - 59, 2 ** 64 + 13, 10 ** 30, -10 ** 30, 10 ** 400,
]
PRIMES = primes_between(5, 3000)
BRUTE_FORCE_N = 10 ** 4  # a `count` up to here is checked by enumeration
CLASS_OFFSET = {1: 6, 5: 2, 7: 4, 11: 0}  # F_p has 2p + this many curve classes, by p mod 12


class Overtime(Exception):
    """An argv ran past TIME_BOUND_S."""


@contextmanager
def time_bound(seconds):
    def expire(signum, frame):
        raise Overtime(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run(argv):
    """(exit code, stdout, stderr) of `main(argv)`; an exit 1 must write stderr
    that starts with `error: `, as every usage and contract error does."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        with time_bound(TIME_BOUND_S):
            code = main(argv)
    assert code != 1 or err.getvalue().startswith("error: "), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def tokens(*parts):
    """An argv from optional (flag, value) or positional parts; None is left out."""
    argv = []
    for part in parts:
        if isinstance(part, tuple):
            if part[1] is not None:
                argv += [part[0], str(part[1])]
        elif part is not None:
            argv.append(str(part))
    return argv


def maybe(values):
    return st.one_of(st.none(), values)


_ints = st.one_of(st.sampled_from(EDGES), st.integers(-10, 10 ** 6))
_n = st.one_of(
    _ints,
    st.lists(st.sampled_from(PRIMES), min_size=1, max_size=5, unique=True).map(math.prod),
)


@st.composite
def factor_argv(draw):
    return ["factor"] + tokens(
        draw(_n),
        ("--D", draw(maybe(st.sampled_from([-1, 0, 1, 2, 12, D_MAX, D_MAX + 1, 10 ** 400])))),
        ("--max-d", draw(maybe(st.sampled_from([-1, 0, 1, 2, 3, 40, 1000, MAX_D_LIMIT + 1])))),
        ("--max-curves", draw(maybe(st.sampled_from([-1, 0, 1, 2, 10, 10 ** 30])))),
        ("--seed", draw(maybe(_ints))),
        ("--oracle", draw(maybe(st.sampled_from(["factored", "direct"])))),
    )


@st.composite
def census_argv(draw):
    pmin = draw(st.one_of(st.sampled_from([-10 ** 30, -1, 0, 5, 2 ** 40 - 2000, 2 ** 40 + 1]),
                          st.integers(-10, 2000)))
    width = draw(st.one_of(
        st.sampled_from([-1, 0, SWEEP_WIDTH + 1, SWEEP_WIDTH + 2, 10 ** 30]),
        st.integers(0, 2000),
    ))
    d_list = draw(maybe(st.lists(st.sampled_from([-1, 0, 1, 2, 3, 10 ** 30, 10 ** 400]),
                                 max_size=3).map(lambda ds: ",".join(map(str, ds)))))
    return ["census"] + tokens(
        ("--pmin", pmin),
        ("--pmax", max(pmin, 5) + width),  # the width the sweep's cap measures
        ("--D-list", d_list),
        ("--classes-max", draw(maybe(st.sampled_from([-1, 0, 5, 400, 1000, 1001, 10 ** 6])))),
    )


@st.composite
def count_argv(draw):
    coefficient = st.one_of(st.sampled_from(EDGES), st.integers(-50, 50))
    return ["count"] + tokens(draw(_n), draw(coefficient), draw(coefficient))


@st.composite
def nonresidue_argv(draw):
    return ["nonresidue"] + tokens(
        draw(st.one_of(_ints, st.sampled_from(PRIMES))),
        draw(st.one_of(_ints, st.sampled_from(PRIMES))),
        ("--cap", draw(maybe(st.sampled_from([-1, 0, 1, 3, 10 ** 4, 10 ** 30])))),
    )


def brute_force_count(n, A, B):
    """|E(Z/n)| with the point at infinity at each prime, for squarefree n >= 5
    prime to 6, by counting square roots of x^3 + Ax + B at each prime."""
    total = 1
    for p in (q for q in range(5, n + 1) if n % q == 0 and is_probable_prime(q)):
        roots = Counter(y * y % p for y in range(p))
        total *= 1 + sum(roots[(x ** 3 + A * x + B) % p] for x in range(p))
    return total


def census_option(argv, flag):
    """The value of a census flag in argv, or the command's default."""
    if flag in argv:
        return argv[argv.index(flag) + 1]
    return COMMANDS["census"][2][flag][1]


def check_census_row(p, D, classes_max, row):
    """A census CSV row for the cell (p, D): phi_direct = phi_mobius, phi at
    least both bounds, and the class columns empty above classes_max, else
    s_classes <= total_classes = the number of classes over F_p."""
    assert len(row) == 8, row
    rp, rD, direct, mobius = map(int, row[:4])
    assert (rp, rD) == (p, D) and direct == mobius, row
    assert direct >= float(row[4]) and direct >= float(row[5]), row
    if p > classes_max:
        assert row[6:] == ["", ""], row
    else:
        s, total = int(row[6]), int(row[7])
        assert s <= total == 2 * p + CLASS_OFFSET[p % 12], row


def check_success(argv, out):
    command = argv[0]
    if command == "census":
        header, *rows = out.splitlines()
        assert header == CSV_HEADER
        pmin, pmax = (int(census_option(argv, flag)) for flag in ("--pmin", "--pmax"))
        d_list = [int(tok) for tok in census_option(argv, "--D-list").split(",") if tok]
        classes_max = int(census_option(argv, "--classes-max"))
        # rows in (p, D) order, with D = 0 printed as p + 1
        cells = [
            (p, p + 1 if D == 0 else D) for p in primes_between(max(pmin, 5), pmax) for D in d_list
        ]
        assert len(rows) == len(cells), (len(rows), len(cells))
        for (p, D), row in zip(cells, rows):
            check_census_row(p, D, classes_max, row.split(","))
        return
    report = json.loads(out)
    if command == "factor":
        n = int(argv[1])
        factors = report["factors"]
        assert factors == sorted(factors) and math.prod(factors) == n
        assert all(is_probable_prime(p) for p in factors), factors
    elif command == "count":
        n, A, B = map(int, argv[1:4])
        if n <= BRUTE_FORCE_N:
            assert report["count"] == brute_force_count(n, A, B)
    else:
        p, m, d = report["p"], report["m"], report["d_min"]
        assert jacobi(d, p) == -1 and math.gcd(d, m) == 1 and jacobi(d, m) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(factor_argv(), census_argv(), count_argv(), nonresidue_argv()))
def test_every_argv_ends_in_a_right_answer_or_a_clean_error(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), code
    assert "Traceback" not in err
    if code == 0:
        check_success(argv, out)
    elif code == 1:
        assert "error:" in err
    elif "error:" not in err:
        assert argv[0] == "factor"
        stuck = json.loads(out)["stuck_cofactor"]
        assert stuck > 1 and int(argv[1]) % stuck == 0


# 16381 is the largest table prime and 16411 the least prime above it; 16519
# is the least prime whose bound, 257, is past the census's gcd table
KERNEL_P = [5, 7, 11, 13, 101, 1009, 16381, 16411, 16519, 4, 9, 15, 25, 35, 91, 1001]
D_EDGES = [
    -40000, -100, -3, -1, 0, 1, 2, 3, 255, 256, 257, 2 ** 63 - 1, 2 ** 63, 10 ** 30, 10 ** 400,
]
COEFFICIENT_EDGES = [
    -10 ** 30, -2 ** 63, -5, -1, 0, 1, 2, 2 ** 62, 2 ** 62 + 3, 2 ** 63 - 1, 2 ** 63, 10 ** 30,
]
KERNELS = [phi_direct, phi_mobius, lower_bounds, legendre_sums, normal_form_traces]


def table_prime(p):
    return 5 <= p <= 1 << 14 and is_probable_prime(p)


def census_reference(kernel, ps, ds):
    """A census kernel's values over ps x ds as nested lists, a pair of them
    for lower_bounds, which reads a D past the float range as +inf; or
    ValueError for a negative D."""
    if min(ds) < 0:
        return ValueError
    if kernel is not lower_bounds:
        return [[phi_reference(p, D) for D in ds] for p in ps]

    def bounds(p, D):
        return lower_bounds_reference(p, D or p + 1 if D <= sys.float_info.max else math.inf)

    cells = [[bounds(p, D) for D in ds] for p in ps]
    return tuple([[cell[k] for cell in row] for row in cells] for k in (0, 1))


@st.composite
def kernel_calls(draw):
    """(kernel, args, expected): one kernel call from edge values, and what it
    must give, with arrays as nested lists, or ValueError where it must refuse.
    normal_form_traces is checked by its length and three of its traces."""
    kernel = draw(st.sampled_from(KERNELS))
    p = draw(st.sampled_from(KERNEL_P))
    if kernel is normal_form_traces:
        if not table_prime(p):
            return kernel, (p,), ValueError
        ts = [t for t in range(1, p) if (4 * t + 27) % p]  # t != 0, -27/4
        picks = {i: -euler_sum_reference(p, ts[i], ts[i]) for i in (0, len(ts) // 3, -1)}
        return kernel, (p,), (len(ts), picks)
    if kernel is legendre_sums:
        coefficient = st.one_of(st.sampled_from(COEFFICIENT_EDGES), st.integers(-50, 50))
        A, B = draw(coefficient), draw(coefficient)
        column = draw(st.lists(st.tuples(coefficient, coefficient), max_size=3))
        column = [(a, b) for a, b in column if max(abs(a), abs(b)) < 2 ** 63]
        if column:  # a column of the pairs that fit int64
            A, B = (np.array([[x] for x in xs], dtype=np.int64) for xs in zip(*column))
        if not table_prime(p):
            return kernel, (p, A, B), ValueError
        if column:
            return kernel, (p, A, B), [euler_sum_reference(p, a, b) for a, b in column]
        return kernel, (p, A, B), euler_sum_reference(p, A, B)
    ds = draw(st.lists(st.sampled_from(D_EDGES), min_size=1, max_size=3))
    if draw(st.booleans()):  # a scalar p and D
        expected = census_reference(kernel, [p], ds[:1])
        if expected is not ValueError:
            expected = expected[0][0] if kernel is not lower_bounds else (
                expected[0][0][0], expected[1][0][0])
        return kernel, (p, ds[0]), expected
    ps = [p] + draw(st.lists(st.sampled_from(KERNEL_P), max_size=2))
    return kernel, (np.array(ps), ds), census_reference(kernel, ps, ds)


def as_lists(result):
    """A kernel's result with every array as nested lists."""
    if isinstance(result, tuple):
        return tuple(as_lists(r) for r in result)
    return result.tolist() if isinstance(result, np.ndarray) else result


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernel_calls())
def test_every_kernel_call_is_refused_or_equals_its_reference(call):
    kernel, args, expected = call
    if expected is ValueError:
        with pytest.raises(ValueError):
            kernel(*args)
        return
    result = kernel(*args)
    if kernel is normal_form_traces:
        length, picks = expected
        result = (len(result), {i: result[i] for i in picks})
    assert as_lists(result) == expected, args
