import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ecfactor
from ecfactor.arith import primes_between
from ecfactor.census import CSV_HEADER
from ecfactor.cli import COMMANDS, UsageError, main, parse
from ecfactor.reduction import D_MAX, MAX_D_LIMIT
from proof_aux import argparse_reference
from test_contracts import census_argv, count_argv, factor_argv, nonresidue_argv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload(stdout):
    report = json.loads(stdout)
    report.pop("wall_ms", None)
    return report


class TestFactorCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "35", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["factors"] == [5, 7]
        assert report["seed"] == 1
        assert report["oracle_queries"] >= 2

    def test_prime_input_zero_queries(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "7")
        assert code == 0
        report = json.loads(out)
        assert report["factors"] == [7]
        assert report["oracle_queries"] == 0

    @pytest.mark.parametrize("n", ["1152921504606847009", "3458764513820541027"])
    def test_one_prime_above_counting_limit_is_answered(self, capsys, n):
        # the least prime above 2^60, alone and times 3: a single odd prime is
        # never counted, so the oracle is not asked to admit it
        code, out, _ = run_cli(capsys, "factor", n)
        assert code == 0
        report = json.loads(out)
        assert report["factors"][-1] == 1152921504606847009
        assert report["oracle_queries"] == 0

    def test_non_squarefree_rejected(self, capsys):
        code, _, err = run_cli(capsys, "factor", "45")
        assert code == 1
        assert "not squarefree" in err and "3^2" in err

    def test_direct_oracle_mode(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "35", "--seed", "1", "--oracle", "direct")
        assert code == 0
        assert json.loads(out)["factors"] == [5, 7]

    def test_direct_oracle_prime_above_limit(self, capsys):
        code, out, err = run_cli(capsys, "factor", "10002200057", "--oracle", "direct")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "100019" in err
        assert "Traceback" not in err

    def test_prime_above_counting_limit(self, capsys):
        # 5 * (2^61 - 1): the oracle refuses the large prime when it is
        # built, since counts stop below 2^60, before a screening gcd can
        # find 5
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "factor", "11529215046068469755", "--seed", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "2305843009213693951" in err

    @pytest.mark.parametrize(
        "argv, prime",
        [
            (("factor", "14987979559889011117"), "1152921504606847009"),
            (("count", "1000000016000000063", "1", "1"), "1000000009"),
        ],
    )
    def test_sixty_bit_semiprime_refused_quickly(self, capsys, argv, prime):
        # factor: 13 * 1152921504606847009, the least prime above 2^60, which
        # is above the counting limit. count: 1000000007 * 1000000009, whose
        # primes are above the brute-force limit. Setup splits both at once.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and prime in err

    @pytest.mark.parametrize(
        "n, factors",
        [
            ("10737418295", [5, 2147483659]),
            ("1000000016000000063", [1000000007, 1000000009]),
        ],
    )
    def test_primes_above_the_legendre_limit_are_counted(self, capsys, n, factors):
        # both primes of the second n were refused while every count was a
        # Legendre sum (p <= 2^27); baby-step/giant-step counts them
        code, out, _ = run_cli(capsys, "factor", n)
        assert code == 0
        assert json.loads(out)["factors"] == factors

    @pytest.mark.parametrize("command", [("factor",), ("count",)])
    def test_above_2_64_without_small_factors_refused_quickly(self, capsys, command):
        # primes near 2^61 and 2^62: rho would run for hours, so setup
        # factoring (factor) and the direct oracle (count) refuse it at once
        n = "10633823966279327363694553002502260713"
        argv = command + (n,) + (("1", "1") if command == ("count",) else ())
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and n in err

    @pytest.mark.parametrize(
        "argv, factors, curves_used, queries",
        [
            (("1001", "--seed", "42"), [7, 11, 13], 2, 4),
            (("5005", "--seed", "7", "--D", "1"), [5, 7, 11, 13], 2, 5),
            (("1022117", "--seed", "3", "--oracle", "direct"), [1009, 1013], 1, 2),
            # a first curve whose gcd(a_p, p+1) exceeds D at both primes walks
            # every admissible d up to max_d before the second curve splits n
            (
                ("1077272742627746153", "--seed", "419625122"),
                [1009900799, 1066711447], 2, 2086,
            ),
        ],
    )
    def test_seeded_payload_pinned(self, capsys, argv, factors, curves_used, queries):
        code, out, _ = run_cli(capsys, "factor", *argv)
        assert code == 0
        report = json.loads(out)
        assert report["factors"] == factors
        assert report["curves_used"] == curves_used
        assert report["oracle_queries"] == queries

    def test_drawn_payloads_pinned(self, capsys):
        # factors, curves_used and oracle_queries of seeded runs are part of
        # the payload contract: 12 products of 8 primes in [1e3, 2e3], where
        # a split walks many twists, then 12 of 2 primes in [1e5, 1.1e5]
        rng = random.Random("factor payload pins")
        drawn = []
        for k, lo, hi in ((8, 1000, 2000), (2, 100_000, 110_000)):
            pool = primes_between(lo, hi)
            drawn += [(sorted(rng.sample(pool, k)), rng.randrange(2 ** 32)) for _ in range(12)]
        got = []
        for primes, seed in drawn:
            code, out, _ = run_cli(capsys, "factor", str(math.prod(primes)), "--seed", str(seed))
            report = json.loads(out)
            assert code == 0 and report["factors"] == primes, (primes, seed)
            got.append((report["curves_used"], report["oracle_queries"]))
        assert got == [
            (7, 59), (7, 79), (7, 70), (7, 65), (7, 54), (7, 69),
            (7, 42), (7, 92), (7, 75), (7, 57), (7, 81), (7, 77),
        ] + [(1, 2)] * 12

    def test_run_at_the_d_cap_is_time_bounded(self, capsys):
        # eight primes near 1e3: most twists do not isolate one prime, so
        # most recoveries fail after scanning up to 2*D_MAX multipliers
        n = "47254648566984174885860513"
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "factor", n, "--D", str(D_MAX), "--seed", "1")
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert math.prod(json.loads(out)["factors"]) == int(n)

    def test_max_d_at_the_cap_is_accepted(self, capsys):
        # one above it is refused (test_broken_contract_exits_1)
        code, out, _ = run_cli(capsys, "factor", "35", "--max-d", str(MAX_D_LIMIT))
        assert code == 0
        assert json.loads(out)["factors"] == [5, 7]

    def test_exhaustion_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "35", "--max-curves", "0")
        assert code == 2
        assert json.loads(out)["stuck_cofactor"] == 35

    def test_replay_is_deterministic(self, capsys):
        argv = ("factor", "1001", "--seed", "42")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert payload(out1) == payload(out2)

    def test_seed_defaults_to_zero_whatever_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("ECFACTOR_SEED", "abc")
        code, out, _ = run_cli(capsys, "factor", "35")
        assert code == 0
        assert json.loads(out)["seed"] == 0


class TestCensusCommand:
    def test_stdout_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--pmin", "5", "--pmax", "7", "--D-list", "1"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("p,D,phi_direct")
        assert lines[1].startswith("5,1,1,1,")
        assert lines[2].startswith("7,1,3,3,")

    def test_file_output(self, capsys, tmp_path):
        out_file = tmp_path / "census.csv"
        code, _, _ = run_cli(
            capsys,
            "census", "--pmin", "5", "--pmax", "5", "--D-list", "6",
            "--out", str(out_file),
        )
        assert code == 0
        line = out_file.read_text().strip().split("\n")[1]
        fields = line.split(",")
        assert fields[6] == "12" and fields[7] == "12"

    def test_empty_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--pmin", "24", "--pmax", "28", "--D-list", "1"
        )
        assert code == 0
        assert out.strip() == "p,D,phi_direct,phi_mobius,bound22,bound23,s_classes,total_classes"

    def test_seeded_csv_pinned(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--pmax", "200", "--D-list", "1,2,3,5,10,0"
        )
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == (
            "b9a2b882ba6bbc0478a37405d30239c1724f77945efb2ceccd9db752bff73717"
        )

    def test_benchmark_range_csv_pinned(self, capsys):
        # the census-sweep benchmark's D-list and class cap, over [300, 10500]
        code, out, _ = run_cli(
            capsys, "census", "--pmin", "300", "--pmax", "10500",
            "--D-list", "1,2,3,5,10,0", "--classes-max", "400",
        )
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == (
            "291e74038c6a97761f162ca44d562a46d3b67c7f82729dc107678c44b631058a"
        )

    def test_class_limit_and_repeated_huge_D_csv_pinned(self, capsys):
        # classes to the enumeration limit, D = 0 and 3 repeated, D = 2^70
        code, out, _ = run_cli(
            capsys, "census", "--pmin", "5", "--pmax", "20000",
            "--D-list", "0,1,2,3,5,10,40,1000,0,3,1180591620717411303424",
            "--classes-max", "1000",
        )
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == (
            "6707dd3f415f090f70c44d63c4f22e5deadb9495754629dcdfae840b357d1983"
        )

    @staticmethod
    def census_capped(pmin, pmax):
        """`census --pmin pmin --pmax pmax --D-list 1 --classes-max 0` in a child
        process whose address space is capped at 1.5 GB, and its wall time."""
        src = str(Path(ecfactor.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        cap = 1500 * 2 ** 20
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ecfactor", "census", "--pmin", str(pmin),
             "--pmax", str(pmax), "--D-list", "1", "--classes-max", "0"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            timeout=60,
        )
        return proc, time.perf_counter() - start

    def test_narrow_range_near_1e10_sieves_only_the_range(self):
        # the sweep once sieved every integer up to --pmax, 10 GB here
        proc, elapsed = self.census_capped(9999999990, 10000000000)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == CSV_HEADER + "\n"
        assert elapsed < 1.0

    def test_wide_range_refused_before_the_sieve(self):
        # [5, 1e10] would need a 10 GB segment; the width contract refuses it
        proc, elapsed = self.census_capped(5, 10000000000)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "10000000000" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert elapsed < 1.0

    def test_pmax_above_the_limit_refused_before_the_sieve(self):
        # sieving up to 1e18 needs a base sieve to 1e9: a MemoryError under the cap
        proc, elapsed = self.census_capped(10 ** 18, 10 ** 18 + 100)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "pmax must be <= 1099511627776" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert elapsed < 1.0

    def test_sweep_of_too_many_cells_refused_before_any_line(self):
        # width 1e6 ending at 2^40 passes the width and pmax caps, but its
        # 7.5e10 (prime, a) cells would take hours; the sieve alone runs
        proc, elapsed = self.census_capped(2 ** 40 - 10 ** 6, 2 ** 40)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "75497436000" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert elapsed < 10

    def test_large_p_window_memory_bounded(self):
        # 8 primes near 1e12, each with 2e6 values of a: a sweep that kept the
        # sorted gcds of every prime peaked near 180 MB; blocks keep it near 70 MB.
        # The census is the only child of a wrapper, whose RUSAGE_CHILDREN
        # peak is then the census's own.
        src = str(Path(ecfactor.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        measure = (
            "import resource, subprocess, sys\n"
            "rc = subprocess.run([sys.executable, '-m', 'ecfactor', *sys.argv[1:]]).returncode\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(rc)\n"
        )
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", measure, "census", "--pmin", str(10 ** 12),
             "--pmax", str(10 ** 12 + 180), "--D-list", "1,0", "--classes-max", "0"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1 + 8 * 2
        peak_mb = int(proc.stderr.split()[-1]) / 1024  # ru_maxrss is in KB on Linux
        assert peak_mb < 120
        assert elapsed < 30

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "census", "--pmin", "10", "--pmax", "5")
        assert code == 1
        assert "pmin" in err

    def test_D_beyond_the_float_range(self, capsys):
        huge = 10 ** 400
        code, out, err = run_cli(
            capsys, "census", "--pmax", "7", "--D-list", f"1,{huge},0"
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        # D = 10^400 reads as +inf in bound22: 2*sqrt(p) - tau((p+1)^2)
        assert lines[1:] == [
            "5,1,1,1,-22.4164,-0.509288,2,12",
            f"5,{huge},4,4,-4.52786,-0.509288,12,12",
            "5,6,4,4,-7.50929,-0.509288,12,12",
            "7,1,3,3,-22.8745,1.64575,8,18",
            f"7,{huge},5,5,-1.7085,1.64575,18,18",
            "7,8,5,5,-4.35425,1.64575,18,18",
        ]

    @pytest.mark.parametrize(
        "argv",
        [("--pmin", "10", "--pmax", "5"), ("--pmax", "20", "--D-list", "1,-1")],
    )
    def test_refused_sweep_leaves_out_untouched(self, capsys, tmp_path, argv):
        target = tmp_path / "census.csv"
        target.write_bytes(b"kept\n")
        code, out, err = run_cli(capsys, "census", *argv, "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: ")
        assert target.read_bytes() == b"kept\n"


class TestCountCommand:
    def test_example(self, capsys):
        code, out, _ = run_cli(capsys, "count", "35", "1", "1")
        assert code == 0
        assert json.loads(out)["count"] == 45

    def test_singular_rejected(self, capsys):
        code, _, err = run_cli(capsys, "count", "35", "0", "0")
        assert code == 1
        assert "error" in err


class TestNonresidueCommand:
    def test_example(self, capsys):
        code, out, _ = run_cli(capsys, "nonresidue", "7", "5")
        assert code == 0
        report = json.loads(out)
        assert report["d_min"] == 6
        assert report["ratio"] == pytest.approx(
            6 / math.log(35) ** 2, abs=1e-6
        )

    def test_cap_exhausted(self, capsys):
        code, _, err = run_cli(capsys, "nonresidue", "5", "7", "--cap", "1")
        assert code == 2


def test_importing_the_reduction_loads_neither_the_oracle_nor_numpy():
    # the algorithm is pure Python: only the simulated oracle and the census need numpy
    src = str(Path(ecfactor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, ecfactor.reduction\n"
        "print(' '.join(sorted({'numpy', 'ecfactor.counting', 'ecfactor.oracle'} & set(sys.modules))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_usage_error_exit_code(capsys):
    assert main(["factor"]) == 1
    capsys.readouterr()
    assert main(["bogus"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [("--help",), ("factor", "-h")])
def test_help_lists_every_command_and_option(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    for command, (_, names, options) in COMMANDS.items():
        line = next(line for line in lines if line.split()[0] == command)
        assert line.split()[1:1 + len(names)] == list(names)
        assert all(flag in line.split() or f"[{flag}" in line.split() for flag in options)


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("bogus", "35"),
        ("factor", "35", "--bogus", "1"),
        ("factor", "35", "--see", "3"),  # argparse took a prefix for --seed
        ("factor", "35", "--seed"),
        ("factor", "35", "--seed="),
        ("census", "--pmax="),
        ("factor",),
        ("count", "35", "1"),
        ("factor", "35", "36"),
        ("factor", "35", "--"),
        ("census", "--pmin", "5"),
        ("factor", "35", "--oracle", "brute"),
    ],
)
def test_usage_error_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [("--D-list", "-1,2"), ("--D-list=-1,2",)])
def test_option_value_is_the_next_token_whatever_it_looks_like(capsys, argv):
    # argparse read the separate "-1,2" as an option and refused it as usage
    code, out, err = run_cli(capsys, "census", "--pmax", "7", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "D must be >= 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--pmax", "20", "--D-list", "-1"),
        ("census", "--pmin", "1000", "--pmax", "1010", "--classes-max", "2000"),
        # checked before any class enumeration, so this returns at once
        ("census", "--pmin", "5", "--pmax", "1010", "--classes-max", "2000"),
        ("census", "--pmax", "7", "--D-list", "1,x"),
        ("nonresidue", "7", "5", "--cap", "-1"),
        ("nonresidue", "15", "7"),
        ("nonresidue", "9", "5"),
        ("factor", "35", "--D", "0"),
        ("factor", "35", "--max-d", "-3"),
        ("factor", "35", "--max-curves", "-1"),
        ("count", "1", "1", "1"),
        # above the D cap: every failed recovery would scan up to 2*D multipliers
        ("factor", "5005", "--D", "100000000", "--seed", "1"),
        # above the max_d cap: a curve that never splits n walks every d up to max_d
        ("factor", "35", "--max-d", str(MAX_D_LIMIT + 1)),
    ],
)
def test_broken_contract_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""


def test_unwritable_out_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "census.csv"
    code, out, err = run_cli(capsys, "census", "--pmax", "7", "--out", str(target))
    assert code == 1
    assert err.startswith("error: ") and "census.csv" in err
    assert out == ""


def run_process(*argv):
    """`python -m ecfactor *argv` in a fresh interpreter."""
    src = str(Path(ecfactor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ecfactor", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_repeated_main_calls_leave_nothing_behind(capsys):
    # a value parsed in one call, or a usage error, must not reach the next
    table = repr(COMMANDS)
    argv = ("factor", "1001", "--seed", "42")
    fresh = run_process(*argv)
    assert fresh.returncode == 0
    assert run_cli(capsys, "factor", "1001", "--D", "1", "--seed", "42")[0] == 0
    assert run_cli(capsys, "factor")[0] == 1
    assert run_cli(capsys, "factor", "1001", "--D", "x")[0] == 1
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert repr(COMMANDS) == table
    report = payload(out)
    assert report == payload(fresh.stdout)
    assert report["config"]["D"] == 12
    assert (report["factors"], report["oracle_queries"]) == ([7, 11, 13], 4)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("factor", "35", "--D", "0"), 1),
        (("nonresidue", "5", "7", "--cap", "1"), 2),
        (("factor", "35", "--see", "3"), 1),
    ],
)
def test_process_exit_status(argv, code):
    proc = run_process(*argv)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def _arg(values):
    return values.map(lambda v: [str(v)])


def _flag(name, values):
    return values.map(lambda v: [f"{name}={v}"])


def _maybe(flag):
    return st.one_of(st.just([]), flag)


def _argv(*parts):
    return st.tuples(*parts).map(lambda chunks: [tok for chunk in chunks for tok in chunk])


_ints = st.integers
_PRIMES = primes_between(5, 320)
# half raw ints, half squarefree products of primes >= 5, so valid inputs are common
_N = _arg(st.one_of(
    _ints(-5, 10 ** 5),
    st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=3, unique=True).map(math.prod),
))
_FACTOR = _argv(
    st.just(["factor"]),
    _N,
    _maybe(_flag("--D", _ints(-3, 20))),
    # budgets always given and small, so a hard n cannot run for long
    _flag("--max-d", _ints(-3, 40)),
    _flag("--max-curves", _ints(-2, 4)),
    _maybe(_flag("--seed", _ints(0, 10 ** 6))),
    _maybe(_flag("--oracle", st.sampled_from(["factored", "direct"]))),
)
_CENSUS = _argv(
    st.just(["census"]),
    _maybe(_flag("--pmin", _ints(-10, 300))),
    _flag("--pmax", _ints(-10, 300)),
    _maybe(_flag("--D-list", st.lists(_ints(-2, 20), max_size=3).map(
        lambda ds: ",".join(map(str, ds))))),
    # always given and small: class enumeration costs O(p^2) per prime
    _flag("--classes-max", _ints(-5, 100)),
)
_COUNT = _argv(st.just(["count"]), _N, _arg(_ints(-50, 50)), _arg(_ints(-50, 50)))
_NONRESIDUE = _argv(
    st.just(["nonresidue"]),
    _arg(st.one_of(_ints(-5, 500), st.sampled_from(_PRIMES))),
    _arg(_ints(-5, 500)),
    _maybe(_flag("--cap", _ints(-3, 100))),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.one_of(_FACTOR, _CENSUS, _COUNT, _NONRESIDUE))
def test_every_argv_ends_in_an_exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


_SEEDED_FACTOR = _argv(
    st.just(["factor"]),
    _arg(st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=3, unique=True).map(math.prod)),
    _maybe(_flag("--D", _ints(1, 12))),
    _flag("--seed", _ints(0, 10 ** 6)),
    _maybe(_flag("--oracle", st.sampled_from(["factored", "direct"]))),
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_SEEDED_FACTOR)
def test_same_seed_same_factor_payload(argv):
    # the second run starts with the caches the first one filled
    runs = []
    for _ in range(2):
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
            code = main(argv)
        runs.append((code, payload(out.getvalue())))
    assert runs[0][0] in (0, 2)
    assert runs[0] == runs[1]


def _table_reading(argv):
    """(command, values) that `cli.parse` reads from argv, or None on a UsageError."""
    try:
        handler, values = parse(argv)
    except UsageError:
        return None
    return next(c for c, (h, _, _) in COMMANDS.items() if h is handler), values


def _joined(argv):
    """argv with each `--opt value` pair written as one `--opt=value` token."""
    out, tokens = [], iter(argv)
    for token in tokens:
        if token.startswith("--") and "=" not in token:
            value = next(tokens, None)
            token = token if value is None else f"{token}={value}"
        out.append(token)
    return out


def _one_dropped(argvs):
    """argvs with one token after the command left out."""
    return argvs.flatmap(lambda argv: st.integers(1, len(argv) - 1).map(
        lambda i: argv[:i] + argv[i + 1:]))


# the strategies of the in-process fuzzers here and in test_contracts.py, and
# each with one token dropped, so that refused argvs are common too
_ALL_ARGVS = st.one_of(
    _FACTOR, _CENSUS, _COUNT, _NONRESIDUE,
    factor_argv(), census_argv(), count_argv(), nonresidue_argv(),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_ALL_ARGVS, _one_dropped(_ALL_ARGVS)))
@example(["census", "--pmax", "7", "--D-list", "-1,2"])
def test_table_parser_reads_what_argparse_read(argv):
    expected = argparse_reference(argv)
    if expected is None:
        # argparse reads a value such as "-1,2" after "--opt" as an option and
        # refuses argv; the table takes the next token, as argparse takes "--opt=-1,2"
        expected = argparse_reference(_joined(argv))
    assert _table_reading(argv) == expected
