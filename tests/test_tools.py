"""The scripts under tools/ against what the README says they print."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def cells(line):
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def test_query_table_reproduces_the_readme_walk_column():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "query_table.py")],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert cells(out[0]) == ["k", "lo", "n", "queries per n", "failed"]
    printed = [cells(line) for line in out[2:]]
    assert all(row[4] == "0" for row in printed), printed
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if "| both filters |" in line) + 2
    readme = []
    for line in lines[start:]:
        if not line.strip().startswith("|"):
            break
        row = cells(line)
        readme.append([*row[:3], row[-1]])
    assert [row[:4] for row in printed] == readme


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairsSummary:
    """tools/bench_pairs.py's summary arithmetic on fixed numbers; no benchmark runs."""

    # sorted: 0.145 0.146 0.147 0.147 0.148 0.149 0.150 0.150 0.151 0.152, so the
    # inclusive quartiles fall on 0.147, (0.148 + 0.149) / 2 and 0.150
    parent = [0.150, 0.146, 0.147, 0.152, 0.149, 0.147, 0.151, 0.145, 0.150, 0.148]

    def test_quartiles_and_pairs(self):
        bp = load_bench_pairs()
        change = [x - 0.010 for x in self.parent]
        change[3] = 0.153  # the pair of 0.152 lost; the change's median is (0.138 + 0.139) / 2
        s = bp.summarize(self.parent, change, "lower", 0.2)
        assert s["parent"] == {"q1": 0.147, "median": 0.1485, "q3": 0.15, "n": 10}
        assert s["change"]["median"] == 0.1385
        assert s["change_vs_parent_median"] == -0.0673  # 0.1385 / 0.1485 - 1
        assert s["bound"] == 0.2
        assert s["parent_interquartile_range"] == 0.003
        assert s["pairs_change_better"] == "9 of 10"
        # for a metric where higher is better the same pairs count the other way
        assert bp.summarize(self.parent, change, "higher", 0.1)["pairs_change_better"] == "1 of 10"

    def test_worse_than_bound(self):
        bp = load_bench_pairs()
        worse = lambda change, better, bound: bp.summarize(
            self.parent, [change] * 10, better, bound)["worse_than_bound"]
        # lower is better, parent median 0.1485: 0.1785 is +20.2%, 0.1780 +19.9%
        assert worse(0.1785, "lower", 0.2)
        assert not worse(0.1780, "lower", 0.2)
        assert not worse(0.1785, "lower", 0.25)
        assert not worse(0.05, "lower", 0.2)
        # higher is better: 0.1185 is -20.2%, 0.1190 -19.9%; a rise never counts
        assert worse(0.1185, "higher", 0.2)
        assert not worse(0.1190, "higher", 0.2)
        assert not worse(0.5, "higher", 0.2)

    def test_claim_rule(self):
        bp = load_bench_pairs()
        faster = [x - 0.010 for x in self.parent]
        claim = bp.claim_holds(self.parent, faster, "lower")
        assert claim == {"pairs_change_better": "10 of 10", "median_gap": 0.01,
                         "parent_interquartile_range": 0.003, "met": True}
        # 9 of 10 pairs is enough: the medians are then 0.009 apart
        nine = faster[:9] + [0.2]
        assert bp.claim_holds(self.parent, nine, "lower")["met"]
        # 8 of 10 is not, however wide the gap
        eight = faster[:8] + [0.2, 0.2]
        assert bp.claim_holds(self.parent, eight, "lower")["pairs_change_better"] == "8 of 10"
        assert not bp.claim_holds(self.parent, eight, "lower")["met"]
        # every pair won, but by less than the parent's interquartile range
        close = [x - 0.002 for x in self.parent]
        claim = bp.claim_holds(self.parent, close, "lower")
        assert claim["pairs_change_better"] == "10 of 10"
        assert claim["median_gap"] == 0.002 and not claim["met"]
        # higher is better: the gap is read the other way
        assert bp.claim_holds(self.parent, [x + 0.010 for x in self.parent], "higher")["met"]
        assert not bp.claim_holds(self.parent, faster, "higher")["met"]


def test_bench_pairs_stages_both_trees_as_copies(tmp_path):
    # src/ and bench/ of each tree land under one directory, as parent/ and
    # change/, without bytecode, benchmark output or anything else of the tree
    bp = load_bench_pairs()
    trees = {}
    for side in ("parent", "change"):
        tree = tmp_path / f"{side}-tree"
        for name in ("src/ecfactor/__init__.py", "src/ecfactor/__pycache__/x.pyc",
                     "bench/run.py", "bench/out/last.json", "README.md"):
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tree / name).write_text(f"{side} {name}")
        trees[side] = tree
    staged = bp.stage(trees, tmp_path / "staged")
    assert staged == {side: tmp_path / "staged" / side for side in trees}
    for side, root in staged.items():
        files = sorted(str(f.relative_to(root)) for f in root.rglob("*") if f.is_file())
        assert files == ["bench/run.py", "src/ecfactor/__init__.py"]
        assert (root / "bench/run.py").read_text() == f"{side} bench/run.py"


class Staged(Exception):
    pass


def test_bench_pairs_refuses_bad_arguments_before_any_run(monkeypatch, capsys):
    # each of these used to fail only after every pair had run
    bp = load_bench_pairs()

    def fail(*args):
        raise Staged

    monkeypatch.setattr(bp, "stage", fail)
    monkeypatch.setattr(bp, "run", fail)
    argv = ["--base", str(ROOT), "--seeds", "1-2"]
    for bad in (
        ["--workloads", "factor-twist", "--claim", "factor-cold:wall_ref_s"],  # workload not run
        ["--claim", "factor-twist:wall_ms"],  # not an end-to-end metric
        ["--claim", "factor-twist"],  # no colon
        ["--seeds", "4801"],  # one seed
        ["--workloads", "factor-twsit"],  # unknown workload
    ):
        assert bp.main(argv + bad) == 2, bad
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (bad, err)
    # good arguments get as far as staging the copies
    with pytest.raises(Staged):
        bp.main(argv + ["--workloads", "factor-cold", "--claim", "factor-cold:setup_s"])


def test_payload_digest_pins_the_census_past_the_benchmark():
    # the digest's census sweeps, read without running them, reach every path
    # the benchmark's sweeps miss; trimming a pin fails here
    from math import isqrt

    from ecfactor import census
    from ecfactor.arith import primes_between

    spec = importlib.util.spec_from_file_location("payload_digest", ROOT / "tools" / "payload_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    sweeps = []
    for argv in digest.CENSUS:
        assert argv[0] == "census"
        flags = dict(zip(argv[1::2], argv[2::2]))
        primes = primes_between(int(flags["--pmin"]), int(flags["--pmax"]))
        d_list = [int(d) for d in flags["--D-list"].split(",")]
        sweeps.append((primes, d_list, int(flags["--classes-max"])))
    assert any(isqrt(4 * max(primes)) > census._GCD_TOP for primes, _, _ in sweeps)
    assert any(classes >= census._CLASS_ENUM_LIMIT for _, _, classes in sweeps)
    assert any(max(d_list) >= 2 ** 63 for _, d_list, _ in sweeps)
    assert any(len(primes) == 1 and len(d_list) > census._BLOCK_CELLS for primes, d_list, _ in sweeps)
    assert any(
        (B := isqrt(4 * max(primes))) >= 2 ** 20
        and any(0 < D and D * D <= B for D in d_list)
        and any(D * D > B and D < B for D in d_list)
        for primes, d_list, _ in sweeps
    )
