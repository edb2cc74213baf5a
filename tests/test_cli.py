import hashlib
import json
import math

import pytest

from ecfactor.cli import main


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

    @pytest.mark.parametrize(
        "argv, factors, curves_used, queries",
        [
            (("1001", "--seed", "42"), [7, 11, 13], 2, 5),
            (("5005", "--seed", "7", "--D", "1"), [5, 7, 11, 13], 3, 10),
            (("1022117", "--seed", "3", "--oracle", "direct"), [1009, 1013], 1, 2),
        ],
    )
    def test_seeded_payload_pinned(self, capsys, argv, factors, curves_used, queries):
        code, out, _ = run_cli(capsys, "factor", *argv)
        assert code == 0
        report = json.loads(out)
        assert report["factors"] == factors
        assert report["curves_used"] == curves_used
        assert report["oracle_queries"] == queries

    def test_exhaustion_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "35", "--max-curves", "0")
        assert code == 2
        assert json.loads(out)["stuck_cofactor"] == 35

    def test_replay_is_deterministic(self, capsys):
        argv = ("factor", "1001", "--seed", "42")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert payload(out1) == payload(out2)

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ECFACTOR_SEED", "77")
        # parser defaults are bound at build time, so go through main fresh
        code, out, _ = run_cli(capsys, "factor", "35")
        assert code == 0
        assert json.loads(out)["seed"] == 77


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

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "census", "--pmin", "10", "--pmax", "5")
        assert code == 1
        assert "pmin" in err


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


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert all(line.endswith("PASS") for line in lines)


def test_usage_error_exit_code(capsys):
    assert main(["factor"]) == 1
    capsys.readouterr()
    assert main(["bogus"]) == 1
    capsys.readouterr()
