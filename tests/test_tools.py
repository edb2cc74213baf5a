"""The scripts under tools/ against what the README says they print."""

import subprocess
import sys
from pathlib import Path

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
