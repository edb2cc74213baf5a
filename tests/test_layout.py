"""Module layout: no module of the package imports a private name of another.

A name with a leading underscore is private to the module that defines it;
a sibling that needs it should get a public name instead.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ecfactor"


def private_imports(path):
    """(line, module, name) for each underscore name imported from a sibling."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.lineno, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name_of_a_sibling():
    found = {
        path.name: hits
        for path in sorted(SOURCE.glob("*.py"))
        if (hits := private_imports(path))
    }
    assert found == {}


def test_the_check_sees_a_private_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from .counting import _legendre_table, count_points_prime\n")
    assert private_imports(module) == [(1, "counting", "_legendre_table")]
