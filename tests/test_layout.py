"""Module layout, and the README's guide to it.

No module of the package imports a private name of another: a name with a
leading underscore is private to the module that defines it, and a sibling
that needs it should get a public name instead. Nor does one import a
callable through a sibling that only imports it: each is imported from the
module that defines it.

The README names the modules that exist, and every code name and path it
quotes still resolves, so a rename or a deletion in the code fails here
rather than leaving the guide stale. The package's docstrings and comments,
where each fact about the code lives, are held to the same rule.
"""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "ecfactor"
MODULES = {path.stem for path in SOURCE.glob("*.py")} - {"__init__", "__main__"}


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


def foreign_imports(path):
    """(line, module, name) for each callable imported from a package module
    that the module does not define, such as a function it imports itself:
    relative imports of a sibling, and absolute imports from `ecfactor.*`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        name = f"ecfactor.{node.module}" if node.level else node.module
        if name.startswith("ecfactor."):
            module = importlib.import_module(name)
            hits += [
                (node.lineno, node.module, alias.name)
                for alias in node.names
                if callable(value := getattr(module, alias.name))
                and getattr(value, "__module__", None) != name
            ]
    return hits


def test_no_module_imports_a_callable_through_a_sibling():
    # each callable is imported from the module that defines it, the
    # standard library's from the standard library, in the package and in
    # the tests and tools that import it
    paths = [*SOURCE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    found = {
        str(path.relative_to(ROOT)): hits
        for path in sorted(paths)
        if (hits := foreign_imports(path))
    }
    assert found == {}


def test_the_check_sees_a_callable_imported_through_a_sibling(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from .arith import gcd, jacobi\nfrom .counting import BRUTEFORCE_LIMIT\n"
        "from ecfactor.arith import isqrt, odd_part\nfrom math import gcd\n"
    )
    assert foreign_imports(module) == [(1, "arith", "gcd"), (3, "ecfactor.arith", "isqrt")]


def code_spans(text):
    """The inline code spans of a Markdown text, fenced blocks left out."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]


def defines(module, name):
    """Whether the package module defines name, at module level or on one of its classes."""
    return hasattr(module, name) or any(
        hasattr(value, name)
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    )


def unresolved(text):
    """The code spans of a Markdown text that name nothing the package
    defines, or a path that does not exist: each `_name` and each
    `module.attr` of a package module, calls read by their name, and each
    relative path."""
    modules = {name: importlib.import_module(f"ecfactor.{name}") for name in MODULES}
    missing = []
    for span in code_spans(text):
        if re.fullmatch(r"[\w.-]+(/[\w.-]+)+/?", span):
            if not (ROOT / span).exists():
                missing.append(span)
            continue
        name = span.split("(")[0].removeprefix("ecfactor.")
        if not re.fullmatch(r"\w+(\.\w+)*", name):
            continue
        head, _, attr = name.partition(".")
        if head in modules:
            if attr and not defines(modules[head], attr.split(".")[0]):
                missing.append(span)
        elif name.startswith("_"):
            if not any(defines(module, name.split(".")[0]) for module in modules.values()):
                missing.append(span)
    return missing


def layout_modules(text):
    """The modules the README's Layout section names, one per bullet."""
    section = text.split("\n## Layout\n")[1].split("\n## ")[0]
    return set(re.findall(r"^- `ecfactor\.(\w+)`", section, flags=re.M))


def test_the_readme_layout_names_every_module_on_disk():
    import ecfactor

    listed = set(re.findall(r"^  (\w+)\s+- ", ecfactor.__doc__, flags=re.M))
    assert layout_modules((ROOT / "README.md").read_text()) == MODULES
    assert listed == MODULES


def test_every_name_and_path_the_readme_quotes_exists():
    assert unresolved((ROOT / "README.md").read_text()) == []


def prose(path):
    """The docstrings of a Python file, a paragraph each, then its comments."""
    source = path.read_text()
    docs = [
        ast.get_docstring(node, clean=False)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    comments = [
        token.string.lstrip("#")
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    ]
    return "\n\n".join(filter(None, docs)) + "\n\n" + "\n".join(comments)


def test_every_name_and_path_the_docstrings_and_comments_quote_exists():
    found = {
        path.name: missing
        for path in sorted(SOURCE.glob("*.py"))
        if (missing := unresolved(prose(path)))
    }
    assert found == {}


def test_the_check_sees_a_deleted_name(tmp_path):
    readme = (
        "`_distinct_d` and `census._mobius(k)` are gone; `_count(m)`,\n"
        "`oracle.query(n, A, B, d)` and `ecfactor.cli.main` are not.\n"
        "`tools/gone.py` is missing, `tools/query_table.py` is not.\n"
        "```sh\n`_in_a_fence` is not read\n```\n"
    )
    assert unresolved(readme) == ["_distinct_d", "census._mobius(k)", "tools/gone.py"]
    module = tmp_path / "m.py"
    module.write_text(
        '"""`_distinct_d` is gone, `oracle.FactoredOracle` is not."""\n'
        "x = '`_in_a_string` is not read'  # `census._mobius` is gone\n"
        "def f():\n"
        '    """`tools/gone.py` is missing."""\n'
    )
    assert unresolved(prose(module)) == ["_distinct_d", "tools/gone.py", "census._mobius"]
