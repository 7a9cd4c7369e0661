"""Layering: the private names of `linalg` stay inside `linalg.py`,
`bicovariance.py` decides from solved data without solving, repeated work
is recognised by value, and flips are solved only through the calculus's
memo.

Every other module works through `LinMap`, `Subspace` and the public
functions; an import of a `_`-prefixed name from `.linalg`, at module level
or inside a function, would couple it to the elimination internals.  The
actions and trivializations are solved once, by the caller; a solver
imported into `bicovariance.py` would solve them a second time.  A memo
keyed by `id` holds only while its maps live and equal maps are one
object; a memo keyed by the maps needs neither.  `calculi.flip_for` keeps
every solved flip of a calculus; a `solve_flip` call outside `calculi.py`
would solve one again.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "braidcalc"


def imports_from(path: Path, module: str) -> list:
    "(line, name) of every name `path` imports from the braidcalc module `module`."
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module == module) or node.module == f"braidcalc.{module}"
        ):
            out.extend((node.lineno, a.name) for a in node.names)
    return out


def private_linalg_imports(package: Path) -> list:
    "(file name, line, name) of every `_`-prefixed name imported from linalg outside linalg.py."
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name != "linalg.py":
            out.extend((path.name, line, name) for line, name in imports_from(path, "linalg") if name.startswith("_"))
    return out


def solver_imports(path: Path) -> list:
    "(line, name) of every `solve_*` or `*_trivialization` name `path` imports from covariance."
    return [
        (line, name)
        for line, name in imports_from(path, "covariance")
        if name.startswith("solve_") or name.endswith("_trivialization")
    ]


def name_uses(package: Path, name: str, skip=()) -> list:
    """(file name, line) of every read of `name`, bare or as an attribute of a
    package module (`calculi.solve_flip`), in the modules of `package` not in `skip`."""
    modules = {path.stem for path in package.glob("*.py")} | {package.name}
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                found = node.id == name and isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.Attribute):
                owner = node.value
                found = node.attr == name and getattr(owner, "id", getattr(owner, "attr", None)) in modules
            else:
                continue
            if found:
                out.append((path.name, node.lineno))
    return sorted(out)


def test_no_module_imports_private_linalg_names():
    assert private_linalg_imports(SRC) == []


def test_the_check_sees_function_local_imports(tmp_path):
    (tmp_path / "linalg.py").write_text("from .scalars import _private\n")
    (tmp_path / "user.py").write_text("def f():\n    from .linalg import LinMap, _eliminate\n")
    assert private_linalg_imports(tmp_path) == [("user.py", 2, "_eliminate")]


def test_bicovariance_imports_no_solver():
    assert solver_imports(SRC / "bicovariance.py") == []


def test_the_solver_check_sees_function_local_imports(tmp_path):
    (tmp_path / "user.py").write_text(
        "from .covariance import LeftCovariantData\n"
        "def f():\n    from braidcalc.covariance import right_trivialization, solve_left_action\n"
    )
    assert solver_imports(tmp_path / "user.py") == [(3, "right_trivialization"), (3, "solve_left_action")]


def test_no_module_uses_id():
    assert name_uses(SRC, "id") == []


def test_the_id_check_sees_calls_and_references(tmp_path):
    (tmp_path / "user.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\nclass Entry:\n    id: str\n"
        "def f(e, maps):\n    return e.id, id(e), tuple(map(id, maps))\n"
    )
    assert name_uses(tmp_path, "id") == [("user.py", 6), ("user.py", 6)]


def test_only_calculi_solves_flips():
    assert name_uses(SRC, "solve_flip", skip=("calculi.py",)) == []


def test_the_solve_flip_check_sees_calls_and_attributes(tmp_path):
    (tmp_path / "calculi.py").write_text("def solve_flip(c):\n    pass\nsolve_flip(0)\n")
    (tmp_path / "__init__.py").write_text("from .calculi import solve_flip\n__all__ = ['solve_flip']\n")
    (tmp_path / "user.py").write_text(
        "import braidcalc.calculi\nfrom . import calculi\nfrom .calculi import solve_flip\n"
        "def f(c, flip):\n    return calculi.solve_flip(c), braidcalc.calculi.solve_flip(c), solve_flip(c), flip.solve_flip\n"
    )
    assert name_uses(tmp_path, "solve_flip", skip=("calculi.py",)) == [("user.py", 5)] * 3
