"""Layering: the private names of `linalg` stay inside `linalg.py`, and
`bicovariance.py` decides from solved data without solving.

Every other module works through `LinMap`, `Subspace` and the public
functions; an import of a `_`-prefixed name from `.linalg`, at module level
or inside a function, would couple it to the elimination internals.  The
actions and trivializations are solved once, by the caller; a solver
imported into `bicovariance.py` would solve them a second time.
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
