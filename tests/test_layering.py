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
would solve one again.  `Q` is the exact type of input and output only: the
engine computes on integer rows and does no `Q` arithmetic.
"""

import ast
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from braidcalc.algebras import multiply
from braidcalc.cli import main
from braidcalc.fixtures import fix_anyon, fix_k2, gr_star
from braidcalc.linalg import Subspace
from braidcalc.scalars import Q

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "braidcalc"


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


Q_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__neg__", "conj", "inv",
)


@pytest.fixture()
def no_q_arithmetic(monkeypatch):
    "Every arithmetic method of Q raises."

    def forbidden(name):
        def call(*args):
            raise AssertionError(f"Q.{name} called")

        return call

    for name in Q_ARITHMETIC:
        monkeypatch.setattr(Q, name, forbidden(name))


def test_the_guard_sees_q_arithmetic(no_q_arithmetic):
    for run in (lambda: Q(1) + Q(2), lambda: 2 * Q(1), lambda: -Q(1), lambda: Q(0, 1).conj()):
        with pytest.raises(AssertionError):
            run()


def test_vectors_cross_the_edge_without_q_arithmetic(no_q_arithmetic):
    k2, anyon = fix_k2(), fix_anyon()
    i, half = Q(0, 1), Q(Fraction(1, 2))
    assert k2.antipode.apply([Q(3), half]) == (Q(3), half)
    assert anyon.antipode.apply([1, 1, 1, 1]) == (Q(1), Q(-1), i, i)
    assert gr_star(imaginary=True).apply([Q(2, 1), i]) == (Q(2, -1), Q(1))
    assert multiply(k2.alg, [1, half], [Q(2), 4]) == (Q(2), Q(2))
    space = Subspace.spanned_by(3, [[1, i, 0], [half, 0, 1]])
    assert space.basis == ((Q(1), Q(0), Q(2)), (Q(0), Q(1), Q(0, 2)))
    assert space.contains([half, Q(0, 3), -5]) and not space.contains([half, Q(0, 3), 5])


@pytest.mark.parametrize("name", ["fix_1", "fix_k2", "fix_gr", "fix_k4", "fix_a4"])
def test_check_does_no_q_arithmetic(tmp_path, no_q_arithmetic, name):
    "`check` on each shipped bundle runs with Q arithmetic forbidden and writes its pinned report."
    pinned = json.loads((ROOT / "perfbench" / "expected.json").read_text())["shipped"][name]["sha256"]
    report = tmp_path / "rep.json"
    assert main(["check", str(ROOT / "bundles" / f"{name}.json"), "-o", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == pinned
