"""Layering: the private names of `linalg` stay inside `linalg.py`.

Every other module works through `LinMap`, `Subspace` and the public
functions; an import of a `_`-prefixed name from `.linalg`, at module level
or inside a function, would couple it to the elimination internals.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "braidcalc"


def private_linalg_imports(package: Path) -> list:
    "(file name, line, name) of every `_`-prefixed name imported from linalg outside linalg.py."
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            from_linalg = (node.level == 1 and node.module == "linalg") or node.module == "braidcalc.linalg"
            if from_linalg:
                out.extend((path.name, node.lineno, a.name) for a in node.names if a.name.startswith("_"))
    return out


def test_no_module_imports_private_linalg_names():
    assert private_linalg_imports(SRC) == []


def test_the_check_sees_function_local_imports(tmp_path):
    (tmp_path / "linalg.py").write_text("from .scalars import _private\n")
    (tmp_path / "user.py").write_text("def f():\n    from .linalg import LinMap, _eliminate\n")
    assert private_linalg_imports(tmp_path) == [("user.py", 2, "_eliminate")]
