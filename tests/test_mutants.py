"""Structural mutants of the shipped bundles are input errors, never crashes.

Each mutant changes one node of a shipped bundle's JSON tree: it replaces
the node with junk (a value of another type, a float, a bad scalar string or
an integer up to 10^9), deletes a key of an object, or grows or shrinks a
list.  Whatever the change, `parse_bundle` returns a bundle or raises
`ParseError`, and `braidcalc check` on a bundle that does not parse exits 2
with one stderr line and writes no report.
"""

import contextlib
import copy
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.bundles import ParseError, parse_bundle
from braidcalc.cli import main

BUNDLE_DIR = Path(__file__).resolve().parent.parent / "bundles"
SHIPPED = ("fix_1", "fix_k2", "fix_gr", "fix_k4", "fix_a4")
DATA = {name: json.loads((BUNDLE_DIR / f"{name}.json").read_text()) for name in SHIPPED}

_INTS = st.integers(-(10**9), 10**9) | st.sampled_from([-1, 0, 1, 2, 3, 4, 16, 10**9])
_JUNK = st.recursive(
    st.none()
    | st.booleans()
    | _INTS
    | st.floats()
    | st.sampled_from(["", "x", "0.5", "1e3", "1/0", "i i", "1/2+", "--1", "1+i", "nan"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def mutants(draw):
    """(name, JSON text) of a shipped bundle with one node replaced, deleted,
    duplicated or removed.  The node and the change are expanded from one
    drawn seed, so that every depth of the tree is reached evenly; only the
    copies of the containers on the path to the node are made."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    name = rng.choice(SHIPPED)
    root = dict(DATA[name])
    parent, key, node = None, None, root
    depth = rng.choice([0, 1, 2, 2, 3, 3, 4, 4, 5])  # capped where the tree ends
    for level in range(depth):
        keys = sorted(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        if level < depth - 1:  # descend through containers while there are levels to go
            keys = [k for k in keys if isinstance(node[k], (dict, list))] or keys
        if not keys:
            break
        parent, key = node, rng.choice(keys)
        node = parent[key] = copy.copy(parent[key])
    op = rng.choice(["replace", "delete", "grow", "shrink"])
    if op == "delete" and isinstance(node, dict) and node:
        del node[rng.choice(sorted(node))]
    elif op == "grow" and isinstance(node, list) and node:
        node.append(rng.choice(node))
    elif op == "shrink" and isinstance(node, list) and node:
        del node[rng.randrange(len(node))]
    elif parent is None:
        root = draw(_JUNK)
    else:
        parent[key] = draw(_JUNK)
    return name, json.dumps(root)


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.json"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mutants())
def test_malformed_mutants_are_input_errors(bundle_path, mutant):
    _, text = mutant
    try:
        parse_bundle(text)
    except ParseError:
        pass
    else:
        return
    bundle_path.write_text(text)
    report = bundle_path.with_suffix(".report.json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["check", str(bundle_path), "-o", str(report)]) == 2
    assert err.getvalue().startswith("input error: ") and len(err.getvalue().splitlines()) == 1
    assert not report.exists()
