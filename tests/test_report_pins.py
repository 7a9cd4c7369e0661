"""Byte pins of every command beyond the default `check`, passing and failing.

The cases are `tools/report_diff.py`'s: every covariance mode, every
`derive` map and `complete-system` on each shipped bundle,
`build-calculus` on both sides for every ideal of `fix_k4` and `fix_a4`,
two more `check` runs, `check` on `fix_k2` with a braiding whose shifts
take two values (sigma != tau), with and without its star, and 16 seeded
single-scalar mutants
of the shipped bundles through `check` and every covariance mode.  The
digests in `tests/data/report_digests.json` are the tool's
`--digests --mutants 16 --seed 0` output.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((ROOT / "tests" / "data" / "report_digests.json").read_text())
MUTANTS, SEED = 16, 0

_spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)
CASES = report_diff.cases(MUTANTS, SEED)


def test_pins_cover_every_case():
    assert sorted(PINNED) == sorted(label for label, *_ in CASES)


@pytest.mark.parametrize("label, text, argv, outputs", CASES, ids=[case[0] for case in CASES])
def test_command_output_is_pinned(label, text, argv, outputs):
    assert report_diff.run_command(text, argv, outputs) == PINNED[label]
