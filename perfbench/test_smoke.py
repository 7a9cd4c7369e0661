"""Smoke test of the benchmark: one tiny pass over fix_k2 with the gate on.

    python3 -m pytest perfbench/test_smoke.py

It is not part of the tier-1 suite, whose pytest testpaths is tests/.
"""

import json
from pathlib import Path

from run import gate, run_pass, work_directory

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())["shipped"]["fix_k2"]


def test_fix_k2_pass_passes_the_gate_traced_and_untraced():
    with work_directory() as workdir:
        plain = run_pass("shipped", 0, workdir, only=["fix_k2"])
        traced = run_pass("shipped", 0, workdir, only=["fix_k2"], trace=True)
    assert plain["setup_s"] > 0
    assert list(plain["ops"]) == ["fix_k2"]
    assert gate("shipped", 0, EXPECTED, plain["ops"]["fix_k2"])
    assert traced["ops"]["fix_k2"]["sha256"] == plain["ops"]["fix_k2"]["sha256"]
    layers = traced["done"]["layers"]
    assert layers["groups.derive_tau.calls"] == 1
    assert layers["linalg.matmul.calls"] > 0 and layers["verify.calculus_section.s"] > 0


def test_gate_checks_bytes_at_seed_0_and_the_entry_multiset_elsewhere():
    bad = dict(EXPECTED, status="ok", sha256="0" * 64)
    assert not gate("shipped", 0, EXPECTED, bad)
    assert not gate("shipped", 0, EXPECTED, dict(EXPECTED, status="exceeded"))
    assert gate("calculus", 1, EXPECTED, dict(EXPECTED, status="ok", sha256="0" * 64))
