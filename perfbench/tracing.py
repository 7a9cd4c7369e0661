"""Spans around the calls into each braidcalc layer, installed from outside.

Every boundary is wrapped by patching: module functions in every
braidcalc module that bound them (from-imports copy the name, so
`braidcalc.verify.close_right_ideal` is patched as well as
`braidcalc.covariance.close_right_ideal`), and `LinMap`, `Subspace` and
`Report` methods on their classes.  Patching is for the life of the
process.  Spans stay in memory; `write_spans` dumps them when the pass
ends.

A span's self time is its duration minus the time covered by its direct
child spans.  A call counts once per group: a call made while the
innermost open span already belongs to the same group (`kernel` calling
`Subspace.spanned_by`, `is_invertible` calling `rank`) is not counted
again.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from braidcalc import bicovariance, bundles, calculi, covariance, groups, linalg, star, verify
from braidcalc.linalg import LinMap, Subspace
from braidcalc.reporting import Report

# group name -> the boundaries it covers, as (owner, attribute name)
MODULE_BOUNDARIES = {
    "linalg.elim": [(linalg, "solve_right"), (linalg, "factor_through"), (linalg, "quotient")],
    "groups.check_group": [(groups, "check_group")],
    "groups.derive_tau": [(groups, "derive_tau")],
    "calculi.solve_flips": [(calculi, "solve_flips")],
    "calculi.check_flip_identities": [(calculi, "check_flip_identities")],
    "calculi.check_multi_covariance": [(calculi, "check_multi_covariance")],
    "covariance.solve_action": [(covariance, "solve_left_action"), (covariance, "solve_right_action")],
    "covariance.close_ideal": [(covariance, "close_right_ideal"), (covariance, "close_left_ideal")],
    "covariance.reconstruct": [(covariance, "reconstruct_from_ideal"), (covariance, "reconstruct_right_from_ideal")],
    "bicovariance.ideal_test": [(bicovariance, "ideal_bicovariance_test")],
    "bicovariance.check": [(bicovariance, "check_bicovariance")],
    "star": [(star, "check_star_group"), (star, "star_covariance"), (star, "check_star_flip_compat")],
    "verify.group_section": [(verify, "verify_group_section")],
    "verify.calculus_section": [(verify, "verify_calculus_section")],
    "verify.ideal_section": [(verify, "verify_ideal_section")],
    "bundles.parse": [(bundles, "parse_bundle")],
    "bundles.emit_report": [(bundles, "emit_report")],
}

CLASS_BOUNDARIES = {
    "linalg.matmul": [(LinMap, "__matmul__")],
    "linalg.kron": [(LinMap, "tensor")],
    "linalg.elim": [
        (LinMap, "rank"),
        (LinMap, "is_invertible"),
        (LinMap, "inverse"),
        (LinMap, "kernel"),
        (LinMap, "image"),
        (Subspace, "spanned_by"),
        (Subspace, "intersect"),
    ],
    "reporting.check_eq": [(Report, "check_eq")],
}


def _matmul_mkn(args) -> int:
    a, b = args[0], args[1]
    return a.cod * a.dom * b.dom if isinstance(b, LinMap) else 0


def _kron_cells(args) -> int:
    a, b = args[0], args[1]
    return a.cod * b.cod * a.dom * b.dom


# group name -> work measured from the call's arguments
WORK = {"linalg.matmul": _matmul_mkn, "linalg.kron": _kron_cells}


class Tracer:
    def __init__(self):
        self.op = ""
        self.spans: list = []  # (span id, parent id, group, op, start, end)
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.work: dict = defaultdict(int)
        self.maps_built = 0
        self.max_cells = 0
        self._stack: list = []  # open spans: [span id, group, start, child seconds]
        self._next_id = 0

    def wrap(self, group: str, fn):
        stack, clock = self._stack, time.perf_counter
        measure = WORK.get(group)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or parent[1] != group:
                self.calls[group] += 1
            if measure is not None:
                self.work[group] += measure(args)
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, group, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.self_s[group] += duration - frame[3]
                self.total_s[group] += duration
                if stack:
                    stack[-1][3] += duration
                self.spans.append((span_id, parent[0] if parent else None, group, self.op, frame[2], end))

        return traced

    def install(self):
        "Patch every boundary."
        modules = [m for name, m in sys.modules.items() if name == "braidcalc" or name.startswith("braidcalc.")]
        for group, boundaries in MODULE_BOUNDARIES.items():
            for owner, attr in boundaries:
                original = getattr(owner, attr)
                traced = self.wrap(group, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, traced)
        for group, boundaries in CLASS_BOUNDARIES.items():
            for cls, attr in boundaries:
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self.wrap(group, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(group, raw))
        original_init = LinMap.__init__

        def counted_init(lm, cod, dom, *args, **kwargs):
            original_init(lm, cod, dom, *args, **kwargs)
            self.maps_built += 1
            if cod * dom > self.max_cells:
                self.max_cells = cod * dom

        LinMap.__init__ = counted_init

    def metrics(self) -> dict:
        "Per-layer counters and times for everything traced so far."
        c, s = self.calls, self.self_s
        return {
            "linalg.matmul.calls": c["linalg.matmul"],
            "linalg.matmul.self_s": s["linalg.matmul"],
            "linalg.matmul.mkn": self.work["linalg.matmul"],
            "linalg.kron.calls": c["linalg.kron"],
            "linalg.kron.self_s": s["linalg.kron"],
            "linalg.kron.cells": self.work["linalg.kron"],
            "linalg.maps.built": self.maps_built,
            "linalg.maps.max_cells": self.max_cells,
            "linalg.elim.calls": c["linalg.elim"],
            "linalg.elim.self_s": s["linalg.elim"],
            "reporting.check_eq.calls": c["reporting.check_eq"],
            "reporting.check_eq.self_s": s["reporting.check_eq"],
            "groups.check_group.self_s": s["groups.check_group"],
            "groups.derive_tau.calls": c["groups.derive_tau"],
            "calculi.solve_flips.self_s": s["calculi.solve_flips"],
            "calculi.check_flip_identities.self_s": s["calculi.check_flip_identities"],
            "calculi.check_multi_covariance.self_s": s["calculi.check_multi_covariance"],
            "covariance.solve_action.self_s": s["covariance.solve_action"],
            "covariance.close_ideal.self_s": s["covariance.close_ideal"],
            "covariance.reconstruct.self_s": s["covariance.reconstruct"],
            "bicovariance.ideal_test.self_s": s["bicovariance.ideal_test"],
            "bicovariance.check.self_s": s["bicovariance.check"],
            "star.self_s": s["star"],
            "verify.group_section.s": self.total_s["verify.group_section"],
            "verify.calculus_section.s": self.total_s["verify.calculus_section"],
            "verify.ideal_section.s": self.total_s["verify.ideal_section"],
            "bundles.parse.s": self.total_s["bundles.parse"],
            "bundles.emit_report.s": self.total_s["bundles.emit_report"],
        }

    def write_spans(self, path):
        "One JSON object per span; times are perf_counter seconds."
        with open(path, "w") as out:
            for span_id, parent, group, op, start, end in self.spans:
                out.write(
                    json.dumps({"id": span_id, "parent": parent, "name": group, "op": op, "start": start, "end": end})
                    + "\n"
                )
