"""Structured pass/fail ledgers for identity verification.

Every checked identity becomes one entry with a stable key.  A failing
entry always carries a witness: a concrete input vector together with
the values both sides take on it, so the nonzero residual can be
reproduced by hand or by an independent brute-force evaluator.
"""

from __future__ import annotations

from collections import namedtuple

from .linalg import AntilinMap, LinMap, Subspace

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"


class Entry(namedtuple("Entry", "id status ctx name witness note", defaults=("", "", None, ""))):
    "One checked identity: its key, its status and, on failure, its witness dict."

    __slots__ = ()


class Report:
    def __init__(self, ctx: str = "", entries: list | None = None):
        self.ctx = ctx
        self.entries = [] if entries is None else entries

    # -- assembly ----------------------------------------------------

    def add(self, entry: Entry):
        self.entries.append(entry)

    def ok(self, key: str, name: str = "", note: str = ""):
        self.add(Entry(key, PASS, self.ctx, name, None, note))

    def fail(self, key: str, witness: dict, name: str = "", note: str = ""):
        self.add(Entry(key, FAIL, self.ctx, name, witness, note))

    def skip(self, key: str, name: str = "", note: str = ""):
        self.add(Entry(key, SKIP, self.ctx, name, None, note))

    def extend(self, other: "Report"):
        self.entries.extend(other.entries)

    def add_skip_section(self, ctx: str):
        self.add(Entry("SECTION_SKIPPED", SKIP, ctx, note="group record invalid; section not evaluated"))

    # -- queries -----------------------------------------------------

    @property
    def ok_all(self) -> bool:
        return all(e.status != FAIL for e in self.entries)

    def failures(self) -> list:
        return [e for e in self.entries if e.status == FAIL]

    def passed(self, key: str) -> bool:
        found = [e for e in self.entries if e.id == key]
        return bool(found) and all(e.status == PASS for e in found)

    def ids(self) -> list:
        return [e.id for e in self.entries]

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, SKIP: 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    def __getitem__(self, key: str) -> Entry:
        for e in self.entries:
            if e.id == key:
                return e
        raise KeyError(key)

    # -- checks ------------------------------------------------------

    def check_eq(self, key: str, lhs, rhs, name: str = "", note: str = ""):
        "Exact equality of two maps (linear or antilinear), as one entry."
        if isinstance(lhs, AntilinMap) != isinstance(rhs, AntilinMap):
            self.fail(key, {"reason": "linear/antilinear type mismatch"}, name, note)
            return False
        a = lhs.lin if isinstance(lhs, AntilinMap) else lhs
        b = rhs.lin if isinstance(rhs, AntilinMap) else rhs
        if (a.cod, a.dom) != (b.cod, b.dom):
            self.fail(key, {"reason": f"shape mismatch {a.cod}x{a.dom} vs {b.cod}x{b.dom}"}, name, note)
            return False
        # Maps are stored in a canonical form, so a == b exactly when a - b is
        # zero; the difference is built only to find the witness column.
        if a == b:
            self.ok(key, name, note)
            return True
        j = (a - b).first_nonzero_col()
        basis = ["1" if t == j else "0" for t in range(a.dom)]
        self.fail(key, _vector_witness(basis, a.col(j), b.col(j)), name, note)
        return False

    def check_true(self, key: str, value: bool, witness: dict | None = None, name: str = "", note: str = ""):
        if value:
            self.ok(key, name, note)
        else:
            self.fail(key, witness or {"reason": "condition false"}, name, note)
        return value

    def check_invertible(self, key: str, f: LinMap, name: str = "", note: str = ""):
        if f.is_invertible():
            self.ok(key, name, note)
            return True
        witness: dict = {"reason": "not invertible"}
        if f.dom != f.cod:
            witness["reason"] = f"not square: {f.cod}x{f.dom}"
        else:
            ker = f.kernel()
            if ker.dim:
                witness["kernel_vector"] = [str(x) for x in ker.basis[0]]
        self.fail(key, witness, name, note)
        return False

    def check_surjective(self, key: str, f: LinMap, name: str = "", note: str = ""):
        if f.is_surjective():
            self.ok(key, name, note)
            return True
        self.fail(key, {"reason": f"rank {f.rank()} < {f.cod}"}, name, note)
        return False

    def check_space_le(self, key: str, small: Subspace, big: Subspace, name: str = "", note: str = ""):
        "small is contained in big, with an offending basis vector on failure."
        v = big.outside(small)
        if v is None:
            self.ok(key, name, note)
            return True
        self.fail(key, {"vector_outside": [str(x) for x in v]}, name, note)
        return False

    def check_space_eq(self, key: str, left: Subspace, right: Subspace, name: str = "", note: str = ""):
        if left == right:
            self.ok(key, name, note)
            return True
        v = right.outside(left)
        if v is not None:
            self.fail(key, {"vector_in_left_only": [str(x) for x in v]}, name, note)
            return False
        v = left.outside(right)
        if v is not None:
            self.fail(key, {"vector_in_right_only": [str(x) for x in v]}, name, note)
            return False
        self.fail(key, {"reason": "subspace mismatch"}, name, note)
        return False


class Verdicts:
    """The verdicts of one call's shift loops, each distinct identity decided once.

    A verdict is keyed by its equation, which the entry key `EQ_<id>_<shifts>`
    (as `EQ_242_n1_m-1`) carries before its second `_`, and the flip and
    braid maps that enter it, compared by value, so the shifts whose maps
    are equal share its verdicts.  A repeat adds the stored entry under its
    own key without building either side.  Only entries (all but their keys)
    are stored, never the products of a check.
    """

    def __init__(self, report: Report):
        self.report = report
        self._seen: dict = {}

    def check(self, key: str, maps: tuple, run):
        "Add the entry `key` on `maps`; on first sight of its equation on them `run(key)` adds it with one check."
        parts = key.split("_", 2)
        if len(parts) < 3:
            raise ValueError(f"verdict key {key!r} has no shift suffix")
        ident = (parts[0], parts[1], *maps)
        verdict = self._seen.get(ident)
        if verdict is None:
            run(key)
            self._seen[ident] = self.report.entries[-1][1:]
        else:
            self.report.add(Entry(key, *verdict))


def _vector_witness(vec, lhs_val, rhs_val) -> dict:
    return {
        "input": [str(x) for x in vec],
        "lhs": [str(x) for x in lhs_val],
        "rhs": [str(x) for x in rhs_val],
    }


def basis_label(index: int, dims, labels) -> str:
    "Decode a composite tensor index into a tuple string of the factors' basis labels."
    parts = []
    rem = index
    for d in reversed(dims):
        parts.append(rem % d)
        rem //= d
    parts.reverse()
    return "(" + ", ".join(labels[p] for p in parts) + ")"
