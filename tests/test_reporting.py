from fractions import Fraction

import pytest

from braidcalc.linalg import AntilinMap, LinMap, Subspace, identity
from braidcalc.reporting import FAIL, PASS, Report, Verdicts
from braidcalc.scalars import Q

A = LinMap.from_entries(2, 3, [[1, 0, Fraction(1, 2)], [0, -2, 3]])


def with_column(f: LinMap, j: int, values) -> LinMap:
    "f with column j replaced."
    return LinMap.from_entries(
        f.cod, f.dom, [[values[i] if t == j else f.entry(i, t) for t in range(f.dom)] for i in range(f.cod)]
    )


def check(lhs, rhs):
    rep = Report(ctx="t")
    result = rep.check_eq("K", lhs, rhs, name="N", note="n")
    [entry] = rep.entries
    assert (entry.id, entry.ctx, entry.name, entry.note) == ("K", "t", "N", "n")
    assert result == (entry.status == PASS)
    return entry


def test_equal_pair_passes_without_witness():
    entry = check(A, with_column(A, 1, [0, -2]))
    assert entry.status == PASS and entry.witness is None


def test_real_pair_differing_in_one_column():
    b = with_column(A, 2, [Fraction(1, 2), 4])
    entry = check(A, b)
    assert entry.status == FAIL
    assert entry.witness == {"input": ["0", "0", "1"], "lhs": ["1/2", "3"], "rhs": ["1/2", "4"]}


def test_witness_is_the_first_nonzero_column_of_the_difference():
    b = with_column(with_column(A, 2, [7, 7]), 1, [0, Fraction(-5, 3)])
    j = (A - b).first_nonzero_col()
    assert j == 1
    entry = check(A, b)
    assert entry.witness == {
        "input": [str(Q(int(t == j))) for t in range(3)],
        "lhs": [str(x) for x in A.col(j)],
        "rhs": [str(x) for x in b.col(j)],
    }


def test_complex_pair():
    a = with_column(A, 0, [Q(1, 1), Q(0, -2)])
    b = with_column(a, 0, [Q(1, 1), Q(0, 2)])
    assert check(a, with_column(A, 0, [Q(1, 1), Q(0, -2)])).status == PASS
    entry = check(a, b)
    assert entry.status == FAIL
    assert entry.witness == {"input": ["1", "0", "0"], "lhs": ["1+1 i", "0-2 i"], "rhs": ["1+1 i", "0+2 i"]}


def test_antilinear_pair():
    b = with_column(A, 1, [1, -2])
    assert check(AntilinMap(A), AntilinMap(with_column(A, 1, [0, -2]))).status == PASS
    entry = check(AntilinMap(A), AntilinMap(b))
    assert entry.status == FAIL
    assert entry.witness == {"input": ["0", "1", "0"], "lhs": ["0", "-2"], "rhs": ["1", "-2"]}


def test_linear_antilinear_mismatch():
    for lhs, rhs in ((A, AntilinMap(A)), (AntilinMap(A), A)):
        entry = check(lhs, rhs)
        assert entry.status == FAIL
        assert entry.witness == {"reason": "linear/antilinear type mismatch"}


def test_shape_mismatch():
    entry = check(A, LinMap.zero(3, 2))
    assert entry.status == FAIL
    assert entry.witness == {"reason": "shape mismatch 2x3 vs 3x2"}


def test_space_checks_name_a_vector_on_the_wrong_side():
    a = Subspace.spanned_by(3, [[1, 0, 0], [0, 2, Q(0, 2)]])
    b = Subspace.spanned_by(3, [[1, 0, 0], [0, 0, 1]])
    rep = Report()
    assert rep.check_space_le("LE", a.intersect(b), b)
    assert rep.check_space_eq("EQ", b, Subspace.spanned_by(3, [[1, 0, 1], [0, 0, 3]]))
    assert not rep.check_space_le("NOT_LE", a, b)
    assert not rep.check_space_eq("EQ_L", a, b)
    assert not rep.check_space_eq("EQ_R", a.intersect(b), b)
    assert rep["NOT_LE"].witness == {"vector_outside": ["0", "1", "0+1 i"]}
    assert rep["EQ_L"].witness == {"vector_in_left_only": ["0", "1", "0+1 i"]}
    assert rep["EQ_R"].witness == {"vector_in_right_only": ["0", "0", "1"]}


def _run_verdicts(keys, maps):
    "Run `Verdicts.check` on each key over the same maps; the keys whose check ran, and the report."
    rep = Report(ctx="t")
    once = Verdicts(rep)
    ran = []
    for key in keys:
        once.check(key, maps, lambda k: ran.append(k) or rep.check_eq(k, A, with_column(A, 1, [0, 5])))
    return ran, rep


def test_verdicts_share_one_equation_across_shifts_on_the_same_maps():
    ran, rep = _run_verdicts(["EQ_B7_n0_m1", "EQ_B7_n1_m0"], (A, identity(2)))
    assert ran == ["EQ_B7_n0_m1"]
    assert rep.ids() == ["EQ_B7_n0_m1", "EQ_B7_n1_m0"]
    first, second = rep.entries
    assert second.status == FAIL and (second.ctx, second.witness) == (first.ctx, first.witness)


def test_verdicts_never_share_between_equations_on_the_same_maps():
    ran, rep = _run_verdicts(["EQ_B7_n0_m1", "EQ_B8_n0_m1", "EQ_B8_n1_m0"], (A, identity(2)))
    assert ran == ["EQ_B7_n0_m1", "EQ_B8_n0_m1"]
    assert rep.ids() == ["EQ_B7_n0_m1", "EQ_B8_n0_m1", "EQ_B8_n1_m0"]


def test_verdicts_share_between_distinct_equal_maps_only():
    twin = with_column(A, 1, [0, -2])
    assert twin is not A and twin == A
    rep = Report(ctx="t")
    once = Verdicts(rep)
    ran = []
    for key, f in (("EQ_B7_n0", A), ("EQ_B7_n1", twin), ("EQ_B7_n2", with_column(A, 1, [0, 5]))):
        once.check(key, (f,), lambda k: ran.append(k) or rep.check_eq(k, f, A))
    assert ran == ["EQ_B7_n0", "EQ_B7_n2"]
    assert rep.ids() == ["EQ_B7_n0", "EQ_B7_n1", "EQ_B7_n2"]
    assert [e.status for e in rep.entries] == [PASS, PASS, FAIL]


def test_verdicts_reject_a_key_without_a_shift_suffix():
    with pytest.raises(ValueError, match="EQ_B7"):
        _run_verdicts(["EQ_B7"], (A,))
