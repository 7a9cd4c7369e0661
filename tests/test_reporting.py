from fractions import Fraction

from braidcalc.linalg import AntilinMap, LinMap, Subspace
from braidcalc.reporting import FAIL, PASS, Report
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
