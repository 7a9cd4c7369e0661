import random
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import matmul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.linalg import (
    AntilinMap,
    DimensionMismatch,
    LinMap,
    NoFactor,
    NotInvertible,
    Subspace,
    compose,
    factor_through,
    identity,
    permutation_map,
    quotient,
    solve_right,
    tensor,
    transpose,
    _CKron,
    _CLeg,
    _Kron,
    _Leg,
)
from braidcalc.scalars import Q

from oracles import basis, kron, mat_mul, mat_vec, q_rows, rref

PSI2 = permutation_map([1, 0], [2, 2])


def rand_map(rng, cod, dom, span=3):
    return LinMap.from_entries(
        cod, dom, [[Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(dom)] for _ in range(cod)]
    )


# -- composition ------------------------------------------------------


def test_compose_identity():
    assert identity(2) @ identity(2) == identity(2)


def test_transposition_is_involution():
    assert PSI2 @ PSI2 == identity(4)


def test_zero_absorbs():
    rng = random.Random(7)
    f = rand_map(rng, 3, 5)
    assert LinMap.zero(2, 3) @ f == LinMap.zero(2, 5)


def test_compose_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        identity(2) @ identity(3)


def test_compose_chain_matches_pairwise():
    rng = random.Random(11)
    a, b, c = rand_map(rng, 2, 3), rand_map(rng, 3, 4), rand_map(rng, 4, 2)
    assert compose(a, b, c) == (a @ b) @ c


# -- kron -------------------------------------------------------------


def test_kron_identities():
    assert tensor(identity(2), identity(3)) == identity(6)


def test_kron_counit_law_on_k2_constants(k2):
    # independent expansion: (eps (x) id) cop (d_g) must be d_g
    cop = [[k2.coproduct.entry(i, j) for j in range(2)] for i in range(4)]
    eps = [[k2.counit.entry(0, j) for j in range(2)]]
    expanded = mat_vec(kron(eps, [[Q(1), Q(0)], [Q(0), Q(1)]]), mat_vec(cop, basis(2, 1)))
    assert expanded == list(basis(2, 1))
    engine = tensor(k2.counit, identity(2)) @ k2.coproduct
    assert engine.col(1) == tuple(basis(2, 1))


def test_kron_mixed_product_on_seeded_pairs():
    rng = random.Random(2024)
    for _ in range(8):
        f, g = rand_map(rng, 2, 2), rand_map(rng, 2, 2)
        u, v = rand_map(rng, 2, 2), rand_map(rng, 2, 2)
        assert tensor(f, g) @ tensor(u, v) == tensor(f @ u, g @ v)


@given(st.integers(0, 2**16))
@settings(derandomize=True, max_examples=25)
def test_kron_mixed_product_property(seed):
    rng = random.Random(seed)
    f, g = rand_map(rng, 2, 3), rand_map(rng, 3, 2)
    u, v = rand_map(rng, 3, 2), rand_map(rng, 2, 3)
    assert tensor(f, g) @ tensor(u, v) == tensor(f @ u, g @ v)


def test_kron_matches_oracle():
    rng = random.Random(5)
    a, b = rand_map(rng, 2, 3), rand_map(rng, 3, 2)
    expected = kron([list(r) for r in q_rows(a)], [list(r) for r in q_rows(b)])
    assert q_rows(tensor(a, b)) == tuple(tuple(r) for r in expected)


# -- permutations -------------------------------------------------------


def test_permutation_singleton():
    assert permutation_map([0], [5]) == identity(5)


def test_permutation_transposition_action():
    # e_0 (x) e_1 -> e_1 (x) e_0
    vec = [Q(0)] * 4
    vec[0 * 2 + 1] = Q(1)
    out = PSI2.apply(vec)
    assert out[1 * 2 + 0] == Q(1) and sum(1 for x in out if x) == 1


def test_permutation_composite_three_slots():
    lhs = permutation_map([1, 2, 0], [2, 2, 2])
    rhs = tensor(PSI2, identity(2)) @ tensor(identity(2), PSI2)
    assert lhs == rhs


def test_permutation_malformed():
    with pytest.raises(ValueError):
        permutation_map([0, 0], [2, 2])


# -- factor_through ----------------------------------------------------


def test_factor_identity_gives_g():
    rng = random.Random(3)
    g = rand_map(rng, 3, 4)
    assert factor_through(identity(4), g) == g


def test_factor_surjective_self_gives_identity():
    f = LinMap.from_entries(2, 3, [[1, 0, 1], [0, 1, 1]])
    assert factor_through(f, f) == identity(2)


def test_factor_crossing_kernels_fails():
    f = LinMap.from_entries(1, 2, [[1, 0]])
    g = LinMap.from_entries(1, 2, [[0, 1]])
    with pytest.raises(NoFactor):
        factor_through(f, g)


@given(st.integers(0, 2**16))
@settings(derandomize=True, max_examples=25)
def test_factor_residual_zero_property(seed):
    rng = random.Random(seed)
    f = rand_map(rng, 2, 3)
    x = rand_map(rng, 3, 2)
    g = x @ f
    solved = factor_through(f, g)
    assert solved @ f == g


# -- kernel / image / inverse -------------------------------------------


def test_kernel_of_counit(k2):
    assert k2.counit.kernel() == Subspace.spanned_by(2, [basis(2, 1)])


def test_invert_transposition():
    assert PSI2.inverse() == PSI2


def test_invert_singular():
    with pytest.raises(NotInvertible):
        LinMap.from_entries(2, 2, [[1, 1], [1, 1]]).inverse()


def test_image_of_zero_map():
    assert LinMap.zero(3, 2).image() == Subspace.zero(3)


@given(st.integers(0, 2**16))
@settings(derandomize=True, max_examples=20)
def test_inverse_property(seed):
    rng = random.Random(seed)
    f = rand_map(rng, 3, 3)
    try:
        inv = f.inverse()
    except NotInvertible:
        assert f.rank() < 3
        return
    assert f @ inv == identity(3)
    assert inv @ f == identity(3)


# -- quotient ----------------------------------------------------------


def test_quotient_by_zero():
    proj, qdim = quotient(4, Subspace.zero(4))
    assert proj == identity(4) and qdim == 4


def test_quotient_by_full():
    proj, qdim = quotient(3, Subspace.full(3))
    assert qdim == 0 and proj == LinMap.zero(0, 3)


def test_quotient_by_delta_g():
    proj, qdim = quotient(2, Subspace.spanned_by(2, [basis(2, 1)]))
    assert qdim == 1
    assert proj.apply(basis(2, 0)) != (Q(0),)
    assert proj.apply(basis(2, 1)) == (Q(0),)


@given(st.integers(0, 2**16))
@settings(derandomize=True, max_examples=20)
def test_quotient_properties(seed):
    rng = random.Random(seed)
    vecs = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(rng.randint(0, 3))]
    s = Subspace.spanned_by(4, vecs)
    proj, qdim = quotient(4, s)
    assert qdim == 4 - s.dim
    assert proj.rank() == qdim
    if s.dim:
        assert (proj @ s.inclusion()).is_zero()
    assert proj.kernel() == s


# -- subspaces -----------------------------------------------------------


def test_subspace_intersection_and_sum():
    a = Subspace.spanned_by(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.spanned_by(3, [[0, 1, 0], [0, 0, 1]])
    assert a.intersect(b) == Subspace.spanned_by(3, [[0, 1, 0]])
    assert a.sum_with(b) == Subspace.full(3)


def test_subspace_equality_is_canonical():
    a = Subspace.spanned_by(2, [[1, 1], [1, -1]])
    b = Subspace.spanned_by(2, [[2, 0], [0, 3]])
    assert a == b


def test_subspace_contains():
    i, zero, one = Q(0, 1), Q(0), Q(1)
    s = Subspace.spanned_by(3, [[1, 2, 0]])
    assert s.contains([Q(2), Q(4), zero])
    assert not s.contains([one, zero, zero])
    # a complex vector against a real space
    assert s.contains([i, Q(0, 2), zero])
    assert not s.contains([one, Q(0, 2), zero])
    # a real vector against a complex space, which holds no real vector but 0
    c = Subspace.spanned_by(3, [[one, i, zero]])
    assert not c.contains([one, one, zero])
    assert not c.contains([one, zero, zero])
    assert c.contains([zero, zero, zero])
    assert c.contains([i, Q(-1), zero])
    # a purely imaginary leading entry: the echelon row is (i, 1) times -i
    t = Subspace.spanned_by(2, [[i, one]])
    assert t.basis == ((one, -i),)
    assert t.contains([one, -i]) and t.contains([Q(3), Q(0, -3)])
    assert not t.contains([one, i])
    # outside returns the first echelon basis vector that lies outside
    w = Subspace.spanned_by(3, [[one, i, zero], [zero, zero, one]])
    assert w.basis == ((one, i, zero), (zero, zero, one))
    assert c.outside(w) == w.basis[1]
    assert s.outside(w) == w.basis[0]
    assert w.outside(c) is None and w.outside(Subspace.zero(3)) is None


# -- oracle cross-check of composition -----------------------------------


def test_compose_matches_oracle():
    rng = random.Random(13)
    a, b = rand_map(rng, 3, 4), rand_map(rng, 4, 2)
    expected = mat_mul([list(r) for r in q_rows(a)], [list(r) for r in q_rows(b)], b.dom)
    assert q_rows(a @ b) == tuple(tuple(r) for r in expected)


# -- sparse kernel against a dense reference ------------------------------
#
# Maps are drawn as integer numerator rows (real, optionally imaginary) over
# a nonzero denominator, mostly zero; the reference is the same matrix as
# dense rows of Q entries, operated on with plain index loops.

_NUMERATORS = (0, 0, 0, 0, 1, -1, 2, -3)
_PROPS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def gaussian_maps(draw, cod=None, dom=None):
    """(LinMap built from dense numerator rows, the same map as dense Q rows).

    The shape, then whether the map is complex, then the numerators in one
    draw: a byte string of fixed size, each byte picking from _NUMERATORS,
    for the real rows followed by the imaginary rows if any."""
    cod = draw(st.integers(0, 4)) if cod is None else cod
    dom = draw(st.integers(0, 4)) if dom is None else dom
    parts = 1 + draw(st.booleans())
    size = parts * cod * dom
    flat = [_NUMERATORS[x % len(_NUMERATORS)] for x in draw(st.binary(min_size=size, max_size=size))]
    rows = [flat[i * dom : (i + 1) * dom] for i in range(parts * cod)]
    re, im = rows[:cod], rows[cod:] if parts == 2 else None
    den = draw(st.integers(-6, 6).filter(bool))
    ref = [
        [Q(Fraction(re[i][j], den), Fraction(im[i][j] if im else 0, den)) for j in range(dom)]
        for i in range(cod)
    ]
    return LinMap(cod, dom, re, im, den), ref


@st.composite
def composable_pairs(draw):
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(gaussian_maps(m, k)), draw(gaussian_maps(k, n))


@st.composite
def same_shape_pairs(draw):
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return draw(gaussian_maps(m, n)), draw(gaussian_maps(m, n))


def as_rows(ref):
    return tuple(tuple(r) for r in ref)


def dense_kron(a, b, n1, n2):
    return [[x[j1] * y[j2] for j1 in range(n1) for j2 in range(n2)] for x in a for y in b]


@given(gaussian_maps())
@_PROPS
def test_sparse_entry_access_matches_dense(pair):
    f, ref = pair
    assert q_rows(f) == as_rows(ref)
    assert all(f.entry(i, j) == ref[i][j] for i in range(f.cod) for j in range(f.dom))
    assert all(f.col(j) == tuple(ref[i][j] for i in range(f.cod)) for j in range(f.dom))
    vec = [Q(j - 1, j % 2) for j in range(f.dom)]
    assert f.apply(vec) == tuple(mat_mul(ref, [[x] for x in vec], 1)[i][0] for i in range(f.cod))
    assert f.nnz() == sum(1 for row in ref for x in row if x)
    assert f.is_zero() == (f.nnz() == 0)
    assert f.is_real() == all(not x.im for row in ref for x in row)


@given(composable_pairs())
@_PROPS
def test_sparse_product_matches_dense(pairs):
    (f, fr), (g, gr) = pairs
    assert q_rows(f @ g) == as_rows(mat_mul(fr, gr, g.dom))


@given(gaussian_maps(), gaussian_maps())
@_PROPS
def test_sparse_tensor_matches_dense(a, b):
    (f, fr), (g, gr) = a, b
    fg = tensor(f, g)
    assert (fg.cod, fg.dom) == (f.cod * g.cod, f.dom * g.dom)
    assert q_rows(fg) == as_rows(dense_kron(fr, gr, f.dom, g.dom))


@given(same_shape_pairs(), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
@_PROPS
def test_sparse_linear_structure_matches_dense(pairs, a, b, d):
    (f, fr), (g, gr) = pairs
    c = Q(Fraction(a, d), Fraction(b, d))
    assert q_rows(f + g) == as_rows([[x + y for x, y in zip(r, s)] for r, s in zip(fr, gr)])
    assert q_rows(f - g) == as_rows([[x - y for x, y in zip(r, s)] for r, s in zip(fr, gr)])
    assert q_rows(-f) == as_rows([[-x for x in r] for r in fr])
    assert q_rows(f.scale(c)) == as_rows([[c * x for x in r] for r in fr])
    assert q_rows(f.conj()) == as_rows([[x.conj() for x in r] for r in fr])
    assert q_rows(transpose(f)) == as_rows([[fr[i][j] for i in range(f.cod)] for j in range(f.dom)])
    nonzero_cols = [j for j in range(f.dom) if any(fr[i][j] for i in range(f.cod))]
    assert f.first_nonzero_col() == (nonzero_cols[0] if nonzero_cols else None)


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=3).flatmap(
        lambda dims: st.tuples(st.just(dims), st.permutations(range(len(dims))))
    )
)
@_PROPS
def test_sparse_permutation_map_matches_definition(dims_perm):
    dims, perm = dims_perm
    total = 1
    for d in dims:
        total *= d
    out_dims = [0] * len(dims)
    for i, p in enumerate(perm):
        out_dims[p] = dims[i]
    ref = [[Q(0)] * total for _ in range(total)]
    for col in range(total):
        idx, rem = [], col
        for d in reversed(dims):
            idx.append(rem % d)
            rem //= d
        idx.reverse()
        out = [0] * len(dims)
        for i, p in enumerate(perm):
            out[p] = idx[i]
        row = 0
        for slot, d in enumerate(out_dims):
            row = row * d + out[slot]
        ref[row][col] = Q(1)
    assert q_rows(permutation_map(perm, dims)) == as_rows(ref)


@given(composable_pairs())
@_PROPS
def test_sparse_equal_maps_hash_equal(pairs):
    (f, fr), (g, _) = pairs
    routes = [
        LinMap.from_entries(f.cod, f.dom, fr),
        f @ identity(f.dom),
        identity(f.cod) @ f,
        f + LinMap.zero(f.cod, f.dom),
        transpose(transpose(f)),
    ]
    for other in routes:
        assert other == f and hash(other) == hash(f)
    fg = f @ g
    direct = LinMap.from_entries(fg.cod, fg.dom, q_rows(fg))
    assert direct == fg and hash(direct) == hash(fg)


@given(gaussian_maps(), st.integers(1, 4))
@_PROPS
def test_tensor_with_identity_stores_only_nonzero_products(pair, n):
    f, _ = pair
    assert tensor(identity(n), f).nnz() == n * f.nnz()
    assert tensor(f, identity(n)).nnz() == n * f.nnz()


def test_dict_rows_build_the_same_map():
    dense = LinMap(2, 3, [[0, 2, 0], [4, 0, -6]], [[0, 0, 2], [0, 0, 0]], 4)
    sparse = LinMap(2, 3, [{1: 2}, {0: 4, 2: -6, 1: 0}], [{2: 2}, {}], 4)
    assert dense == sparse and hash(dense) == hash(sparse)
    assert dense.entry(1, 2) == Q(Fraction(-3, 2))
    for i, j in [(-1, 0), (2, 0), (0, -1), (0, 3)]:
        with pytest.raises(IndexError, match="outside range"):
            dense.entry(i, j)
    assert LinMap(1, 2, [{}], [{0: 0}]).is_real()


def test_mat_mul_oracle_with_empty_inner_dimension():
    assert mat_mul([[]], [], 1) == [[Q(0)]]


# -- elimination against the dense reference --------------------------------
#
# The reference is the former dense Gauss-Jordan over Q(i) (oracles.rref) and
# the operations as they were built on it; reduced row echelon forms are
# unique, so every result must agree exactly.


@st.composite
def low_rank_maps(draw, cod=None, dom=None):
    "Products through a middle dimension of at most 2, mostly rank-deficient."
    m = draw(st.integers(0, 4)) if cod is None else cod
    n = draw(st.integers(0, 4)) if dom is None else dom
    t = draw(st.integers(0, 2))
    (f, fr), (g, gr) = draw(gaussian_maps(m, t)), draw(gaussian_maps(t, n))
    return f @ g, mat_mul(fr, gr, n)


def any_maps(cod=None, dom=None):
    return gaussian_maps(cod, dom) | low_rank_maps(cod, dom)


@st.composite
def square_maps(draw):
    n = draw(st.integers(0, 4))
    return draw(any_maps(n, n))


@st.composite
def solve_cases(draw):
    "(A, B) with A X = B solvable about half the time."
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    a = draw(any_maps(m, k))
    if draw(st.booleans()):
        return a, draw(gaussian_maps(m, n))
    x, xr = draw(gaussian_maps(k, n))
    return a, (a[0] @ x, mat_mul(a[1], xr, n))


@st.composite
def subspace_pairs(draw):
    "Two lists of vectors in one ambient space, as the rows of two maps."
    n = draw(st.integers(0, 4))
    return n, draw(any_maps(dom=n))[1], draw(any_maps(dom=n))[1]


def ref_span(vectors):
    rows, _ = rref([list(v) for v in vectors])
    return tuple(tuple(r) for r in rows if any(r))


def ref_nullspace(rows, n):
    rows, pivots = rref([list(r) for r in rows])
    out = []
    for f in (j for j in range(n) if j not in pivots):
        vec = [Q(0)] * n
        vec[f] = Q(1)
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        out.append(vec)
    return out


def ref_solve(a, b, k, n):
    rows, pivots = rref([list(x) + list(y) for x, y in zip(a, b)])
    if any(p >= k for p in pivots):
        return None
    x = [[Q(0)] * n for _ in range(k)]
    for r, p in enumerate(pivots):
        x[p] = rows[r][k:]
    return as_rows(x)


def ref_intersect(u, w, n):
    if not u or not w:
        return ()
    cols = [[v[r] for v in u] + [-v[r] for v in w] for r in range(n)]
    vecs = []
    for c in ref_nullspace(cols, len(u) + len(w)):
        vec = [Q(0)] * n
        for i, v in enumerate(u):
            vec = [x + c[i] * y for x, y in zip(vec, v)]
        vecs.append(vec)
    return ref_span(vecs)


def ref_quotient(basis_rows, n):
    _, pivots = rref([list(r) for r in basis_rows])
    free = [j for j in range(n) if j not in pivots]
    proj = [[Q(0)] * n for _ in free]
    for out, j in enumerate(free):
        proj[out][j] = Q(1)
        for r, p in enumerate(pivots):
            proj[out][p] = -basis_rows[r][j]
    return as_rows(proj)


@given(any_maps())
@_PROPS
def test_rank_kernel_and_image_match_dense_reference(pair):
    f, ref = pair
    _, pivots = rref([list(r) for r in ref])
    assert f.rank() == len(pivots)
    assert f.is_surjective() == (len(pivots) == f.cod)
    ker = f.kernel()
    assert ker.basis == ref_span(ref_nullspace(ref, f.dom))
    assert f.rank() + ker.dim == f.dom
    assert (f @ ker.inclusion()).is_zero()
    assert f.image().basis == ref_span([[ref[i][j] for i in range(f.cod)] for j in range(f.dom)])


@given(square_maps())
@_PROPS
def test_inverse_matches_dense_reference(pair):
    f, ref = pair
    n = f.dom
    rows, pivots = rref([list(r) + [Q(int(i == j)) for j in range(n)] for i, r in enumerate(ref)])
    if pivots != list(range(n)):
        assert not f.is_invertible()
        with pytest.raises(NotInvertible):
            f.inverse()
        return
    assert f.is_invertible()
    assert q_rows(f.inverse()) == as_rows([r[n:] for r in rows])


@given(solve_cases())
@_PROPS
def test_solve_right_matches_dense_reference(case):
    (a, ar), (b, br) = case
    x = solve_right(a, b)
    expected = ref_solve(ar, br, a.dom, b.dom)
    assert (x if x is None else q_rows(x)) == expected
    if x is not None:
        assert a @ x == b


@given(subspace_pairs())
@_PROPS
def test_subspace_operations_match_dense_reference(case):
    n, us, ws = case
    u, w = Subspace.spanned_by(n, us), Subspace.spanned_by(n, ws)
    assert u.basis == ref_span(us) and w.basis == ref_span(ws)
    assert u.sum_with(w).basis == ref_span(us + ws)
    assert u.intersect(w).basis == ref_intersect(u.basis, w.basis, n)
    proj, qdim = quotient(n, u)
    assert (qdim, q_rows(proj)) == (n - u.dim, ref_quotient(u.basis, n))


@st.composite
def subspace_map_cases(draw):
    "Two lists of vectors in one ambient space, a map out of it and a vector in it."
    n, us, ws = draw(subspace_pairs())
    f, fr = draw(any_maps(dom=n))
    v = draw(gaussian_maps(1, n))[1][0]
    return n, us, ws, (f, fr), v


def ref_dim(vectors):
    return len(ref_span(vectors))


@given(subspace_pairs(), st.integers(1, 3), st.integers(-2, 2))
@_PROPS
def test_subspace_rows_are_unique_to_the_space(case, k, b):
    n, us, ws = case
    u = Subspace.spanned_by(n, us)
    for c, (re, im) in u._piv.items():
        assert re[c] > 0 and c not in im
        assert gcd(*re.values(), *im.values()) == 1
        assert min(re.keys() | im.keys()) == c
        assert all(d == c or (d not in re and d not in im) for d in u._piv)
    assert list(u._piv) == sorted(u._piv)
    # another generating set: reversed, rescaled, and a multiple of the first
    # vector added to the rest
    scale = Q(Fraction(k, 2), b)
    others = [[x * scale for x in v] for v in reversed(us)]
    if others:
        others[1:] = [[x + y * b for x, y in zip(v, others[0])] for v in others[1:]]
    spans = [Subspace.spanned_by(n, others), Subspace.spanned_by(n, u.basis), u.sum_with(u), u.intersect(u)]
    for same in spans + [u.map_by(identity(n))]:
        assert same == u and hash(same) == hash(u)


@given(subspace_map_cases())
@_PROPS
def test_subspace_membership_and_images_match_dense_reference(case):
    n, us, ws, (f, fr), v = case
    u, w = Subspace.spanned_by(n, us), Subspace.spanned_by(n, ws)
    assert u.contains(v) == (ref_dim(us + [v]) == ref_dim(us))
    assert all(u.contains(x) for x in us)
    assert u.contains_space(w) == (ref_dim(us + ws) == ref_dim(us))
    assert u.outside(w) == next((x for x in w.basis if ref_dim(us + [x]) > ref_dim(us)), None)
    assert u.map_by(f).basis == ref_span([mat_vec(fr, x) for x in u.basis])
    assert q_rows(u.inclusion()) == as_rows([[x[i] for x in u.basis] for i in range(n)])


@given(solve_cases())
@_PROPS
def test_real_elimination_matches_the_realified_path(case):
    "A real map's rows are eliminated as they are; times i they are realified first, to the same results."
    (a, _), (b, _) = case
    f, g = a + a.conj(), b + b.conj()
    i = Q(0, 1)
    fi = f.scale(i)
    assert fi.is_zero() or not fi.is_real()
    assert f.rank() == fi.rank()
    assert f.kernel() == fi.kernel()
    assert f.image() == fi.image()
    assert solve_right(f, g) == solve_right(fi, g.scale(i))


# -- canonical form ---------------------------------------------------------
#
# Every map is stored canonically: no stored zero, a positive denominator,
# gcd(denominator, numerators) = 1, and imaginary rows only when some entry
# is not real.  So two maps are equal exactly when their difference is zero.


def _cancelling_product(f):
    "The zero map of f's shape, as one product whose every row sums f's row and its negative."
    ones, signs = LinMap(1, 2, [[1, 1]]), LinMap(2, 1, [[1], [-1]])
    return tensor(ones, identity(f.cod)) @ tensor(signs, f)


def assert_canonical(f):
    rows = f._re + (f._im or ())
    nums = [x for r in rows for x in r.values()]
    assert all(nums), "stored zero"
    assert f._den > 0
    assert gcd(f._den, *nums) == 1
    assert (f._im is None) == all(not f.entry(i, j).im for i in range(f.cod) for j in range(f.dom))


@given(composable_pairs(), same_shape_pairs(), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
@_PROPS
def test_algebra_results_are_canonical(pairs, shaped, a, b, d):
    (f, _), (g, _) = pairs
    (u, _), (v, _) = shaped
    c = Q(Fraction(a, d), Fraction(b, d))
    results = [f @ g, tensor(f, g), u + v, u - v, u + (-u), -u, u.scale(c), u.scale(0), u.conj(), transpose(u)]
    results.append(_cancelling_product(u))
    for h in [f, g, u, v] + results:
        assert_canonical(h)


@given(square_maps(), solve_cases())
@_PROPS
def test_solve_results_are_canonical(square, case):
    f, _ = square
    if f.is_invertible():
        assert_canonical(f.inverse())
    assert_canonical(f.kernel().inclusion())
    assert_canonical(quotient(f.cod, f.image())[0])
    (a, _), (b, _) = case
    x = solve_right(a, b)
    if x is not None:
        assert_canonical(x)


@given(same_shape_pairs(), composable_pairs(), st.integers(-3, 3))
@_PROPS
def test_equality_is_a_zero_difference(shaped, pairs, k):
    (u, _), (v, _) = shaped
    (f, _), (g, _) = pairs
    fg = f @ g
    cases = [
        (u, v),
        (u, u),
        (u - v + v, u),
        (u + v, v + u),
        (u + u, u.scale(2)),
        (u.scale(k) + v.scale(k), (u + v).scale(k)),
        (transpose(transpose(u)), u),
        (fg.conj(), f.conj() @ g.conj()),
        (fg, LinMap.from_entries(fg.cod, fg.dom, q_rows(fg))),
        (tensor(identity(1), f), f),
        (_cancelling_product(u), LinMap.zero(u.cod, u.dom)),
    ]
    for x, y in cases:
        assert (x == y) == (x - y).is_zero()


# -- padded Kronecker legs against the eager product --------------------------
#
# tensor() returns I_a (x) f (x) I_b unbuilt when every factor but one map f is
# an identity.  Products with it, and every read of its rows, must give exactly
# the maps the Kronecker chain LinMap.tensor builds from plain identities.


def plain_identity(n):
    "The identity built from dense rows, as a map like any other."
    return LinMap(n, n, [[int(i == j) for j in range(n)] for i in range(n)])


def eager_tensor(*maps):
    out = maps[0]
    for f in maps[1:]:
        out = out.tensor(f)
    return out


REAL_KINDS = ("general", "monomial", "permutation")
COMPLEX_KINDS = ("phased", "gaussian")
LEG_KINDS = REAL_KINDS + COMPLEX_KINDS


@st.composite
def real_maps(draw, kind):
    """A real map of the kind: a permutation, or with negative and zero entries
    over a denominator, general or monomial (one entry per row, columns may repeat)."""
    if kind == "permutation":
        perm = draw(st.permutations(range(draw(st.integers(1, 3)))))
        return LinMap(len(perm), len(perm), [{j: 1} for j in perm])
    den = draw(st.sampled_from([1, 1, 2, -3, 6]))
    entry = st.sampled_from([1, 1, -1, 2, -3])
    p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if kind == "monomial" and q:
        return LinMap(p, q, [{draw(st.integers(0, q - 1)): draw(entry)} for _ in range(p)], den=den)
    rows = st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=q, max_size=q), min_size=p, max_size=p)
    return LinMap(p, q, draw(rows), den=den)


@st.composite
def complex_maps(draw, kind):
    """A complex map of the kind, expanded from one drawn seed, over a denominator:
    "phased" has one entry per row, a phase (1, i, -1 or -i) times a small
    integer, columns may repeat; "gaussian" has Gaussian-integer entries,
    mostly zero.  Its first row always holds an imaginary entry."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p, q = rng.randint(1, 3), rng.randint(1, 3)
    re, im = [{} for _ in range(p)], [{} for _ in range(p)]
    for i in range(p):
        if kind == "phased":  # the phase i^k, k = 1 or 3 in the first row
            k = rng.randrange(4) if i else rng.choice([1, 3])
            (im if k % 2 else re)[i][rng.randrange(q)] = rng.choice([1, 1, 2, 3]) * (1 if k < 2 else -1)
        else:
            for j in range(q):
                re[i][j], im[i][j] = rng.choice([0, 0, 1, -1, 2]), rng.choice([0, 0, 1, -2])
    if not any(im[0].values()):
        im[0][rng.randrange(q)] = 1
    return LinMap(p, q, re, im, rng.choice([1, 2, -3, 6]))


def leg_factors(kind):
    return complex_maps(kind) if kind in COMPLEX_KINDS else real_maps(kind)


_LEG_PROPS = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def legs_with_neighbours(draw, kind):
    "(a, f, b, A, B) with f of the kind and A @ (I_a (x) f (x) I_b) @ B defined; A and B may be complex."
    f = draw(leg_factors(kind))
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    (A, _), (B, _) = draw(gaussian_maps(m, a * f.cod * b)), draw(gaussian_maps(a * f.dom * b, n))
    return a, f, b, A, B


@pytest.mark.parametrize("kind", LEG_KINDS)
@given(data=st.data())
@_LEG_PROPS
def test_padded_leg_products_match_the_eager_product(kind, data):
    a, f, b, A, B = data.draw(legs_with_neighbours(kind))
    eager = eager_tensor(plain_identity(a), f, plain_identity(b))

    def leg():  # a new, unbuilt leg for each use
        return tensor(identity(a), f, identity(b))

    left, right = leg(), leg()
    if a * b > 1 and f.cod * f.dom:
        assert type(left) is (_Leg if f.is_real() else _CLeg)
    for got, want in [
        (left @ B, eager @ B),
        (A @ right, A @ eager),
        (compose(A, leg(), B), compose(A, eager, B)),
        (leg() @ identity(eager.dom), eager),
        (identity(eager.cod) @ leg(), eager),
        (tensor(identity(a), tensor(f, identity(b))), eager),
        (tensor(tensor(identity(a), f), identity(b)), eager),
    ]:
        assert got == want
        assert_canonical(got)
    if isinstance(left, _Leg) and kind != "gaussian":  # a complex leg is applied unbuilt only when monomial
        assert left._built is None, "leg @ B built the leg"
        assert right._built is None, "A @ leg built the leg"


@pytest.mark.parametrize("kind", LEG_KINDS)
@given(data=st.data())
@_LEG_PROPS
def test_padded_leg_reads_as_its_eager_twin(kind, data):
    a, f, b, A, _ = data.draw(legs_with_neighbours(kind))
    eager = eager_tensor(plain_identity(a), f, plain_identity(b))
    assert tensor(identity(a), f, identity(b)) == eager
    assert eager == tensor(identity(a), f, identity(b))
    assert hash(tensor(identity(a), f, identity(b))) == hash(eager)
    assert tensor(identity(a), f, identity(b)).nnz() == eager.nnz()
    assert tensor(identity(a), f, identity(b)).rank() == eager.rank()
    assert tensor(identity(a), f, identity(b)).image() == eager.image()
    assert_canonical(tensor(identity(a), f, identity(b)))
    assert tensor(A, tensor(identity(a), f, identity(b))) == eager_tensor(A, eager)
    assert identity(a) == plain_identity(a) and hash(identity(a)) == hash(plain_identity(a))
    assert tensor(identity(a), identity(b)) == plain_identity(a * b)


# -- monomial inverses against elimination ------------------------------------


@st.composite
def monomial_maps(draw):
    """A real square map with one entry in each row (signed, over a denominator,
    values may repeat); its columns are a permutation, or repeat one column."""
    n = draw(st.integers(0, 5))
    cols = draw(st.permutations(range(n)))
    if n > 1 and draw(st.booleans()):
        cols[0] = cols[1]
    entries = st.sampled_from([1, 1, -1, 2, -2, 3, 6])
    return LinMap(n, n, [{j: draw(entries)} for j in cols], den=draw(st.sampled_from([1, 2, -3, 4, 6])))


@given(monomial_maps())
@_PROPS
def test_monomial_inverse_matches_elimination(f):
    expected = solve_right(f, identity(f.dom))
    if expected is None:
        with pytest.raises(NotInvertible):
            f.inverse()
        return
    got = f.inverse()
    assert got == expected and hash(got) == hash(expected)
    assert_canonical(got)
    assert f @ got == identity(f.dom) == got @ f


# -- lazy Kronecker products against the eager product ------------------------
#
# tensor() returns A (x) B unbuilt for two factors that make no leg.
# X @ K reads only the rows of A and B that X uses; every other read builds K
# once, through LinMap.tensor.  Results must be exactly the eager product's.


@st.composite
def lazy_factors(draw, complex_):
    """(A, B), general, monomial or permutations, real ones possibly
    zero-dimensional; with complex_ one of them is complex."""
    A, B = (draw(real_maps(draw(st.sampled_from(REAL_KINDS)))) for _ in range(2))
    if complex_:
        f = draw(complex_maps(draw(st.sampled_from(COMPLEX_KINDS))))
        A, B = (f, B) if draw(st.booleans()) else (A, f)
    return A, B


@st.composite
def real_gaussian_maps(draw, cod, dom):
    "A real map of the shape: twice the real part of a Gaussian one."
    f, _ = draw(gaussian_maps(cod, dom))
    return f + f.conj()


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@given(m=st.integers(0, 3), data=st.data())
@_LEG_PROPS
def test_lazy_product_times_a_left_factor_matches_the_eager_product(complex_, m, data):
    A, B = data.draw(lazy_factors(complex_))
    eager = A.tensor(B)
    X, _ = data.draw(gaussian_maps(m, eager.cod))
    for left in (X + X.conj(), X.scale(Q(1, 1))):  # real, and complex unless X is zero
        K = tensor(A, B)
        assert type(K) is (_CKron if complex_ else _Kron)
        got = left @ K
        assert K._built is None, "X @ K built K"
        assert got == left @ eager
        assert_canonical(got)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@given(n=st.integers(0, 3), data=st.data())
@_LEG_PROPS
def test_lazy_product_reads_as_its_eager_twin(complex_, n, data):
    A, B = data.draw(lazy_factors(complex_))
    eager = A.tensor(B)

    def lazy():  # a new, unbuilt product for each read
        return tensor(A, B)

    assert lazy() == eager and eager == lazy()
    assert hash(lazy()) == hash(eager)
    assert lazy().nnz() == eager.nnz()
    assert lazy().rank() == eager.rank()
    assert lazy().image() == eager.image()
    assert transpose(lazy()) == transpose(eager)
    Y, _ = data.draw(gaussian_maps(eager.dom, n))
    assert lazy() @ Y == eager @ Y
    assert_canonical(lazy())
    C, _ = data.draw(gaussian_maps())
    assert tensor(lazy(), C) == eager.tensor(C)
    assert tensor(C, lazy()) == C.tensor(eager)
    assert tensor(identity(n), lazy()) == plain_identity(n).tensor(eager)
    if eager.cod:
        leg, twin = data.draw(legs(eager.cod, rows=False))
        assert leg @ lazy() == twin @ eager

    def three():  # the lazy product of the lazy A (x) B with C
        return tensor(A, B, C)

    eager3 = eager.tensor(C)
    assert three() == eager3 and eager3 == three()
    assert three().rank() == eager3.rank()
    assert three().image() == eager3.image()
    assert transpose(three()) == transpose(eager3)
    (X, _), (Z, _) = data.draw(gaussian_maps(n, eager3.cod)), data.draw(gaussian_maps(eager3.dom, n))
    assert X @ three() == X @ eager3
    assert three() @ Z == eager3 @ Z


def test_tensor_of_antilinear_maps_stays_antilinear():
    f, g = LinMap(1, 2, [[1, 2]], den=3), LinMap.from_entries(2, 1, [[Q(0, 1)], [Q(2)]])
    assert tensor(AntilinMap(f), AntilinMap(g)) == AntilinMap(f.tensor(g))
    three = tensor(AntilinMap(f), AntilinMap(g), AntilinMap(f))
    assert type(three) is AntilinMap and three == AntilinMap(f.tensor(g).tensor(f))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_tensor_builds_nothing_until_a_row_is_read(monkeypatch, complex_):
    "tensor() of two, three and four factors that make no leg calls LinMap.tensor only when its rows are read."
    raw, calls = LinMap.tensor, []
    monkeypatch.setattr(LinMap, "tensor", lambda f, g: calls.append(1) or raw(f, g))
    f, g = LinMap(2, 3, [[1, 0, -2], [0, 3, 0]]), LinMap(2, 2, [[1, 1], [0, 2]], den=2)
    if complex_:
        f = LinMap(2, 3, [[1, 0, -2], [0, 3, 0]], [[0, 1, 0], [0, 0, 0]])
    for maps in [(f, g), (g, f, g), (f, g, g, f)]:
        lazy = tensor(*maps)
        assert type(lazy) is (_CKron if complex_ else _Kron)
        assert not calls, f"tensor() of {len(maps)} factors built"
        assert lazy == reduce(raw, maps)  # reading its rows builds it
        assert calls
        calls.clear()


def test_lazy_product_has_the_normalised_denominator():
    k = tensor(LinMap(1, 1, [[1]], den=2), LinMap(1, 1, [[2]], den=3))
    assert type(k) is _Kron
    assert k == LinMap(1, 1, [[1]], den=3) and k._den == 3


def test_leg_and_lazy_rows_are_read_by_index_only():
    "leg[t] and lazy[t] make row t unbuilt; iterating them raises instead of running past cod."
    f, g = LinMap(2, 3, [[1, 0, -2], [0, 3, 0]]), LinMap(2, 2, [[1, 1], [0, 2]])
    for lazy, eager in [
        (tensor(identity(2), f, identity(3)), eager_tensor(plain_identity(2), f, plain_identity(3))),
        (tensor(f, g), eager_tensor(f, g)),
    ]:
        assert [lazy[t] for t in range(lazy.cod)] == list(eager._re)
        assert lazy._built is None
        with pytest.raises(TypeError):
            list(lazy)


def test_complex_leg_and_lazy_rows_are_not_read_by_index():
    "A complex leg or lazy product raises on leg[t]: the real row would drop the imaginary parts."
    f = LinMap.from_entries(1, 2, [[1, Q(0, 1)]])
    leg, lazy = tensor(identity(2), f, identity(1)), tensor(f, LinMap.from_entries(1, 1, [[Q(0, 1)]]))
    assert (type(leg), type(lazy)) == (_CLeg, _CKron)
    for m in (leg, lazy):
        with pytest.raises(TypeError):
            m[0]
        assert m._built is None


def divisors(n):
    return [x for x in range(1, n + 1) if n % x == 0]


@st.composite
def legs(draw, d, rows=True):
    "(tensor(I_a, f, I_b), its eager twin) for a real f, with d > 0 rows, or columns."
    a = draw(st.sampled_from(divisors(d)))
    b = draw(st.sampled_from(divisors(d // a)))
    free = draw(st.integers(0, max(1, 6 // (a * b))))
    f = draw(real_gaussian_maps(*((d // (a * b), free) if rows else (free, d // (a * b)))))
    return tensor(identity(a), f, identity(b)), eager_tensor(plain_identity(a), f, plain_identity(b))


@st.composite
def chains(draw):
    """(maps, eager twins): 2-5 composable maps, each plain (real or complex),
    a leg or a lazy product, with zero-dimensional spaces allowed."""
    d = draw(st.integers(0, 4))
    maps, twins = [], []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["plain", "leg", "lazy"]))
        if kind == "leg" and d:
            leg, twin = draw(legs(d))
        elif kind == "lazy":
            p = draw(st.sampled_from(divisors(d))) if d else 0
            q = d // p if d else draw(st.integers(0, 2))
            A = draw(real_gaussian_maps(p, draw(st.integers(0, 2))))
            B = draw(real_gaussian_maps(q, draw(st.integers(0, 2))))
            leg, twin = tensor(A, B), A.tensor(B)
        else:
            leg, _ = draw(gaussian_maps(d, draw(st.integers(0, 4))))
            twin = leg
        maps.append(leg)
        twins.append(twin)
        d = leg.dom
    return maps, twins


@given(chains())
@_LEG_PROPS
def test_compose_of_mixed_chains_matches_the_left_to_right_fold(chain):
    maps, twins = chain
    got = compose(*maps)
    assert got == reduce(matmul, twins)
    assert got == reduce(matmul, maps)
    assert_canonical(got)


@st.composite
def unbuilt_factors(draw):
    """A maker of new, unbuilt copies of a real leg (with paddings of width 0 to 3)
    or a real lazy product, and its eager twin."""
    if draw(st.booleans()):
        f = draw(real_maps(draw(st.sampled_from(REAL_KINDS))))
        c, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        return lambda: tensor(identity(c), f, identity(d)), eager_tensor(plain_identity(c), f, plain_identity(d))
    A, B = draw(lazy_factors(False))
    return lambda: tensor(A, B), A.tensor(B)


@given(unbuilt_factors(), st.data())
@_LEG_PROPS
def test_leg_times_an_unbuilt_factor_leaves_it_unbuilt(factor, data):
    "leg @ Y for an unbuilt leg or lazy product Y makes Y's rows as it reads them, and keeps none."
    make, twin = factor
    n = twin.cod
    lefts = [(identity(n), plain_identity(n))]
    if n:
        lefts.append(data.draw(legs(n, rows=False)))
    else:  # a padding of width 0 makes a zero map of any height
        f = data.draw(real_maps("general"))
        lefts.append((tensor(identity(0), f, identity(2)), eager_tensor(plain_identity(0), f, plain_identity(2))))
    for left, eager_left in lefts:
        Y = make()
        got = left @ Y
        if isinstance(Y, (_Leg, _Kron)):
            assert Y._built is None, "leg @ Y built Y"
        assert got == eager_left @ twin
        assert_canonical(got)
