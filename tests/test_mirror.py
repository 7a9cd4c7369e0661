"""The mirror record as a metamorphic oracle.

Reflecting string diagrams left to right sends a record (m, Delta, eps,
kappa, sigma) to (m P, P Delta, eps, kappa, P sigma P), P the tensor flip.
Left-handed structure of the mirror is then right-handed structure of the
original: left ideals become right ideals, and a right-covariant calculus
becomes a left-covariant one.

Every shipped fixture has a commutative simplified product, where left and
right ideals coincide; Sweedler's four-dimensional Hopf algebra with the
flip braiding is noncommutative, so it tells the two sides apart.
"""

import pytest

from braidcalc.algebras import FiniteDimAlgebra
from braidcalc.covariance import (
    close_left_ideal,
    close_right_ideal,
    reconstruct_from_ideal,
    reconstruct_right_from_ideal,
    solve_left_action,
    solve_right_action,
)
from braidcalc.fixtures import fix_anyon, fix_gr, fix_k2, fix_k4, fix_one, u_basis_flip_k2
from braidcalc.groups import MultiBraidedGroup, check_group
from braidcalc.linalg import LinMap, Subspace, compose, identity, permutation_map, tensor
from braidcalc.reporting import Report

from oracles import mirror


def sweedler() -> MultiBraidedGroup:
    "Basis (1, g, x, gx): g^2 = 1, x^2 = 0, xg = -gx, Delta x = x (x) 1 + g (x) x, flip braiding."
    products = {(1, 1): (0, 1), (1, 2): (3, 1), (1, 3): (2, 1), (2, 1): (3, -1), (3, 1): (2, -1)}
    mult = [[0] * 16 for _ in range(4)]
    for i in range(4):
        mult[i][i] = mult[i][4 * i] = 1
    for (a, b), (c, sign) in products.items():
        mult[c][4 * a + b] = sign
    cop = [[0] * 4 for _ in range(16)]
    for row, col in ((0, 0), (5, 1), (8, 2), (6, 2), (13, 3), (3, 3)):
        cop[row][col] = 1
    alg = FiniteDimAlgebra(4, LinMap(4, 1, [[1], [0], [0], [0]]), LinMap(4, 16, mult), ("1", "g", "x", "gx"))
    antipode = LinMap(4, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    return MultiBraidedGroup(
        alg, LinMap(16, 4, cop), LinMap(1, 4, [[1, 1, 0, 0]]), antipode, permutation_map([1, 0], [4, 4])
    )


FIXTURES = {"k2": fix_k2, "gr": fix_gr, "k4": fix_k4, "anyon": fix_anyon, "sweedler": sweedler}


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def pair(request):
    g = FIXTURES[request.param]()
    return g, mirror(g)


def test_mirror_record_is_a_braided_group(pair):
    g, h = pair
    rep = check_group(h, Report())
    assert rep.ok_all, [e.id for e in rep.failures()]
    flip = permutation_map([1, 0], [g.dim, g.dim])
    assert h.tau == flip @ g.tau @ flip


def test_mirror_swaps_left_and_right_ideal_closures(pair):
    g, h = pair
    for v in g.counit.kernel().basis:
        assert close_left_ideal(g, [v]) == close_right_ideal(h, [v])
        assert close_right_ideal(g, [v]) == close_left_ideal(h, [v])


def test_sweedler_ideals_of_one_minus_g():
    "(1 - g) x = x - gx, while x (1 - g) = x + gx."
    g = sweedler()
    v = [1, -1, 0, 0]
    assert close_right_ideal(g, [v]) == Subspace.spanned_by(4, [v, [0, 0, 1, -1]])
    assert close_left_ideal(g, [v]) == Subspace.spanned_by(4, [v, [0, 0, 1, 1]])


def test_mirror_swaps_left_and_right_reconstruction(pair):
    g, h = pair
    for v in g.counit.kernel().basis:
        k = close_left_ideal(g, [v])
        right = solve_right_action(reconstruct_right_from_ideal(g, k, Report(), verify=False))
        left = solve_left_action(reconstruct_from_ideal(h, k, Report(), verify=False))
        assert right.ideal == left.ideal == k


def sigma_formula(g: MultiBraidedGroup) -> LinMap:
    """(m (x) m)(kappa (x) Delta m (x) kappa)(Delta (x) Delta): on a valid record
    this is the braiding, by PHI_MULT, the antipode and counit laws and
    (co)associativity (expand Delta(a_2 b_1), then contract S(a_1) a_2 and
    b_2 S(b_3))."""
    m, phi, kap = g.mult, g.coproduct, g.antipode
    return compose(tensor(m, m), tensor(kap, phi @ m, kap), tensor(phi, phi))


@pytest.mark.parametrize("name", sorted({"one", *FIXTURES}))
def test_product_coproduct_and_antipode_fix_the_braiding(name):
    "The braiding is the sigma formula, and tau equals it, on each record and on its mirror."
    g = fix_one() if name == "one" else FIXTURES[name]()
    for record in (g, mirror(g)):
        assert sigma_formula(record) == record.braiding
        assert record.tau == record.braiding


def test_the_sigma_formula_rejects_the_u_basis_flip():
    "fix_k2 with the graded flip of its character basis fails PHI_MULT, and the formula tells sigma apart."
    k2 = fix_k2()
    g = MultiBraidedGroup(k2.alg, k2.coproduct, k2.counit, k2.antipode, u_basis_flip_k2())
    assert sigma_formula(g) == k2.braiding != g.braiding


def naturality_sides(g: MultiBraidedGroup) -> tuple:
    """Both sides of (I (x) phi) sigma = (sigma (x) I)(I (x) sigma)(phi (x) I) and of
    (phi (x) I) sigma = (I (x) sigma)(sigma (x) I)(I (x) phi): sigma is natural in
    the coproduct, as a braiding is natural in every morphism of its category."""
    I, s, phi = identity(g.dim), g.braiding, g.coproduct
    return (
        (tensor(I, phi) @ s, compose(tensor(s, I), tensor(I, s), tensor(phi, I))),
        (tensor(phi, I) @ s, compose(tensor(I, s), tensor(s, I), tensor(I, phi))),
    )


@pytest.mark.parametrize("mirrored", [False, True], ids=["record", "mirror"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_the_braiding_is_natural_in_the_coproduct(name, mirrored):
    g = FIXTURES[name]()
    for lhs, rhs in naturality_sides(mirror(g) if mirrored else g):
        assert lhs == rhs


def test_the_u_basis_flip_is_not_natural_in_the_coproduct():
    "The invalid sigma != tau record fails both naturality laws."
    k2 = fix_k2()
    g = MultiBraidedGroup(k2.alg, k2.coproduct, k2.counit, k2.antipode, u_basis_flip_k2())
    for lhs, rhs in naturality_sides(g):
        assert lhs != rhs
