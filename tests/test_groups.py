import pytest

from braidcalc.fixtures import graded_flip, u_basis_flip_k2
from braidcalc.groups import (
    BraidSystem,
    MultiBraidedGroup,
    TauMismatch,
    adjoint_action,
    check_adjoint,
    check_braid_system,
    check_group,
    complete_braid_system,
    derive_tau,
    explore_antipode_shifts,
    kappa0,
    simplified_algebra,
)
from braidcalc.linalg import LinMap, compose, identity, permutation_map, tensor
from braidcalc.scalars import Q

from oracles import basis, oracle_adjoint_column, oracle_tau_column

PSI2 = permutation_map([1, 0], [2, 2])


# -- tau ---------------------------------------------------------------


def test_tau_k2_is_transposition(k2):
    # oracle expansion of the defining expression, column by column
    for i in range(2):
        for j in range(2):
            assert list(derive_tau(k2).col(i * 2 + j)) == oracle_tau_column(k2, i, j)
    assert derive_tau(k2) == PSI2


def test_tau_gr_equals_braiding(gr):
    assert derive_tau(gr) == gr.braiding
    for i in range(2):
        for j in range(2):
            assert list(gr.tau.col(i * 2 + j)) == oracle_tau_column(gr, i, j)


def test_tau_one_is_identity(one):
    assert derive_tau(one) == identity(1)


def test_tau_mismatch_on_corrupted_coproduct(k2):
    rows = [[k2.coproduct.entry(i, j) for j in range(2)] for i in range(4)]
    rows[1][1] = rows[1][1] + Q(1)
    bad = MultiBraidedGroup(k2.alg, LinMap.from_entries(4, 2, rows), k2.counit, k2.antipode, k2.braiding)
    with pytest.raises(TauMismatch):
        derive_tau(bad)


# -- shift family --------------------------------------------------------


def test_sigma_one_is_braiding(k2, gr):
    assert k2.sigma_n(1) == k2.braiding
    assert gr.sigma_n(1) == gr.braiding


def test_sigma_n_collapse_on_k2(k2):
    for n in range(-4, 5):
        assert k2.sigma_n(n) == PSI2


def test_shifts_take_one_value_per_distinct_braid(k2):
    second = MultiBraidedGroup(k2.alg, k2.coproduct, k2.counit, k2.antipode, u_basis_flip_k2())
    assert len(set(k2.sigma_n(n) for n in range(-8, 9))) == 1
    assert len(set(second.sigma_n(n) for n in range(-8, 9))) == 2


def test_equal_shifts_are_one_object(k2):
    # each shift is derived from its neighbour, and a value met before is the
    # object derived first: one object per distinct shift, and one inverse
    assert all(k2.sigma_n(n) is k2.sigma_n(1) is k2.braiding for n in range(-8, 9))
    assert all(k2.sigma_n_inv(n) is k2.sigma_inv for n in range(-8, 9))
    second = MultiBraidedGroup(k2.alg, k2.coproduct, k2.counit, k2.antipode, u_basis_flip_k2())
    shifts = [second.sigma_n(n) for n in range(-8, 9)]
    assert len({id(s) for s in shifts}) == 2
    for n in range(-8, 9):
        assert second.sigma_n(n) is second.sigma_n(n % 2)
        assert second.sigma_n_inv(n) is second.sigma_n_inv(n % 2)
        assert second.sigma_n_inv(n) @ second.sigma_n(n) == identity(4)
        assert second.inverse_of(second.sigma_n(n)) is second.sigma_n_inv(n)
    assert second.sigma_n(0) == second.tau and second.sigma_n_inv(1) is second.sigma_inv
    other = PSI2.scale(Q(2))  # not a shift: inverted where it is asked for
    assert second.inverse_of(other) == PSI2.scale(Q(1) / Q(2))
    # every inverse is kept once per distinct value: sigma = tau on K2 gives one inverse,
    # and two equal maps built apart share theirs
    assert k2.tau_inv is k2.sigma_inv
    dense = LinMap(4, 4, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert dense == PSI2 and dense is not PSI2
    assert second.inverse_of(dense) is second.inverse_of(PSI2)


def test_sigma_minus_two_gr_is_graded_flip(gr):
    assert gr.sigma_n(-2) == graded_flip((0, 1))


def test_sigma_zero_is_tau(k2, gr):
    assert k2.sigma_n(0) == k2.tau
    assert gr.sigma_n(0) == gr.tau


def test_sigma_cap(k2):
    with pytest.raises(ValueError):
        k2.sigma_n(17)


# -- full group battery ---------------------------------------------------


def test_check_group_passes_fixtures(one, k2, gr, k4):
    for g in (one, k2, gr, k4):
        rep = check_group(g, paranoid=True)
        assert rep.ok_all, [e.id for e in rep.failures()]
        for key in ("ALG_ASSOC", "COASSOC", "COUNIT_L", "ANTIPODE_L", "SIGMA_YB",
                    "HEX_L", "HEX_R", "PHI_MULT", "TAU_OK", "SYS_OK", "EPS_SIGMA",
                    "CLASSICAL_REDUCTION"):
            assert rep.passed(key), key


def test_unsigned_flip_on_gr_fails_phi_mult(gr):
    bad = MultiBraidedGroup(gr.alg, gr.coproduct, gr.counit, gr.antipode, PSI2)
    rep = check_group(bad)
    assert {e.id for e in rep.failures()} == {"PHI_MULT"}
    w = rep["PHI_MULT"].witness
    assert w is not None and "input" in w


def test_classical_reduction_note(k2):
    rep = check_group(k2)
    entry = rep["CLASSICAL_REDUCTION"]
    assert entry.status == "pass"
    assert "sigma=tau: True" in entry.note


# -- simplified algebra and kappa0 ----------------------------------------


def test_simplified_algebra_equals_original_on_classical(one, k2, gr):
    for g in (one, k2, gr):
        assert simplified_algebra(g).mult == g.mult


def test_kappa0_values(one, k2, gr):
    assert kappa0(k2) == identity(2)
    assert kappa0(gr) == gr.antipode
    assert kappa0(one) == identity(1)


def test_kappa0_counit_law(k2, gr):
    for g in (k2, gr):
        assert g.counit @ kappa0(g) == g.counit


# -- adjoint action ---------------------------------------------------------


def test_adjoint_matches_oracle(k2, gr, k4):
    for g in (k2, gr, k4):
        ad = adjoint_action(g)
        for i in range(g.dim):
            assert list(ad.col(i)) == oracle_adjoint_column(g, i)


def test_adjoint_action_is_cached(k2):
    g = k2.uncached_clone()
    assert adjoint_action(g) is adjoint_action(g)
    assert adjoint_action(g) == adjoint_action(g.uncached_clone())


def test_adjoint_frozen_values(k2, gr):
    # commutative function algebra: ad(f) = f (x) 1
    ad2 = adjoint_action(k2)
    one_vec = list(k2.unit.col(0))
    for i in range(2):
        expected = [b * o for b in basis(2, i) for o in one_vec]
        assert list(ad2.col(i)) == expected
    ad_gr = adjoint_action(gr)
    assert list(ad_gr.col(1)) == [Q(0), Q(0), Q(1), Q(0)]  # theta (x) 1


def test_adjoint_identities(one, k2, gr):
    for g in (one, k2, gr):
        rep = check_adjoint(g)
        assert rep.ok_all, [e.id for e in rep.failures()]
        assert rep.passed("EQ_B3") and rep.passed("EQ_B4")
        assert rep.passed("EQ_B7_n1_m-1") and rep.passed("EQ_B8_n-2_m2")


def test_counit_of_adjoint_on_gr(gr):
    ad = adjoint_action(gr)
    assert tensor(identity(2), gr.counit) @ ad == identity(2)


# -- braid systems -----------------------------------------------------------


def test_single_flip_system_passes(k2):
    rep = check_braid_system(BraidSystem.of(2, [PSI2]), k2.alg)
    assert rep.ok_all


def test_graded_flip_system_passes(gr):
    rep = check_braid_system(BraidSystem.of(2, [gr.braiding]), gr.alg)
    assert rep.ok_all


def test_scaled_flip_fails_hexagon(k2):
    scaled = PSI2.scale(Q(2))
    rep = check_braid_system(BraidSystem.of(2, [PSI2, scaled]), k2.alg)
    fails = {e.id for e in rep.failures()}
    assert "SYS_E1_HEX_L" in fails and "SYS_E1_HEX_R" in fails
    assert rep["SYS_E1_HEX_L"].witness is not None


def test_completion_of_singleton_is_closed():
    comp = complete_braid_system(BraidSystem.of(2, [PSI2]))
    assert not comp.truncated and comp.system.elements == (PSI2,)


def test_completion_of_sigma_tau_pair_on_gr(gr):
    comp = complete_braid_system(BraidSystem.of(2, [gr.braiding, gr.tau]))
    assert not comp.truncated and len(comp.system.elements) == 1


def test_completion_of_two_element_system(k2):
    second = u_basis_flip_k2()
    sys2 = BraidSystem.of(2, [PSI2, second])
    assert check_braid_system(sys2, k2.alg).ok_all
    comp = complete_braid_system(sys2)
    assert not comp.truncated
    assert len(comp.system.elements) == 2


def test_completion_truncates_at_cap():
    # a scalar-scaled pair closes onto an infinite family, so any cap truncates;
    # closure is a set-level operation and does not require the hexagons
    comp = complete_braid_system(BraidSystem.of(2, [PSI2, PSI2.scale(Q(2))]), max_elems=3)
    assert comp.truncated
    assert len(comp.system.elements) > 3


def test_sigma_n_memo_crosscheck(k2, gr):
    # the ternary closure of {sigma, tau} is exercised through the shift
    # family recurrence when sigma equals tau
    for g in (k2, gr):
        for n in range(-3, 4):
            assert g.sigma_n(n) == compose(g.sigma_n(n - 1), g.tau_inv, g.braiding)


# -- exploratory antipode shifts -----------------------------------------------


def test_antipode_shift_exploration_reports_only(k2, gr):
    for g in (k2, gr):
        shifts = explore_antipode_shifts(g, 2)
        # sigma = tau here, so every shift matches every other; the function
        # reports the observation without asserting a law
        assert shifts[1] == [-2, -1, 0, 1, 2]


# -- the i-graded line: non-involutive braiding and antipode --------------------


def test_anyon_group_passes_with_genuine_complexity(anyon):
    assert not anyon.braiding.is_real()
    assert anyon.braiding @ anyon.braiding != identity(16)
    assert anyon.antipode @ anyon.antipode != identity(4)
    rep = check_group(anyon, paranoid=True)
    assert rep.ok_all, [e.id for e in rep.failures()]
    assert anyon.tau == anyon.braiding  # counit is multiplicative here


def test_anyon_tau_and_adjoint_match_oracle(anyon):
    for i in range(4):
        for j in range(4):
            assert list(anyon.tau.col(i * 4 + j)) == oracle_tau_column(anyon, i, j)
    ad = adjoint_action(anyon)
    for i in range(4):
        assert list(ad.col(i)) == oracle_adjoint_column(anyon, i)


def test_anyon_adjoint_identities(anyon):
    rep = check_adjoint(anyon)
    assert rep.ok_all, [e.id for e in rep.failures()]


def test_anyon_kappa0_matches_antipode(anyon):
    assert kappa0(anyon) == anyon.antipode


def test_anyon_shift_family_is_constant(anyon):
    # sigma = tau, so the shift family collapses even though sigma^2 != id
    for n in range(-3, 4):
        assert anyon.sigma_n(n) == anyon.braiding
