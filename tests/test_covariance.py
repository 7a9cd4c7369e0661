from pathlib import Path

import pytest

from braidcalc import covariance
from braidcalc.bicovariance import ideal_bicovariance_test
from braidcalc.bundles import parse_bundle
from braidcalc.calculi import FirstOrderCalculus, FlipOver, check_calculus, iota_l, solve_flips
from braidcalc.covariance import (
    IdealInvalid,
    NotLeftCovariant,
    NotRightCovariant,
    calculi_isomorphic,
    close_right_ideal,
    extract_ideal,
    flip_from_actions,
    flip_from_right_action,
    left_trivialization,
    reconstruct_from_ideal,
    reconstruct_right_from_ideal,
    right_covariant_trivializations,
    right_trivialization,
    solve_left_action,
    solve_right_action,
    universal_ideals,
)
from braidcalc.fixtures import _delta_group, fix_anyon, fix_k2, u_basis_flip_k2
from braidcalc.groups import MultiBraidedGroup
from braidcalc.linalg import LinMap, Subspace, compose, identity, quotient, solve_right, tensor
from braidcalc.reporting import Report
from braidcalc.scalars import Q
from braidcalc.verify import verify_ideal_section


# -- left action --------------------------------------------------------------


def test_left_action_on_k2_universal(k2_universal, k2_flips):
    rep = Report()
    lcd = solve_left_action(k2_universal, rep, flips=k2_flips)
    assert rep.ok_all, [e.id for e in rep.failures()]
    assert lcd.inv_dim == 1
    assert lcd.ideal == Subspace.zero(2)
    for key in ("EQ_32", "EQ_33", "EQ_34", "EQ_35", "EQ_36", "EQ_37", "EQ_312",
                "EQ_313", "EQ_314", "EQ_315_n0", "EQ_319", "EQ_320", "EQ_321",
                "EQ_332", "EQ_333", "EQ_334", "GINV_DIM", "P_MODULE_LAW"):
        assert rep.passed(key), key


def test_left_action_on_zero_calculus(k2_zero_calc, k2):
    rep = Report()
    lcd = solve_left_action(k2_zero_calc, rep)
    assert rep.ok_all
    assert lcd.inv_dim == 0
    assert lcd.ideal == k2.counit.kernel()


def test_corrupted_mgl_not_left_covariant(k2_universal, k2):
    rows = [[k2_universal.mgl.entry(i, j) for j in range(4)] for i in range(2)]
    rows[0][1] = rows[0][1] + Q(1)
    broken = FirstOrderCalculus(k2, 2, LinMap.from_entries(2, 4, rows), k2_universal.mgr, k2_universal.d)
    with pytest.raises(NotLeftCovariant):
        solve_left_action(broken, Report())


def test_right_action_on_fixtures(k2_universal, k2_flips, gr_universal, gr_flips):
    for c, flips in ((k2_universal, k2_flips), (gr_universal, gr_flips)):
        rep = Report()
        rcd = solve_right_action(c, rep, flips=flips)
        assert rep.ok_all, [e.id for e in rep.failures()]
        assert rcd.inv_dim == 1
        assert rcd.ideal == Subspace.zero(2)
        for key in ("EQ_31", "EQ_A1", "EQ_A2", "EQ_A3", "EQ_A4", "EQ_A5",
                    "EQ_A9", "EQ_A10", "EQ_A11", "EQ_A12_n1", "EQ_A19",
                    "EQ_A20", "EQ_A25"):
            assert rep.passed(key), key


# -- flips rebuilt from actions -------------------------------------------------


def _restriction_solves(monkeypatch, solve, c: FirstOrderCalculus, flips: dict) -> int:
    """The `solve_right` calls `solve` makes to restrict the flips to invariant
    forms: its calls with the flip table less its calls without one."""
    calls = []
    raw = covariance.solve_right
    monkeypatch.setattr(covariance, "solve_right", lambda a, b: calls.append(1) or raw(a, b))
    solve(c, Report())
    without = len(calls)
    rep = Report()
    solve(c, rep, flips=flips)
    assert not [e.id for e in rep.failures() if "RESTRICT" in e.id]
    return len(calls) - 2 * without


def test_flip_restrictions_are_solved_once_per_distinct_flip(monkeypatch, k2, k2_universal):
    z3 = _delta_group(3, ("d_0", "d_1", "d_2"))
    z3_universal = reconstruct_from_ideal(z3, universal_ideals(z3)["zero"], Report(), name="universal")
    # under u_basis_flip_k2 the even and the odd shifts are two braids
    braided = MultiBraidedGroup(k2.alg, k2.coproduct, k2.counit, k2.antipode, u_basis_flip_k2())
    k2_braided = FirstOrderCalculus(braided, k2_universal.gdim, k2_universal.mgl, k2_universal.mgr, k2_universal.d)
    for c, distinct in ((z3_universal, 1), (k2_braided, 2)):
        flips = solve_flips(c, 2)
        for solve in (solve_left_action, solve_right_action):
            assert _restriction_solves(monkeypatch, solve, c, flips) == distinct


def _perturbed_shift1(flips: dict, side: str, how: str) -> dict:
    "The flip table with the shift-1 flip on `side` replaced by the identity or by twice itself."
    table = {"left": dict(flips["left"]), "right": dict(flips["right"])}
    flip = table[side][1].map
    bad = identity(flip.cod) if how == "identity" else flip.scale(2)
    table[side][1] = FlipOver(side, 1, bad, bad)
    return table


def _failures(rep: Report) -> list:
    return [(e.id, e.witness, e.note) for e in rep.failures()]


@pytest.mark.parametrize(
    "side, solve, error, message",
    [
        ("left", solve_left_action, NotLeftCovariant, "invariant restriction of the flip family missing"),
        ("right", solve_right_action, NotRightCovariant, "invariant restriction of the right flip family missing"),
    ],
)
def test_flip_not_preserving_invariant_forms_is_not_covariant(k2_universal, k2_flips, side, solve, error, message):
    rep = Report()
    with pytest.raises(error) as exc:
        solve(k2_universal, rep, flips=_perturbed_shift1(k2_flips, side, "identity"))
    assert str(exc.value) == message
    key = "SIGMA_STAR_RESTRICT_n1" if side == "left" else "STAR_SIGMA_RESTRICT_n1"
    assert _failures(rep) == [(key, {"reason": "flip does not preserve the invariant subspace"}, "")]


def test_scaled_left_flip_fails_its_restriction_identity_and_the_common_restriction(k2_universal, k2_flips):
    rep = Report()
    solve_left_action(k2_universal, rep, flips=_perturbed_shift1(k2_flips, "left", "scale"))
    assert _failures(rep) == [
        ("EQ_315_n1", {"input": ["1", "0", "0", "0"], "lhs": ["-2", "-2", "0", "0"], "rhs": ["-1", "-1", "0", "0"]}, ""),
        (
            "SIGMA_STAR_COMMON",
            {"reason": "restrictions of shifted flips to invariant forms differ"},
            "restriction is independent of the shift",
        ),
    ]


def test_scaled_right_flip_fails_its_restriction_identity_and_the_common_restriction(k2_universal, k2_flips):
    rep = Report()
    solve_right_action(k2_universal, rep, flips=_perturbed_shift1(k2_flips, "right", "scale"))
    assert _failures(rep) == [
        ("EQ_A12_n1", {"input": ["1", "0", "0", "0"], "lhs": ["2", "0", "2", "0"], "rhs": ["1", "0", "1", "0"]}, ""),
        ("STAR_SIGMA_COMMON", {"reason": "restrictions of shifted right flips differ"}, ""),
    ]


def test_flip_from_actions_agrees_with_solver(k2_universal, k2_flips, k2_lcd,
                                              gr_universal, gr_flips, gr_lcd):
    for c, flips, lcd in ((k2_universal, k2_flips, k2_lcd), (gr_universal, gr_flips, gr_lcd)):
        rep = Report()
        flip_from_actions(lcd, rep, flips=flips)
        assert rep.ok_all, [e.id for e in rep.failures()]
        assert rep.passed("EQ_38") and rep.passed("EQ_39")
        assert rep.passed("EQ_310_n1_m-1") and rep.passed("EQ_311")


def test_flip_from_right_action(k2_universal, k2_flips, k2_rcd, gr_universal, gr_flips, gr_rcd):
    for c, flips, rcd in ((k2_universal, k2_flips, k2_rcd), (gr_universal, gr_flips, gr_rcd)):
        rep = Report()
        flip_from_right_action(rcd, rep, flips=flips)
        assert rep.ok_all, [e.id for e in rep.failures()]
        assert rep.passed("EQ_A6") and rep.passed("EQ_A7") and rep.passed("EQ_A8_n1_m1")


def test_flip_from_actions_zero_calculus(k2_zero_calc):
    lcd = solve_left_action(k2_zero_calc, Report())
    rep = Report()
    flip = flip_from_actions(lcd, rep, flips=solve_flips(k2_zero_calc))
    assert rep.ok_all and flip.cod == 0


# -- trivializations -------------------------------------------------------------


def test_left_trivialization_dimensions(k2_universal, k2_lcd, gr_universal, gr_lcd):
    for c, lcd in ((k2_universal, k2_lcd), (gr_universal, gr_lcd)):
        rep = Report()
        fwd, bwd = left_trivialization(lcd, rep)
        assert rep.ok_all, [e.id for e in rep.failures()]
        assert c.gdim == c.group.dim * lcd.inv_dim == 2
        assert fwd.cod == 2 and bwd.dom == 2


def test_right_trivialization(k2_universal, k2_lcd, gr_universal, gr_lcd):
    for c, lcd in ((k2_universal, k2_lcd), (gr_universal, gr_lcd)):
        rep = Report()
        fwd, bwd = right_trivialization(lcd, rep)
        assert rep.ok_all, [e.id for e in rep.failures()]
        for key in ("EQ_323", "EQ_324", "EQ_325", "EQ_326", "EQ_327", "EQ_328A", "EQ_328B"):
            assert rep.passed(key), key


def test_trivializations_zero_calculus(k2_zero_calc):
    lcd = solve_left_action(k2_zero_calc, Report())
    rep = Report()
    fwd, bwd = left_trivialization(lcd, rep)
    assert fwd.cod == 0 and bwd.cod == 0
    fwd2, bwd2 = right_trivialization(lcd, rep)
    assert fwd2.dom == 0
    assert rep.ok_all


def test_right_covariant_trivializations(k2_universal, k2_rcd, gr_universal, gr_rcd):
    for c, rcd in ((k2_universal, k2_rcd), (gr_universal, gr_rcd)):
        rep = Report()
        right_covariant_trivializations(rcd, rep)
        assert rep.ok_all, [e.id for e in rep.failures()]
        for key in ("EQ_A14", "EQ_A16A", "EQ_A16B", "EQ_A17", "EQ_A18",
                    "EQ_A21", "EQ_A22", "EQ_A23", "EQ_A24A", "EQ_A24B"):
            assert rep.passed(key), key


# -- ideals ------------------------------------------------------------------------


def test_extract_ideal_cases(k2_universal, k2_lcd, k2_zero_calc, gr_lcd, k2):
    assert extract_ideal(k2_lcd) == Subspace.zero(2)
    assert extract_ideal(gr_lcd) == Subspace.zero(2)
    lcd0 = solve_left_action(k2_zero_calc, Report())
    assert extract_ideal(lcd0) == k2.counit.kernel()


def test_close_right_ideal(k4):
    closed = close_right_ideal(k4, [[0, 1, 0, 0]])
    assert closed.dim == 1
    three = close_right_ideal(k4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert three == k4.counit.kernel()


def test_close_ideal_rejects_non_counital_generator(k2):
    with pytest.raises(IdealInvalid):
        close_right_ideal(k2, [[1, 0]])


# -- reconstruction ----------------------------------------------------------------


def test_reconstruct_universal_k2(k2):
    rep = Report()
    c = reconstruct_from_ideal(k2, Subspace.zero(2), rep, name="universal")
    assert rep.ok_all, [e.id for e in rep.failures()]
    assert c.gdim == 2  # dim A * dim ker(eps)
    assert rep.passed("ROUNDTRIP_IDEAL")


def test_reconstruct_zero_calculus(k2):
    c = reconstruct_from_ideal(k2, k2.counit.kernel(), Report(), name="zero")
    assert c.gdim == 0


def test_reconstruct_gr_has_nonzero_differential(gr):
    c = reconstruct_from_ideal(gr, Subspace.zero(2), Report(), name="universal")
    assert c.gdim == 2
    theta_image = c.d.col(1)
    assert any(theta_image)


def _counting_map_by(monkeypatch, f: LinMap) -> list:
    "Wrap `Subspace.map_by`; the list collects one entry per call that maps by f."
    calls = []
    raw = Subspace.map_by

    def counted(space, g):
        if g is f:
            calls.append(space)
        return raw(space, g)

    monkeypatch.setattr(Subspace, "map_by", counted)
    return calls


def test_ideal_conditions_are_decided_once_per_record_side_and_subspace(monkeypatch):
    # the closure's R_IDEAL and EQ_320 are entered three times (the
    # reconstruction's precondition, the solved action, the bicovariance
    # criterion) and K_IDEAL and EQ_A25 twice, but each side is decided once
    bundle = parse_bundle((Path(__file__).resolve().parent.parent / "bundles" / "fix_k4.json").read_text())
    calls = _counting_map_by(monkeypatch, bundle.group.m0)
    rep = verify_ideal_section(bundle, "keps", dict(bundle.ideals)["keps"])
    ids = rep.ids()
    assert ids.count("R_IDEAL") == ids.count("EQ_320") == 3
    assert ids.count("K_IDEAL") == ids.count("EQ_A25") == 2
    assert [e.note for e in rep.entries if e.id == "R_IDEAL"] == ["", "m0(R (x) A) inside R", ""]
    assert rep.ok_all
    assert len(calls) == 2  # R_IDEAL once, K_IDEAL once


def test_a_kept_failing_ideal_verdict_raises_again_with_its_witness(monkeypatch):
    g = fix_anyon()
    r = Subspace.spanned_by(4, [[0, 1, 0, 0]])  # inside ker(eps), not an ideal for m0
    calls = _counting_map_by(monkeypatch, g.m0)
    entries = []
    for ctx in ("ideal:first", "ideal:second"):
        rep = Report(ctx=ctx)
        with pytest.raises(IdealInvalid, match="not a right ideal"):
            reconstruct_from_ideal(g, r, rep)
        entries.append(rep.entries)
    first, second = entries
    assert [(e.id, e.status, e.ctx) for e in first + second] == [
        ("R_IDEAL", "fail", "ideal:first"),
        ("R_IDEAL", "fail", "ideal:second"),
    ]
    assert first[0].witness == second[0].witness and first[0].witness["vector_outside"]
    rep = ideal_bicovariance_test(g, r, Report())
    assert [(e.id, e.status, e.note) for e in rep.entries][1:] == [("R_IDEAL", "fail", ""), ("EQ_320", "pass", "")]
    assert len(calls) == 1


def test_unital_braidings_are_decided_once_per_record(monkeypatch):
    "Two reconstructions from one fresh record multiply sigma by the unit once."
    g = fix_k2()
    unit_l = tensor(g.unit, identity(g.dim))
    calls = []
    raw = LinMap.__matmul__

    def counted(f, other):
        if f is g.braiding and other == unit_l:
            calls.append(1)
        return raw(f, other)

    monkeypatch.setattr(LinMap, "__matmul__", counted)
    reconstruct_from_ideal(g, Subspace.zero(2), Report())
    reconstruct_right_from_ideal(g, g.counit_kernel, Report())
    assert len(calls) == 1


def test_reconstruct_rejects_bad_ideal(k2):
    with pytest.raises(IdealInvalid):
        reconstruct_from_ideal(k2, Subspace.spanned_by(2, [[1, 0]]), Report())


def test_reconstruct_right_side(k2, gr):
    for g in (k2, gr):
        rep = Report()
        c = reconstruct_right_from_ideal(g, Subspace.zero(2), rep, name="universal-right")
        assert rep.ok_all, [e.id for e in rep.failures()]
        assert c.gdim == 2
        assert rep.passed("ROUNDTRIP_IDEAL_RIGHT")
        czero = reconstruct_right_from_ideal(g, g.counit.kernel(), Report())
        assert czero.gdim == 0


def test_ideal_roundtrip_both_canonical_ideals(k2, gr, k4):
    for g in (k2, gr, k4):
        for ideal in universal_ideals(g).values():
            rep = Report()
            c = reconstruct_from_ideal(g, ideal, rep)
            assert rep.ok_all, [e.id for e in rep.failures()]
            lcd = solve_left_action(c, Report())
            assert lcd.ideal == ideal


def test_calculus_roundtrip_isomorphism(k2, gr, k2_universal, gr_universal, k2_lcd, gr_lcd):
    for g, c, lcd in ((k2, k2_universal, k2_lcd), (gr, gr_universal, gr_lcd)):
        rebuilt = reconstruct_from_ideal(g, extract_ideal(lcd), Report())
        t = calculi_isomorphic(c, rebuilt)
        assert t is not None
        assert t @ c.d == rebuilt.d
        assert t @ c.mgl == rebuilt.mgl @ tensor(identity(2), t)
        assert t @ c.mgr == rebuilt.mgr @ tensor(t, identity(2))


def test_non_isomorphic_calculi_detected(k2, k2_universal, k2_zero_calc):
    assert calculi_isomorphic(k2_universal, k2_zero_calc) is None


def _permuted(c, perm):
    "P and the copy of c with Gamma's coordinate j moved to perm[j]."
    g = c.gdim
    P = LinMap.from_entries(g, g, [[1 if perm[j] == i else 0 for j in range(g)] for i in range(g)])
    P_inv, I = P.inverse(), identity(c.group.dim)
    return P, FirstOrderCalculus(c.group, g, compose(P, c.mgl, tensor(I, P_inv)), compose(P, c.mgr, tensor(P_inv, I)), P @ c.d)


def _quotient_by(c, a, b):
    "c modulo the sub-bimodule spanned by the basis element a times d of the basis element b."
    I = identity(c.group.dim)
    form = iota_l(c).col(a * c.group.dim + b)
    bimodule = compose(c.mgl, tensor(I, c.mgr), tensor(I, LinMap.from_entries(c.gdim, 1, [[x] for x in form]), I))
    pi, q = quotient(c.gdim, bimodule.image())
    section = solve_right(pi, identity(q))
    return FirstOrderCalculus(
        c.group, q, compose(pi, c.mgl, tensor(I, section)), compose(pi, c.mgr, tensor(section, I)), pi @ c.d
    )


def test_calculi_of_different_ideals_of_one_size_are_not_isomorphic(k4, k4_d1_calc):
    d2 = reconstruct_from_ideal(k4, close_right_ideal(k4, [[0, 0, 1, 0]]), Report(), verify=False)
    assert k4_d1_calc.gdim == d2.gdim == 8
    assert calculi_isomorphic(k4_d1_calc, d2) is None
    assert calculi_isomorphic(d2, k4_d1_calc) is None


def test_permuted_calculus_is_isomorphic_by_the_permutation(k4_d1_calc):
    P, copy = _permuted(k4_d1_calc, [3, 0, 7, 1, 6, 2, 5, 4])
    assert calculi_isomorphic(k4_d1_calc, copy) == P
    assert calculi_isomorphic(copy, k4_d1_calc) == P.inverse()


def test_isomorphism_of_calculi_that_are_not_left_covariant():
    "Removing the edge 0 -> 1 of the universal calculus on Z/3 breaks left covariance."
    g = _delta_group(3, ("d_0", "d_1", "d_2"))
    universal = reconstruct_from_ideal(g, Subspace.zero(3), Report(), verify=False)
    c01, c12 = _quotient_by(universal, 0, 1), _quotient_by(universal, 1, 2)
    assert c01.gdim == c12.gdim == 5
    assert check_calculus(c01).ok_all and check_calculus(c12).ok_all
    with pytest.raises(NotLeftCovariant):
        solve_left_action(c01, Report())
    P, copy = _permuted(c01, [2, 0, 4, 1, 3])
    assert calculi_isomorphic(c01, copy) == P
    assert calculi_isomorphic(c01, c12) is None


def test_reconstruct_k4_nonsquare(k4, k4_d1):
    rep = Report()
    c = reconstruct_from_ideal(k4, k4_d1, rep, name="d1")
    assert rep.ok_all, [e.id for e in rep.failures()]
    assert c.gdim == 8  # dim A * (dim ker(eps) - dim R) = 4 * 2
    assert check_calculus(c).ok_all
