import sys
from pathlib import Path

import pytest

from braidcalc import covariance
from braidcalc.bicovariance import (
    NotKappaCovariant,
    check_bicovariance,
    check_kappa0,
    check_kappa_covariance,
    ideal_bicovariance_test,
    kappa_iff_bicovariant,
    right_action_from_ad,
)
from braidcalc.bundles import Bundle, parse_bundle
from braidcalc.calculi import FirstOrderCalculus, iota_l, iota_r
from braidcalc.covariance import (
    NotLeftCovariant,
    NotRightCovariant,
    right_trivialization,
    solve_left_action,
    solve_right_action,
)
from braidcalc.fixtures import _delta_group, conjugation_star
from braidcalc.groups import kappa0
from braidcalc.linalg import LinMap, Subspace, compose, tensor
from braidcalc.reporting import Report
from braidcalc.scalars import Q
from braidcalc.verify import verify_bundle


def test_kappa0_report(k2, gr, one):
    for g in (k2, gr, one):
        rep = Report()
        check_kappa0(g, rep)
        assert rep.ok_all, [e.id for e in rep.failures()]


def test_bicovariance_battery(k2_universal, k2_lcd, k2_rcd, k2_flips,
                              gr_universal, gr_lcd, gr_rcd, gr_flips):
    for c, lcd, rcd, flips in (
        (k2_universal, k2_lcd, k2_rcd, k2_flips),
        (gr_universal, gr_lcd, gr_rcd, gr_flips),
    ):
        rep = Report()
        check_bicovariance(c, lcd, rcd, flips, rep)
        assert rep.ok_all, [e.id for e in rep.failures()]
        for key in ("EQ_41", "EQ_43A", "EQ_43B", "EQ_44A_n1_m-1", "EQ_44B_n-2_m2",
                    "EQ_45A_n1", "EQ_45B_n-1", "EQ_46A_n2", "EQ_46B_n0"):
            assert rep.passed(key), key


def test_bicovariance_zero_calculus(k2_zero_calc):
    from braidcalc.calculi import solve_flips

    flips = solve_flips(k2_zero_calc, 2)
    lcd = solve_left_action(k2_zero_calc, Report(), flips=flips)
    rcd = solve_right_action(k2_zero_calc, Report(), flips=flips)
    rep = Report()
    check_bicovariance(k2_zero_calc, lcd, rcd, flips, rep)
    assert rep.ok_all


# -- ideal criterion ------------------------------------------------------------


def test_ideal_bicovariance_zero_ideal(k2):
    rep = Report()
    ideal_bicovariance_test(k2, Subspace.zero(2), rep)
    assert rep.ok_all
    assert rep.passed("EQ_47") and rep.passed("EQ_48")


def test_ideal_bicovariance_keps(k2):
    rep = Report()
    ideal_bicovariance_test(k2, k2.counit.kernel(), rep)
    assert rep.ok_all


def test_ideal_bicovariance_rejects_non_counital_subspace(k2):
    rep = Report()
    ideal_bicovariance_test(k2, Subspace.spanned_by(2, [[1, 1]]), rep)
    entry = rep["IDEAL_IN_KEREPS"]
    assert entry.status == "fail"
    assert "EQ_47" not in rep.ids()


def test_right_action_from_ad_matches_solver(k2_universal, k2_lcd, k2_rcd,
                                             gr_universal, gr_lcd, gr_rcd, k2, gr):
    for g, c, lcd, rcd in ((k2, k2_universal, k2_lcd, k2_rcd), (gr, gr_universal, gr_lcd, gr_rcd)):
        rep = Report()
        built = right_action_from_ad(g, lcd, rcd, right_trivialization(c, lcd, Report()), rep)
        assert rep.ok_all, [e.id for e in rep.failures()]
        assert built == rcd.action
        assert rep.passed("EQ_49") and rep.passed("EQ_410")


def test_right_action_from_ad_zero_calculus(k2, k2_zero_calc):
    lcd = solve_left_action(k2_zero_calc, Report())
    rcd = solve_right_action(k2_zero_calc, Report())
    rep = Report()
    built = right_action_from_ad(k2, lcd, rcd, right_trivialization(k2_zero_calc, lcd, Report()), rep)
    assert rep.ok_all and built.cod == 0


# -- antipodal covariance ----------------------------------------------------------


def test_kappa_covariance_k2(k2_universal, k2_lcd, k2_rcd, k2_flips, k2):
    rep = Report()
    kd = check_kappa_covariance(k2_universal, rep, lcd=k2_lcd, rcd=k2_rcd, flips=k2_flips)
    assert rep.ok_all, [e.id for e in rep.failures()]
    # vk pi = zeta kappa0 holds exactly
    k0 = kappa0(k2)
    assert kd.map @ k2_lcd.pi_hat == k2_rcd.zeta_hat @ k0
    for key in ("SIGMA_M2_FORMULA", "EQ_51", "EQ_52", "EQ_53", "EQ_55_n1", "EQ_56",
                "EQ_57_n-2", "EQ_58", "EQ_59", "EQ_510", "EQ_511", "EQ_512A",
                "EQ_513A", "EQ_514A", "EQ_514B", "EQ_515A", "EQ_516A", "EQ_516B"):
        assert rep.passed(key), key


def test_kappa_covariance_gr(gr_universal, gr_lcd, gr_rcd, gr_flips):
    rep = Report()
    kd = check_kappa_covariance(gr_universal, rep, lcd=gr_lcd, rcd=gr_rcd, flips=gr_flips)
    assert rep.ok_all, [e.id for e in rep.failures()]
    # the twisting maps left-invariant forms onto right-invariant ones
    assert gr_lcd.inv_space.map_by(kd.map) == gr_rcd.inv_space


def test_kappa_covariance_zero_calculus(k2_zero_calc):
    rep = Report()
    kd = check_kappa_covariance(k2_zero_calc, rep)
    assert rep.ok_all
    assert kd.map.cod == 0


def test_kappa_covariance_negative(k2_universal, k2):
    rows = [[k2_universal.mgl.entry(i, j) for j in range(4)] for i in range(2)]
    rows[0][1] = rows[0][1] + Q(1)
    broken = FirstOrderCalculus(k2, 2, LinMap.from_entries(2, 4, rows),
                                k2_universal.mgr, k2_universal.d, name="broken")
    rep = Report()
    with pytest.raises(NotKappaCovariant) as caught:
        check_kappa_covariance(broken, rep)
    assert caught.value.kernels_agree is False
    assert rep["KAPPA_COV_DECISION"].status == "fail"
    assert "kernel_witness" in rep["KAPPA_COV_DECISION"].witness


# -- equivalence of decisions -----------------------------------------------------


def _right_action_or_none(c):
    try:
        return solve_right_action(c, Report())
    except NotRightCovariant:
        return None


def _kappa_decision(c) -> bool:
    "The kernel decision of check_kappa_covariance, as the verification pipeline reads it."
    try:
        check_kappa_covariance(c, Report())
        return True
    except NotKappaCovariant as exc:
        return exc.kernels_agree


def test_kappa_iff_bicovariant_positive(k2_universal, gr_universal, k2_zero_calc, k4_d1_calc):
    for c in (k2_universal, gr_universal, k2_zero_calc, k4_d1_calc):
        rep = Report()
        kappa_iff_bicovariant(solve_left_action(c, Report()), _right_action_or_none(c), rep, _kappa_decision(c))
        entry = rep["KAPPA_IFF_BICOVARIANT"]
        assert entry.status == "pass", entry.note


def test_kappa_iff_bicovariant_reports_the_given_decision(k2_universal, k2_lcd, k2_rcd):
    for kappa_cov, status in ((True, "pass"), (False, "fail")):
        rep = Report()
        kappa_iff_bicovariant(k2_lcd, k2_rcd, rep, kappa_cov)
        entry = rep["KAPPA_IFF_BICOVARIANT"]
        assert entry.status == status
        assert entry.note == f"kappa-covariant: {kappa_cov}; bicovariant: True"


def test_kappa_iff_bicovariant_skips_non_left_covariant(k2_universal, k2):
    rows = [[k2_universal.mgl.entry(i, j) for j in range(4)] for i in range(2)]
    rows[0][1] = rows[0][1] + Q(1)
    broken = FirstOrderCalculus(k2, 2, LinMap.from_entries(2, 4, rows),
                                k2_universal.mgr, k2_universal.d, name="broken")
    with pytest.raises(NotLeftCovariant):
        solve_left_action(broken, Report())
    rep = Report()
    kappa_iff_bicovariant(None, None, rep, _kappa_decision(broken))
    assert rep["KAPPA_IFF_BICOVARIANT"].status == "skipped"


def test_anyon_t2_is_left_but_not_bicovariant(anyon, anyon_t2_calc):
    # a genuine (non-engineered) negative: over the i-graded line the ideal
    # generated by t^2 is tau-stable and multiplicatively closed but not
    # stabilized by the adjoint action, so its calculus is left-covariant
    # yet neither right- nor antipodally covariant, and the decisions agree
    c = anyon_t2_calc
    lcd = solve_left_action(c, Report())
    rep = Report()
    ideal_bicovariance_test(anyon, lcd.ideal, rep)
    assert rep["EQ_47"].status == "fail"
    assert rep["EQ_48"].status == "pass"
    with pytest.raises(NotRightCovariant):
        solve_right_action(c, Report())
    rep2 = Report()
    kappa_iff_bicovariant(lcd, None, rep2, _kappa_decision(c))
    entry = rep2["KAPPA_IFF_BICOVARIANT"]
    assert entry.status == "pass"
    assert "kappa-covariant: False; bicovariant: False" in entry.note
    with pytest.raises(NotKappaCovariant):
        check_kappa_covariance(c, Report())


def test_anyon_t2_full_battery_outcome(anyon, anyon_t2_calc):
    from braidcalc.bundles import Bundle
    from braidcalc.fixtures import conjugation_star
    from braidcalc.verify import verify_calculus_section

    bundle = Bundle(anyon, conjugation_star(anyon), [anyon_t2_calc], [])
    rep = verify_calculus_section(bundle, anyon_t2_calc, shift_range=1)
    fails = {e.id for e in rep.failures()}
    assert fails == {"NOT_RIGHT_COVARIANT", "KAPPA_COV_DECISION"}
    assert rep["KAPPA_IFF_BICOVARIANT"].status == "pass"


def test_decisions_agree_on_corrupted_mgl(k2_universal, k2):
    # with a corrupted left module action, both sides of the equivalence are
    # false: the kernels differ and neither action solves
    rows = [[k2_universal.mgl.entry(i, j) for j in range(4)] for i in range(2)]
    rows[0][1] = rows[0][1] + Q(1)
    broken = FirstOrderCalculus(k2, 2, LinMap.from_entries(2, 4, rows),
                                k2_universal.mgr, k2_universal.d, name="broken")
    il, ir = iota_l(broken), iota_r(broken)
    twisted = compose(ir, tensor(k2.antipode, k2.antipode), k2.sigma_n(-2))
    kappa_cov = il.kernel() == twisted.kernel()
    try:
        solve_left_action(broken, Report())
        solve_right_action(broken, Report())
        bicov = True
    except (NotLeftCovariant, NotRightCovariant):
        bicov = False
    assert kappa_cov is False and bicov is False


# -- each calculus section solves each action once ----------------------------------

SOLVERS = ("solve_left_action", "solve_right_action", "right_trivialization")


def _z3_universal_bundle():
    g = _delta_group(3, ("d_0", "d_1", "d_2"))
    universal = covariance.reconstruct_from_ideal(g, covariance.universal_ideals(g)["zero"], Report(), name="universal")
    return Bundle(g, conjugation_star(g), [universal], [])


def test_each_calculus_section_solves_each_action_once(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(c, *args, **kwargs):
            calls.append((name, c))
            return fn(c, *args, **kwargs)

        return wrapped

    # from-imports copy the names, so every module that bound a solver is patched
    modules = [m for key, m in sys.modules.items() if key == "braidcalc" or key.startswith("braidcalc.")]
    for name in SOLVERS:
        fn = getattr(covariance, name)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))

    k2_path = Path(__file__).resolve().parent.parent / "bundles" / "fix_k2.json"
    for bundle in (parse_bundle(k2_path.read_text()), _z3_universal_bundle()):
        calls.clear()
        assert verify_bundle(bundle).ok_all
        for c in bundle.calculi:
            counts = {name: sum(1 for n, x in calls if n == name and x is c) for name in SOLVERS}
            assert counts == dict.fromkeys(SOLVERS, 1), c.name
