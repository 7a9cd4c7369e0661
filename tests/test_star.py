import pytest

from braidcalc.bicovariance import check_kappa_covariance
from braidcalc.covariance import solve_left_action
from braidcalc.fixtures import conjugation_star, gr_star
from braidcalc.linalg import AntilinMap, LinMap, identity
from braidcalc.reporting import Report
from braidcalc.scalars import Q
from braidcalc.star import (
    NotStarCovariant,
    StarGroup,
    check_star_flip_compat,
    check_star_group,
    star_covariance,
)


def test_antilinear_composition_rules():
    j = AntilinMap(identity(2))
    f = LinMap.from_entries(2, 2, [[Q(0, 1), Q(0)], [Q(0), Q(1)]])
    assert isinstance(j @ j, LinMap) and (j @ j) == identity(2)
    assert isinstance(j @ f, AntilinMap)
    assert isinstance(f @ j, AntilinMap)
    # conjugation flips i: j f j = conj(f)
    assert (j @ f) @ j == f.conj()


def test_star_group_k2_conjugation(k2):
    rep = Report()
    check_star_group(StarGroup(k2, conjugation_star(k2)), rep)
    assert rep.ok_all, [e.id for e in rep.failures()]
    for key in ("STAR_INVOLUTION", "STAR_ANTIMULT", "EQ_B32", "EQ_B33", "EQ_B34",
                "EQ_B35", "EQ_B36", "EQ_B37", "EQ_62_n1", "EQ_62_n-2"):
        assert rep.passed(key), key


def test_star_group_one(one):
    rep = Report()
    check_star_group(StarGroup(one, conjugation_star(one)), rep)
    assert rep.ok_all


def test_star_group_gr_both_signs(gr):
    # the engine decides whether t* = t and t* = -t are compatible; on this
    # fixture both are, and so is t* = i t
    outcomes = {}
    for label, star in (("plus", gr_star(1)), ("minus", gr_star(-1)), ("i", gr_star(1, imaginary=True))):
        rep = Report()
        check_star_group(StarGroup(gr, star), rep)
        outcomes[label] = rep.ok_all
    assert outcomes == {"plus": True, "minus": True, "i": True}


def test_star_group_anyon_conjugation(anyon):
    # the braiding is complex, so the conjugate-transpose relations are
    # exercised with genuinely imaginary entries
    rep = Report()
    check_star_group(StarGroup(anyon, conjugation_star(anyon)), rep)
    assert rep.ok_all, [e.id for e in rep.failures()]


def test_star_group_detects_broken_involution(k2):
    bad = AntilinMap(LinMap.from_entries(2, 2, [[Q(2), Q(0)], [Q(0), Q(1)]]))
    rep = Report()
    check_star_group(StarGroup(k2, bad), rep)
    assert not rep.passed("STAR_INVOLUTION")


# -- calculus-level star ----------------------------------------------------------


def test_star_covariance_k2_universal(k2, k2_universal, k2_lcd, k2_rcd, k2_flips):
    sg = StarGroup(k2, conjugation_star(k2))
    rep = Report()
    kd = check_kappa_covariance(k2_universal, Report(), lcd=k2_lcd, rcd=k2_rcd, flips=k2_flips)
    stg = star_covariance(k2_lcd, sg, rep, rcd=k2_rcd, kappa_data=kd, flips=k2_flips)
    assert rep.ok_all, [e.id for e in rep.failures()]
    for key in ("STARKAPPA_IDEAL", "EQ_614", "STAR_GAMMA_INVOLUTION", "STAR_D_COMPAT",
                "STAR_BIMODULE_L", "STAR_BIMODULE_R", "EQ_613", "EQ_615", "EQ_616", "EQ_617"):
        assert rep.passed(key), key
    # (d a)* = d(a*): with the conjugation star the differential is fixed entrywise
    assert (stg @ k2_universal.d) == (k2_universal.d @ sg.star)


def test_star_covariance_zero_calculus(k2, k2_zero_calc):
    sg = StarGroup(k2, conjugation_star(k2))
    lcd = solve_left_action(k2_zero_calc, Report())
    rep = Report()
    stg = star_covariance(lcd, sg, rep)
    assert rep.ok_all
    assert stg.lin.cod == 0


def test_star_covariance_gr_universal(gr, gr_universal, gr_lcd, gr_rcd, gr_flips):
    sg = StarGroup(gr, gr_star(1))
    kd = check_kappa_covariance(gr_universal, Report(), lcd=gr_lcd, rcd=gr_rcd, flips=gr_flips)
    rep = Report()
    stg = star_covariance(gr_lcd, sg, rep, rcd=gr_rcd, kappa_data=kd, flips=gr_flips)
    assert rep.ok_all, [e.id for e in rep.failures()]
    assert rep.passed("EQ_617")


def test_star_flip_compat(k2, k2_universal, k2_lcd, k2_flips, gr, gr_universal, gr_lcd, gr_flips):
    for g, c, lcd, flips, star in (
        (k2, k2_universal, k2_lcd, k2_flips, conjugation_star(k2)),
        (gr, gr_universal, gr_lcd, gr_flips, gr_star(1)),
    ):
        sg = StarGroup(g, star)
        stg = star_covariance(lcd, sg, Report())
        rep = Report()
        check_star_flip_compat(c, flips, sg, stg, rep)
        assert rep.ok_all, [e.id for e in rep.failures()]
        assert rep.passed("EQ_69_n1") and rep.passed("EQ_610_n-2")


# -- the ideal-level decision -------------------------------------------------------


def test_nonstable_ideal_not_star_covariant(k4, k4_d1_calc):
    sg = StarGroup(k4, conjugation_star(k4))
    lcd = solve_left_action(k4_d1_calc, Report())
    rep = Report()
    with pytest.raises(NotStarCovariant):
        star_covariance(lcd, sg, rep)
    entry = rep["STARKAPPA_IDEAL"]
    assert entry.status == "fail"
    assert "image_outside_ideal" in entry.witness
    # agreement of the two sides of the equivalence: kappa(R)* escapes R
    sk = sg.star @ k4.antipode
    stable = all(lcd.ideal.contains(sk.apply(v)) for v in lcd.ideal.basis)
    assert stable is False


def test_stable_k4_ideal_is_star_covariant(k4):
    from braidcalc.covariance import close_right_ideal, reconstruct_from_ideal

    d2 = close_right_ideal(k4, [[0, 0, 1, 0]])
    calc = reconstruct_from_ideal(k4, d2, Report(), name="d2", verify=False)
    lcd = solve_left_action(calc, Report())
    sg = StarGroup(k4, conjugation_star(k4))
    rep = Report()
    stg = star_covariance(lcd, sg, rep)
    assert rep.ok_all, [e.id for e in rep.failures()]
    sk = sg.star @ k4.antipode
    assert all(lcd.ideal.contains(sk.apply(v)) for v in lcd.ideal.basis)
