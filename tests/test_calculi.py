import pytest

from braidcalc.calculi import (
    FirstOrderCalculus,
    FlipOver,
    NotCovariant,
    check_calculus,
    check_flip_identities,
    check_multi_covariance,
    flip_tau_from_sigma,
    iota_l,
    iota_r,
    solve_flip,
    solve_flips,
)
from braidcalc import calculi, verify
from braidcalc.bicovariance import check_bicovariance, check_kappa_covariance
from braidcalc.bundles import Bundle
from braidcalc.covariance import reconstruct_from_ideal, universal_ideals
from braidcalc.fixtures import _delta_group, conjugation_star, u_basis_flip_k2
from braidcalc.groups import MultiBraidedGroup
from braidcalc.linalg import LinMap, identity, permutation_map, tensor
from braidcalc.reporting import Report, Verdicts
from braidcalc.scalars import Q
from braidcalc.star import StarGroup, check_star_flip_compat, star_covariance


def test_check_calculus_passes_universal(k2_universal, gr_universal):
    for c in (k2_universal, gr_universal):
        rep = check_calculus(c)
        assert rep.ok_all, [e.id for e in rep.failures()]
        assert rep.passed("EQ_21") and rep.passed("IOTA_L_SURJ") and rep.passed("IOTA_R_SURJ")


def test_check_calculus_passes_zero(k2_zero_calc, gr_zero_calc):
    for c in (k2_zero_calc, gr_zero_calc):
        assert c.gdim == 0
        assert check_calculus(c).ok_all


def test_zero_differential_breaks_surjectivity(k2_universal):
    broken = FirstOrderCalculus(
        k2_universal.group,
        k2_universal.gdim,
        k2_universal.mgl,
        k2_universal.mgr,
        LinMap.zero(k2_universal.gdim, 2),
        name="broken",
    )
    rep = check_calculus(broken)
    assert not rep.passed("IOTA_L_SURJ")
    assert rep["IOTA_L_SURJ"].witness is not None


def test_iota_unit_slot_recovers_differential(k2_universal, gr_universal):
    for c in (k2_universal, gr_universal):
        n = c.group.dim
        assert iota_l(c) @ tensor(c.group.unit, identity(n)) == c.d
        assert iota_r(c) @ tensor(identity(n), c.group.unit) == c.d


def test_iota_on_zero_calculus(k2_zero_calc):
    assert iota_l(k2_zero_calc).is_zero() and iota_r(k2_zero_calc).is_zero()


def test_iota_l_expansion_on_k2(k2_universal):
    # iota_l(d_g (x) d_g) = d_g . d(d_g), expanded through the module action
    il = iota_l(k2_universal)
    dg_dg = [Q(0)] * 4
    dg_dg[3] = Q(1)
    expected = k2_universal.mgl.apply(
        [a * b for a in (Q(0), Q(1)) for b in k2_universal.d.col(1)]
    )
    assert il.apply(dg_dg) == expected


# -- flip solving -------------------------------------------------------------


def test_solve_flip_satisfies_defining_equation(k2_universal, k2_flips):
    c = k2_universal
    rep = check_flip_identities(c, k2_flips["left"][1], k2_flips["right"][1], c.group.braiding, Report())
    assert rep.ok_all, [e.id for e in rep.failures()]
    assert rep.passed("EQ_216") and rep.passed("EQ_232") and rep.passed("EQ_217")


def _counting_solve_flip(monkeypatch) -> list:
    "Wrap `solve_flip` as `flip_for` calls it; the list collects (side, label) per call."
    calls = []
    raw = calculi.solve_flip

    def counted(c, braid, direction="left", label=None):
        calls.append((direction, label))
        return raw(c, braid, direction, label)

    monkeypatch.setattr(calculi, "solve_flip", counted)
    return calls


def _z3_universal() -> FirstOrderCalculus:
    "The universal calculus of functions on Z/3, whose shifted braidings are all one."
    z3 = _delta_group(3, ("d_0", "d_1", "d_2"))
    return reconstruct_from_ideal(z3, universal_ideals(z3)["zero"], Report(), name="universal")


def _k2_sigma_ne_tau(k2, k2_universal) -> FirstOrderCalculus:
    "K2's universal calculus over K2 with the braiding u_basis_flip_k2, whose shifts take two values."
    g = MultiBraidedGroup(k2.alg, k2.coproduct, k2.counit, k2.antipode, u_basis_flip_k2())
    c = k2_universal
    return FirstOrderCalculus(g, c.gdim, c.mgl, c.mgr, c.d, name="universal")


def test_solve_flips_solves_each_distinct_shift_once(monkeypatch, k2, k2_universal):
    k2_braided = _k2_sigma_ne_tau(k2, k2_universal)
    for c, distinct in ((_z3_universal(), 1), (k2_braided, 2)):
        calls = _counting_solve_flip(monkeypatch)
        table = solve_flips(c, 2)
        assert len(calls) == 2 * distinct
        fresh = c.group.uncached_clone()
        for side in ("left", "right"):
            assert sorted(table[side]) == list(range(-4, 5))
            for n, flip in table[side].items():
                assert flip.label == n and flip.direction == side
                assert flip == solve_flip(c, fresh.sigma_n(n), side, label=n)
            assert len({id(f.map) for f in table[side].values()}) == distinct
            assert len({id(f.inverse) for f in table[side].values()}) == distinct


def _perturbed(c: FirstOrderCalculus, field: str, i: int, j: int) -> FirstOrderCalculus:
    "c with 1 added to entry (i, j) of its map `field`."
    f = getattr(c, field)
    rows = [[f.entry(a, b) for b in range(f.dom)] for a in range(f.cod)]
    rows[i][j] = rows[i][j] + Q(1)
    maps = {"mgl": c.mgl, "mgr": c.mgr, "d": c.d, field: LinMap.from_entries(f.cod, f.dom, rows)}
    return FirstOrderCalculus(c.group, c.gdim, name="broken", **maps)


def test_solve_flips_failure_names_the_first_failing_shift(k2, k2_universal):
    # shifts are solved in ascending order, left before right; on K2 every
    # shift is one braid, and under u_basis_flip_k2 the odd shifts share the
    # second braid, whose left flip is the one that fails here
    cases = (
        (_perturbed(k2_universal, "mgr", 0, 3), "right flip for -4:"),
        (_perturbed(_k2_sigma_ne_tau(k2, k2_universal), "mgl", 0, 0), "left flip for -3:"),
    )
    for c, message in cases:
        with pytest.raises(NotCovariant) as caught:
            solve_flips(c, 2)
        assert str(caught.value).startswith(message), str(caught.value)


def test_zero_calculus_flips_trivial(k2_zero_calc):
    s = k2_zero_calc.group.braiding
    f = solve_flip(k2_zero_calc, s, "left", 1)
    r = solve_flip(k2_zero_calc, s, "right", 1)
    assert f.map.dom == 0 and f.map.cod == 0
    assert r.map.dom == 0 and r.map.cod == 0
    rep = Report()
    check_flip_identities(k2_zero_calc, f, r, s, rep)
    assert rep.ok_all


def test_gr_flip_has_sign(gr_universal, gr_flips):
    ls = gr_flips["left"][1].map
    assert ls != permutation_map([1, 0], [gr_universal.gdim, 2])


def test_fake_transposition_flip_fails_battery(gr_universal, gr_flips):
    c = gr_universal
    fake_map = permutation_map([1, 0], [c.gdim, 2])
    fake = FlipOver("left", 1, fake_map, fake_map.inverse())
    rep = Report()
    check_flip_identities(c, fake, gr_flips["right"][1], c.group.braiding, rep)
    fails = {e.id for e in rep.failures()}
    assert "EQ_221" in fails
    assert rep["EQ_221"].witness is not None


def test_flip_identities_full_range(k2_universal, k2_flips, gr_universal, gr_flips):
    for c, flips in ((k2_universal, k2_flips), (gr_universal, gr_flips)):
        rep = Report()
        for n in range(-2, 3):
            check_flip_identities(c, flips["left"][n], flips["right"][n], c.group.sigma_n(n), rep)
        assert rep.ok_all, [e.id for e in rep.failures()]


def _counting_battery(monkeypatch) -> list:
    "Wrap `check_flip_identities` as `_flip_battery` calls it; the list collects the left flip's label per call."
    calls = []
    raw = verify.check_flip_identities

    def counted(c, left, right, braid, rep):
        calls.append(left.label)
        return raw(c, left, right, braid, rep)

    monkeypatch.setattr(verify, "check_flip_identities", counted)
    return calls


def _inverse_solves(calls: list) -> list:
    return [label for _, label in calls if isinstance(label, tuple) and label[0] == "inv"]


def test_flip_battery_runs_once_per_distinct_shift(monkeypatch, k2, k2_universal):
    # Z/3: every shift is one braid with one pair of flips; K2 under
    # u_basis_flip_k2: the even and the odd shifts are two braids; on both,
    # every inverse braid is a shift, whose flips the calculus already holds
    z3_universal = _z3_universal()
    batteries, solves = _counting_battery(monkeypatch), _counting_solve_flip(monkeypatch)
    verify.verify_bundle(Bundle(z3_universal.group, conjugation_star(z3_universal.group), [z3_universal], []))
    assert batteries == [-2]
    assert _inverse_solves(solves) == []
    batteries.clear()
    solves.clear()
    rep = Report(ctx="calculus:universal")
    verify._flip_battery(_k2_sigma_ne_tau(k2, k2_universal), rep, 2)
    assert batteries == [-2, -1]
    assert _inverse_solves(solves) == []
    assert [e.id for e in rep.entries].count("EQ_232") == 5


def test_flip_battery_shares_only_equal_blocks(monkeypatch, k2_universal, k2_flips):
    # every shift of K2 shares one braid and one pair of flips; a perturbed left
    # flip at shift 1 fails its block, so a block keyed by the braid alone
    # would copy passing verdicts to it
    c = k2_universal
    flips = {"left": dict(k2_flips["left"]), "right": dict(k2_flips["right"])}
    orig = flips["left"][1]
    flips["left"][1] = FlipOver("left", 1, orig.map.scale(Q(2)), orig.inverse.scale(Q(1) / Q(2)))
    monkeypatch.setattr(verify, "solve_flips", lambda c, shift_range: flips)
    batteries = _counting_battery(monkeypatch)
    shared = Report(ctx="calculus:universal")
    verify._flip_battery(c, shared, 2)
    assert batteries == [-2, 1]
    direct = Report(ctx="calculus:universal")
    for k in range(-2, 3):
        check_flip_identities(c, flips["left"][k], flips["right"][k], c.group.sigma_n(k), direct)
    block = len(direct.entries) // 5
    assert shared.entries[1 : 1 + len(direct.entries)] == direct.entries
    assert not Report(entries=direct.entries[3 * block : 4 * block]).ok_all
    assert Report(entries=direct.entries[: 3 * block] + direct.entries[4 * block :]).ok_all


def test_flip_battery_inverse_failure_names_each_shift(monkeypatch, k2_universal):
    raw = calculi.flip_for

    def failing(c, braid, side, label):
        if isinstance(label, tuple) and label[0] == "inv":
            raise NotCovariant(f"{side} flip for {label!r}: no factorization")
        return raw(c, braid, side, label)

    monkeypatch.setattr(calculi, "flip_for", failing)
    batteries = _counting_battery(monkeypatch)
    rep = Report(ctx="calculus:universal")
    verify._flip_battery(k2_universal, rep, 2)
    assert batteries == [-2, -1, 0, 1, 2]
    for key, side in (("FLIP_INV_L", "right"), ("FLIP_INV_R", "left")):
        reasons = [e.witness["reason"] for e in rep.entries if e.id == key]
        assert reasons == [f"{side} flip for ('inv', {k}): no factorization" for k in range(-2, 3)]


def test_calculus_section_solves_one_flip_per_side(monkeypatch):
    # on Z/3 every shift, its inverse and its star conjugate are one braid, so
    # the flip table, the FLIP_INV checks and the star battery share two solves
    c = _z3_universal()
    solves = _counting_solve_flip(monkeypatch)
    rep = verify.verify_calculus_section(Bundle(c.group, conjugation_star(c.group), [c], []), c, 2)
    assert {"FLIP_INV_L", "FLIP_INV_R", "EQ_69_n0", "EQ_610_n0"} <= set(rep.ids())
    assert solves == [("left", -4), ("right", -4)]


# -- tau flip -----------------------------------------------------------------


def test_tau_flip_equals_sigma_flip_on_classical(k2_universal, k2_flips, gr_universal, gr_flips):
    for c, flips in ((k2_universal, k2_flips), (gr_universal, gr_flips)):
        rep = Report()
        lt = flip_tau_from_sigma(c, flips["left"][1], rep)
        rt = flip_tau_from_sigma(c, flips["right"][1], rep)
        assert rep.ok_all, [e.id for e in rep.failures()]
        assert lt.map == flips["left"][1].map  # sigma = tau on these fixtures
        assert rt.map == flips["right"][1].map
        assert lt.map == flips["left"][0].map


def test_tau_flip_zero_calculus(k2_zero_calc):
    f = solve_flip(k2_zero_calc, k2_zero_calc.group.braiding, "left", 1)
    rep = Report()
    lt = flip_tau_from_sigma(k2_zero_calc, f, rep)
    assert rep.ok_all and lt.map.cod == 0


# -- multi-covariance ----------------------------------------------------------


def test_multi_covariance_passes(k2_universal, k2_flips, gr_universal, gr_flips):
    for c, flips in ((k2_universal, k2_flips), (gr_universal, gr_flips)):
        rep = Report()
        check_multi_covariance(c, flips, rep)
        assert rep.ok_all, [e.id for e in rep.failures()]
        for key in ("EQ_234_a1_b0_c-1", "EQ_235_a2_b-2_c1", "EQ_242_n1_m-1",
                    "EQ_247_n2", "EQ_236_a-1_b1_c0", "EQ_237_a1_b2_c-2",
                    "EQ_238_a0_b1_c-1", "EQ_246_n-2_m2", "EQ_248_n-1"):
            assert rep.passed(key), key


def test_corrupted_flip_table_fails_coproduct_twisting(gr_universal, gr_flips):
    flips = {"left": dict(gr_flips["left"]), "right": dict(gr_flips["right"])}
    orig = flips["left"][1]
    flips["left"][1] = FlipOver("left", 1, orig.map.scale(Q(2)), orig.inverse.scale(Q(1) / Q(2)))
    rep = Report()
    check_multi_covariance(gr_universal, flips, rep)
    assert not rep.passed("EQ_242_n1_m1")
    assert rep["EQ_242_n1_m1"].witness is not None


def test_multi_covariance_verdicts_match_memo_free_checks(monkeypatch, k2_universal, k2_flips):
    # every shift of K2 shares one flip; a perturbed flip at shift 1 makes some
    # entries of each shared identity fail, so a memo keyed by the shift or by
    # the equation alone would copy a wrong verdict
    c = k2_universal
    flips = {"left": dict(k2_flips["left"]), "right": dict(k2_flips["right"])}
    orig = flips["left"][1]
    flips["left"][1] = FlipOver("left", 1, orig.map.scale(Q(2)), orig.inverse.scale(Q(1) / Q(2)))
    calls = []
    raw = Report.check_eq

    def counted(self, key, lhs, rhs, name="", note=""):
        calls.append(key)
        return raw(self, key, lhs, rhs, name, note)

    monkeypatch.setattr(Report, "check_eq", counted)
    memo = check_multi_covariance(c, flips, Report())
    memo_calls = len(calls)
    monkeypatch.setattr(Verdicts, "check", lambda self, key, maps, run: run(key))
    direct = check_multi_covariance(c, flips, Report())
    assert memo.entries == direct.entries
    assert memo_calls < len(calls) - memo_calls == len(direct.entries)
    fails = {e.id for e in memo.failures()}
    assert {"EQ_242_n1_m1", "EQ_234_a1_b0_c1", "EQ_247_n1"} <= fails
    assert {"EQ_242_n0_m0", "EQ_234_a1_b1_c1", "EQ_247_n0"}.isdisjoint(fails)
    assert all(e.witness is not None for e in memo.failures())


def test_batteries_read_their_window_from_the_flip_table(k2, k2_universal, k2_lcd, k2_rcd):
    # a table solved over [-2K, 2K] sets the window [-K, K] of every battery that takes it
    c = k2_universal
    sg = StarGroup(k2, conjugation_star(k2))
    star_gamma = star_covariance(k2_lcd, sg, Report())
    for K in (1, 2, 3):
        flips = solve_flips(c, K)
        assert calculi.flip_window(flips) == range(-K, K + 1)
        rep = Report()
        check_multi_covariance(c, flips, rep)
        check_bicovariance(k2_lcd, k2_rcd, flips, rep)
        check_kappa_covariance(c, rep, flips=flips)
        check_star_flip_compat(c, flips, sg, star_gamma, rep)
        assert rep.ok_all, [e.id for e in rep.failures()]
        w = 2 * K + 1
        counts = {key: sum(e.id.startswith(key + "_") for e in rep.entries)
                  for key in ("EQ_235", "EQ_242", "EQ_44A", "EQ_55", "EQ_69")}
        assert counts == {"EQ_235": w**3, "EQ_242": w**2, "EQ_44A": w**2, "EQ_55": w, "EQ_69": w}, K


def test_multi_covariance_vacuous_on_zero_calculus(k2_zero_calc):
    flips = solve_flips(k2_zero_calc, 2)
    rep = Report()
    check_multi_covariance(k2_zero_calc, flips, rep)
    assert rep.ok_all
