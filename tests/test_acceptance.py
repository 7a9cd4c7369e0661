"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact: every comparison is zero-residual
equality in Q(i); no floating point is involved anywhere.
"""

import json
import time
from pathlib import Path

import pytest

from braidcalc.bundles import bundle_digest, emit_report, parse_bundle
from braidcalc.calculi import FirstOrderCalculus, iota_l, iota_r
from braidcalc.covariance import (
    NotLeftCovariant,
    NotRightCovariant,
    calculi_isomorphic,
    close_right_ideal,
    extract_ideal,
    reconstruct_from_ideal,
    solve_left_action,
    solve_right_action,
    universal_ideals,
)
from braidcalc.fixtures import conjugation_star, fix_gr, fix_k2, fix_k4, fix_one
from braidcalc.groups import MultiBraidedGroup, check_group
from braidcalc.linalg import LinMap, Subspace, compose, identity, permutation_map, tensor
from braidcalc.reporting import Report
from braidcalc.star import NotStarCovariant, StarGroup, star_covariance
from braidcalc.verify import verify_bundle

from oracles import kron, mat_mul, mat_vec, q_rows

BUNDLE_DIR = Path(__file__).resolve().parent.parent / "bundles"

GROUP_ENTRY_KEYS = (
    "ALG_ASSOC", "ALG_UNIT_L", "ALG_UNIT_R", "COASSOC", "COUNIT_L", "COUNIT_R",
    "ANTIPODE_L", "ANTIPODE_R", "SIGMA_YB", "HEX_L", "HEX_R", "PHI_MULT",
    "TAU_OK", "SYS_OK", "EPS_SIGMA",
)

# every numbered identity the engine claims to check, as stable key prefixes
EQUATION_CATALOG = (
    "EQ_21",
    "EQ_29", "EQ_210",
    "EQ_216", "EQ_217", "EQ_218A", "EQ_218B", "EQ_220", "EQ_221", "EQ_222",
    "EQ_223", "EQ_226A", "EQ_226B", "EQ_227", "EQ_228", "EQ_229", "EQ_230",
    "EQ_232", "EQ_234", "EQ_235", "EQ_236", "EQ_237", "EQ_238", "EQ_239",
    "EQ_240", "EQ_241", "EQ_242", "EQ_243", "EQ_244", "EQ_245", "EQ_246",
    "EQ_247", "EQ_248",
    "EQ_31", "EQ_32", "EQ_33", "EQ_34", "EQ_35", "EQ_36", "EQ_37", "EQ_38",
    "EQ_39", "EQ_310", "EQ_311", "EQ_312", "EQ_313", "EQ_314", "EQ_315",
    "EQ_316", "EQ_317", "EQ_318", "EQ_319", "EQ_320", "EQ_321", "EQ_322",
    "EQ_323", "EQ_324", "EQ_325", "EQ_326", "EQ_327", "EQ_328A", "EQ_328B",
    "EQ_332", "EQ_333", "EQ_334",
    "EQ_41", "EQ_43A", "EQ_43B", "EQ_44A", "EQ_44B", "EQ_45A", "EQ_45B",
    "EQ_46A", "EQ_46B", "EQ_47", "EQ_48", "EQ_49", "EQ_410",
    "EQ_51", "EQ_52", "EQ_53", "EQ_55", "EQ_56", "EQ_57", "EQ_58", "EQ_59",
    "EQ_510", "EQ_511", "EQ_512A", "EQ_512B", "EQ_513A", "EQ_513B",
    "EQ_514A", "EQ_514B", "EQ_515A", "EQ_515B", "EQ_516A", "EQ_516B",
    "EQ_62", "EQ_69", "EQ_610", "EQ_B32", "EQ_B33", "EQ_B34", "EQ_B35",
    "EQ_B36", "EQ_B37", "EQ_613", "EQ_614", "EQ_615", "EQ_616", "EQ_617",
    "EQ_A1", "EQ_A2", "EQ_A3", "EQ_A4", "EQ_A5", "EQ_A6", "EQ_A7", "EQ_A8",
    "EQ_A9", "EQ_A10", "EQ_A11", "EQ_A12", "EQ_A14", "EQ_A16A", "EQ_A16B",
    "EQ_A17", "EQ_A18", "EQ_A19", "EQ_A20", "EQ_A21", "EQ_A22", "EQ_A23",
    "EQ_A24A", "EQ_A24B", "EQ_A25",
    "EQ_B1", "EQ_B2A", "EQ_B2B", "EQ_B3", "EQ_B4", "EQ_B7", "EQ_B8",
)


def _verdict(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _matches(key: str, entry_id: str, entry_name: str) -> bool:
    for label in (entry_id, entry_name):
        if label == key or label.startswith(key + "_"):
            return True
    return False


@pytest.fixture(scope="module")
def full_reports():
    out = {}
    for name in ("fix_1", "fix_k2", "fix_gr"):
        bundle = parse_bundle((BUNDLE_DIR / f"{name}.json").read_text())
        t0 = time.perf_counter()
        report = verify_bundle(bundle, shift_range=2)
        out[name] = (bundle, report, time.perf_counter() - t0)
    return out


def test_criterion_1_axiom_suite(full_reports):
    ok = True
    details = []
    for name in ("fix_1", "fix_k2", "fix_gr"):
        _, report, elapsed = full_reports[name]
        group_entries = [e for e in report.entries if e.ctx == "group"]
        for key in GROUP_ENTRY_KEYS:
            hit = [e for e in group_entries if e.id == key or e.id.startswith(key)]
            if not hit or any(e.status == "fail" for e in hit):
                ok = False
                details.append(f"{name}:{key}")
        if elapsed >= 1.0:
            ok = False
            details.append(f"{name} took {elapsed:.2f}s")
        details.append(f"{name} {elapsed*1000:.0f}ms")
    _verdict("1 axiom-suite", ok, "; ".join(details))


def test_criterion_2_classical_limit():
    ok = True
    details = []
    for name, make in (("fix_k2", fix_k2), ("fix_gr", fix_gr)):
        g = make()
        sigma_eq_tau = g.tau == g.braiding
        shifts = all(g.sigma_n(n) == g.braiding for n in range(-4, 5))
        m0 = compose(g.mult, g.tau_inv, g.braiding)
        reduced = m0 == g.mult
        rep = check_group(g)
        entry = rep["CLASSICAL_REDUCTION"]
        ok = ok and sigma_eq_tau and shifts and reduced and entry.status == "pass"
        details.append(f"{name}: sigma=tau {sigma_eq_tau}, shifts collapse {shifts}, m0=m {reduced}")
    _verdict("2 classical-limit", ok, "; ".join(details))


def test_criterion_3_reconstruction_roundtrip():
    ok = True
    details = []
    for name, make in (("fix_1", fix_one), ("fix_k2", fix_k2), ("fix_gr", fix_gr), ("fix_k4", fix_k4)):
        g = make()
        ideals = dict(universal_ideals(g))
        if name == "fix_k4":
            ideals["d1"] = close_right_ideal(g, [[0, 1, 0, 0]])
        for ideal_name, ideal in ideals.items():
            calc = reconstruct_from_ideal(g, ideal, Report())
            lcd = solve_left_action(calc, Report())
            back = extract_ideal(lcd)
            if back != ideal:
                ok = False
                details.append(f"{name}:{ideal_name} ideal roundtrip broken")
                continue
            rebuilt = reconstruct_from_ideal(g, back, Report())
            iso = calculi_isomorphic(calc, rebuilt)
            if iso is None:
                ok = False
                details.append(f"{name}:{ideal_name} no intertwiner")
                continue
            n = g.dim
            residuals = (
                iso @ calc.d - rebuilt.d,
                iso @ calc.mgl - rebuilt.mgl @ tensor(identity(n), iso),
                iso @ calc.mgr - rebuilt.mgr @ tensor(iso, identity(n)),
            )
            if not all(r.is_zero() for r in residuals):
                ok = False
                details.append(f"{name}:{ideal_name} intertwiner residual nonzero")
    _verdict("3 reconstruction-roundtrip", ok, "; ".join(details) or "all ideals round-trip")


def test_criterion_4_dimension_law():
    ok = True
    details = []
    for name, make in (("fix_k2", fix_k2), ("fix_gr", fix_gr), ("fix_k4", fix_k4)):
        g = make()
        kere = g.counit.kernel()
        cases = dict(universal_ideals(g))
        if name == "fix_k4":
            cases["d1"] = close_right_ideal(g, [[0, 1, 0, 0]])
        for ideal_name, ideal in cases.items():
            calc = reconstruct_from_ideal(g, ideal, Report())
            lcd = solve_left_action(calc, Report())
            expected = kere.dim - ideal.dim
            if lcd.inv_dim != expected:
                ok = False
            if name == "fix_k2":
                details.append(f"k2:{ideal_name} dim {lcd.inv_dim}")
    k2_dims = {d.split()[-1] for d in details}
    ok = ok and k2_dims == {"1", "0"}
    _verdict("4 dimension-law", ok, "; ".join(details))


def test_criterion_5_identity_suite_coverage(full_reports):
    t0 = time.perf_counter()
    entries = []
    for name in ("fix_k2", "fix_gr"):
        _, report, _ = full_reports[name]
        entries.extend(report.entries)
    # non-vacuous pool: the group record, a calculus with gdim > 0, and the
    # full ker(eps) ideal (nonzero), across both fixtures
    nonvacuous = [e for e in entries if e.ctx in ("group", "calculus:universal", "ideal:keps")]
    ok = True
    missing, failing = [], []
    for key in EQUATION_CATALOG:
        hits_nv = [e for e in nonvacuous if _matches(key, e.id, e.name)]
        hits_all = [e for e in entries if _matches(key, e.id, e.name)]
        if not hits_nv:
            ok = False
            missing.append(key)
        if any(e.status == "fail" for e in hits_all):
            ok = False
            failing.append(key)
    elapsed = time.perf_counter() - t0
    total = sum(full_reports[n][2] for n in ("fix_1", "fix_k2", "fix_gr")) + elapsed
    if total >= 30.0:
        ok = False
    detail = f"{len(EQUATION_CATALOG)} equation keys, suite {total:.1f}s"
    if missing:
        detail += f"; missing: {missing}"
    if failing:
        detail += f"; failing: {failing}"
    _verdict("5 identity-suite-coverage", ok, detail)


def test_criterion_6_decision_equivalences():
    ok = True
    details = []

    def kappa_decision(c):
        g = c.group
        tw = compose(iota_r(c), tensor(g.antipode, g.antipode), g.sigma_n(-2))
        return iota_l(c).kernel() == tw.kernel()

    def bicov_decision(c):
        try:
            solve_left_action(c, Report())
            solve_right_action(c, Report())
            return True
        except (NotLeftCovariant, NotRightCovariant):
            return False

    # positive cases and the corrupted-sigma group (decisions still agree;
    # the corruption is flagged by the axiom suite instead)
    k2, gr, k4 = fix_k2(), fix_gr(), fix_k4()
    cases = []
    for g in (k2, gr):
        for ideal in universal_ideals(g).values():
            cases.append(reconstruct_from_ideal(g, ideal, Report()))
    cases.append(reconstruct_from_ideal(k4, close_right_ideal(k4, [[0, 1, 0, 0]]), Report()))
    bad_group = MultiBraidedGroup(gr.alg, gr.coproduct, gr.counit, gr.antipode, permutation_map([1, 0], [2, 2]))
    assert not check_group(bad_group).ok_all  # corruption caught upstream
    cases.append(reconstruct_from_ideal(bad_group, Subspace.zero(2), Report(), verify=False))
    # corrupted module action: both decisions must flip to False together
    base = cases[0]
    from braidcalc.scalars import Q

    rows = [[base.mgl.entry(i, j) for j in range(4)] for i in range(2)]
    rows[0][1] = rows[0][1] + Q(1)
    cases.append(FirstOrderCalculus(k2, 2, LinMap.from_entries(2, 4, rows), base.mgr, base.d, name="broken-mgl"))
    # a genuine negative from valid data: over the i-graded line the
    # t^2 ideal calculus is left-covariant but not bicovariant
    from braidcalc.fixtures import fix_anyon

    anyon = fix_anyon()
    t2 = close_right_ideal(anyon, [[0, 0, 1, 0]])
    anyon_calc = reconstruct_from_ideal(anyon, t2, Report(), name="anyon-t2")
    cases.append(anyon_calc)

    for c in cases:
        a, b = kappa_decision(c), bicov_decision(c)
        if a != b:
            ok = False
        details.append(f"{c.name}: kappa {a} / bicov {b}")

    # adjoint criterion versus right-action solvability on every fixture ideal
    from braidcalc.bicovariance import ideal_bicovariance_test

    for g in (k2, gr, k4):
        for ideal in universal_ideals(g).values():
            calc = reconstruct_from_ideal(g, ideal, Report())
            crit = ideal_bicovariance_test(g, ideal, Report()).ok_all
            solvable = bicov_decision(calc)
            if crit != solvable:
                ok = False
            details.append(f"ad-criterion {crit} / solvable {solvable}")

    # star-covariance versus ideal stability, with the engineered negative
    star4 = StarGroup(k4, conjugation_star(k4))
    for ideal_name, gens in (("d1", [[0, 1, 0, 0]]), ("d2", [[0, 0, 1, 0]])):
        ideal = close_right_ideal(k4, gens)
        calc = reconstruct_from_ideal(k4, ideal, Report())
        lcd = solve_left_action(calc, Report())
        sk = star4.star @ k4.antipode
        stable = all(lcd.ideal.contains(sk.apply(v)) for v in lcd.ideal.basis)
        try:
            star_covariance(lcd, star4, Report())
            covariant = True
        except NotStarCovariant:
            covariant = False
        if stable != covariant:
            ok = False
        details.append(f"k4:{ideal_name} star {covariant} / stable {stable}")
        if ideal_name == "d1" and covariant:
            ok = False  # the engineered negative must actually be negative
    _verdict("6 decision-equivalences", ok, "; ".join(details[-4:]))


def test_criterion_7_negative_witness_quality():
    ok = True
    details = []

    # engineered failure 1: unsigned flip on the Grassmann line breaks
    # coproduct multiplicativity; reproduce the residual independently
    gr = fix_gr()
    bad = MultiBraidedGroup(gr.alg, gr.coproduct, gr.counit, gr.antipode, permutation_map([1, 0], [2, 2]))
    rep = check_group(bad)
    entry = rep["PHI_MULT"]
    ok = ok and entry.status == "fail" and entry.witness is not None
    w = entry.witness
    # independent brute force: both sides assembled with plain loops
    mult = [list(r) for r in q_rows(bad.mult)]
    cop = [list(r) for r in q_rows(bad.coproduct)]
    sig = [list(r) for r in q_rows(bad.braiding)]
    eye = [list(r) for r in q_rows(identity(2))]
    lhs = mat_mul(cop, mult, 4)
    rhs = mat_mul(mat_mul(kron(mult, mult), kron(kron(eye, sig), eye), 16), kron(cop, cop), 4)
    from braidcalc.scalars import Q

    vec = [Q.parse(x) for x in w["input"]]
    residual = [a - b for a, b in zip(mat_vec(lhs, vec), mat_vec(rhs, vec))]
    ok = ok and any(residual)
    reported = [Q.parse(a) - Q.parse(b) for a, b in zip(w["lhs"], w["rhs"])]
    ok = ok and residual == reported
    details.append("PHI_MULT residual reproduced by brute force")

    # engineered failure 2: corrupted associativity carries a basis triple
    k2 = fix_k2()
    from braidcalc.algebras import FiniteDimAlgebra, check_algebra

    rows = [[k2.mult.entry(i, j) for j in range(4)] for i in range(2)]
    rows[1][2] = Q(1)
    bad_alg = FiniteDimAlgebra(2, k2.unit, LinMap.from_entries(2, 4, rows), ("d_e", "d_g"))
    rep2 = check_algebra(bad_alg)
    e2 = rep2["ALG_ASSOC"]
    ok = ok and e2.status == "fail"
    m2 = [list(r) for r in q_rows(bad_alg.mult)]
    lhs2 = mat_mul(m2, kron(m2, eye), 8)
    rhs2 = mat_mul(m2, kron(eye, m2), 8)
    vec2 = [Q.parse(x) for x in e2.witness["input"]]
    res2 = [a - b for a, b in zip(mat_vec(lhs2, vec2), mat_vec(rhs2, vec2))]
    ok = ok and any(res2)
    ok = ok and res2 == [Q.parse(a) - Q.parse(b) for a, b in zip(e2.witness["lhs"], e2.witness["rhs"])]
    details.append("ALG_ASSOC residual reproduced; witness " + e2.note)
    _verdict("7 negative-witness-quality", ok, "; ".join(details))


def test_criterion_8_determinism():
    bundle = parse_bundle((BUNDLE_DIR / "fix_k2.json").read_text())
    r1 = verify_bundle(bundle, shift_range=2)
    r2 = verify_bundle(bundle, shift_range=2)
    t1 = emit_report(r1, "0.1.0", bundle_digest(bundle))
    t2 = emit_report(r2, "0.1.0", bundle_digest(bundle))
    ok = t1 == t2
    digest = json.loads(t1)["input_digest"]
    _verdict("8 determinism", ok, f"reports byte-identical; {digest[:18]}...")
