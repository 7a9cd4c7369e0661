"""Top-level verification pipelines over bundles.

A full `verify_bundle` run checks the group record, every calculus
section with the complete covariance battery, and every ideal section
(closure, validity, reconstruction round-trip, bicovariance criterion).
Sections run one after another in a fixed order, so identical input
yields an identical report.
"""

from __future__ import annotations

from .bicovariance import (
    AdNotDescending,
    NotKappaCovariant,
    check_bicovariance,
    check_kappa0,
    check_kappa_covariance,
    ideal_bicovariance_test,
    kappa_iff_bicovariant,
    right_action_from_ad,
)
from .bundles import Bundle
from .calculi import (
    FirstOrderCalculus,
    NotBijective,
    NotCovariant,
    check_calculus,
    check_flip_identities,
    check_multi_covariance,
    flip_tau_from_sigma,
    solve_flips,
)
from .covariance import (
    IdealInvalid,
    NotLeftCovariant,
    NotRightCovariant,
    SigmaStarSingular,
    check_reconstruction,
    close_left_ideal,
    close_right_ideal,
    flip_from_actions,
    flip_from_right_action,
    left_trivialization,
    reconstruct_from_ideal,
    reconstruct_right_from_ideal,
    right_covariant_trivializations,
    right_trivialization,
    solve_left_action,
    solve_right_action,
)
from .groups import (
    SIGMA_CAP,
    BraidSystem,
    Completion,
    InternalInconsistency,
    MultiBraidedGroup,
    adjoint_action,
    check_adjoint,
    check_group,
    complete_braid_system,
    explore_antipode_shifts,
    kappa0,
    simplified_algebra,
)
from .linalg import LinMap
from .reporting import Report
from .star import NotStarCovariant, StarGroup, check_star_flip_compat, check_star_group, star_covariance

# the flip table over the window [-K, K] reads sigma_n up to |n| = 2K
MAX_SHIFT_RANGE = SIGMA_CAP // 2


def verify_group_section(bundle: Bundle, shift_range: int = 2, paranoid: bool = False) -> Report:
    rep = Report(ctx="group")
    g = bundle.group
    check_group(g, rep, shift_range=shift_range, paranoid=paranoid)
    if not rep.ok_all:
        return rep
    check_kappa0(g, rep)
    check_adjoint(g, rep, shift_range=shift_range)
    _antipode_shifts(g, shift_range, rep)
    if bundle.star is not None:
        check_star_group(StarGroup(g, bundle.star), rep, shift_range=shift_range)
    return rep


def verify_calculus_section(bundle: Bundle, c: FirstOrderCalculus, shift_range: int = 2) -> Report:
    rep = Report(ctx=f"calculus:{c.name}")
    g = bundle.group
    check_calculus(c, rep)
    flips = _flip_battery(c, rep, shift_range, f"left/right flips for shifts in [-{2*shift_range}, {2*shift_range}]")
    lcd = _solve_action(c, "left", rep, flips)
    rcd = _solve_action(c, "right", rep, flips)
    right_triv = None
    if lcd is not None and flips is not None:
        flip_from_actions(c, lcd, rep, flips=flips)
        left_trivialization(c, lcd, rep)
        try:
            right_triv = right_trivialization(c, lcd, rep)
        except SigmaStarSingular as exc:
            rep.fail("SIGMA_STAR_SINGULAR", {"reason": str(exc)})
    if rcd is not None and flips is not None:
        flip_from_right_action(c, rcd, rep, flips=flips)
        try:
            right_covariant_trivializations(c, rcd, rep)
        except SigmaStarSingular as exc:
            rep.fail("STAR_SIGMA_SINGULAR", {"reason": str(exc)})
    if lcd is not None and rcd is not None and flips is not None:
        check_bicovariance(c, lcd, rcd, flips, rep, shift_range)
    if rcd is not None and right_triv is not None:
        try:
            right_action_from_ad(g, lcd, rcd, right_triv, rep)
        except AdNotDescending as exc:
            rep.fail("AD_NOT_DESCENDING", {"reason": str(exc)})
    kd = None
    if lcd is not None:
        kappa_cov = True
        try:
            kd = check_kappa_covariance(c, rep, lcd=lcd, rcd=rcd, flips=flips, shift_range=shift_range)
        except NotKappaCovariant as exc:  # the decision entry already records the failure and witness
            kappa_cov = exc.kernels_agree
        kappa_iff_bicovariant(lcd, rcd, rep, kappa_cov)
    if bundle.star is not None and lcd is not None:
        sg = StarGroup(g, bundle.star)
        try:
            star_gamma = star_covariance(c, lcd, sg, rep, rcd=rcd, kappa_data=kd, flips=flips)
            if flips is not None:
                check_star_flip_compat(c, flips, sg, star_gamma, rep, shift_range)
        except NotStarCovariant:
            pass  # STARKAPPA_IDEAL already carries the witness
    return rep


def _flip_battery(c: FirstOrderCalculus, rep: Report, shift_range: int, note: str = ""):
    """Solve the flip table and check every flip identity; the table, or None when a flip is missing.

    The battery of a shift is checked once per distinct braiding and pair
    of flips, keyed by the values of the braid and of both flips and their
    inverses, and its entries, which name no shift, are added again at each
    shift that shares them.  A failing FLIP_INV entry may name its shift,
    so its block is checked at every shift.
    """
    g = c.group
    try:
        flips = solve_flips(c, shift_range)
    except NotCovariant as exc:
        rep.fail("NOT_SIGMA_COVARIANT", {"reason": str(exc)})
        return None
    except NotBijective as exc:
        rep.fail("FLIP_NOT_BIJECTIVE", {"reason": str(exc)})
        return None
    rep.ok("FLIPS_SOLVED", note=note)
    blocks: dict = {}
    for k in range(-shift_range, shift_range + 1):
        left, right, sk = flips["left"][k], flips["right"][k], g.sigma_n(k)
        key = (sk, left.map, left.inverse, right.map, right.inverse)
        block = blocks.get(key)
        if block is None:
            block = check_flip_identities(c, left, right, sk, Report(ctx=rep.ctx))
            if block.passed("FLIP_INV_L") and block.passed("FLIP_INV_R"):
                blocks[key] = block
        rep.extend(block)
    flip_tau_from_sigma(c, flips["left"][1], rep)
    flip_tau_from_sigma(c, flips["right"][1], rep)
    check_multi_covariance(c, flips, rep, shift_range)
    return flips


def _solve_action(c: FirstOrderCalculus, side: str, rep: Report, flips: dict | None = None):
    "The solved action on `side`, or None after recording that the calculus is not covariant there."
    try:
        if side == "left":
            return solve_left_action(c, rep, flips=flips)
        return solve_right_action(c, rep, flips=flips)
    except NotLeftCovariant as exc:
        rep.fail("NOT_LEFT_COVARIANT", {"reason": str(exc)})
    except NotRightCovariant as exc:
        rep.fail("NOT_RIGHT_COVARIANT", {"reason": str(exc)})
    return None


def verify_ideal_section(bundle: Bundle, name: str, vectors) -> Report:
    rep = Report(ctx=f"ideal:{name}")
    g = bundle.group
    try:
        closed = close_right_ideal(g, vectors)
        rep.ok("IDEAL_CLOSURE", note=f"closure has dimension {closed.dim}")
    except IdealInvalid as exc:
        rep.fail("IDEAL_CLOSURE", {"reason": str(exc)})
        return rep
    try:
        calc = reconstruct_from_ideal(g, closed, rep, name=f"{name}-left", verify=False)
        lcd = check_reconstruction(calc, closed, rep)
        rep.check_space_eq("ROUNDTRIP_EXTRACT", lcd.ideal, closed)
    except (IdealInvalid, NotLeftCovariant, InternalInconsistency) as exc:
        rep.fail("RECONSTRUCTION_LEFT", {"reason": str(exc)})
    ideal_bicovariance_test(g, closed, rep)
    try:
        closed_left = close_left_ideal(g, vectors)
        reconstruct_right_from_ideal(g, closed_left, rep, name=f"{name}-right")
    except (IdealInvalid, NotRightCovariant, InternalInconsistency) as exc:
        rep.fail("RECONSTRUCTION_RIGHT", {"reason": str(exc)})
    return rep


_GROUP_FATAL = ("ALG_ASSOC", "ALG_UNIT_L", "ALG_UNIT_R", "SIGMA_INVERTIBLE", "KAPPA_INVERTIBLE", "TAU_OK")


def _guarded(ctx: str, fn):
    "Run one section, converting derivation blowups into a failing entry."
    from .groups import Kappa0Mismatch, TauMismatch, TauSingular
    from .linalg import NotInvertible

    try:
        return fn()
    except (TauMismatch, TauSingular, Kappa0Mismatch, NotInvertible, InternalInconsistency) as exc:
        rep = Report(ctx=ctx)
        rep.fail("SECTION_ABORTED", {"reason": str(exc)})
        return rep


def _check_shift_range(shift_range: int):
    "The flip identities read the flips at shifts 1, -1 and -2, and sigma_n stops at SIGMA_CAP."
    if not 1 <= shift_range <= MAX_SHIFT_RANGE:
        raise ValueError(f"shift range must be between 1 and {MAX_SHIFT_RANGE}, got {shift_range}")


def verify_bundle(bundle: Bundle, shift_range: int = 2, paranoid: bool = False) -> Report:
    _check_shift_range(shift_range)
    out = Report()
    group_rep = _guarded("group", lambda: verify_group_section(bundle, shift_range, paranoid))
    out.extend(group_rep)
    failed = {e.id for e in group_rep.failures()}
    if failed & set(_GROUP_FATAL) or "SECTION_ABORTED" in failed:
        for c in bundle.calculi:
            out.add_skip_section(f"calculus:{c.name}")
        for name, _ in bundle.ideals:
            out.add_skip_section(f"ideal:{name}")
        return out
    for c in bundle.calculi:
        out.extend(_guarded(f"calculus:{c.name}", lambda: verify_calculus_section(bundle, c, shift_range)))
    for name, vectors in bundle.ideals:
        out.extend(_guarded(f"ideal:{name}", lambda: verify_ideal_section(bundle, name, vectors)))
    return out


def run_covariance_mode(bundle: Bundle, mode: str, shift_range: int = 2) -> Report:
    "Targeted decision procedures for one aspect of covariance."
    _check_shift_range(shift_range)
    rep = Report(ctx=f"covariance:{mode}")
    g = bundle.group
    if mode == "star" and bundle.star is None:
        raise IdealInvalid("bundle carries no star structure")
    if not bundle.calculi and mode != "star":
        rep.skip("NO_CALCULI", note="bundle has no calculus sections")
    if mode == "star":
        sg = StarGroup(g, bundle.star)
        rep.extend(_guarded(rep.ctx, lambda: check_star_group(sg, Report(ctx=rep.ctx), shift_range)))
    for c in bundle.calculi:
        sub = _guarded(f"covariance:{mode}:{c.name}", lambda c=c: _covariance_one(bundle, c, mode, shift_range))
        rep.extend(sub)
    if mode == "braided":
        rep.extend(_guarded(rep.ctx, lambda: _antipode_shifts(g, shift_range, Report(ctx=rep.ctx))))
    return rep


def _antipode_shifts(g: MultiBraidedGroup, shift_range: int, rep: Report) -> Report:
    "Add the exploratory ANTIPODE_BRAID_SHIFTS entry to `rep`."
    shifts = explore_antipode_shifts(g, shift_range)
    rep.skip(
        "ANTIPODE_BRAID_SHIFTS",
        note="exploratory, nothing asserted: " + "; ".join(f"n={k} matches m in {v}" for k, v in shifts.items()),
    )
    return rep


def _covariance_one(bundle: Bundle, c: FirstOrderCalculus, mode: str, shift_range: int) -> Report:
    g = bundle.group
    sub = Report(ctx=f"covariance:{mode}:{c.name}")
    check_calculus(c, sub)
    if mode in ("left", "right"):
        _solve_action(c, mode, sub)
    elif mode == "bi":
        lcd = _solve_action(c, "left", sub)
        rcd = _solve_action(c, "right", sub)
        if lcd is not None and rcd is not None:
            try:
                flips = solve_flips(c, shift_range)
                check_bicovariance(c, lcd, rcd, flips, sub, shift_range)
            except (NotCovariant, NotBijective) as exc:
                sub.fail("NOT_SIGMA_COVARIANT", {"reason": str(exc)})
            ideal_bicovariance_test(g, lcd.ideal, sub)
    elif mode == "kappa":
        kappa_cov = True
        try:
            check_kappa_covariance(c, sub, shift_range=shift_range)
        except NotKappaCovariant as exc:
            kappa_cov = exc.kernels_agree
        lcd = _solve_action(c, "left", Report())
        rcd = _solve_action(c, "right", Report()) if lcd is not None else None
        kappa_iff_bicovariant(lcd, rcd, sub, kappa_cov)
    elif mode == "star":
        lcd = _solve_action(c, "left", sub)
        if lcd is not None:
            try:
                star_covariance(c, lcd, StarGroup(g, bundle.star), sub)
            except NotStarCovariant:
                pass
    elif mode == "braided":
        _flip_battery(c, sub, shift_range)
    else:
        raise ValueError(f"unknown covariance mode {mode!r}")
    return sub


def derive_map(bundle: Bundle, what: str, n: int = 1) -> LinMap:
    g = bundle.group
    if what == "tau":
        return g.tau
    if what == "sigma-n":
        return g.sigma_n(n)
    if what == "a0":
        return simplified_algebra(g).mult
    if what == "kappa0":
        return kappa0(g)
    if what == "ad":
        return adjoint_action(g)
    raise ValueError(f"unknown derivation {what!r}")


def complete_system(bundle: Bundle, max_elems: int = 64) -> Completion:
    g = bundle.group
    return complete_braid_system(BraidSystem.of(g.dim, [g.braiding, g.tau]), max_elems)


def build_calculus(bundle: Bundle, ideal_name: str, side: str = "left") -> tuple[Bundle, Report]:
    "Reconstruct the calculus for a named ideal and append it to the bundle."
    rep = Report(ctx=f"build:{ideal_name}:{side}")
    match = [vectors for name, vectors in bundle.ideals if name == ideal_name]
    if not match:
        raise KeyError(f"no ideal named {ideal_name!r} in bundle")
    g = bundle.group
    if side == "left":
        closed = close_right_ideal(g, match[0])
        calc = reconstruct_from_ideal(g, closed, rep, name=f"{ideal_name}-{side}")
    elif side == "right":
        closed = close_left_ideal(g, match[0])
        calc = reconstruct_right_from_ideal(g, closed, rep, name=f"{ideal_name}-{side}")
    else:
        raise ValueError("side must be 'left' or 'right'")
    rep.ok("IDEAL_CLOSURE", note=f"closure has dimension {closed.dim}")
    out = Bundle(bundle.group, bundle.star, list(bundle.calculi) + [calc], list(bundle.ideals))
    return out, rep
