"""Group-covariant structure of first-order calculi.

Left covariance means the coaction of the group on one-forms exists; it is
solved by factoring through iota_l.  From the solved action the module
derives the invariant projection P, the space of invariant forms, the
quotient differential pi, the classifying ideal R = ker(pi) & ker(eps),
the common invariant flip restriction sigma_star and the invariant right
multiplication circ, together with both module trivializations and the
ideal-to-calculus reconstruction (and all their mirror versions).

The ideal conditions, the invariant flip restriction, the action-built flip
and the reconstruction are written once, for the left side, through
`sided_tensor`, and the left action and the reconstruction share one copy
of the circ laws EQ_332-EQ_334; the other mirror versions stay twins
because their report entries differ in set, order, notes or sides of an
equation.
"""

from __future__ import annotations

from collections import namedtuple

from .calculi import (
    FirstOrderCalculus,
    check_calculus,
    flip_window,
    iota_l,
    iota_r,
    sided_tensor,
)
from .groups import InternalInconsistency, MultiBraidedGroup
from .linalg import (
    LinMap,
    NoFactor,
    NotInvertible,
    Subspace,
    compose,
    factor_through,
    identity,
    quotient,
    solve_right,
    tensor,
)
from .reporting import PASS, Report, Verdicts


class NotLeftCovariant(ValueError):
    pass


class NotRightCovariant(ValueError):
    pass


class SigmaStarSingular(ValueError):
    pass


class IdealInvalid(ValueError):
    "An ideal precondition failed; the message names the precondition."


def coords_in(incl: LinMap, target: LinMap) -> LinMap:
    "Solve incl @ X = target; the target must land in the included subspace."
    x = solve_right(incl, target)
    if x is None:
        raise InternalInconsistency("map does not land in the expected subspace")
    return x


class LeftCovariantData(
    namedtuple("LeftCovariantData", "calculus action inv_space incl proj_coords pi pi_hat ideal sigma_star circ")
):
    "What solve_left_action derives from a left-covariant calculus."

    __slots__ = ()

    @property
    def inv_dim(self) -> int:
        return self.pi.cod


class RightCovariantData(
    namedtuple("RightCovariantData", "calculus action inv_space incl proj_coords zeta zeta_hat ideal star_sigma bullet")
):
    "What solve_right_action derives from a right-covariant calculus."

    __slots__ = ()

    @property
    def inv_dim(self) -> int:
        return self.zeta.cod


def solve_left_action(c: FirstOrderCalculus, report: Report | None = None, flips: dict | None = None) -> LeftCovariantData:
    rep = report if report is not None else Report()
    g = c.group
    n, gd = g.dim, c.gdim
    I, Ig = identity(n), identity(gd)
    m, unit, phi, eps, kap, s = g.mult, g.unit, g.coproduct, g.counit, g.antipode, g.braiding
    mgl, mgr, d = c.mgl, c.mgr, c.d
    il, ir = iota_l(c), iota_r(c)
    m0 = g.m0

    I_s_I, phi_phi = tensor(I, s, I), tensor(phi, phi)
    rhs = compose(tensor(m, il), I_s_I, phi_phi)
    try:
        act = factor_through(il, rhs)
    except NoFactor as exc:
        raise NotLeftCovariant(str(exc)) from exc
    rep.check_eq("EQ_32", act @ il, rhs, note="defining equation of the left action")
    mirror = compose(tensor(m, ir), I_s_I, phi_phi)
    if not rep.check_eq("EQ_35", act @ ir, mirror):
        raise NotLeftCovariant("iota_r characterization of the left action fails")
    rep.check_eq("EQ_33", act @ d, tensor(I, d) @ phi)
    rep.check_eq("EQ_34", act @ mgl, compose(tensor(m, mgl), tensor(I, s, Ig), tensor(phi, act)))
    rep.check_eq("EQ_36", tensor(eps, Ig) @ act, Ig)
    rep.check_eq("EQ_37", tensor(phi, Ig) @ act, tensor(I, act) @ act)

    proj = compose(mgl, tensor(kap, Ig), act)
    rep.check_eq("EQ_313", proj @ proj, proj, note="invariant projector is idempotent")
    inv_space = proj.image()
    rep.check_space_eq("EQ_312", inv_space, (act - tensor(unit, Ig)).kernel(),
                       note="image of P = space of invariant forms")
    incl = inv_space.inclusion()
    proj_coords = coords_in(incl, proj)
    pi = proj_coords @ d
    pi_hat = incl @ pi
    rep.check_surjective("PI_SURJ", pi)
    kere, ker_pi = g.counit_kernel, pi.kernel()
    ideal = ker_pi.intersect(kere)

    rep.check_eq("EQ_314", proj @ il, tensor(eps, pi_hat) @ g.sigma_inv_tau)
    rep.check_eq(
        "EQ_319",
        compose(proj, mgr, tensor(pi_hat, I)),
        pi_hat @ m0 - pi_hat @ tensor(eps, I),
    )

    q = pi.cod
    sigma_star = _restrict_flips(g, "left", incl, pi, pi_hat, flips, rep)
    circ = compose(proj_coords, mgr, tensor(incl, I))
    ik = kere.inclusion()
    rep.check_eq("EQ_321", compose(circ, tensor(pi, I), tensor(ik, I)), compose(pi, m0, tensor(ik, I)))
    _check_circ_laws(g, pi, sigma_star, circ, rep)
    rep.check_eq(
        "P_MODULE_LAW",
        compose(proj, mgl, tensor(I, incl)),
        compose(incl, tensor(eps, identity(q))),
        note="P(a theta) = eps(a) theta on invariant forms",
    )
    rep.check_true(
        "GINV_DIM",
        q == kere.dim - ideal.dim,
        {"reason": f"dim inv = {q}, dim ker(eps) = {kere.dim}, dim R = {ideal.dim}"},
        note="dim of invariant forms = dim ker(eps) - dim R",
    )
    rep.check_space_eq("PI_KERNEL", ker_pi, ideal.sum_with(g.unit.image()))
    _check_ideal_conditions(g, ideal, "left", rep)
    return LeftCovariantData(c, act, inv_space, incl, proj_coords, pi, pi_hat, ideal, sigma_star, circ)


# side -> (the restriction's key stem, the equation of the flip family, the error raised without a
# restriction, its name for the family, the reason and the note of the COMMON entry)
_FLIP_RESTRICTIONS = {
    "left": ("SIGMA_STAR", "EQ_315", NotLeftCovariant, "flip family",
             "restrictions of shifted flips to invariant forms differ", "restriction is independent of the shift"),
    "right": ("STAR_SIGMA", "EQ_A12", NotRightCovariant, "right flip family", "restrictions of shifted right flips differ", ""),
}


def _restrict_flips(g: MultiBraidedGroup, side: str, incl: LinMap, pi: LinMap, pi_hat: LinMap,
                    flips: dict | None, rep: Report) -> LinMap:
    """The invariant flip restriction, sigma_star on the left and star_sigma on
    the right, written for the left.  With a flip table each distinct flip is
    restricted once, every shift's flip is checked against tau, and the
    restrictions must agree; without one it is factored through pi (x) id."""
    name, eq, error, family, differ, note = _FLIP_RESTRICTIONS[side]
    t = sided_tensor(side)
    I = identity(g.dim)
    if flips is None:
        rhs = t(I, pi) @ g.tau
        try:
            restricted = factor_through(t(pi, I), rhs)
        except NoFactor as exc:
            raise error(f"invariant flip restriction undefined: {exc}") from exc
        rep.check_eq(eq, restricted @ t(pi, I), rhs)
    else:
        restrictions = {}  # a distinct flip map -> its restriction, solved at its first shift
        I_incl, incl_I = t(I, incl), t(incl, I)
        pi_hat_I, I_pi_hat_tau = t(pi_hat, I), t(I, pi_hat) @ g.tau
        once = Verdicts(rep)
        for k in sorted(flips[side]):
            flip = flips[side][k].map
            if flip not in restrictions:
                restrictions[flip] = solve_right(I_incl, flip @ incl_I)
            if restrictions[flip] is None:
                rep.fail(f"{name}_RESTRICT_n{k}", {"reason": "flip does not preserve the invariant subspace"})
                continue
            once.check(f"{eq}_n{k}", (flip,), lambda key: rep.check_eq(key, flip @ pi_hat_I, I_pi_hat_tau))
        if not restrictions or any(x is None for x in restrictions.values()):
            raise error(f"invariant restriction of the {family} missing")
        restricted, *others = restrictions.values()
        rep.check_true(f"{name}_COMMON", all(x == restricted for x in others), {"reason": differ}, note=note)
    rep.check_invertible(f"{name}_INVERTIBLE", restricted)
    return restricted


def _check_circ_laws(g: MultiBraidedGroup, pi: LinMap, sigma_star: LinMap, circ: LinMap, rep: Report):
    "EQ_332-EQ_334: sigma_star and circ against tau and the product, on the invariant forms pi(A)."
    I, Iq = identity(g.dim), identity(pi.cod)
    rep.check_eq(
        "EQ_332",
        sigma_star @ tensor(circ, I),
        compose(tensor(I, circ), tensor(sigma_star, I), tensor(Iq, g.tau)),
    )
    rep.check_eq(
        "EQ_333",
        compose(tensor(g.mult, Iq), tensor(I, sigma_star), tensor(sigma_star, I)),
        sigma_star @ tensor(Iq, g.mult),
    )
    rep.check_eq(
        "EQ_334",
        pi @ g.mult,
        (tensor(g.counit, pi) + circ @ tensor(pi, I)) @ g.sigma_inv_tau,
    )


# side of the calculus -> (the ideal's other side, its key, its note, the tau-stability key):
# a left-covariant calculus is classified by a right ideal R, a right-covariant one by a left ideal K
_IDEAL_CONDITIONS = {
    "left": ("right", "R_IDEAL", "m0(R (x) A) inside R", "EQ_320"),
    "right": ("left", "K_IDEAL", "m0(A (x) K) inside K", "EQ_A25"),
}


def _check_ideal_conditions(
    g: MultiBraidedGroup, r: Subspace, side: str, rep: Report, precondition: bool = False, note: bool = True
) -> bool:
    """The ideal of a `side`-covariant calculus is an ideal for the simplified
    product on the other side, and tau moves it across; whether both hold.

    Both are decided once per group record, side and subspace (compared by
    value) and kept on the record as (passed, witness) pairs; every call adds
    the two entries again, in order, to its own report.  Only the first entry
    has a note, and only with `note`.  As the precondition of a
    reconstruction the entries carry no note and the first failure raises
    IdealInvalid."""
    kind, key, key_note, tau_key = _IDEAL_CONDITIONS[side]
    (ok_ideal, ideal_witness), (ok_tau, tau_witness) = g._derived(
        ("ideal_conditions", side, r), lambda: _decide_ideal_conditions(g, r, side)
    )
    rep.check_true(key, ok_ideal, ideal_witness, note=key_note if note and not precondition else "")
    if precondition and not ok_ideal:
        raise IdealInvalid(f"not a {kind} ideal for the simplified product")
    rep.check_true(tau_key, ok_tau, tau_witness)
    if precondition and not ok_tau:
        raise IdealInvalid("ideal is not tau-stable")
    return ok_ideal and ok_tau


def _decide_ideal_conditions(g: MultiBraidedGroup, r: Subspace, side: str) -> tuple:
    "The two verdicts of _check_ideal_conditions, as (passed, witness) pairs."
    _, key, _, tau_key = _IDEAL_CONDITIONS[side]
    t = sided_tensor(side)
    I, incl = identity(g.dim), r.inclusion()
    ra = t(incl, I).image()
    scratch = Report()
    scratch.check_space_le(key, ra.map_by(g.m0), r)
    scratch.check_space_eq(tau_key, ra.map_by(g.tau), t(I, incl).image())
    return tuple((e.status == PASS, e.witness) for e in scratch.entries)


def solve_right_action(c: FirstOrderCalculus, report: Report | None = None, flips: dict | None = None) -> RightCovariantData:
    rep = report if report is not None else Report()
    g = c.group
    n, gd = g.dim, c.gdim
    I, Ig = identity(n), identity(gd)
    m, unit, phi, eps, kap, s = g.mult, g.unit, g.coproduct, g.counit, g.antipode, g.braiding
    mgl, mgr, d = c.mgl, c.mgr, c.d
    il, ir = iota_l(c), iota_r(c)
    m0 = g.m0

    I_s_I, phi_phi = tensor(I, s, I), tensor(phi, phi)
    rhs = compose(tensor(ir, m), I_s_I, phi_phi)
    try:
        act = factor_through(ir, rhs)
    except NoFactor as exc:
        raise NotRightCovariant(str(exc)) from exc
    rep.check_eq("EQ_31", act @ ir, rhs, note="defining equation of the right action")
    mirror = compose(tensor(il, m), I_s_I, phi_phi)
    if not rep.check_eq("EQ_A1", act @ il, mirror):
        raise NotRightCovariant("iota_l characterization of the right action fails")
    rep.check_eq("EQ_A2", act @ mgr, compose(tensor(mgr, m), tensor(Ig, s, I), tensor(act, phi)))
    rep.check_eq("EQ_A3", act @ d, tensor(d, I) @ phi)
    rep.check_eq("EQ_A4", tensor(Ig, eps) @ act, Ig)
    rep.check_eq("EQ_A5", tensor(act, I) @ act, tensor(Ig, phi) @ act)

    proj = compose(mgr, tensor(Ig, kap), act)
    rep.check_eq("EQ_A9", proj @ proj, proj, note="right-invariant projector is idempotent")
    inv_space = proj.image()
    rep.check_space_eq("RINV_SPACE", inv_space, (act - tensor(Ig, unit)).kernel())
    incl = inv_space.inclusion()
    proj_coords = coords_in(incl, proj)
    zeta = proj_coords @ d
    zeta_hat = incl @ zeta
    rep.check_surjective("EQ_A11", zeta, note="quotient differential onto right-invariant forms")
    kere, ker_zeta = g.counit_kernel, zeta.kernel()
    ideal = ker_zeta.intersect(kere)

    rep.check_eq("EQ_A10", proj @ ir, tensor(zeta_hat, eps) @ g.sigma_inv_tau)

    q = zeta.cod
    star_sigma = _restrict_flips(g, "right", incl, zeta, zeta_hat, flips, rep)
    bullet = compose(proj_coords, mgl, tensor(I, incl))
    rep.check_eq(
        "EQ_A19",
        incl @ bullet,
        compose(proj, mgl, tensor(I, incl)),
        note="a . theta = Q(a theta) in invariant coordinates",
    )
    rep.check_eq("EQ_A20", bullet @ tensor(I, zeta), zeta @ m0 - tensor(zeta, eps))
    rep.check_true(
        "RINV_DIM",
        q == kere.dim - ideal.dim,
        {"reason": f"dim inv = {q}, dim ker(eps) = {kere.dim}, dim K = {ideal.dim}"},
    )
    rep.check_space_eq("ZETA_KERNEL", ker_zeta, ideal.sum_with(g.unit.image()))
    _check_ideal_conditions(g, ideal, "right", rep)
    return RightCovariantData(c, act, inv_space, incl, proj_coords, zeta, zeta_hat, ideal, star_sigma, bullet)


# side -> (the module map the action is composed with, the keys of the built flip, of its action law
# and of the shift law, the built flip's note, and the step that orders the shift law's two sides)
_ACTION_FLIPS = {
    "left": ("mgr", "EQ_38", "EQ_39", "EQ_310", "action-built flip equals the solved flip", 1),
    "right": ("mgl", "EQ_A6", "EQ_A7", "EQ_A8", "", -1),
}


def flip_from_actions(lcd: LeftCovariantData, report: Report | None, flips: dict) -> LinMap:
    """The sigma flip rebuilt out of the left action; checked against the solved flip table.

    The two agree on every valid group record.  On a record that fails a
    non-fatal group check (PHI_MULT, EPS_SIGMA, ...) they can differ, and
    then InternalInconsistency is raised, as for any failed self-check."""
    rep = report if report is not None else Report()
    built = _flip_from_action("left", lcd, rep, flips)
    c = lcd.calculus
    g, I, Ig = c.group, identity(c.group.dim), identity(c.gdim)
    rep.check_eq(
        "EQ_311",
        flips["left"][0].map,
        compose(tensor(g.counit, I, Ig), tensor(g.sigma_inv, Ig), tensor(I, lcd.action), flips["left"][1].map),
    )
    return built


def flip_from_right_action(rcd: RightCovariantData, report: Report | None, flips: dict) -> LinMap:
    """Mirror construction of the right flip out of the right action; as in
    flip_from_actions, a disagreement raises InternalInconsistency, which on
    a record failing a non-fatal group check is not a solver bug."""
    return _flip_from_action("right", rcd, report, flips)


def _flip_from_action(side: str, data: LeftCovariantData | RightCovariantData, report: Report | None,
                      flips: dict) -> LinMap:
    """The flip of `side` built out of the solved action of `data` and its laws
    EQ_38-EQ_310 (EQ_A6-EQ_A8 on the right), written for the left; the side's
    module map and the order of the shift law's two sides come from _ACTION_FLIPS."""
    module, built_key, law_key, shift_key, note, step = _ACTION_FLIPS[side]
    rep = report if report is not None else Report()
    t = sided_tensor(side)
    c, act = data.calculus, data.action
    g = c.group
    I, Ig = identity(g.dim), identity(c.gdim)
    m, phi, kap, mod = g.mult, g.coproduct, g.antipode, getattr(c, module)
    act_mod = act @ mod
    built = compose(t(m, mod), t(kap, act_mod, kap), t(act, phi))
    s1 = flips[side][1].map
    if not rep.check_eq(built_key, built, s1, note=note):
        raise InternalInconsistency(f"flip built from the {side} action disagrees with the solver")
    rep.check_eq(law_key, act_mod, compose(t(m, mod), t(I, s1, I), t(act, phi)))
    shifts = flip_window(flips)
    act_I, I_act = t(act, I), t(I, act)
    once = Verdicts(rep)
    for p in shifts:
        for r in shifts:
            sp, fr, fsum = g.sigma_n(p), flips[side][r].map, flips[side][p + r].map
            once.check(
                f"{shift_key}_n{p}_m{r}",
                (sp, fr, fsum),
                lambda key: rep.check_eq(key, *(compose(t(sp, Ig), t(I, fr), act_I), I_act @ fsum)[::step]),
            )
    return built


def left_trivialization(lcd: LeftCovariantData, report: Report | None = None) -> tuple[LinMap, LinMap]:
    "Gamma = A (x) (invariant forms) as left modules, with the dictionary."
    rep = report if report is not None else Report()
    c = lcd.calculus
    g = c.group
    n, q = g.dim, lcd.inv_dim
    I, Iq, Ig = identity(n), identity(q), identity(c.gdim)
    fwd = tensor(I, lcd.proj_coords) @ lcd.action
    bwd = c.mgl @ tensor(I, lcd.incl)
    rep.check_eq("TRIV_L_FWD_BWD", fwd @ bwd, identity(n * q))
    rep.check_eq("TRIV_L_BWD_FWD", bwd @ fwd, Ig)
    rep.check_eq("EQ_317", fwd @ c.d, tensor(I, lcd.pi) @ g.coproduct)
    rep.check_eq("EQ_316", tensor(I, fwd) @ lcd.action, tensor(g.coproduct, Iq) @ fwd)
    rep.check_eq("EQ_318", fwd @ c.mgl, tensor(g.mult, Iq) @ tensor(I, fwd))
    rep.check_eq(
        "EQ_322",
        fwd @ c.mgr,
        compose(tensor(g.mult, lcd.circ), tensor(I, lcd.sigma_star, I), tensor(I, Iq, g.coproduct), tensor(fwd, I)),
    )
    return fwd, bwd


def right_trivialization(lcd: LeftCovariantData, report: Report | None = None) -> tuple[LinMap, LinMap]:
    "Gamma = (invariant forms) (x) A as right modules; needs sigma_star invertible."
    rep = report if report is not None else Report()
    c = lcd.calculus
    g = c.group
    n, q = g.dim, lcd.inv_dim
    I, Iq = identity(n), identity(q)
    try:
        sstar_inv = lcd.sigma_star.inverse()
    except NotInvertible as exc:
        raise SigmaStarSingular(str(exc)) from exc
    fwd_l = tensor(I, lcd.proj_coords) @ lcd.action
    fwd = c.mgr @ tensor(lcd.incl, I)
    bwd = compose(tensor(lcd.circ, g.antipode), tensor(Iq, g.coproduct @ g.kappa_inv), sstar_inv, fwd_l)
    rep.check_eq("EQ_323", fwd @ bwd, identity(c.gdim))
    rep.check_eq("EQ_324", bwd @ fwd, identity(q * n))
    rep.check_eq("EQ_325", compose(bwd, c.mgr, tensor(fwd, I)), tensor(Iq, g.mult))
    rep.check_eq(
        "EQ_326",
        compose(tensor(I, bwd), lcd.action, fwd),
        compose(tensor(lcd.sigma_star, I), tensor(Iq, g.coproduct)),
    )
    rep.check_eq(
        "EQ_327",
        compose(bwd, c.mgl, tensor(I, fwd)),
        compose(
            tensor(lcd.circ @ tensor(Iq, g.kappa_inv), g.mult),
            tensor(Iq, g.sigma_inv @ g.coproduct, I),
            tensor(sstar_inv, I),
        ),
    )
    minus_d = -(bwd @ c.d)
    rep.check_eq("EQ_328A", minus_d, compose(tensor(lcd.pi @ g.kappa_inv, I), g.sigma_inv, g.coproduct))
    rep.check_eq("EQ_328B", minus_d, compose(tensor(lcd.pi, g.antipode), g.coproduct, g.kappa_inv))
    return fwd, bwd


def right_covariant_trivializations(rcd: RightCovariantData, report: Report | None = None):
    "The mirror dictionaries for a solved right action."
    rep = report if report is not None else Report()
    c = rcd.calculus
    g = c.group
    n, q = g.dim, rcd.inv_dim
    I, Iq = identity(n), identity(q)
    fwd = tensor(rcd.proj_coords, I) @ rcd.action
    bwd = c.mgr @ tensor(rcd.incl, I)
    rep.check_eq("EQ_A14", fwd @ bwd, identity(q * n))
    rep.check_eq("EQ_A14_INV", bwd @ fwd, identity(c.gdim))
    rep.check_eq("EQ_A16A", compose(fwd, c.mgr, tensor(bwd, I)), tensor(Iq, g.mult))
    rep.check_eq("EQ_A16B", compose(tensor(fwd, I), rcd.action, bwd), tensor(Iq, g.coproduct))
    rep.check_eq("EQ_A17", fwd @ c.d, tensor(rcd.zeta, I) @ g.coproduct)
    rep.check_eq(
        "EQ_A18",
        compose(fwd, c.mgl, tensor(I, bwd)),
        compose(tensor(rcd.bullet, g.mult), tensor(I, rcd.star_sigma, I), tensor(g.coproduct, Iq, I)),
    )
    try:
        sstar_inv = rcd.star_sigma.inverse()
    except NotInvertible as exc:
        raise SigmaStarSingular(str(exc)) from exc
    fwd2 = c.mgl @ tensor(I, rcd.incl)
    bwd2 = compose(tensor(g.antipode, rcd.bullet), tensor(g.coproduct @ g.kappa_inv, Iq), sstar_inv, fwd)
    rep.check_eq("TRIV_A_L_FWD_BWD", bwd2 @ fwd2, identity(n * q))
    rep.check_eq("TRIV_A_L_BWD_FWD", fwd2 @ bwd2, identity(c.gdim))
    rep.check_eq(
        "EQ_A21",
        compose(bwd2, c.mgr, tensor(fwd2, I)),
        compose(
            tensor(g.mult, rcd.bullet @ tensor(g.kappa_inv, Iq)),
            tensor(I, g.sigma_inv @ g.coproduct, Iq),
            tensor(I, sstar_inv),
        ),
    )
    rep.check_eq("EQ_A22", compose(bwd2, c.mgl, tensor(I, fwd2)), tensor(g.mult, Iq))
    rep.check_eq(
        "EQ_A23",
        compose(tensor(bwd2, I), rcd.action, fwd2),
        compose(tensor(I, rcd.star_sigma), tensor(g.coproduct, Iq)),
    )
    minus_d = -(bwd2 @ c.d)
    rep.check_eq("EQ_A24A", minus_d, compose(tensor(g.antipode, rcd.zeta), g.coproduct, g.kappa_inv))
    rep.check_eq("EQ_A24B", minus_d, compose(tensor(I, rcd.zeta @ g.kappa_inv), g.sigma_inv, g.coproduct))
    return {"right_fwd": fwd, "right_bwd": bwd, "left_fwd": fwd2, "left_bwd": bwd2}


def extract_ideal(lcd: LeftCovariantData, report: Report | None = None) -> Subspace:
    rep = report if report is not None else Report()
    _check_ideal_conditions(lcd.calculus.group, lcd.ideal, "left", rep)
    return lcd.ideal


def close_right_ideal(g: MultiBraidedGroup, generators) -> Subspace:
    """Span of the generators, closed under right multiplication by m0.

    Generators must lie in ker(eps); tau-stability is checked later, not
    enforced by the closure.
    """
    return _close_ideal(g, generators, "right")


def close_left_ideal(g: MultiBraidedGroup, generators) -> Subspace:
    "Mirror closure under left multiplication by m0."
    return _close_ideal(g, generators, "left")


def _close_ideal(g: MultiBraidedGroup, generators, side: str) -> Subspace:
    "Add m0(R (x) A) (side 'right') or m0(A (x) R) (side 'left') to R until it stops growing."
    n = g.dim
    I = identity(n)
    space = Subspace.spanned_by(n, generators)
    if not g.counit_kernel.contains_space(space):
        raise IdealInvalid("generator outside ker(eps)")
    while True:
        incl = space.inclusion()
        products = g.m0 @ (tensor(incl, I) if side == "right" else tensor(I, incl))
        bigger = space.sum_with(products.image())
        if bigger == space:
            return space
        space = bigger


def reconstruct_from_ideal(
    g: MultiBraidedGroup,
    r: Subspace,
    report: Report | None = None,
    name: str = "reconstructed",
    verify: bool = True,
) -> FirstOrderCalculus:
    """Build the left-covariant calculus classified by a valid ideal.

    Invariant forms are ker(eps)/r, realized as the quotient of the whole
    space by r + span(1); the calculus lives on A (x) invariants with the
    standard dictionary, and the construction is verified end to end
    (including the ideal round-trip) when `verify` is set.
    """
    return _reconstruct(g, r, "left", report, name, verify)


def reconstruct_right_from_ideal(
    g: MultiBraidedGroup,
    k: Subspace,
    report: Report | None = None,
    name: str = "reconstructed-right",
    verify: bool = True,
) -> FirstOrderCalculus:
    "Mirror reconstruction: right-covariant calculus on (invariants) (x) A."
    return _reconstruct(g, k, "right", report, name, verify)


def _reconstruct(g: MultiBraidedGroup, r: Subspace, side: str, report: Report | None, name: str, verify: bool) -> FirstOrderCalculus:
    """The reconstruction of either side, written for the left one.  On the
    right every tensor is reversed, sigma_star and circ are star_sigma and
    bullet, and the plain and the twisted module maps swap places."""
    rep = report if report is not None else Report()
    t = sided_tensor(side)
    n = g.dim
    I = identity(n)
    if not g.counit_kernel.contains_space(r):
        raise IdealInvalid("ideal is not contained in ker(eps)")
    _check_ideal_conditions(g, r, side, rep, precondition=True)
    # unital braidings make the quotient solves below well-posed; decided once per record
    unit_l, unit_r = tensor(g.unit, I), tensor(I, g.unit)
    if not g._derived("unital_braidings", lambda: g.braiding @ unit_l == unit_r and g.tau @ unit_l == unit_r):
        raise IdealInvalid("braiding or its secondary is not unital")
    pi, q = quotient(n, r.sum_with(g.unit.image()))
    Iq = identity(q)
    circ_rhs = pi @ g.m0 - pi @ t(g.counit, I)
    try:
        sigma_star = factor_through(t(pi, I), t(I, pi) @ g.tau)
        circ = factor_through(t(pi, I), circ_rhs)
    except NoFactor as exc:
        raise IdealInvalid(f"quotient structure does not descend: {exc}") from exc
    rep.check_eq("EQ_315" if side == "left" else "EQ_A12", sigma_star @ t(pi, I), t(I, pi) @ g.tau)
    if side == "left":
        _check_circ_laws(g, pi, sigma_star, circ, rep)
    else:
        rep.check_eq("EQ_A20", circ @ t(pi, I), circ_rhs)
    d = t(I, pi) @ g.coproduct
    plain = t(g.mult, Iq)
    twisted = compose(t(g.mult, circ), t(I, sigma_star, I), t(I, Iq, g.coproduct))
    mgl, mgr = (plain, twisted) if side == "left" else (twisted, plain)
    calc = FirstOrderCalculus(g, n * q, mgl, mgr, d, name=name)
    if verify:
        check_reconstruction(calc, r, rep, side)
    return calc


def check_reconstruction(calc: FirstOrderCalculus, r: Subspace, report: Report, side: str = "left"):
    """The calculus battery on a calculus reconstructed from the ideal r, then
    its action on `side`, whose ideal must be r again; returns the solved action."""
    calc_rep = Report(ctx=report.ctx)
    check_calculus(calc, calc_rep)
    report.extend(calc_rep)
    if not calc_rep.ok_all:
        raise InternalInconsistency("reconstructed calculus fails the calculus battery")
    if side == "left":
        data = solve_left_action(calc, report)
        report.check_space_eq("ROUNDTRIP_IDEAL", data.ideal, r, note="ideal -> calculus -> ideal is the identity")
    else:
        data = solve_right_action(calc, report)
        report.check_space_eq("ROUNDTRIP_IDEAL_RIGHT", data.ideal, r)
    return data


def universal_ideals(g: MultiBraidedGroup) -> dict:
    "The two ideals every group carries: zero and the whole of ker(eps)."
    n = g.dim
    return {"zero": Subspace.zero(n), "keps": g.counit_kernel}


def calculi_isomorphic(c1: FirstOrderCalculus, c2: FirstOrderCalculus) -> LinMap | None:
    """The isomorphism of calculi (d, mgl, mgr) from c1 to c2, or None.

    Gamma is spanned by the a d(b), so a calculus is the quotient of
    A (x) A by ker(iota_l): two calculi are isomorphic exactly when their
    iota_l have one kernel, and then T iota_l(c1) = iota_l(c2) fixes T.
    The answer is exact for every pair that passes check_calculus, left-
    covariant or not; a returned map is always a checked isomorphism.
    """
    if c1.group.dim != c2.group.dim or c1.gdim != c2.gdim:
        return None
    il1, il2 = iota_l(c1), iota_l(c2)
    if il1.kernel() != il2.kernel():
        return None
    t = factor_through(il1, il2)
    return t if _is_intertwiner(c1, c2, t) and t.is_invertible() else None


def _is_intertwiner(c1, c2, t: LinMap) -> bool:
    n = c1.group.dim
    I = identity(n)
    return (
        t @ c1.d == c2.d
        and t @ c1.mgl == c2.mgl @ tensor(I, t)
        and t @ c1.mgr == c2.mgr @ tensor(t, I)
    )
