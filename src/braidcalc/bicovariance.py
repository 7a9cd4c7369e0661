"""Bicovariant structure, the adjoint-action criterion, and antipodal covariance.

Bicovariance is the coexistence of both actions; it is equivalently
detected on the classifying ideal through the adjoint action, and (for a
left-covariant calculus) equivalent to antipodal covariance: equality of
ker(iota_l) with the kernel of the antipode-twisted iota_r, which yields
the bijection vk with d kappa = vk d.

Every decision here is made from data the caller has already solved: the
left and right actions (None where the calculus is not covariant on that
side) and the right trivialization.  No action is solved in this module,
and every entry goes to the report the caller passes.
"""

from __future__ import annotations

from collections import namedtuple

from .calculi import FirstOrderCalculus, flip_window, iota_l, iota_r, sided_tensor
from .covariance import LeftCovariantData, RightCovariantData, _check_ideal_conditions
from .groups import InternalInconsistency, MultiBraidedGroup, adjoint_action, kappa0
from .linalg import (
    LinMap,
    NoFactor,
    NotInvertible,
    Subspace,
    compose,
    factor_through,
    identity,
    tensor,
)
from .reporting import Report, Verdicts


class NotKappaCovariant(ValueError):
    "Not antipodally covariant; `kernels_agree` is the kernel decision, false unless only the twisting map is singular."

    def __init__(self, message: str, kernels_agree: bool = False):
        super().__init__(message)
        self.kernels_agree = kernels_agree


class AdNotDescending(ValueError):
    "The adjoint action does not stabilize the ideal."


class KappaData(namedtuple("KappaData", "map inverse")):
    "The bijection vk with d kappa = vk d, and its inverse."

    __slots__ = ()


def check_kappa0(g: MultiBraidedGroup, rep: Report) -> LinMap:
    "kappa0 with its counit law and the antipode laws for the simplified product."
    n = g.dim
    I = identity(n)
    k0 = kappa0(g)  # raises Kappa0Mismatch unless its two expressions coincide
    m0 = g.m0
    rep.ok("KAPPA0_OK", note="both expressions for kappa0 coincide")
    rep.check_eq("KAPPA0_COUNIT", g.counit @ k0, g.counit)
    rep.check_eq("KAPPA0_ANTIPODE_L", compose(m0, tensor(k0, I), g.coproduct), g.unit @ g.counit)
    rep.check_eq("KAPPA0_ANTIPODE_R", compose(m0, tensor(I, k0), g.coproduct), g.unit @ g.counit)
    return k0


def check_bicovariance(lcd: LeftCovariantData, rcd: RightCovariantData, flips: dict, rep: Report) -> Report:
    """Compatibility of the two actions, their twistings, and the invariant restrictions,
    over the table's flip_window.  EQ_44A/EQ_44B (each side's action against the
    other side's flips) and EQ_46A/EQ_46B are each written once, through sided_tensor."""
    c = lcd.calculus
    g = c.group
    n = g.dim
    I, Ig = identity(n), identity(c.gdim)
    act_l, act_r = lcd.action, rcd.action
    ad = adjoint_action(g)
    tau, kap = g.tau, g.antipode

    rep.check_eq("EQ_41", tensor(act_l, I) @ act_r, tensor(I, act_r) @ act_l)
    rep.check_eq("EQ_43A", act_r @ lcd.pi_hat, tensor(lcd.pi_hat, I) @ ad)
    rep.check_eq(
        "EQ_43B",
        act_l @ rcd.zeta_hat,
        compose(tensor(I, rcd.zeta_hat), tau, tensor(kap, kap), ad, g.kappa_inv),
    )
    shifts = flip_window(flips)
    left, right = flips["left"], flips["right"]
    sigma = {k: g.sigma_n(k) for k in shifts}
    once = Verdicts(rep)
    for n_s in shifts:
        for m_s in shifts:
            for side, key, act, f in (("left", "EQ_44A", act_l, right), ("right", "EQ_44B", act_r, left)):
                t, fsum, fm, sn = sided_tensor(side), f[n_s + m_s].map, f[m_s].map, sigma[n_s]
                once.check(
                    f"{key}_n{n_s}_m{m_s}",
                    (fsum, fm, sn),
                    lambda key: rep.check_eq(key, t(act, I) @ fsum, compose(t(I, fm), t(sn, Ig), t(I, act))),
                )
    inv_l = tensor(lcd.incl, I).image()
    inv_r_amb = tensor(I, lcd.incl).image()
    rinv_l = tensor(rcd.incl, I).image()
    rinv_r_amb = tensor(I, rcd.incl).image()
    for n_s in shifts:
        rs, ls = right[n_s].map, left[n_s].map
        once.check(f"EQ_45A_n{n_s}", (rs,), lambda key: rep.check_space_eq(key, inv_r_amb.map_by(rs), inv_l))
        once.check(f"EQ_45B_n{n_s}", (ls,), lambda key: rep.check_space_eq(key, rinv_l.map_by(ls), rinv_r_amb))
        for side, key, hat, fn in (("left", "EQ_46A", lcd.pi_hat, rs), ("right", "EQ_46B", rcd.zeta_hat, ls)):
            t = sided_tensor(side)
            once.check(f"{key}_n{n_s}", (fn,), lambda key: rep.check_eq(key, fn @ t(I, hat), t(hat, I) @ tau))
    return rep


def ideal_bicovariance_test(g: MultiBraidedGroup, r: Subspace, rep: Report) -> Report:
    "The two ideal-level conditions equivalent to bicovariance."
    n = g.dim
    I = identity(n)
    kere = g.counit_kernel
    note = "precondition: ideal inside ker(eps)"
    if not kere.contains_space(r):
        rep.fail("IDEAL_IN_KEREPS", {"vector_outside": [[str(x) for x in r.basis[0]]]}, note=note)
        return rep
    rep.ok("IDEAL_IN_KEREPS", note=note)
    if not _check_ideal_conditions(g, r, "left", rep, note=False):
        return rep
    incl = r.inclusion()
    ra, ar = tensor(incl, I).image(), tensor(I, incl).image()
    rep.check_space_le("EQ_47", r.map_by(adjoint_action(g)), ra, note="adjoint action stabilizes the ideal")
    rep.check_space_eq("EQ_48", ar.map_by(g.tau), ra)
    return rep


def right_action_from_ad(
    lcd: LeftCovariantData,
    rcd: RightCovariantData,
    right_triv: tuple[LinMap, LinMap],
    rep: Report,
) -> LinMap:
    """The right action rebuilt from the adjoint action on invariant forms.

    Requires the ideal criterion; `right_triv` is the (fwd, bwd) pair of
    `right_trivialization`, and the result is compared entry by entry
    against the directly solved right action.
    """
    c = lcd.calculus
    g = c.group
    n = g.dim
    I = identity(n)
    q = lcd.inv_dim
    ideal_rep = Report(ctx=rep.ctx)
    ideal_bicovariance_test(g, lcd.ideal, ideal_rep)
    rep.extend(ideal_rep)
    if not ideal_rep.ok_all:
        raise AdNotDescending("ideal fails the adjoint or tau stability test")
    ad = adjoint_action(g)
    try:
        varpi = factor_through(lcd.pi, tensor(lcd.pi, I) @ ad)
    except NoFactor as exc:
        raise AdNotDescending(f"adjoint action does not descend to the quotient: {exc}") from exc
    rep.check_eq("EQ_410", varpi @ lcd.pi, tensor(lcd.pi, I) @ ad)
    rho_pic = compose(tensor(identity(q), I, g.mult), tensor(identity(q), g.braiding, I), tensor(varpi, g.coproduct))
    fwd, bwd = right_triv
    rho_built = compose(tensor(fwd, I), rho_pic, bwd)
    rep.check_eq("EQ_49", rho_built, rcd.action, note="ad-built right action equals the solved one")
    rep.check_eq("EQ_49_A3", rho_built @ c.d, tensor(c.d, I) @ g.coproduct)
    rep.check_eq(
        "EQ_49_A2",
        rho_built @ c.mgr,
        compose(tensor(c.mgr, g.mult), tensor(identity(c.gdim), g.braiding, I), tensor(rho_built, g.coproduct)),
    )
    return rho_built


def check_kappa_covariance(
    c: FirstOrderCalculus,
    rep: Report,
    lcd: LeftCovariantData | None = None,
    rcd: RightCovariantData | None = None,
    flips: dict | None = None,
) -> KappaData:
    """Decide antipodal covariance and derive the twisting bijection; EQ_55/EQ_57,
    over the table's flip_window, are written once, through sided_tensor."""
    g = c.group
    n = g.dim
    I, Ig = identity(n), identity(c.gdim)
    kap, tau = g.antipode, g.tau
    il, ir = iota_l(c), iota_r(c)
    sm2 = g.sigma_n(-2)
    rep.check_eq(
        "SIGMA_M2_FORMULA",
        compose(tau, g.sigma_inv, tau, g.sigma_inv, tau),
        sm2,
        note="the five-fold alternating product is the shift -2 braiding",
    )
    twisted = compose(ir, tensor(kap, kap), sm2)
    ker_l, ker_t = il.kernel(), twisted.kernel()
    if ker_l != ker_t:
        bad = ker_t.outside(ker_l)
        if bad is None:
            bad = ker_l.outside(ker_t)
        witness = {"kernel_witness": [str(x) for x in bad]} if bad is not None else {"reason": "kernel mismatch"}
        rep.fail("KAPPA_COV_DECISION", witness)
        raise NotKappaCovariant("ker(iota_l) differs from the twisted kernel")
    rep.ok("KAPPA_COV_DECISION", note="kernels agree; twisting bijection exists")
    try:
        vk = factor_through(il, twisted)
    except NoFactor as exc:
        raise InternalInconsistency(f"factor solve failed after kernel equality: {exc}") from exc
    rep.check_eq("EQ_51", vk @ il, twisted, note="defining equation of the twisting bijection")
    try:
        vk_inv = vk.inverse()
        rep.ok("KAPPA_MAP_INVERTIBLE")
    except NotInvertible:
        rep.fail("KAPPA_MAP_INVERTIBLE", {"reason": "twisting map is singular"})
        raise NotKappaCovariant("twisting map is not bijective", kernels_agree=True)
    rep.check_eq("EQ_52", c.d @ kap, vk @ c.d)
    rep.check_eq("EQ_53", vk @ ir, compose(il, tensor(kap, kap), sm2))

    if flips is not None:
        once = Verdicts(rep)
        for n_s in flip_window(flips):
            for side, key in (("left", "EQ_55"), ("right", "EQ_57")):
                t, f = sided_tensor(side), flips[side]
                once.check(
                    f"{key}_n{n_s}",
                    (f[n_s].map, f[-n_s].map),
                    lambda key: rep.check_eq(key, f[n_s].map @ t(vk, I), t(I, vk) @ f[-n_s].map),
                )
        rep.check_eq("EQ_56", vk @ c.mgr, compose(c.mgl, tensor(kap, vk), flips["left"][-2].map))
        rep.check_eq("EQ_58", vk @ c.mgl, compose(c.mgr, tensor(vk, kap), flips["right"][-2].map))

    if lcd is not None and rcd is not None and flips is not None:
        act_l, act_r = lcd.action, rcd.action
        rep.check_eq("EQ_59", act_l @ vk, compose(tensor(kap, vk), flips["left"][1].map, act_r))
        rep.check_eq("EQ_510", act_r @ vk, compose(tensor(vk, kap), flips["right"][1].map, act_l))
        rep.check_eq(
            "EQ_511",
            compose(c.mgl, tensor(I, c.mgr), tensor(kap, Ig, kap), tensor(I, act_r), act_l),
            -vk,
            note="double-sided antipode action is minus the twisting map",
        )
        rep.check_space_eq("EQ_512A", lcd.inv_space.map_by(vk), rcd.inv_space)
        rep.check_space_eq("EQ_512B", rcd.inv_space.map_by(vk), lcd.inv_space)
        k0 = kappa0(g)
        rep.check_eq("EQ_513A", vk @ lcd.pi_hat, rcd.zeta_hat @ k0)
        rep.check_eq("EQ_513B", vk @ rcd.zeta_hat, lcd.pi_hat @ k0)
        ik = g.counit_kernel.inclusion()
        rep.check_eq(
            "EQ_514A",
            compose(vk, lcd.incl, lcd.circ, tensor(lcd.pi, I), tensor(ik, I)),
            compose(rcd.incl, rcd.bullet, tensor(k0, rcd.zeta @ k0), tau, tensor(ik, I)),
        )
        rep.check_eq(
            "EQ_514B",
            compose(vk, rcd.incl, rcd.bullet, tensor(I, rcd.zeta), tensor(I, ik)),
            compose(lcd.incl, lcd.circ, tensor(lcd.pi @ k0, k0), tau, tensor(I, ik)),
        )
        rep.check_space_eq("EQ_515A", lcd.ideal.map_by(k0), rcd.ideal)
        rep.check_space_eq("EQ_515B", rcd.ideal.map_by(k0), lcd.ideal)
        rep.check_eq(
            "EQ_516A",
            compose(vk, c.mgl, tensor(I, lcd.pi_hat)),
            compose(c.mgr, tensor(rcd.zeta_hat @ k0, kap), tau),
        )
        rep.check_eq(
            "EQ_516B",
            compose(vk, c.mgr, tensor(rcd.zeta_hat, I)),
            compose(c.mgl, tensor(kap, lcd.pi_hat @ k0), tau),
        )
    return KappaData(vk, vk_inv)


def kappa_iff_bicovariant(
    lcd: LeftCovariantData | None, rcd: RightCovariantData | None, rep: Report, kappa_cov: bool
) -> Report:
    """Assert that antipodal covariance and bicovariance agree, given the solved
    actions (None where the calculus is not covariant on that side) and the
    kernel decision `kappa_cov` of `check_kappa_covariance`."""
    if lcd is None:
        rep.skip("KAPPA_IFF_BICOVARIANT", note="calculus is not left-covariant; equivalence not applicable")
        return rep
    bicov = rcd is not None
    rep.check_true(
        "KAPPA_IFF_BICOVARIANT",
        kappa_cov == bicov,
        {"reason": f"kappa-covariant: {kappa_cov}, bicovariant: {bicov}"},
        note=f"kappa-covariant: {kappa_cov}; bicovariant: {bicov}",
    )
    return rep
