"""Star structures on braided groups and star-covariant calculi.

The star is an antimultiplicative antilinear involution whose coproduct
compatibility routes through the plain transposition and the inverse
braiding.  A left-covariant calculus is star-covariant exactly when the
classifying ideal is stable under star-after-antipode; the induced star
on one-forms is built on invariant forms (with the sign of the quotient
rule) and extended by the antimultiplicative module rule.
"""

from __future__ import annotations

from .algebras import FiniteDimAlgebra, _set_fields
from .bicovariance import KappaData
from .calculi import FirstOrderCalculus, NotBijective, NotCovariant, flip_for, flip_window
from .covariance import LeftCovariantData, RightCovariantData
from .groups import MultiBraidedGroup
from .linalg import (
    AntilinMap,
    NoFactor,
    compose,
    factor_through,
    identity,
    permutation_map,
    tensor,
)
from .reporting import Report, Verdicts


class NotStarCovariant(ValueError):
    pass


class StarGroup:
    "A group with a star: an antilinear endomorphism of its algebra.  Immutable; equal and hashed by both fields."

    __slots__ = ("group", "star")

    def __init__(self, group: MultiBraidedGroup, star: AntilinMap):
        if star.dom != group.dim or star.cod != group.dim:
            raise ValueError("star must be an antilinear endomorphism of the algebra")
        _set_fields(self, group=group, star=star)

    __setattr__ = __delattr__ = FiniteDimAlgebra.__setattr__
    __eq__, __hash__ = FiniteDimAlgebra.__eq__, FiniteDimAlgebra.__hash__

    def _key(self) -> tuple:
        return (self.group, self.star)


def check_star_group(sg: StarGroup, report: Report | None = None, shift_range: int = 2) -> Report:
    "Involutivity, antimultiplicativity, coproduct compatibility and consequences."
    rep = report if report is not None else Report()
    g = sg.group
    n = g.dim
    I = identity(n)
    star = sg.star
    psi = permutation_map([1, 0], [n, n])
    ss = star.tensor(star)
    rep.check_eq("STAR_INVOLUTION", star @ star, I)
    rep.check_eq("STAR_UNIT", star @ g.unit, AntilinMap(g.unit))
    rep.check_eq("STAR_ANTIMULT", star @ g.mult, g.mult @ (ss @ psi))
    rep.check_eq("EQ_B32", g.coproduct @ star, ss @ compose(psi, g.sigma_inv, g.coproduct))
    star_kappa = star @ g.antipode
    rep.check_eq(
        "EQ_B33",
        g.coproduct @ star_kappa,
        star_kappa.tensor(star_kappa) @ (psi @ g.coproduct),
    )
    rep.check_eq("EQ_B34", AntilinMap(g.counit.conj()), g.counit @ star_kappa)
    rep.check_eq("EQ_B35", g.kappa_inv, star_kappa @ star)
    rep.check_eq("EQ_B36", g.braiding @ ss, ss @ compose(psi, g.sigma_inv, psi))
    rep.check_eq("EQ_B37", g.tau @ ss, ss @ compose(psi, g.tau_inv, psi))
    once = Verdicts(rep)
    for k in range(-shift_range, shift_range + 1):
        sk, sk_inv = g.sigma_n(k), g.sigma_n_inv(k)
        once.check(f"EQ_62_n{k}", (sk,), lambda key: rep.check_eq(key, ss @ sk, compose(psi, sk_inv, psi) @ ss))
    return rep


def star_covariance(
    lcd: LeftCovariantData,
    sg: StarGroup,
    report: Report | None = None,
    rcd: RightCovariantData | None = None,
    kappa_data: KappaData | None = None,
    flips: dict | None = None,
) -> AntilinMap:
    """Decide star-covariance of a left-covariant calculus and build its star.

    The decision is the exact inclusion (star after antipode)(R) inside R;
    on success the star on one-forms is returned, with the full identity
    battery recorded in the report.
    """
    rep = report if report is not None else Report()
    c = lcd.calculus
    g = c.group
    n, q, gd = g.dim, lcd.inv_dim, c.gdim
    I = identity(n)
    star = sg.star
    sk = star @ g.antipode
    ideal = lcd.ideal
    # sk is antilinear: the columns of (sk @ inclusion).lin are sk of R's basis, and span sk(R).
    if not ideal.contains_space((sk @ ideal.inclusion()).lin.image()):
        bad = next(v for v in ideal.basis if not ideal.contains(sk.apply(v)))
        rep.fail(
            "STARKAPPA_IDEAL",
            {
                "vector": [str(x) for x in bad],
                "image_outside_ideal": [str(x) for x in sk.apply(bad)],
            },
            note="(star kappa)(R) escapes R",
        )
        raise NotStarCovariant("ideal is not stable under star after antipode")
    rep.ok("STARKAPPA_IDEAL", note="(star kappa)(R) inside R")

    try:
        s_inv_part = factor_through(lcd.pi.conj(), -(lcd.pi @ sk).lin)
    except NoFactor as exc:
        raise NotStarCovariant(f"quotient star undefined: {exc}") from exc
    star_inv = AntilinMap(s_inv_part)
    rep.check_eq("EQ_614", star_inv @ lcd.pi, -(lcd.pi @ sk), note="quotient rule with its sign")

    fwd = tensor(I, lcd.proj_coords) @ lcd.action
    swap = permutation_map([1, 0], [n, q])
    star_gamma = (c.mgr @ tensor(lcd.incl, I)) @ (star_inv.tensor(star) @ (swap @ fwd))
    rep.check_eq("STAR_GAMMA_INVOLUTION", star_gamma @ star_gamma, identity(gd))
    rep.check_eq("STAR_D_COMPAT", star_gamma @ c.d, c.d @ star, note="(da)* = d(a*)")
    psi_ag = permutation_map([1, 0], [n, gd])
    psi_ga = permutation_map([1, 0], [gd, n])
    rep.check_eq("STAR_BIMODULE_L", star_gamma @ c.mgl, c.mgr @ (star_gamma.tensor(star) @ psi_ag))
    rep.check_eq("STAR_BIMODULE_R", star_gamma @ c.mgr, c.mgl @ (star.tensor(star_gamma) @ psi_ga))
    if flips is not None:
        rep.check_eq(
            "EQ_613",
            lcd.action @ star_gamma,
            (flips["left"][1].map @ psi_ag) @ (star.tensor(star_gamma) @ lcd.action),
        )
    if rcd is not None:
        if flips is not None:
            rep.check_eq(
                "EQ_615",
                rcd.action @ star_gamma,
                (flips["right"][1].map @ psi_ga) @ (star_gamma.tensor(star) @ rcd.action),
            )
        rep.check_eq("EQ_616", star_gamma @ rcd.zeta_hat, -(rcd.zeta_hat @ sk))
    if kappa_data is not None:
        rep.check_eq("EQ_617", kappa_data.map @ star_gamma, star_gamma @ kappa_data.inverse)
    return star_gamma


def check_star_flip_compat(
    c: FirstOrderCalculus,
    flips: dict,
    sg: StarGroup,
    star_gamma: AntilinMap,
    report: Report | None = None,
) -> Report:
    """Flip compatibility with the star over the table's flip_window: each flip
    conjugates into the mirrored system.  EQ_69/EQ_610 are written once; the right
    one swaps the roles of the two antilinear products star_gamma (x) star and
    star (x) star_gamma."""
    rep = report if report is not None else Report()
    g = sg.group
    n, gd = g.dim, c.gdim
    psi = permutation_map([1, 0], [n, n])
    star = sg.star
    sg_s, s_sg = star_gamma.tensor(star), star.tensor(star_gamma)
    once = Verdicts(rep)
    conj: dict = {}  # a distinct sigma_k^-1 -> its conjugate by psi
    for k in flip_window(flips):
        sk_inv = g.sigma_n_inv(k)
        if sk_inv not in conj:
            conj[sk_inv] = compose(psi, sk_inv, psi)
        conj_braid = conj[sk_inv]
        try:
            conj_flips = {side: flip_for(c, conj_braid, side, ("conj", k)).map for side in ("left", "right")}
        except (NotCovariant, NotBijective) as exc:
            rep.fail(f"EQ_69_n{k}", {"reason": str(exc)})
            rep.fail(f"EQ_610_n{k}", {"reason": str(exc)})
            continue
        for side, key, a, b in (("left", "EQ_69", sg_s, s_sg), ("right", "EQ_610", s_sg, sg_s)):
            fk, cb = flips[side][k].map, conj_flips[side]
            once.check(f"{key}_n{k}", (fk, cb), lambda key: rep.check_eq(key, fk @ a, b @ cb))
    return rep
