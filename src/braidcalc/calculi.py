"""First-order differential calculi as bimodule data, and flip-over operators.

A calculus is a bimodule over the group's algebra together with a
differential d whose left multiplication map iota_l = mgl (id (x) d) is
surjective.  Covariance with respect to a braiding gamma means gamma
extends to a bijective flip-over operator between Gamma (x) A and
A (x) Gamma compatible with iota; the solver realizes the extension by
factoring through iota and verifies the full identity battery.

A calculus keeps what is derived from it alone, as the group record does:
iota_l, iota_r and every flip it has solved, one per side and braid.  The
group's equal shifts are one object, so a flip asked for at a repeated
shift, or for the inverse of a repeated shift, is found by identity.
"""

from __future__ import annotations

from collections import namedtuple

from .algebras import FiniteDimAlgebra, _set_fields
from .groups import MultiBraidedGroup
from .linalg import (
    DimensionMismatch,
    LinMap,
    NoFactor,
    NotInvertible,
    compose,
    factor_through,
    identity,
    tensor,
)
from .reporting import Report, Verdicts


class NotCovariant(ValueError):
    "The flip-over operator does not exist (kernel obstruction)."


class NotBijective(ValueError):
    "A flip-over operator exists but is not invertible."


class FirstOrderCalculus:
    """A calculus Gamma of dimension gdim over a group: the bimodule maps mgl, mgr
    and the differential d.  Immutable; equal and hashed by its six fields.
    Derived maps are cached in _cache, which takes no part in equality."""

    __slots__ = ("group", "gdim", "mgl", "mgr", "d", "name", "_cache")

    def __init__(
        self, group: MultiBraidedGroup, gdim: int, mgl: LinMap, mgr: LinMap, d: LinMap, name: str = "calculus"
    ):
        n = group.dim
        if mgl.dom != n * gdim or mgl.cod != gdim:
            raise DimensionMismatch("mgl must map A (x) Gamma -> Gamma")
        if mgr.dom != gdim * n or mgr.cod != gdim:
            raise DimensionMismatch("mgr must map Gamma (x) A -> Gamma")
        if d.dom != n or d.cod != gdim:
            raise DimensionMismatch("d must map A -> Gamma")
        _set_fields(self, group=group, gdim=gdim, mgl=mgl, mgr=mgr, d=d, name=name, _cache={})

    __setattr__ = __delattr__ = FiniteDimAlgebra.__setattr__
    __eq__, __hash__ = FiniteDimAlgebra.__eq__, FiniteDimAlgebra.__hash__

    def _key(self) -> tuple:
        return (self.group, self.gdim, self.mgl, self.mgr, self.d, self.name)

    _derived = MultiBraidedGroup._derived  # reads and fills self._cache, as on the group record


def iota_l(c: FirstOrderCalculus) -> LinMap:
    "a (x) b -> a d(b); cached on the calculus."
    return c._derived("iota_l", lambda: c.mgl @ tensor(identity(c.group.dim), c.d))


def iota_r(c: FirstOrderCalculus) -> LinMap:
    "a (x) b -> d(a) b; cached on the calculus."
    return c._derived("iota_r", lambda: c.mgr @ tensor(c.d, identity(c.group.dim)))


def check_calculus(c: FirstOrderCalculus, report: Report | None = None) -> Report:
    "Leibniz rule, d(1) = 0, the five bimodule laws, and iota surjectivity."
    rep = report if report is not None else Report()
    n = c.group.dim
    I, Ig = identity(n), identity(c.gdim)
    m, unit, d, mgl, mgr = c.group.mult, c.group.unit, c.d, c.mgl, c.mgr
    rep.check_eq("EQ_21", d @ m, iota_l(c) + iota_r(c), name="LEIBNIZ")
    rep.check_eq("D_UNIT", d @ unit, LinMap.zero(c.gdim, 1))
    rep.check_eq("BIMOD_L_ASSOC", mgl @ tensor(m, Ig), mgl @ tensor(I, mgl))
    rep.check_eq("BIMOD_R_ASSOC", mgr @ tensor(Ig, m), mgr @ tensor(mgr, I))
    rep.check_eq("BIMOD_MIXED", mgr @ tensor(mgl, I), mgl @ tensor(I, mgr))
    rep.check_eq("BIMOD_UNIT_L", mgl @ tensor(unit, Ig), Ig)
    rep.check_eq("BIMOD_UNIT_R", mgr @ tensor(Ig, unit), Ig)
    rep.check_surjective("IOTA_L_SURJ", iota_l(c))
    rep.check_surjective("IOTA_R_SURJ", iota_r(c))
    return rep


class FlipOver(namedtuple("FlipOver", "direction label map inverse")):
    "A solved flip-over operator and its inverse, with the side and the braid label it was solved for."

    __slots__ = ()


def sided_tensor(side: str):
    """`tensor` for side 'left'; for 'right', `tensor` with its factors reversed,
    as reflecting a string diagram left to right reverses every tensor product.
    Written once through it for both sides: solve_flip, flip_tau_from_sigma,
    covariance's ideal conditions, flip restriction and reconstruction, and
    the mirrored shift-loop families of check_multi_covariance,
    check_bicovariance and check_kappa_covariance."""
    if side == "left":
        return tensor
    if side == "right":
        return lambda *maps: tensor(*reversed(maps))
    raise ValueError("side must be 'left' or 'right'")


def solve_flip(c: FirstOrderCalculus, braid: LinMap, direction: str = "left", label=None) -> FlipOver:
    """Solve the flip-over operator extending `braid` across the calculus.

    Left: x (iota_l (x) id) = (id (x) iota_l)(braid (x) id)(id (x) braid),
    solved by factoring through the surjection iota_l (x) id; the mirror
    characterization through iota_r is verified afterwards.  Right: the
    same with every tensor reversed and iota_l, iota_r swapped.  Raises
    NotCovariant on a kernel obstruction, NotBijective when the solved
    operator is not invertible.
    """
    t = sided_tensor(direction)
    I = identity(c.group.dim)
    io, alt_io = (iota_l(c), iota_r(c)) if direction == "left" else (iota_r(c), iota_l(c))
    f = t(io, I)
    rhs = compose(t(I, io), t(braid, I), t(I, braid))
    alt_f = t(alt_io, I)
    alt_rhs = compose(t(I, alt_io), t(braid, I), t(I, braid))
    try:
        x = factor_through(f, rhs)
    except NoFactor as exc:
        raise NotCovariant(f"{direction} flip for {label!r}: {exc}") from exc
    if compose(x, alt_f) != alt_rhs:
        raise NotCovariant(f"{direction} flip for {label!r}: mirror iota characterization fails")
    try:
        inv = x.inverse()
    except NotInvertible as exc:
        raise NotBijective(f"{direction} flip for {label!r} is not bijective") from exc
    return FlipOver(direction, label, x, inv)


def flip_for(c: FirstOrderCalculus, braid: LinMap, side: str, label) -> FlipOver:
    """The flip of `braid` on `side`, labelled `label`.

    Each distinct braid, compared by value, is solved once per side and
    calculus and kept on the calculus.  A failure is not kept, so the
    NotCovariant or NotBijective message names the label it was asked under.
    """
    flip = c._derived(("flip", side, braid), lambda: solve_flip(c, braid, side, label))
    return flip if flip.label == label else FlipOver(side, label, flip.map, flip.inverse)


def solve_flips(c: FirstOrderCalculus, shift_range: int = 2) -> dict:
    """Left and right flips of every shifted braiding sigma_n.

    The table spans [-2K, 2K] so that identities indexed by sums of two
    shifts in the window [-K, K] stay inside the table; the batteries that
    take the table read that window from it, through flip_window.  The
    shifts are taken in ascending order, left before right, through
    flip_for, so a distinct braid is solved at its first shift and a
    NotCovariant or NotBijective message names that shift.  Every entry is
    labelled with its own shift, and the entries of equal braids share
    their `map` and `inverse`.
    """
    table = {"left": {}, "right": {}}
    for n in range(-2 * shift_range, 2 * shift_range + 1):
        braid = c.group.sigma_n(n)
        for side in ("left", "right"):
            table[side][n] = flip_for(c, braid, side, n)
    return table


def flip_window(flips: dict) -> range:
    "The window [-K, K] of a table that solve_flips built over [-2K, 2K]."
    half = max(flips["left"]) // 2
    return range(-half, half + 1)


def _kernel_is_subbimodule(c: FirstOrderCalculus, ker) -> bool:
    "Is a subspace of Gamma (x) A stable under both module multiplications?"
    n = c.group.dim
    I, incl = identity(n), ker.inclusion()
    left = tensor(c.mgl, I) @ tensor(I, incl)
    right = tensor(identity(c.gdim), c.group.mult) @ tensor(incl, I)
    return ker.contains_space(left.image()) and ker.contains_space(right.image())


def check_flip_identities(c: FirstOrderCalculus, left: FlipOver, right: FlipOver, braid: LinMap, rep: Report) -> Report:
    """The flip-over identity battery for one braiding and its two flips.

    The left flip's identities, the two-sided compatibility EQ_232, then
    the right flip's identities.  FLIP_INV_L (FLIP_INV_R) asks that the
    inverse of the left (right) flip be the right (left) flip of the
    inverse braid; that flip is taken from flip_for, labelled
    ("inv", label), so a failed solve's reason names the flip's shift.
    The inverse of a shift of the group is read from the group record.
    """
    n = c.group.dim
    I, Ig = identity(n), identity(c.gdim)
    m, unit, d, mgl, mgr = c.group.mult, c.group.unit, c.d, c.mgl, c.mgr
    s, ls, rs, il, ir = braid, left.map, right.map, iota_l(c), iota_r(c)
    rep.check_eq("EQ_216", ls @ tensor(il, I), compose(tensor(I, il), tensor(s, I), tensor(I, s)))
    rep.check_eq("EQ_218A", ls @ tensor(Ig, unit), tensor(unit, Ig))
    rep.check_eq("EQ_218B", ls @ tensor(d, I), tensor(I, d) @ s)
    rep.check_eq(
        "EQ_220",
        compose(tensor(I, ls), tensor(ls, I), tensor(Ig, s)),
        compose(tensor(s, Ig), tensor(I, ls), tensor(ls, I)),
    )
    rep.check_eq("EQ_221", compose(tensor(I, mgl), tensor(s, Ig), tensor(I, ls)), ls @ tensor(mgl, I))
    rep.check_eq("EQ_222", compose(tensor(I, mgr), tensor(ls, I), tensor(Ig, s)), ls @ tensor(mgr, I))
    rep.check_eq("EQ_223", compose(tensor(m, Ig), tensor(I, ls), tensor(ls, I)), ls @ tensor(Ig, m))
    rep.check_surjective("LFLIP_SURJ", ls)
    rep.check_true(
        "LFLIP_KER_SUBBIMODULE",
        _kernel_is_subbimodule(c, ls.kernel()),
        {"reason": "kernel of the left flip is not a sub-bimodule"},
    )
    s_inv = c.group.inverse_of(s)
    try:
        rep.check_eq("FLIP_INV_L", left.inverse, flip_for(c, s_inv, "right", ("inv", left.label)).map)
    except (NotCovariant, NotBijective) as exc:
        rep.fail("FLIP_INV_L", {"reason": str(exc)})
    rep.check_eq(
        "EQ_232",
        compose(tensor(I, rs), tensor(s, Ig), tensor(I, ls)),
        compose(tensor(ls, I), tensor(Ig, s), tensor(rs, I)),
    )
    rep.check_eq("EQ_217", rs @ tensor(I, ir), compose(tensor(ir, I), tensor(I, s), tensor(s, I)))
    rep.check_eq("EQ_226A", rs @ tensor(unit, Ig), tensor(Ig, unit))
    rep.check_eq("EQ_226B", rs @ tensor(I, d), tensor(d, I) @ s)
    rep.check_eq(
        "EQ_227",
        compose(tensor(Ig, s), tensor(rs, I), tensor(I, rs)),
        compose(tensor(rs, I), tensor(I, rs), tensor(s, Ig)),
    )
    rep.check_eq("EQ_228", compose(tensor(Ig, m), tensor(rs, I), tensor(I, rs)), rs @ tensor(m, Ig))
    rep.check_eq("EQ_229", compose(tensor(mgr, I), tensor(Ig, s), tensor(rs, I)), rs @ tensor(I, mgr))
    rep.check_eq("EQ_230", compose(tensor(mgl, I), tensor(I, rs), tensor(s, Ig)), rs @ tensor(I, mgl))
    rep.check_surjective("RFLIP_SURJ", rs)
    try:
        rep.check_eq("FLIP_INV_R", right.inverse, flip_for(c, s_inv, "left", ("inv", right.label)).map)
    except (NotCovariant, NotBijective) as exc:
        rep.fail("FLIP_INV_R", {"reason": str(exc)})
    return rep


def flip_tau_from_sigma(c: FirstOrderCalculus, f_sigma: FlipOver, report: Report | None = None) -> FlipOver:
    """The flip of the secondary braiding, expressed through the sigma flip.

    Also verifies the closed inverse formula and the counit compatibility,
    and the mirrored construction when given a right flip.
    """
    rep = report if report is not None else Report()
    g = c.group
    side = f_sigma.direction
    t = sided_tensor(side)
    I, Ig = identity(g.dim), identity(c.gdim)
    eps, phi, tau = g.counit, g.coproduct, g.tau
    io = iota_l(c) if side == "left" else iota_r(c)
    flip, flip_inv = f_sigma.map, f_sigma.inverse
    # the defining equation, the closed inverse formula and the counit law
    key_def, key_inv, key_counit = {"left": ("EQ_239", "EQ_240", "EQ_241"), "right": ("EQ_243", "EQ_244", "EQ_245")}[side]
    ft = compose(t(I, Ig, eps), t(I, flip_inv), t(phi, Ig), flip)
    rep.check_eq(
        key_def,
        ft @ t(io, I),
        compose(t(I, io), t(tau, I), t(I, tau)),
        note="the derived tau flip satisfies the defining flip equation",
    )
    ft_inv = ft.inverse()
    rep.check_eq(key_inv, ft_inv, compose(t(eps, Ig, I), t(flip, I), t(Ig, phi), flip_inv))
    rep.check_eq(key_counit, t(eps, Ig) @ ft, t(Ig, eps))
    return FlipOver(side, "tau", ft, ft_inv)


def check_multi_covariance(c: FirstOrderCalculus, flips: dict, report: Report | None = None) -> Report:
    """Identities tying the whole flip family together, over the table's flip_window.

    Composition law for the ternary closure operation, the mixed braid
    relations with one calculus leg, coproduct twisting, and antipode
    twisting, plus the right-handed mirrors and the two-sided mixed law.
    EQ_234/EQ_236, and through sided_tensor EQ_242/EQ_246 and EQ_247/EQ_248,
    are each written once, the left entry before the right at every shift.
    EQ_237 reflects EQ_235 with shifts a and c exchanged, so it stays apart.
    """
    rep = report if report is not None else Report()
    g = c.group
    n = g.dim
    I, Ig = identity(n), identity(c.gdim)
    phi, kap = g.coproduct, g.antipode
    left, right = flips["left"], flips["right"]

    once = Verdicts(rep)
    for a in range(-1, 2):
        for b in range(-1, 2):
            for cc in range(-1, 2):
                if a - b + cc not in left:
                    continue
                for side, key in (("left", "EQ_234"), ("right", "EQ_236")):
                    fa, fb, fc, fsum = (flips[side][k] for k in (a, b, cc, a - b + cc))
                    once.check(
                        f"{key}_a{a}_b{b}_c{cc}",
                        (fa.map, fb.inverse, fc.map, fsum.map),
                        lambda key: rep.check_eq(key, compose(fa.map, fb.inverse, fc.map), fsum.map),
                    )
    shifts = flip_window(flips)
    sigma = {k: g.sigma_n(k) for k in shifts}
    for p in shifts:
        for q in shifts:
            for r in shifts:
                lp, lq, sr = left[p].map, left[q].map, sigma[r]
                once.check(
                    f"EQ_235_a{p}_b{q}_c{r}",
                    (lp, lq, sr),
                    lambda key: rep.check_eq(
                        key,
                        compose(tensor(I, lp), tensor(lq, I), tensor(Ig, sr)),
                        compose(tensor(sr, Ig), tensor(I, lq), tensor(lp, I)),
                    ),
                )
                sp, rq, rr = sigma[p], right[q].map, right[r].map
                once.check(
                    f"EQ_237_a{p}_b{q}_c{r}",
                    (sp, rq, rr),
                    lambda key: rep.check_eq(
                        key,
                        compose(tensor(Ig, sp), tensor(rq, I), tensor(I, rr)),
                        compose(tensor(rr, I), tensor(I, rq), tensor(sp, Ig)),
                    ),
                )
                rp, sq, lr = right[p].map, sigma[q], left[r].map
                once.check(
                    f"EQ_238_a{p}_b{q}_c{r}",
                    (rp, sq, lr),
                    lambda key: rep.check_eq(
                        key,
                        compose(tensor(I, rp), tensor(sq, Ig), tensor(I, lr)),
                        compose(tensor(lr, I), tensor(Ig, sq), tensor(rp, I)),
                    ),
                )
    for m_s in shifts:
        for n_s in shifts:
            for side, key in (("left", "EQ_242"), ("right", "EQ_246")):
                t, f = sided_tensor(side), flips[side]
                fn, fm, fsum = f[n_s].map, f[m_s].map, f[m_s + n_s].map
                once.check(
                    f"{key}_n{n_s}_m{m_s}",
                    (fn, fm, fsum),
                    lambda key: rep.check_eq(key, compose(t(I, fn), t(fm, I), t(Ig, phi)), t(phi, Ig) @ fsum),
                )
    for n_s in shifts:
        for side, key in (("left", "EQ_247"), ("right", "EQ_248")):
            t, f = sided_tensor(side), flips[side]
            once.check(
                f"{key}_n{n_s}",
                (f[n_s].map, f[-n_s].map),
                lambda key: rep.check_eq(key, f[n_s].map @ t(Ig, kap), t(kap, Ig) @ f[-n_s].map),
            )
    return rep
