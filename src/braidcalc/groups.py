"""Braided quantum-group records and their derived structure.

A group record holds the algebra plus coproduct, counit, antipode and the
intrinsic braiding.  From these the secondary braiding tau, the shift
family sigma_n = (sigma tau^-1)^(n-1) sigma, the simplified product
m0 = m tau^-1 sigma, the adjoint action and ker(eps) are derived and
cached (a paranoid verification pass recomputes tau and the shifts on a
fresh clone and compares); kappa0, the antipode of m0, is derived on each
call.  Each shift is one product away from its neighbour toward
sigma_1 = sigma, and a shift equal to one derived before it is that
object, so equal shifts are one object: the checks over the shift family,
which key their verdicts by the maps, find a repeat by identity without
comparing rows.  Every inverse (sigma^-1, kappa^-1, tau^-1, sigma_n^-1)
comes from inverse_of, which keeps one inverse per distinct map, compared
by value.  The verdicts of the ideal conditions (covariance) are kept on
the record as well, once per side and subspace.
"""

from __future__ import annotations

from collections import namedtuple

from .algebras import FiniteDimAlgebra, _set_fields, check_algebra
from .linalg import (
    DimensionMismatch,
    LinMap,
    Subspace,
    compose,
    identity,
    tensor,
)
from .reporting import Report, Verdicts


class TauMismatch(ValueError):
    "The two defining expressions for tau differ: not a valid braided group."


class TauSingular(ValueError):
    pass


class Kappa0Mismatch(ValueError):
    pass


class InternalInconsistency(AssertionError):
    """An engine self-check failed.  On a valid group record it indicates a solver
    bug; a record that fails a non-fatal group check (such as PHI_MULT) still
    reaches the calculus sections, and its self-checks can fail there too."""


# the largest |n| for which sigma_n is derived
SIGMA_CAP = 16


class MultiBraidedGroup:
    """A braided group record: the algebra, coproduct, counit, antipode and
    braiding.  Immutable; equal and hashed by identity.  Derived structure
    is cached in _cache."""

    __slots__ = ("alg", "coproduct", "counit", "antipode", "braiding", "_cache")

    def __init__(
        self,
        alg: FiniteDimAlgebra,
        coproduct: LinMap,
        counit: LinMap,
        antipode: LinMap,
        braiding: LinMap,
    ):
        n = alg.dim
        if coproduct.dom != n or coproduct.cod != n * n:
            raise DimensionMismatch("coproduct must map dim -> dim^2")
        if counit.dom != n or counit.cod != 1:
            raise DimensionMismatch("counit must map dim -> 1")
        if antipode.dom != n or antipode.cod != n:
            raise DimensionMismatch("antipode must be an endomorphism")
        if braiding.dom != n * n or braiding.cod != n * n:
            raise DimensionMismatch("braiding must act on dim^2")
        _set_fields(self, alg=alg, coproduct=coproduct, counit=counit, antipode=antipode, braiding=braiding, _cache={})

    __setattr__ = __delattr__ = FiniteDimAlgebra.__setattr__

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def mult(self) -> LinMap:
        return self.alg.mult

    @property
    def unit(self) -> LinMap:
        return self.alg.unit

    def _derived(self, key, fn):
        "The value cached under key, from fn() on the first call."
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = fn()
            return value

    @property
    def sigma_inv(self) -> LinMap:
        return self.inverse_of(self.braiding)

    @property
    def kappa_inv(self) -> LinMap:
        return self.inverse_of(self.antipode)

    @property
    def tau(self) -> LinMap:
        return self._derived("tau", lambda: derive_tau(self))

    @property
    def counit_kernel(self) -> Subspace:
        "ker(eps), where every ideal lives."
        return self._derived("counit_kernel", self.counit.kernel)

    @property
    def tau_inv(self) -> LinMap:
        return self.inverse_of(self.tau)

    @property
    def m0(self) -> LinMap:
        "The simplified product m tau^-1 sigma."
        return self._derived("m0", lambda: compose(self.mult, self.tau_inv, self.braiding))

    # the steps along the shift family: sigma tau^-1 and tau^-1 sigma up, their inverses down

    @property
    def sigma_tau_inv(self) -> LinMap:
        return self._derived("sigma_tau_inv", lambda: self.braiding @ self.tau_inv)

    @property
    def tau_inv_sigma(self) -> LinMap:
        return self._derived("tau_inv_sigma", lambda: self.tau_inv @ self.braiding)

    @property
    def tau_sigma_inv(self) -> LinMap:
        return self._derived("tau_sigma_inv", lambda: self.tau @ self.sigma_inv)

    @property
    def sigma_inv_tau(self) -> LinMap:
        return self._derived("sigma_inv_tau", lambda: self.sigma_inv @ self.tau)

    def sigma_n(self, n: int) -> LinMap:
        if abs(n) > SIGMA_CAP:
            raise ValueError(f"shift {n} beyond the bound {SIGMA_CAP}")
        return self._derived(("sigma_n", n), lambda: _derive_shift(self, n))

    def sigma_n_inv(self, n: int) -> LinMap:
        return self.inverse_of(self.sigma_n(n))

    def inverse_of(self, f: LinMap) -> LinMap:
        "f^-1, kept on the record once per distinct f (compared by value): equal maps share one inverse."
        return self._derived(("inverse", f), f.inverse)

    def uncached_clone(self) -> "MultiBraidedGroup":
        return MultiBraidedGroup(self.alg, self.coproduct, self.counit, self.antipode, self.braiding)


def derive_tau(g: MultiBraidedGroup) -> LinMap:
    """The secondary braiding, from both of its defining expressions.

    Raises TauMismatch when the expressions disagree (the record is not a
    braided group) and TauSingular when the common value is not bijective.
    """
    n = g.dim
    I = identity(n)
    s, s_inv = g.braiding, g.sigma_inv
    left = compose(tensor(g.counit, I, I), tensor(s_inv, I), tensor(I, g.coproduct), s)
    right = compose(tensor(I, I, g.counit), tensor(I, s_inv), tensor(g.coproduct, I), s)
    if left != right:
        diff = left - right
        j = diff.first_nonzero_col()
        raise TauMismatch(
            f"tau expressions disagree on basis column {j}: "
            f"{[str(x) for x in left.col(j)]} vs {[str(x) for x in right.col(j)]}"
        )
    if not left.is_invertible():
        raise TauSingular("derived tau is not bijective")
    return left


def _derive_shift(g: MultiBraidedGroup, n: int) -> LinMap:
    """sigma_n from the neighbour toward sigma_1 = sigma, by both expressions:
    sigma_n = (sigma tau^-1) sigma_(n-1) = sigma_(n-1) (tau^-1 sigma) above 1,
    and (tau sigma^-1) sigma_(n+1) = sigma_(n+1) (sigma^-1 tau) below.  A
    value met before is returned as the object derived first."""
    distinct = g._derived("distinct_shifts", list)
    if n == 1:
        g.tau_inv  # sigma_1 needs tau, as every shift does
        distinct.append(g.braiding)
        return g.braiding
    if n > 1:
        near = g.sigma_n(n - 1)
        a, b = g.sigma_tau_inv @ near, near @ g.tau_inv_sigma
    else:
        near = g.sigma_n(n + 1)
        a, b = g.tau_sigma_inv @ near, near @ g.sigma_inv_tau
    if a != b:
        raise InternalInconsistency(f"sigma_{n}: the two product expressions differ")
    for s in distinct:
        if s == a:
            return s
    distinct.append(a)
    return a


def simplified_algebra(g: MultiBraidedGroup) -> FiniteDimAlgebra:
    "The same space with the twisted product m0 = m tau^-1 sigma."
    return FiniteDimAlgebra(g.dim, g.unit, g.m0, g.alg.labels)


def kappa0(g: MultiBraidedGroup) -> LinMap:
    "The antipode of the simplified algebra, from both expressions."
    a = compose(tensor(g.counit, g.antipode), g.braiding, g.coproduct)
    b = compose(tensor(g.antipode, g.counit), g.braiding, g.coproduct)
    if a != b:
        raise Kappa0Mismatch("the two expressions for kappa0 differ")
    return a


def adjoint_action(g: MultiBraidedGroup) -> LinMap:
    "The adjoint action of the group on itself, as a map dim -> dim^2; cached on the record."
    I = identity(g.dim)
    return g._derived(
        "ad",
        lambda: compose(
            tensor(I, g.mult),
            tensor(I, g.antipode, I),
            tensor(g.tau, I),
            tensor(I, g.coproduct),
            g.coproduct,
        ),
    )


def check_adjoint(g: MultiBraidedGroup, report: Report | None = None, shift_range: int = 2) -> Report:
    "Counit/coassociativity laws and shift twistings of the adjoint action."
    rep = report if report is not None else Report()
    n = g.dim
    I = identity(n)
    ad = adjoint_action(g)
    eps, phi, kap, tau, m, unit = g.counit, g.coproduct, g.antipode, g.tau, g.mult, g.unit
    rep.check_eq("EQ_B1", ad @ unit, tensor(unit, unit), note="adjoint action fixes the unit")
    rep.check_eq("EQ_B2A", compose(tensor(eps, I), ad), unit @ eps)
    rep.check_eq(
        "EQ_B2B",
        compose(tensor(I, m @ tensor(I, kap), I), tensor(ad, phi), phi),
        compose(tensor(I, kap, I), tensor(tau, I), tensor(I, phi), phi),
    )
    I_ad, ad_I = tensor(I, ad), tensor(ad, I)
    rep.check_eq("EQ_B3", compose(tensor(I, eps), ad), I)
    rep.check_eq("EQ_B4", compose(tensor(I, phi), ad), compose(ad_I, ad))
    shifts = range(-shift_range, shift_range + 1)
    sigma = {k: g.sigma_n(k) for k in shifts}
    once = Verdicts(rep)
    for m_shift in shifts:
        for n_shift in shifts:
            sm, sn = sigma[m_shift], sigma[n_shift]
            once.check(
                f"EQ_B7_n{n_shift}_m{m_shift}",
                (sm, sn),
                lambda key: rep.check_eq(key, compose(I_ad, sm), compose(tensor(sm, I), tensor(I, sn), ad_I)),
            )
            once.check(
                f"EQ_B8_n{n_shift}_m{m_shift}",
                (sm, sn),
                lambda key: rep.check_eq(key, compose(ad_I, sn), compose(tensor(I, sm), tensor(sn, I), I_ad)),
            )
    return rep


class BraidSystem(namedtuple("BraidSystem", "dim elements")):
    "Distinct invertible maps on dim^2, braided among themselves (check_braid_system)."

    __slots__ = ()

    @staticmethod
    def of(dim: int, maps) -> "BraidSystem":
        seen: list = []
        for f in maps:
            if f.dom != dim * dim or f.cod != dim * dim:
                raise DimensionMismatch("braid-system elements act on dim^2")
            if f not in seen:
                seen.append(f)
        return BraidSystem(dim, tuple(seen))


def check_braid_system(t: BraidSystem, alg: FiniteDimAlgebra, report: Report | None = None) -> Report:
    """Per element: invertibility and both hexagons with the product.

    Per ordered triple (a, b, c): the mixed braid relation
    (id (x) a)(b (x) id)(id (x) c) = (c (x) id)(id (x) b)(a (x) id).
    """
    rep = report if report is not None else Report()
    n = alg.dim
    I = identity(n)
    m = alg.mult
    for i, s in enumerate(t.elements):
        rep.check_invertible(f"SYS_E{i}_INVERTIBLE", s)
        rep.check_eq(
            f"SYS_E{i}_HEX_L",
            compose(tensor(I, m), tensor(s, I), tensor(I, s)),
            s @ tensor(m, I),
            name="EQ_29",
        )
        rep.check_eq(
            f"SYS_E{i}_HEX_R",
            compose(tensor(m, I), tensor(I, s), tensor(s, I)),
            s @ tensor(I, m),
            name="EQ_210",
        )
    for i, a in enumerate(t.elements):
        for j, b in enumerate(t.elements):
            for k, c in enumerate(t.elements):
                rep.check_eq(
                    f"SYS_MIXED_{i}_{j}_{k}",
                    compose(tensor(I, a), tensor(b, I), tensor(I, c)),
                    compose(tensor(c, I), tensor(I, b), tensor(a, I)),
                )
    return rep


class Completion(namedtuple("Completion", "system truncated")):
    "A braid system closed under a b^-1 c, or cut off at the size bound (truncated)."

    __slots__ = ()


def complete_braid_system(t: BraidSystem, max_elems: int = 64) -> Completion:
    """Close a braid system under the ternary operation (a, b, c) -> a b^-1 c.

    Deduplicates by exact matrix equality and stops when closed, or marks
    the result truncated once max_elems is reached.
    """
    elems: list = list(t.elements)
    inverses = {f: f.inverse() for f in elems}
    frontier = list(elems)
    while frontier:
        new: list = []
        for a in elems:
            for b in elems:
                for c in elems:
                    if a not in frontier and b not in frontier and c not in frontier:
                        continue
                    d = compose(a, inverses[b], c)
                    if d not in elems and d not in new:
                        new.append(d)
                        if len(elems) + len(new) > max_elems:
                            return Completion(BraidSystem(t.dim, tuple(elems + new)), True)
        for d in new:
            inverses[d] = d.inverse()
        elems.extend(new)
        frontier = new
    return Completion(BraidSystem(t.dim, tuple(elems)), False)


def explore_antipode_shifts(g: MultiBraidedGroup, shift_range: int = 2) -> dict:
    """Survey which shifts m satisfy sigma_n (kappa (x) kappa) = (kappa (x) kappa) sigma_m.

    Purely exploratory; nothing is asserted.
    """
    kk = tensor(g.antipode, g.antipode)
    shifts = range(-shift_range, shift_range + 1)
    sigma = {k: g.sigma_n(k) for k in shifts}
    distinct = dict.fromkeys(sigma.values())  # equal shifts are one object
    lhs, rhs = {a: a @ kk for a in distinct}, {b: kk @ b for b in distinct}
    match = {(a, b): lhs[a] == rhs[b] for a in distinct for b in distinct}
    return {n: [m for m in shifts if match[sigma[n], sigma[m]]] for n in shifts}


def check_group(
    g: MultiBraidedGroup,
    report: Report | None = None,
    shift_range: int = 2,
    paranoid: bool = False,
) -> Report:
    "The full axiom and derived-identity battery for a group record."
    rep = report if report is not None else Report()
    n = g.dim
    I = identity(n)
    m, unit, phi, eps, kap, s = g.mult, g.unit, g.coproduct, g.counit, g.antipode, g.braiding

    check_algebra(g.alg, rep)
    rep.check_invertible("SIGMA_INVERTIBLE", s)
    rep.check_invertible("KAPPA_INVERTIBLE", kap)
    rep.check_eq("COASSOC", compose(tensor(phi, I), phi), compose(tensor(I, phi), phi))
    rep.check_eq("COUNIT_L", compose(tensor(eps, I), phi), I)
    rep.check_eq("COUNIT_R", compose(tensor(I, eps), phi), I)
    rep.check_eq("ANTIPODE_L", compose(m, tensor(kap, I), phi), unit @ eps)
    rep.check_eq("ANTIPODE_R", compose(m, tensor(I, kap), phi), unit @ eps)
    rep.check_eq(
        "SIGMA_YB",
        compose(tensor(s, I), tensor(I, s), tensor(s, I)),
        compose(tensor(I, s), tensor(s, I), tensor(I, s)),
    )
    rep.check_eq("HEX_L", compose(tensor(I, m), tensor(s, I), tensor(I, s)), s @ tensor(m, I), name="EQ_29")
    rep.check_eq("HEX_R", compose(tensor(m, I), tensor(I, s), tensor(s, I)), s @ tensor(I, m), name="EQ_210")
    rep.check_eq("SIGMA_UNITAL_L", s @ tensor(unit, I), tensor(I, unit))
    rep.check_eq("SIGMA_UNITAL_R", s @ tensor(I, unit), tensor(unit, I))
    rep.check_eq(
        "PHI_MULT",
        phi @ m,
        compose(tensor(m, m), tensor(I, s, I), tensor(phi, phi)),
    )

    try:
        tau = g.tau
    except (TauMismatch, TauSingular) as exc:
        rep.fail("TAU_OK", {"reason": str(exc)})
        return rep
    rep.ok("TAU_OK", note="both defining expressions agree; tau bijective")
    rep.check_eq("TAU_UNITAL_L", tau @ tensor(unit, I), tensor(I, unit))
    rep.check_eq("TAU_UNITAL_R", tau @ tensor(I, unit), tensor(unit, I))

    eps2 = tensor(eps, eps)
    eps2_twisted = eps2 @ g.sigma_inv_tau
    rep.check_eq("EPS_M_SIGMA_TAU", eps @ m, eps2_twisted)
    rep.check_eq("EPS_SIGMA", eps2_twisted, eps2)
    rep.check_eq("EPS_TAU_L", compose(tensor(eps, I), tau), tensor(I, eps))
    rep.check_eq("EPS_TAU_R", compose(tensor(I, eps), tau), tensor(eps, I))

    steps: dict = {}  # a distinct sigma_(k-1) -> both steps up from it
    consistent = True
    for k in range(-shift_range, shift_range + 1):
        near = g.sigma_n(k - 1)
        if near not in steps:
            steps[near] = near @ g.tau_inv_sigma, g.sigma_tau_inv @ near
        consistent = consistent and all(g.sigma_n(k) == step for step in steps[near])
    rep.check_true("SIGMAN_CONSISTENT", consistent, {"reason": "shift-family recurrence failed"})

    sys_rep = Report(ctx=rep.ctx)
    check_braid_system(BraidSystem.of(n, [s, tau]), g.alg, sys_rep)
    rep.extend(sys_rep)
    rep.check_true(
        "SYS_OK",
        sys_rep.ok_all,
        {"reason": "the pair {sigma, tau} fails the braid-system battery"},
    )

    sigma_eq_tau = s == tau
    shifts_collapse = all(g.sigma_n(k) == s for k in range(-4, 5))
    m0 = g.m0
    rep.check_true(
        "CLASSICAL_REDUCTION",
        (sigma_eq_tau == shifts_collapse) and (sigma_eq_tau == (m0 == m)),
        {"reason": "sigma=tau, shift collapse and m0=m disagree"},
        note=f"sigma=tau: {sigma_eq_tau}; sigma_n=sigma on [-4,4]: {shifts_collapse}; m0=m: {m0 == m}",
    )
    a0 = simplified_algebra(g)
    check_algebra(a0, rep, prefix="A0_")

    if paranoid:
        fresh = g.uncached_clone()
        agree = fresh.tau == tau and all(
            fresh.sigma_n(k) == g.sigma_n(k) for k in range(-shift_range, shift_range + 1)
        )
        rep.check_true("PARANOID_CACHE_OK", agree, {"reason": "cached derived maps differ from recomputation"})
    return rep
