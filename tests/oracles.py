"""Independent brute-force evaluators used to freeze expected test values.

Everything here works on plain nested lists of Q scalars with explicit
index loops; none of the engine's composition or elimination machinery is
used, so these can serve as independent cross-checks of derived maps.
"""

import json

from braidcalc.algebras import FiniteDimAlgebra
from braidcalc.bundles import Bundle
from braidcalc.calculi import FirstOrderCalculus
from braidcalc.groups import MultiBraidedGroup
from braidcalc.linalg import AntilinMap, LinMap
from braidcalc.scalars import Q


def mat(rows):
    "Nested lists of Q from ints/strings/Fractions."
    out = []
    for row in rows:
        out.append([x if isinstance(x, Q) else Q.parse(x) if isinstance(x, str) else Q(x) for x in row])
    return out


def q_rows(f):
    "A map's entries as dense rows of Q values, read one entry at a time."
    return tuple(tuple(f.entry(i, j) for j in range(f.dom)) for i in range(f.cod))


def mat_vec(rows, vec):
    return [sum((rows[i][j] * vec[j] for j in range(len(vec))), Q(0)) for i in range(len(rows))]


def vec_tensor(x, y):
    return [a * b for a in x for b in y]


def basis(n, i):
    return [Q(1 if t == i else 0) for t in range(n)]


def mat_mul(a, b, cols):
    "a @ b for a b with `cols` columns; the count is explicit because b may have no rows."
    rows, inner = len(a), len(b)
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), Q(0)) for j in range(cols)]
        for i in range(rows)
    ]


def kron(a, b):
    ra, ca = len(a), len(a[0]) if a else 0
    rb, cb = len(b), len(b[0]) if b else 0
    out = [[Q(0)] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for t in range(cb):
                    out[i * rb + k][j * cb + t] = a[i][j] * b[k][t]
    return out


def rref(rows):
    """In-place RREF of a list of Q-entry rows; returns (rows, pivot column list).

    The engine's former dense elimination over Q(i), kept as the reference
    for its fraction-free sparse elimination.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inv()
        prow = rows[r]
        if inv != Q(1):
            for j in range(ncols):
                if prow[j]:
                    prow[j] = prow[j] * inv
        support = [j for j in range(ncols) if prow[j]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                row = rows[i]
                for j in support:
                    row[j] = row[j] - factor * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def group_tables(g):
    "Structure tensors of a group record as plain coefficient tables."
    n = g.dim
    mult = [[[g.mult.entry(k, i * n + j) for k in range(n)] for j in range(n)] for i in range(n)]
    cop = [[[g.coproduct.entry(a * n + b, i) for b in range(n)] for a in range(n)] for i in range(n)]
    eps = [g.counit.entry(0, i) for i in range(n)]
    kap = [[g.antipode.entry(i, j) for i in range(n)] for j in range(n)]  # kap[j] = image of e_j
    sig = [
        [[[g.braiding.entry(a * n + b, i * n + j) for b in range(n)] for a in range(n)] for j in range(n)]
        for i in range(n)
    ]
    unit = [g.unit.entry(i, 0) for i in range(n)]
    return {"n": n, "mult": mult, "cop": cop, "eps": eps, "kap": kap, "sig": sig, "unit": unit}


def oracle_tau_column(g, i, j):
    """tau(e_i (x) e_j) by direct expansion of its first defining expression.

    Loops: apply sigma, then the coproduct on the second leg, then the
    inverse braiding on the first two legs, then the counit on leg one.
    """
    t = group_tables(g)
    n = t["n"]
    sig_inv = _invert_braiding(g)
    out = [Q(0)] * (n * n)
    for a in range(n):
        for b in range(n):
            c1 = t["sig"][i][j][a][b]
            if not c1:
                continue
            for p in range(n):
                for q in range(n):
                    c2 = t["cop"][b][p][q]
                    if not c2:
                        continue
                    for u in range(n):
                        for v in range(n):
                            c3 = sig_inv[a][p][u][v]
                            if not c3:
                                continue
                            out[v * n + q] += c1 * c2 * c3 * t["eps"][u]
    return out


def _invert_braiding(g):
    "Inverse braiding coefficients via the engine's exact inverse (matrix only)."
    n = g.dim
    s_inv = g.braiding.inverse()
    return [
        [[[s_inv.entry(a * n + b, i * n + j) for b in range(n)] for a in range(n)] for j in range(n)]
        for i in range(n)
    ]


def oracle_adjoint_column(g, i):
    "ad(e_i) by direct expansion: double coproduct, tau on legs 1-2, antipode, product."
    t = group_tables(g)
    n = t["n"]
    tau = [
        [[[g.tau.entry(a * n + b, p * n + q) for b in range(n)] for a in range(n)] for q in range(n)]
        for p in range(n)
    ]
    out = [Q(0)] * (n * n)
    for p in range(n):
        for q in range(n):
            c1 = t["cop"][i][p][q]
            if not c1:
                continue
            for r in range(n):
                for s in range(n):
                    c2 = t["cop"][q][r][s]
                    if not c2:
                        continue
                    for a in range(n):
                        for b in range(n):
                            c3 = tau[p][r][a][b]
                            if not c3:
                                continue
                            for kpp in range(n):
                                ck = t["kap"][b][kpp]
                                if not ck:
                                    continue
                                for w in range(n):
                                    cm = t["mult"][kpp][s][w]
                                    if cm:
                                        out[a * n + w] += c1 * c2 * c3 * ck * cm
    return out


def oracle_pointwise_product(fx, fy):
    "Pointwise product of two function-algebra coordinate vectors."
    return [a * b for a, b in zip(fx, fy)]


def residual_of_witness(lhs_rows, rhs_rows, witness_input):
    "Recompute the residual a report witness claims, from raw matrices."
    vec = [Q.parse(x) for x in witness_input]
    lhs = mat_vec(lhs_rows, vec)
    rhs = mat_vec(rhs_rows, vec)
    return [a - b for a, b in zip(lhs, rhs)]


def mirror(g):
    """The mirror record (m P, P Delta, eps, kappa, P sigma P), P the tensor flip.

    Reflecting string diagrams left to right turns right-handed structure
    into left-handed structure; the flipped maps are built by permuting
    entries, with no composition.
    """
    n = g.dim

    def flip(k):
        i, j = divmod(k, n)
        return j * n + i

    nn = range(n * n)
    mult = LinMap.from_entries(n, n * n, [[g.mult.entry(k, flip(c)) for c in nn] for k in range(n)])
    cop = LinMap.from_entries(n * n, n, [[g.coproduct.entry(flip(r), i) for i in range(n)] for r in nn])
    braiding = LinMap.from_entries(n * n, n * n, [[g.braiding.entry(flip(r), flip(c)) for c in nn] for r in nn])
    alg = FiniteDimAlgebra(n, g.unit, mult, g.alg.labels)
    return MultiBraidedGroup(alg, cop, g.counit, g.antipode, braiding)


_POWERS_OF_I = (Q(1), Q(0, 1), Q(-1), Q(0, -1))


def _phase(index, slots):
    "k with D's entry i^k at a composite index: the sum of its digits in the slots that D acts on."
    k = 0
    for size, acted in reversed(slots):
        index, digit = divmod(index, size)
        k += digit if acted else 0
    return k


def _phased_map(f, out_slots, in_slots, sign=-1):
    "Every entry (r, c) of f times i^(phase(r) + sign * phase(c)), so D f D^-1 for sign -1."
    rows = [[Q(0)] * f.dom for _ in range(f.cod)]
    for r in range(f.cod):
        for c in f.support(r):
            rows[r][c] = f.entry(r, c) * _POWERS_OF_I[(_phase(r, out_slots) + sign * _phase(c, in_slots)) % 4]
    return LinMap.from_entries(f.cod, f.dom, rows)


def phased(bundle):
    """The bundle in the basis D e_k, D = diag(i^k): the metamorphic phase oracle.

    Every structure map is conjugated by D on each group slot (m becomes
    D m (D^-1 (x) D^-1), and so on), a calculus keeps its module basis (only
    the group slots of mgl, mgr and d change), an ideal generator v becomes
    D v, and the star lin carries over as D lin conj(D)^-1 = D lin D.  The
    maps are scaled entry by entry, with no composition.  D commutes with
    the flip, so a flip braiding stays real; the unit and the product
    become complex, and the other maps may.
    """
    g = bundle.group
    n = g.dim
    one, a, aa = ((1, False),), ((n, True),), ((n, True), (n, True))
    alg = FiniteDimAlgebra(n, _phased_map(g.unit, a, one), _phased_map(g.mult, a, aa), g.alg.labels)
    group = MultiBraidedGroup(
        alg,
        _phased_map(g.coproduct, aa, a),
        _phased_map(g.counit, one, a),
        _phased_map(g.antipode, a, a),
        _phased_map(g.braiding, aa, aa),
    )
    star = None if bundle.star is None else AntilinMap(_phased_map(bundle.star.lin, a, a, sign=1))
    calculi = []
    for c in bundle.calculi:
        m = ((c.gdim, False),)
        calculi.append(
            FirstOrderCalculus(
                group,
                c.gdim,
                _phased_map(c.mgl, m, ((n, True), (c.gdim, False))),
                _phased_map(c.mgr, m, ((c.gdim, False), (n, True))),
                _phased_map(c.d, m, a),
                name=c.name,
            )
        )
    ideals = [(name, [[x * _POWERS_OF_I[k % 4] for k, x in enumerate(v)] for v in vectors]) for name, vectors in bundle.ideals]
    return Bundle(group, star, calculi, ideals)


def emit_report(report, engine_version, input_digest=""):
    "A report as `json.dumps(..., sort_keys=True, indent=2)` writes it, from one dict per entry."
    entries = []
    for e in report.entries:
        d = {"id": e.id, "status": e.status}
        if e.ctx:
            d["ctx"] = e.ctx
        if e.name:
            d["name"] = e.name
        if e.witness is not None:
            d["witness"] = e.witness
        if e.note:
            d["note"] = e.note
        entries.append(d)
    data = {
        "engine": {"name": "braidcalc", "version": engine_version},
        "input_digest": input_digest,
        "entries": entries,
        "summary": report.counts(),
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
