"""Exact sparse linear algebra over Q(i).

LinMap is a linear map between explicitly-dimensioned coordinate spaces,
stored column-convention: column j is the image of the j-th domain basis
vector.  Internally a map keeps its nonzeros only: real and imaginary
integer numerators as one {col: int} dict per row, over one common
positive denominator, so composition is a row-by-row sparse product
(Gustavson) in integer arithmetic and a Kronecker product writes out
products of nonzeros only; entries are exposed as Q values.

Tensor products follow the row-major index convention: the composite
index of i (x) j in V (x) W is i*dim(W) + j, and kron satisfies the
mixed-product law with composition.

Zero-dimensional spaces are fully supported (maps with dom or cod 0);
identities over them hold vacuously.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import Q


class DimensionMismatch(ValueError):
    pass


_Q_ONE = Q(1)
_Q_ZERO = Q(0)
_F_ZERO = Fraction(0)


class NotInvertible(ValueError):
    pass


class NoFactor(ValueError):
    """No x with x.f = g exists (the kernel condition fails)."""


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def _q_to_int_triple(value) -> tuple[int, int, int]:
    "Return (a, b, d) with value = (a + b i)/d, d > 0."
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    if isinstance(value, Q):
        d = _lcm(value.re.denominator, value.im.denominator)
        return (
            value.re.numerator * (d // value.re.denominator),
            value.im.numerator * (d // value.im.denominator),
            d,
        )
    raise TypeError(f"cannot interpret {value!r} as a Q(i) scalar")


def _mul(A, B):
    "Sparse integer product A @ B, row by row (Gustavson)."
    out = []
    for Ai in A:
        if len(Ai) == 1:  # a multiple of one row of B; rows are never mutated, so 1 * row shares it
            [(t, a)] = Ai.items()
            out.append(B[t] if a == 1 else {j: a * b for j, b in B[t].items()})
            continue
        row: dict = {}
        get = row.get
        for t, a in Ai.items():
            for j, b in B[t].items():
                row[j] = get(j, 0) + a * b
        out.append(row)
    return out


def _kron(A, B, n2):
    "Sparse integer Kronecker product; only products of nonzeros are written."
    return [{j1 * n2 + j2: a * b for j1, a in Ai.items() for j2, b in Bi.items()} for Ai in A for Bi in B]


def _lincomb(A, sa, B, sb):
    "Rows of sa * A + sb * B; cancelled entries stay as zeros for __init__ to drop."
    out = []
    for Ai, Bi in zip(A, B):
        row = {j: x * sa for j, x in Ai.items()}
        get = row.get
        for j, x in Bi.items():
            row[j] = get(j, 0) + x * sb
        out.append(row)
    return out


def _sparse_rows(rows, cod, dom):
    """Rows as {col: int} dicts without zeros, from dense sequences or dicts.

    A dict row is taken as given (its keys must lie in range(dom)) and is
    adopted without a copy when it holds no zeros.
    """
    out = []
    for r in rows:
        if not isinstance(r, dict):
            r = r if isinstance(r, (list, tuple)) else list(r)
            if len(r) != dom:
                raise DimensionMismatch(f"expected {cod}x{dom} matrix")
            r = dict(enumerate(r))
        out.append(r if all(r.values()) else {j: x for j, x in r.items() if x})
    if len(out) != cod:
        raise DimensionMismatch(f"expected {cod}x{dom} matrix")
    return out


def _rows_key(rows):
    "A hashable form of sparse rows that ignores dict order."
    return tuple(frozenset(r.items()) for r in rows)


class LinMap:
    __slots__ = ("dom", "cod", "_re", "_im", "_den", "_q")

    def __init__(self, cod: int, dom: int, re_rows, im_rows=None, den: int = 1):
        """Entries (re + i im)/den, rows given as dense integer sequences or as
        {col: int} dicts (see _sparse_rows); the map owns its rows afterwards."""
        if cod < 0 or dom < 0:
            raise DimensionMismatch("dimensions must be nonnegative")
        re_rows = _sparse_rows(re_rows, cod, dom)
        if im_rows is not None:
            im_rows = _sparse_rows(im_rows, cod, dom)
        self.dom = dom
        self.cod = cod
        re_rows, im_rows, den = _normalize(re_rows, im_rows, den)
        self._re = tuple(re_rows)
        self._im = None if im_rows is None else tuple(im_rows)
        self._den = den
        self._q = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_entries(cod: int, dom: int, entries) -> "LinMap":
        "Build from a cod x dom array of Q / int / Fraction entries."
        rows = [list(r) for r in entries]
        if len(rows) != cod or any(len(r) != dom for r in rows):
            raise DimensionMismatch(f"expected {cod}x{dom} entries")
        den = 1
        triples = []
        for r in rows:
            trow = {j: _q_to_int_triple(x) for j, x in enumerate(r) if x}
            triples.append(trow)
            for _, _, d in trow.values():
                den = _lcm(den, d)
        re_rows = [{j: a * (den // d) for j, (a, _, d) in trow.items()} for trow in triples]
        im_rows = [{j: b * (den // d) for j, (_, b, d) in trow.items()} for trow in triples]
        return LinMap(cod, dom, re_rows, im_rows, den)

    @staticmethod
    def from_cols(cod: int, cols) -> "LinMap":
        cols = [list(c) for c in cols]
        for c in cols:
            if len(c) != cod:
                raise DimensionMismatch("column length mismatch")
        dom = len(cols)
        return LinMap.from_entries(cod, dom, [[cols[j][i] for j in range(dom)] for i in range(cod)])

    @staticmethod
    def identity(n: int) -> "LinMap":
        return LinMap(n, n, [{i: 1} for i in range(n)])

    @staticmethod
    def zero(cod: int, dom: int) -> "LinMap":
        return LinMap(cod, dom, [{}] * cod)

    # -- entry access ------------------------------------------------

    def entry(self, i: int, j: int) -> Q:
        if self._q is not None:
            return self._q[i][j]
        if not 0 <= j < self.dom:
            raise IndexError(f"column {j} outside range({self.dom})")
        re = self._re[i].get(j, 0)
        im = self._im[i].get(j, 0) if self._im is not None else 0
        if not re and not im:
            return _Q_ZERO
        return Q._make(Fraction(re, self._den), Fraction(im, self._den) if im else _F_ZERO)

    def _support(self, i: int):
        "Columns stored in row i."
        if self._im is None:
            return self._re[i].keys()
        return self._re[i].keys() | self._im[i].keys()

    def nnz(self) -> int:
        "Number of stored entries; only nonzeros are stored."
        return sum(len(self._support(i)) for i in range(self.cod))

    def q_rows(self) -> tuple:
        "Entries as dense rows of Q values; computed once and cached (maps are immutable)."
        if self._q is None:
            den = self._den
            cache: dict = {}
            rows = []
            for i, rr in enumerate(self._re):
                ri = self._im[i] if self._im is not None else {}
                row = [_Q_ZERO] * self.dom
                for j in self._support(i):
                    key = (rr.get(j, 0), ri.get(j, 0))
                    out = cache.get(key)
                    if out is None:
                        re, im = key
                        out = cache[key] = Q._make(Fraction(re, den), Fraction(im, den) if im else _F_ZERO)
                    row[j] = out
                rows.append(tuple(row))
            self._q = tuple(rows)
        return self._q

    def col(self, j: int) -> tuple:
        return tuple(self.entry(i, j) for i in range(self.cod))

    def apply(self, vec) -> tuple:
        vec = list(vec)
        if len(vec) != self.dom:
            raise DimensionMismatch("vector length != dom")
        out = []
        for i in range(self.cod):
            acc = Q(0)
            for j in self._support(i):
                if vec[j]:
                    acc = acc + self.entry(i, j) * vec[j]
            out.append(acc)
        return tuple(out)

    # -- algebra -----------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, AntilinMap):
            return AntilinMap(self @ other.lin)
        if not isinstance(other, LinMap):
            return NotImplemented
        if other.cod != self.dom:
            raise DimensionMismatch(f"compose: {self.cod}x{self.dom} after {other.cod}x{other.dom}")
        ar, ai, br, bi = self._re, self._im, other._re, other._im
        cr = _mul(ar, br)
        ci = None
        if ai is not None and bi is not None:
            cr = _lincomb(cr, 1, _mul(ai, bi), -1)
            ci = _lincomb(_mul(ar, bi), 1, _mul(ai, br), 1)
        elif ai is not None:
            ci = _mul(ai, br)
        elif bi is not None:
            ci = _mul(ar, bi)
        return LinMap(self.cod, other.dom, cr, ci, self._den * other._den)

    def __add__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        if (self.cod, self.dom) != (other.cod, other.dom):
            raise DimensionMismatch("add: shape mismatch")
        d = _lcm(self._den, other._den)
        sa, sb = d // self._den, d // other._den
        re = _lincomb(self._re, sa, other._re, sb)
        im = None
        if self._im is not None or other._im is not None:
            im = _lincomb(self._im_rows(), sa, other._im_rows(), sb)
        return LinMap(self.cod, self.dom, re, im, d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        im = None if self._im is None else [{j: -x for j, x in r.items()} for r in self._im]
        return LinMap(self.cod, self.dom, [{j: -x for j, x in r.items()} for r in self._re], im, self._den)

    def _im_rows(self):
        "Imaginary numerator rows, empty rows when the map is real."
        return self._im if self._im is not None else [{}] * self.cod

    def scale(self, value) -> "LinMap":
        a, b, d = _q_to_int_triple(value)
        ar, ai = self._re, self._im_rows()
        return LinMap(self.cod, self.dom, _lincomb(ar, a, ai, -b), _lincomb(ar, b, ai, a), self._den * d)

    def conj(self) -> "LinMap":
        im = None if self._im is None else [{j: -x for j, x in r.items()} for r in self._im]
        return LinMap(self.cod, self.dom, self._re, im, self._den)

    def tensor(self, other: "LinMap") -> "LinMap":
        "Kronecker product; (i (x) j) -> i*other.dim + j indexing."
        n2 = other.dom
        ar, ai, br, bi = self._re, self._im, other._re, other._im
        cr = _kron(ar, br, n2)
        ci = None
        if ai is not None and bi is not None:
            cr = _lincomb(cr, 1, _kron(ai, bi, n2), -1)
            ci = _lincomb(_kron(ar, bi, n2), 1, _kron(ai, br, n2), 1)
        elif ai is not None:
            ci = _kron(ai, br, n2)
        elif bi is not None:
            ci = _kron(ar, bi, n2)
        return LinMap(self.cod * other.cod, self.dom * n2, cr, ci, self._den * other._den)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return self._im is None and not any(self._re)

    def is_real(self) -> bool:
        return self._im is None

    def first_nonzero_col(self):
        rows = self._re + (self._im or ())
        return min((min(r) for r in rows if r), default=None)

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and self._den == other._den
            and self._re == other._re
            and self._im == other._im
        )

    def __hash__(self):
        im = None if self._im is None else _rows_key(self._im)
        return hash((self.dom, self.cod, self._den, _rows_key(self._re), im))

    def __repr__(self):
        return f"LinMap({self.cod}x{self.dom})"

    # -- elimination-backed operations --------------------------------

    def rank(self) -> int:
        _, pivots = _rref([list(row) for row in self.q_rows()])
        return len(pivots)

    def is_surjective(self) -> bool:
        return self.rank() == self.cod

    def is_invertible(self) -> bool:
        return self.dom == self.cod and self.rank() == self.dom

    def inverse(self) -> "LinMap":
        if self.dom != self.cod:
            raise NotInvertible("not square")
        n = self.dom
        aug = [list(row) + [Q(1 if i == j else 0) for j in range(n)] for i, row in enumerate(self.q_rows())]
        rows, pivots = _rref(aug)
        if pivots != list(range(n)):
            raise NotInvertible("rank-deficient map")
        return LinMap.from_entries(n, n, [rows[i][n:] for i in range(n)])

    def kernel(self) -> "Subspace":
        return Subspace.spanned_by(self.dom, _nullspace(self.q_rows(), self.dom))

    def image(self) -> "Subspace":
        return Subspace.spanned_by(self.cod, [self.col(j) for j in range(self.dom)])


def identity(n: int) -> LinMap:
    return LinMap.identity(n)


def compose(*maps: LinMap) -> LinMap:
    """Compose maps in application order: compose(f, g)(v) = f(g(v)).

    The association order is chosen by the classic matrix-chain DP so
    long identity strings fold through their thin factors first.
    """
    if not maps:
        raise ValueError("compose() needs at least one map")
    if len(maps) == 1:
        return maps[0]
    k = len(maps)
    dims = [maps[0].cod] + [f.dom for f in maps]
    for i in range(k - 1):
        if maps[i].dom != maps[i + 1].cod:
            raise DimensionMismatch(f"compose: slot {i} dom {maps[i].dom} != slot {i+1} cod {maps[i+1].cod}")
    cost = [[0] * k for _ in range(k)]
    split = [[0] * k for _ in range(k)]
    for span in range(1, k):
        for i in range(k - span):
            j = i + span
            best, arg = None, i
            for s in range(i, j):
                c = cost[i][s] + cost[s + 1][j] + dims[i] * dims[s + 1] * dims[j + 1]
                if best is None or c < best:
                    best, arg = c, s
            cost[i][j], split[i][j] = best, arg

    def build(i, j):
        if i == j:
            return maps[i]
        s = split[i][j]
        return build(i, s) @ build(s + 1, j)

    return build(0, k - 1)


def tensor(*maps: LinMap) -> LinMap:
    if not maps:
        raise ValueError("tensor() needs at least one map")
    out = maps[0]
    for f in maps[1:]:
        out = out.tensor(f)
    return out


def permutation_map(perm, dims) -> LinMap:
    """The map permuting tensor slots: input factor i lands in slot perm[i].

    permutation_map([1, 0], [a, b]) is the transposition V (x) W -> W (x) V.
    """
    perm = list(perm)
    dims = list(dims)
    if len(perm) != len(dims) or sorted(perm) != list(range(len(perm))):
        raise ValueError(f"malformed permutation {perm} for {len(dims)} slots")
    out_dims = [0] * len(dims)
    for i, p in enumerate(perm):
        out_dims[p] = dims[i]
    total = 1
    for d in dims:
        total *= d
    rows = [None] * total
    idx = [0] * len(dims)
    for col in range(total):
        rem = col
        for i in range(len(dims) - 1, -1, -1):
            idx[i] = rem % dims[i] if dims[i] else 0
            rem //= dims[i] if dims[i] else 1
        row = 0
        for slot in range(len(dims)):
            src = perm.index(slot)
            row = row * out_dims[slot] + idx[src]
        rows[row] = {col: 1}
    return LinMap(total, total, rows)


# -- row reduction over Q(i) ------------------------------------------


def _rref(rows):
    """In-place RREF of a list of Q-entry rows; returns (rows, pivot column list).

    Elimination touches only the nonzero support of the pivot row, which
    keeps the common sparse case near-linear.
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
        if inv != _Q_ONE:
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


def _nullspace(q_rows, dom):
    rows, pivots = _rref([list(r) for r in q_rows])
    free = [j for j in range(dom) if j not in pivots]
    basis = []
    for f in free:
        vec = [Q(0)] * dom
        vec[f] = Q(1)
        for r_idx, p in enumerate(pivots):
            vec[p] = -rows[r_idx][f]
        basis.append(tuple(vec))
    return basis


def solve_right(A: LinMap, B: LinMap) -> LinMap | None:
    "Least-structure X with A @ X = B (free coordinates zero), or None."
    if A.cod != B.cod:
        raise DimensionMismatch("solve: cod mismatch")
    m, k, n = A.cod, A.dom, B.dom
    if m == 0:
        return LinMap.zero(k, n)
    arows, brows = A.q_rows(), B.q_rows()
    aug = [list(arows[i]) + list(brows[i]) for i in range(m)]
    rows, pivots = _rref(aug)
    for r_idx, p in enumerate(pivots):
        if p >= k:
            return None
    x_rows = [[Q(0)] * n for _ in range(k)]
    for r_idx, p in enumerate(pivots):
        x_rows[p] = list(rows[r_idx][k:])
    return LinMap.from_entries(k, n, x_rows)


def _transpose_rows(rows, n):
    out = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def transpose(f: LinMap) -> LinMap:
    im = None if f._im is None else _transpose_rows(f._im, f.dom)
    return LinMap(f.dom, f.cod, _transpose_rows(f._re, f.dom), im, f._den)


def factor_through(f: LinMap, g: LinMap) -> LinMap:
    """The map x with x @ f = g, when ker(f) is contained in ker(g).

    x is determined on the image of f and extended by zero on the fixed
    complement given by the non-pivot coordinates; the extension is
    irrelevant when f is surjective (callers needing uniqueness check
    surjectivity themselves).  Raises NoFactor when no x exists.
    """
    if f.dom != g.dom:
        raise DimensionMismatch("factor_through: domain mismatch")
    xt = solve_right(transpose(f), transpose(g))
    if xt is None:
        raise NoFactor("kernel obstruction: ker(f) is not contained in ker(g)")
    return transpose(xt)


def quotient(ambient: int, sub: "Subspace") -> tuple[LinMap, int]:
    """Projection onto a quotient with kernel exactly `sub`.

    The quotient basis is the echelon non-pivot coordinate set, so the
    output is reproducible for a given subspace.
    """
    if sub.ambient != ambient:
        raise DimensionMismatch("quotient: ambient mismatch")
    rows = [list(r) for r in sub.basis]
    _, pivots = _rref(rows) if rows else ([], [])
    free = [j for j in range(ambient) if j not in pivots]
    qdim = len(free)
    proj = [[Q(0)] * ambient for _ in range(qdim)]
    for out_idx, j in enumerate(free):
        proj[out_idx][j] = Q(1)
    for r_idx, p in enumerate(pivots):
        for out_idx, j in enumerate(free):
            proj[out_idx][p] = -sub.basis[r_idx][j]
    return LinMap.from_entries(qdim, ambient, proj), qdim


class Subspace:
    "A subspace of a coordinate space, held in reduced echelon form."

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, echelon_basis):
        self.ambient = ambient
        self.basis = tuple(tuple(v) for v in echelon_basis)

    @staticmethod
    def spanned_by(ambient: int, vectors) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise DimensionMismatch("vector length != ambient")
        if not vecs:
            return Subspace(ambient, [])
        rows, _ = _rref([[x if isinstance(x, Q) else Q(x) for x in v] for v in vecs])
        rows = [r for r in rows if any(r)]
        return Subspace(ambient, rows)

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace.spanned_by(ambient, LinMap.identity(ambient).q_rows())

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, [])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        v = [x if isinstance(x, Q) else Q(x) for x in vec]
        if len(v) != self.ambient:
            raise DimensionMismatch("vector length != ambient")
        for row in self.basis:
            lead = next(j for j in range(self.ambient) if row[j])
            if v[lead]:
                factor = v[lead]
                v = [a - factor * b for a, b in zip(v, row)]
        return not any(v)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sum_with(self, other: "Subspace") -> "Subspace":
        return Subspace.spanned_by(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient mismatch")
        p, q = self.dim, other.dim
        if p == 0 or q == 0:
            return Subspace.zero(self.ambient)
        cols = [[self.basis[i][r] for i in range(p)] + [-other.basis[i][r] for i in range(q)] for r in range(self.ambient)]
        null = _nullspace(cols, p + q)
        vecs = []
        for w in null:
            vec = [Q(0)] * self.ambient
            for i in range(p):
                if w[i]:
                    vec = [a + w[i] * b for a, b in zip(vec, self.basis[i])]
            vecs.append(vec)
        return Subspace.spanned_by(self.ambient, vecs)

    def inclusion(self) -> LinMap:
        "The inclusion map (dim -> ambient); columns are the echelon basis."
        return LinMap.from_cols(self.ambient, [list(v) for v in self.basis])

    def map_by(self, f: LinMap) -> "Subspace":
        if f.dom != self.ambient:
            raise DimensionMismatch("map_by: domain mismatch")
        return Subspace.spanned_by(f.cod, [f.apply(v) for v in self.basis])

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


class AntilinMap:
    """An antilinear map, stored as (linear part) after coordinate conjugation.

    value(v) = lin(conj(v)).  Compositions type-check: two antilinear maps
    compose to a LinMap, mixed compositions stay antilinear.
    """

    __slots__ = ("lin",)

    def __init__(self, lin: LinMap):
        self.lin = lin

    @property
    def dom(self):
        return self.lin.dom

    @property
    def cod(self):
        return self.lin.cod

    def apply(self, vec) -> tuple:
        return self.lin.apply([x.conj() if isinstance(x, Q) else Q(x).conj() for x in vec])

    def __matmul__(self, other):
        if isinstance(other, AntilinMap):
            return self.lin @ other.lin.conj()
        if isinstance(other, LinMap):
            return AntilinMap(self.lin @ other.conj())
        return NotImplemented

    def tensor(self, other: "AntilinMap") -> "AntilinMap":
        if not isinstance(other, AntilinMap):
            raise TypeError("tensor of antilinear maps requires both antilinear")
        return AntilinMap(self.lin.tensor(other.lin))

    def __neg__(self):
        return AntilinMap(-self.lin)

    def __eq__(self, other):
        if not isinstance(other, AntilinMap):
            return NotImplemented
        return self.lin == other.lin

    def __hash__(self):
        return hash(("antilin", self.lin))

    def __repr__(self):
        return f"AntilinMap({self.cod}x{self.dom})"


def _normalize(re_rows, im_rows, den):
    "Divide out the gcd, move the sign of den to the numerators, drop an all-zero im."
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        den = -den
        re_rows = [{j: -x for j, x in r.items()} for r in re_rows]
        if im_rows is not None:
            im_rows = [{j: -x for j, x in r.items()} for r in im_rows]
    if im_rows is not None and not any(im_rows):
        im_rows = None
    g = den
    for rows in (re_rows, im_rows or ()):
        for r in rows:
            for x in r.values():
                g = gcd(g, x)
                if g == 1:
                    break
            if g == 1:
                break
    if g > 1:
        re_rows = [{j: x // g for j, x in r.items()} for r in re_rows]
        if im_rows is not None:
            im_rows = [{j: x // g for j, x in r.items()} for r in im_rows]
        den //= g
    return re_rows, im_rows, den
