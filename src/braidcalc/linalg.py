"""Exact sparse linear algebra over Q(i).

LinMap is a linear map between explicitly-dimensioned coordinate spaces,
stored column-convention: column j is the image of the j-th domain basis
vector.  Internally a map keeps its nonzeros only: real and imaginary
integer numerators as one {col: int} dict per row, over one common
positive denominator, so composition is a row-by-row sparse product
(Gustavson) in integer arithmetic and a Kronecker product writes out
products of nonzeros only.  A product or Kronecker product of two complex
maps accumulates the real and imaginary rows together, in one pass.

Q is the exact type of input and output, and this module does no Q
arithmetic: Q values enter a map only through LinMap.from_entries and leave
it only through LinMap.entry.  Applying a map to a vector is a product with
the vector as a one-column map, and Subspace builds and reads its vectors
the same way.

Rows built inside this module are zero-free by construction: a Kronecker
row is a product of nonzeros, a one-term product row reuses or scales a
zero-free row, and sums, accumulated product rows and elimination rows drop
what cancels as they are built.  Only rows handed to LinMap from outside
(dense rows, or dict rows from a caller) are scanned for zeros.

Elimination (rank, kernel, image, solve, inverse, quotient, span and
intersection) is fraction-free Gauss-Jordan over Z on the same sparse
integer rows, with one pivot loop.  The reduced row echelon form of a row
space is unique, so echelon bases, least-structure solutions, inverses and
quotient projections are exactly those of dense elimination over Q(i).
Real rows are eliminated as they are.  Complex rows are realified: column
j splits into columns 2j and 2j + 1, and each row v is fed as v and i v,
whose span over Q is the span of the rows over Q(i); the echelon rows at
the even pivots, split back, are the echelon rows over Q(i) (see
_eliminate).  The loop keeps an index from each non-pivot column to the
pivot rows that hold it: a new pivot clears its column from those rows
only, so the work follows the nonzeros, not the rank squared.

A Subspace is the elimination's own output: its primitive pivot rows over
Z[i].  Membership, sums, intersections, images and quotients all run on
those rows, realified when a side is complex.

Tensor products follow the row-major index convention: the composite
index of i (x) j in V (x) W is i*dim(W) + j, and kron satisfies the
mixed-product law with composition.

A leg is a padded factor I_a (x) f (x) I_b, stored as (a, f, b).
identity(n) returns one (f the 1x1 identity), so tensor() spots identities
at once, and tensor() returns one whenever every factor but one plain map
is an identity or a real leg.  Any other product is a lazy product A (x) B
(below) of the tensor() of all factors but the last with the last, so
tensor() never builds.  Multiplying by a leg does not build its rows, and
an identity returns the other factor as it is.  Row (i, r, k) of the leg is
row r of f with each column s moved to (i, s, k), so leg @ B sums B's rows
(i, s, k) times f's entries, and X @ leg adds, for each entry x at
column t = (i, r, k) of a row of X, x times that row of the leg: only the
leg rows that X uses are read, from f.  Row t of a real leg is leg[t], made
alone from f, and X @ leg is the Gustavson product that reads those rows;
legs and lazy products are read by index only (iterating one raises
TypeError, as it would run past its rows).  When every row of f holds one
entry, the leg's rows come in blocks that hand on B's rows as they are
(times the entry, and 1 * row shares the row), found from one start column
per block; and when those entries are 1 in distinct columns, X @ leg moves
each column t of X to the one column of leg row t.  The blocks are found
from f's rows for each product and not kept.  When B is itself an unbuilt
real leg or lazy product, leg @ B makes each row of B when the leg reads it
and keeps none.  Any other read of a leg's rows (equality, hashing,
elimination, sums, a further kron) builds them once, on the leg itself, and
later products use those rows.  Results are the same canonical maps as with
the leg built.

A complex f makes a complex leg, a type of its own, so real legs keep
their paths.  When every row of f holds one column across its real and
imaginary parts, leg @ B gathers B's row pairs times each block's
Gaussian-integer entry, and A @ leg moves A's columns with it; any other
product builds the leg.

A lazy product A (x) B holds its two factors; with a complex factor it
is a type of its own.  X @ (A (x) B) makes
row t = i * B.cod + k of the product from row i of A and row k of B only
when a row of X uses it, inside the Gustavson loop, and keeps none of
them; X may be complex.  A real leg applied to it reads each row it uses
by index, as (A (x) B)[t], over the factors' denominators.  Any other read
of its rows or denominator (equality, hashing, elimination, transpose,
(A (x) B) @ Y, a complex leg applied to it, any read of a lazy product
that has it as a factor) builds it once, on the object itself, through
LinMap.tensor.  compose() orders a chain by estimated nonzeros, so a lazy
product meets a thin left factor: see its docstring.

Zero-dimensional spaces are fully supported (maps with dom or cod 0);
identities over them hold vacuously.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .scalars import Q


class DimensionMismatch(ValueError):
    pass


_Q_ZERO = Q(0)
_F_ZERO = Fraction(0)


class NotInvertible(ValueError):
    pass


class NoFactor(ValueError):
    """No x with x.f = g exists (the kernel condition fails)."""


def _q_to_int_triple(value) -> tuple[int, int, int]:
    "Return (a, b, d) with value = (a + b i)/d, d > 0."
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    if isinstance(value, Q):
        d = lcm(value.re.denominator, value.im.denominator)
        return (
            value.re.numerator * (d // value.re.denominator),
            value.im.numerator * (d // value.im.denominator),
            d,
        )
    raise TypeError(f"cannot interpret {value!r} as a Q(i) scalar")


def _mul(A, B):
    "Sparse integer product A @ B, row by row (Gustavson); zero-free rows in, zero-free rows out."
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
        out.append(row if all(row.values()) else {j: x for j, x in row.items() if x})
    return out


def _kron(A, B, n2):
    "Sparse integer Kronecker product; only products of nonzeros are written."
    return [{j1 * n2 + j2: a * b for j1, a in Ai.items() for j2, b in Bi.items()} for Ai in A for Bi in B]


def _zero_free(row):
    "The row without the entries that cancelled."
    return row if all(row.values()) else {j: x for j, x in row.items() if x}


def _scaled(row, c):
    "c * row for a nonzero integer c; 1 * row shares it, as rows are never mutated."
    return row if c == 1 else {j: c * x for j, x in row.items()}


def _cscale(p, q, x, y):
    "The rows (re, im) of (p + q i)(x + y i), for zero-free rows x and y (y may be empty or None)."
    if not q:
        return _scaled(x, p), (_scaled(y, p) if y else {})
    if not p:
        return (_scaled(y, -q) if y else {}), _scaled(x, q)
    re, im = {j: p * v for j, v in x.items()}, {j: q * v for j, v in x.items()}
    if y:
        _addmul(re, y, -q)
        _addmul(im, y, p)
    return re, im


def _cmul(Ar, Ai, Br, Bi):
    "Rows (re, im) of the complex product (Ar + i Ai) @ (Br + i Bi), both parts in one pass (Gustavson)."
    cr, ci = [], []
    for x, y in zip(Ar, Ai):
        if len(x) + len(y) == 1:  # a multiple of one row pair of B
            if x:
                [(t, a)] = x.items()
                re, im = _cscale(a, 0, Br[t], Bi[t])
            else:
                [(t, a)] = y.items()
                re, im = _cscale(0, a, Br[t], Bi[t])
        else:
            re, im = {}, {}
            gr, gi = re.get, im.get
            for t, a in x.items():
                for j, b in Br[t].items():
                    re[j] = gr(j, 0) + a * b
                for j, b in Bi[t].items():
                    im[j] = gi(j, 0) + a * b
            for t, a in y.items():
                for j, b in Br[t].items():
                    im[j] = gi(j, 0) + a * b
                for j, b in Bi[t].items():
                    re[j] = gr(j, 0) - a * b
            re, im = _zero_free(re), _zero_free(im)
        cr.append(re)
        ci.append(im)
    return cr, ci


def _add_kron_pair(re, im, x, y, u, v, n2):
    "Add the row pair (x + y i) (x) (u + v i) to the rows re and im, both parts in one pass."
    gr, gi = re.get, im.get
    for j1, a in x.items():
        off = j1 * n2
        for j2, b in u.items():
            re[off + j2] = gr(off + j2, 0) + a * b
        for j2, b in v.items():
            im[off + j2] = gi(off + j2, 0) + a * b
    for j1, a in y.items():
        off = j1 * n2
        for j2, b in u.items():
            im[off + j2] = gi(off + j2, 0) + a * b
        for j2, b in v.items():
            re[off + j2] = gr(off + j2, 0) - a * b


def _ckron(Ar, Ai, Br, Bi, n2):
    "Rows (re, im) of the complex Kronecker product (Ar + i Ai) (x) (Br + i Bi)."
    cr, ci = [], []
    for x, y in zip(Ar, Ai):
        for u, v in zip(Br, Bi):
            re, im = {}, {}
            _add_kron_pair(re, im, x, y, u, v, n2)
            cr.append(_zero_free(re))
            ci.append(_zero_free(im))
    return cr, ci


def _lincomb(A, sa, B, sb):
    "Rows of sa * A + sb * B for zero-free rows A and B; entries that cancel are dropped."
    out = []
    for Ai, Bi in zip(A, B):
        row = {j: x * sa for j, x in Ai.items()} if sa else {}
        if sb:
            _addmul(row, Bi, sb)
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
    __slots__ = ("dom", "cod", "_re", "_im", "_den", "_hash")

    def __init__(self, cod: int, dom: int, re_rows, im_rows=None, den: int = 1, *, _clean: bool = False):
        """Entries (re + i im)/den, rows given as dense integer sequences or as
        {col: int} dicts (see _sparse_rows); the map owns its rows afterwards.

        With _clean the rows are cod zero-free dicts built in this module,
        and they are adopted without a scan."""
        if cod < 0 or dom < 0:
            raise DimensionMismatch("dimensions must be nonnegative")
        if not _clean:
            re_rows = _sparse_rows(re_rows, cod, dom)
            if im_rows is not None:
                im_rows = _sparse_rows(im_rows, cod, dom)
        self.dom = dom
        self.cod = cod
        if im_rows is not None or den != 1:  # a real map over 1 is in canonical form as it is
            re_rows, im_rows, den = _normalize(re_rows, im_rows, den)
        self._re = tuple(re_rows)
        self._im = None if im_rows is None else tuple(im_rows)
        self._den = den

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
                den = lcm(den, d)
        re_rows = [{j: a * (den // d) for j, (a, _, d) in trow.items() if a} for trow in triples]
        im_rows = [{j: b * (den // d) for j, (_, b, d) in trow.items() if b} for trow in triples]
        return LinMap(cod, dom, re_rows, im_rows, den, _clean=True)

    @staticmethod
    def identity(n: int) -> "LinMap":
        "The identity on n coordinates, as a leg (see the module docstring), so tensor() spots it at once."
        return _ONE if n == 1 else _Leg(n, _ONE, 1)

    @staticmethod
    def zero(cod: int, dom: int) -> "LinMap":
        return LinMap(cod, dom, [{}] * cod, _clean=True)

    # -- entry access ------------------------------------------------

    def entry(self, i: int, j: int) -> Q:
        if not 0 <= i < self.cod:
            raise IndexError(f"row {i} outside range({self.cod})")
        if not 0 <= j < self.dom:
            raise IndexError(f"column {j} outside range({self.dom})")
        re = self._re[i].get(j, 0)
        im = self._im[i].get(j, 0) if self._im is not None else 0
        if not re and not im:
            return _Q_ZERO
        return Q._make(Fraction(re, self._den), Fraction(im, self._den) if im else _F_ZERO)

    def support(self, i: int):
        "Columns stored in row i: every nonzero entry's, and no other."
        if self._im is None:
            return self._re[i].keys()
        return self._re[i].keys() | self._im[i].keys()

    def nnz(self) -> int:
        "Number of stored entries; only nonzeros are stored."
        return sum(len(self.support(i)) for i in range(self.cod))

    def col(self, j: int) -> tuple:
        return tuple(self.entry(i, j) for i in range(self.cod))

    def apply(self, vec) -> tuple:
        "The image of the vector vec of Q / int / Fraction entries, as Q values."
        return (self @ _column(vec, self.dom)).col(0)

    # -- algebra -----------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, AntilinMap):
            return AntilinMap(self @ other.lin)
        if not isinstance(other, LinMap):
            return NotImplemented
        if other.cod != self.dom:
            raise DimensionMismatch(f"compose: {self.cod}x{self.dom} after {other.cod}x{other.dom}")
        kind, other_kind = type(self), type(other)
        if kind is _Leg and self._f is _ONE:
            return other
        if other_kind is _Leg and other._f is _ONE:
            return self
        if kind is _Leg:  # a real leg: apply it to each part of other
            if (other_kind is _Leg or other_kind is _Kron) and other._built is None:  # other's rows made as read
                den = other._A._den * other._B._den if other_kind is _Kron else other._den
                return LinMap(self.cod, other.dom, self._apply(other), None, self._den * den, _clean=True)
            cr, bi = self._apply(other._re), other._im
            ci = None if bi is None else self._apply(bi)
        elif other_kind is _Kron:  # a lazy product: combine the rows of its factors that self uses
            cr, ai = other._rmul(self._re), self._im
            ci = None if ai is None else other._rmul(ai)
            return LinMap(self.cod, other.dom, cr, ci, self._den * other._A._den * other._B._den, _clean=True)
        elif other_kind is _Leg and other._built is None:  # an unbuilt real leg: spread self's columns over f's rows
            cr, ai = other._reindex(self._re), self._im
            ci = None if ai is None else other._reindex(ai)
        elif kind is _CLeg and (blocks := self._blocks()):  # a monomial complex leg: gather other's row pairs
            cr, ci = self._gather(blocks, other._re, other._im)
        elif other_kind is _CKron:  # a complex lazy product: combine the row pairs self uses
            cr, ci = other._crmul(self._re, self._im)
            return LinMap(self.cod, other.dom, cr, ci, self._den * other._A._den * other._B._den, _clean=True)
        elif other_kind is _CLeg and (blocks := other._blocks()):  # a monomial complex leg: move self's columns
            cr, ci = other._creindex(blocks, self._re, self._im)
        else:
            ar, ai, br, bi = self._re, self._im, other._re, other._im
            if ai is not None and bi is not None:
                cr, ci = _cmul(ar, ai, br, bi)
            else:
                cr = _mul(ar, br)
                ci = None
                if ai is not None:
                    ci = _mul(ai, br)
                elif bi is not None:
                    ci = _mul(ar, bi)
        return LinMap(self.cod, other.dom, cr, ci, self._den * other._den, _clean=True)

    def __add__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        if (self.cod, self.dom) != (other.cod, other.dom):
            raise DimensionMismatch("add: shape mismatch")
        d = lcm(self._den, other._den)
        sa, sb = d // self._den, d // other._den
        re = _lincomb(self._re, sa, other._re, sb)
        im = None
        if self._im is not None or other._im is not None:
            im = _lincomb(self._im_rows(), sa, other._im_rows(), sb)
        return LinMap(self.cod, self.dom, re, im, d, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        re = [{j: -x for j, x in r.items()} for r in self._re]
        im = None if self._im is None else [{j: -x for j, x in r.items()} for r in self._im]
        return LinMap(self.cod, self.dom, re, im, self._den, _clean=True)

    def _im_rows(self):
        "Imaginary numerator rows, empty rows when the map is real."
        return self._im if self._im is not None else [{}] * self.cod

    def scale(self, value) -> "LinMap":
        a, b, d = _q_to_int_triple(value)
        ar, ai = self._re, self._im_rows()
        re, im = _lincomb(ar, a, ai, -b), _lincomb(ar, b, ai, a)
        return LinMap(self.cod, self.dom, re, im, self._den * d, _clean=True)

    def conj(self) -> "LinMap":
        im = None if self._im is None else [{j: -x for j, x in r.items()} for r in self._im]
        return LinMap(self.cod, self.dom, self._re, im, self._den, _clean=True)

    def tensor(self, other: "LinMap") -> "LinMap":
        "Kronecker product; (i (x) j) -> i*other.dim + j indexing."
        n2 = other.dom
        ar, ai, br, bi = self._re, self._im, other._re, other._im
        if ai is not None and bi is not None:
            cr, ci = _ckron(ar, ai, br, bi, n2)
        else:
            cr = _kron(ar, br, n2)
            ci = None
            if ai is not None:
                ci = _kron(ai, br, n2)
            elif bi is not None:
                ci = _kron(ar, bi, n2)
        return LinMap(self.cod * other.cod, self.dom * n2, cr, ci, self._den * other._den, _clean=True)

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
        return self is other or (
            self.dom == other.dom
            and self.cod == other.cod
            and self._den == other._den
            and self._re == other._re
            and self._im == other._im
        )

    def __hash__(self):
        "The hash of the entries, computed on the first call and kept: a map never changes."
        try:
            return self._hash
        except AttributeError:
            im = None if self._im is None else _rows_key(self._im)
            self._hash = hash((self.dom, self.cod, self._den, _rows_key(self._re), im))
            return self._hash

    def __repr__(self):
        return f"LinMap({self.cod}x{self.dom})"

    # -- elimination-backed operations --------------------------------

    def _rows(self):
        "Numerator rows for _eliminate: real rows, else (re, im) pairs; the denominator does not change the row space."
        return self._re if self._im is None else zip(self._re, self._im)

    def rank(self) -> int:
        return len(_eliminate(self._rows()))

    def is_surjective(self) -> bool:
        return self.rank() == self.cod

    def is_invertible(self) -> bool:
        return self.dom == self.cod and self.rank() == self.dom

    def inverse(self) -> "LinMap":
        if self.dom != self.cod:
            raise NotInvertible("not square")
        if self._im is None:
            inverse = _monomial_inverse(self._re, self._den)
            if inverse is not None:
                return inverse
        x = solve_right(self, LinMap.identity(self.dom))
        if x is None:
            raise NotInvertible("rank-deficient map")
        return x

    def kernel(self) -> "Subspace":
        re, im, _ = _nullspace(_eliminate(self._rows()), self.dom)
        return Subspace(self.dom, _eliminate(re if self._im is None else zip(re, im)))

    def image(self) -> "Subspace":
        cols = _transpose_rows(self._re, self.dom)
        if self._im is not None:
            cols = zip(cols, _transpose_rows(self._im, self.dom))
        return Subspace(self.cod, _eliminate(cols))


class _Leg(LinMap):
    """I_a (x) f (x) I_b for a real map f, held as (a, f, b): see the module docstring.

    The built rows are kept once computed.
    """

    __slots__ = ("_a", "_f", "_b", "_built")

    def __init__(self, a: int, f: LinMap, b: int):
        self._a, self._f, self._b = a, f, b
        self.cod, self.dom = a * f.cod * b, a * f.dom * b
        self._im = None
        self._den = f._den  # the leg's entries are f's; tensor() makes no empty leg but identity(0)
        self._built = None

    @property
    def _re(self):
        "The numerator rows, built on first read."
        if self._built is None:
            self._built = self._pad(self._f._re)
        return self._built

    def _pad(self, frows):
        "The leg's rows made from the rows frows of f."
        b, step = self._b, self._f.dom * self._b
        return tuple([
            {i * step + s * b + k: c for s, c in frow.items()} for i in range(self._a) for frow in frows for k in range(b)
        ])

    def _entries(self):
        "(column, entry) of each row of f when every row holds one entry, else None."
        entries: list = []
        for r in self._f._re:
            if len(r) != 1:
                return None
            entries += r.items()
        return entries

    def _blocks(self):
        """(starts, coefs) when every row of f holds one entry, else ().  The
        leg's rows come in blocks of b, one block per row (i, r) of I_a (x) f:
        row k of block t holds coefs[t] (coefs None when every entry is 1) at
        column starts[t] + k.  Computed for each product, and not kept."""
        entries = self._entries()
        if entries is None:
            return ()
        b, step = self._b, self._f.dom * self._b
        starts = [i * step + s * b for i in range(self._a) for s, _ in entries]
        coefs = None if all(c == 1 for _, c in entries) else [c for _, c in entries] * self._a
        return starts, coefs

    def __getitem__(self, t):
        "Row t = (i, r, k) of this leg, made alone: row r of f with each column s moved to (i, s, k)."
        b, f = self._b, self._f
        i, rk = divmod(t, f.cod * b)
        r, k = divmod(rk, b)
        off = i * f.dom * b + k
        return {off + s * b: c for s, c in f._re[r].items()}

    __iter__ = None  # rows are read by index only: iterating would run past cod

    def _apply(self, B):
        """Rows of this leg, not an identity, times the rows B, without this
        leg's rows; B's rows are read by index where the leg uses them."""
        b, blocks = self._b, self._blocks()
        if blocks:  # row k of block t is coefs[t] times B's row starts[t] + k; 1 * row shares it
            starts, coefs = blocks
            if coefs is None:
                return list(map(B.__getitem__, starts)) if b == 1 else [B[j] for st in starts for j in range(st, st + b)]
            return [_scaled(B[j], c) for st, c in zip(starts, coefs) for j in range(st, st + b)]
        out = []
        step = self._f.dom * b
        for i in range(self._a):
            for frow in self._f._re:
                if len(frow) == 1:
                    [(s, c)] = frow.items()
                    st = i * step + s * b
                    out.extend(_scaled(B[j], c) for j in range(st, st + b))
                    continue
                for k in range(b):
                    row: dict = {}
                    get = row.get
                    for s, c in frow.items():
                        for j, x in B[i * step + s * b + k].items():
                            row[j] = get(j, 0) + c * x
                    out.append(row if all(row.values()) else {j: x for j, x in row.items() if x})
        return out

    def _reindex(self, A):
        """Rows of the rows A times this leg, without this leg's rows: only the
        leg rows A uses are read, by index.  When each row of f holds one 1, in
        a column of its own, each column t = (i, r, k) of A moves to (i, s, k)
        for the column s of f's row r."""
        frows, q, b = self._f._re, self._f.cod, self._b
        cols = [s for r in frows if len(r) == 1 for s, c in r.items() if c == 1]
        if not len(cols) == q == len(set(cols)):
            return _mul(A, self)
        step = self._f.dom * b
        if b == 1:
            return [{t // q * step + cols[t % q]: x for t, x in Ai.items()} for Ai in A]
        qb = q * b
        return [{t // qb * step + cols[t // b % q] * b + t % b: x for t, x in Ai.items()} for Ai in A]


class _CLeg(_Leg):
    """I_a (x) f (x) I_b for a complex map f: see the module docstring.

    When every row of f holds one column across its two parts, the blocks'
    entries are Gaussian integers (p, q); any other read builds both parts
    of the rows once, kept as the pair _built.
    """

    __slots__ = ()

    def __init__(self, a: int, f: LinMap, b: int):
        self._a, self._f, self._b = a, f, b
        self.cod, self.dom = a * f.cod * b, a * f.dom * b
        self._den = f._den
        self._built = None

    def __getitem__(self, t):
        "Not supported: the real leg's row would drop f's imaginary part."
        raise TypeError("a complex leg's rows are not read by index")

    def _build(self):
        if self._built is None:
            self._built = self._pad(self._f._re), self._pad(self._f._im)
        return self._built

    @property
    def _re(self):
        "The real numerator rows, built on first read."
        return self._build()[0]

    @property
    def _im(self):
        "The imaginary numerator rows, built on first read."
        return self._build()[1]

    def _entries(self):
        "(column, (re, im)) of each row of f when every row holds one column across its parts, else None."
        entries = []
        for r, s in zip(self._f._re, self._f._im):
            cols = r.keys() | s.keys()
            if len(cols) != 1:
                return None
            [j] = cols
            entries.append((j, (r.get(j, 0), s.get(j, 0))))
        return entries

    def _gather(self, blocks, Br, Bi):
        """Row pairs of this leg times the rows Br + i Bi (Bi may be None), without
        this leg's rows: row k of block t is coefs[t] times B's row starts[t] + k,
        for the leg's blocks (starts, coefs)."""
        starts, coefs = blocks
        b = self._b
        cr, ci = [], []
        for st, (p, q) in zip(starts, coefs):
            for j in range(st, st + b):
                re, im = _cscale(p, q, Br[j], None if Bi is None else Bi[j])
                cr.append(re)
                ci.append(im)
        return cr, ci

    def _creindex(self, blocks, Xr, Xi):
        """Row pairs of the rows Xr + i Xi (Xi may be None) times this leg: column
        t = q * b + k of X moves to column starts[q] + k, times coefs[q], for the
        leg's blocks (starts, coefs)."""
        starts, coefs = blocks
        b = self._b
        cr, ci = [], []
        for x, y in zip(Xr, Xi or [{}] * len(Xr)):
            re, im = {}, {}
            gr, gi = re.get, im.get
            for t in x.keys() | y.keys():  # (u + v i)(p + s i) moves to column j
                q, k = divmod(t, b)
                j, (p, s), u, v = starts[q] + k, coefs[q], x.get(t, 0), y.get(t, 0)
                re[j] = gr(j, 0) + u * p - v * s
                im[j] = gi(j, 0) + u * s + v * p
            cr.append(_zero_free(re))
            ci.append(_zero_free(im))
        return cr, ci


class _Kron(LinMap):
    """A (x) B for real maps A and B, held unbuilt: see the module docstring.

    The built map is kept once computed.
    """

    __slots__ = ("_A", "_B", "_built")

    def __init__(self, A: LinMap, B: LinMap):
        self._A, self._B = A, B
        self.cod, self.dom = A.cod * B.cod, A.dom * B.dom
        self._im = None
        self._built = None

    def _build(self) -> LinMap:
        if self._built is None:
            self._built = LinMap.tensor(self._A, self._B)
        return self._built

    @property
    def _re(self):
        "The numerator rows, built on first read."
        return self._build()._re

    @property
    def _den(self):
        "The normalised denominator, which needs the built rows: [1/2] (x) [2/3] is [1/3]."
        return self._build()._den

    def _rmul(self, X):
        """Rows of the rows X times this product, over A's and B's denominators:
        row t = i * B.cod + k of A (x) B is A's row i times B's row k, made
        only where X uses it, and never kept."""
        A, B = self._A._re, self._B._re
        q, n = self._B.cod, self._B.dom
        out = []
        for Xi in X:
            if len(Xi) == 1:  # a multiple of one row: products of nonzeros
                [(t, x)] = Xi.items()
                out.append(_scaled(self[t], x))
                continue
            row: dict = {}
            get = row.get
            for t, x in Xi.items():
                i, k = divmod(t, q)
                Bk = B[k].items()
                for j1, a in A[i].items():
                    off, xa = j1 * n, x * a
                    for j2, b in Bk:
                        j = off + j2
                        row[j] = get(j, 0) + xa * b
            out.append(row if all(row.values()) else {j: v for j, v in row.items() if v})
        return out

    def __getitem__(self, t):
        "Row t = i * B.cod + k of this product, made alone over A's and B's denominators: A's row i (x) B's row k."
        i, k = divmod(t, self._B.cod)
        n, Bk = self._B.dom, self._B._re[k].items()
        return {j1 * n + j2: a * b for j1, a in self._A._re[i].items() for j2, b in Bk}

    __iter__ = None  # rows are read by index only, as for a leg


class _CKron(_Kron):
    """A (x) B with a complex factor, held unbuilt: see the module docstring."""

    __slots__ = ()

    def __init__(self, A: LinMap, B: LinMap):
        self._A, self._B = A, B
        self.cod, self.dom = A.cod * B.cod, A.dom * B.dom
        self._built = None

    @property
    def _im(self):
        "The imaginary numerator rows, which need the built map."
        return self._build()._im

    def __getitem__(self, t):
        "Not supported: the real product's row would drop the factors' imaginary parts."
        raise TypeError("a complex lazy product's rows are not read by index")

    def _crmul(self, Xr, Xi):
        """Row pairs of the rows Xr + i Xi (Xi may be None) times this product, over
        A's and B's denominators: row t = i * B.cod + k of A (x) B is the product
        of A's row pair i and B's row pair k, made only where X uses it."""
        Ar, Ai, Br, Bi = self._A._re, self._A._im_rows(), self._B._re, self._B._im_rows()
        q, n = self._B.cod, self._B.dom
        cr, ci = [], []
        for x, y in zip(Xr, Xi or [{}] * len(Xr)):
            re, im = {}, {}
            for t in x.keys() | y.keys():  # (u + v i) times A's row pair i, then (x) B's row pair k
                i, k = divmod(t, q)
                _add_kron_pair(re, im, *_cscale(x.get(t, 0), y.get(t, 0), Ar[i], Ai[i]), Br[k], Bi[k], n)
            cr.append(_zero_free(re))
            ci.append(_zero_free(im))
        return cr, ci


def _monomial_inverse(rows, den):
    """The inverse of the real square map with numerator rows `rows` over
    `den` when each row and each column holds one entry, else None: row i's
    entry c / den at column j becomes den / c at row j, column i."""
    out = [None] * len(rows)
    for i, r in enumerate(rows):
        if len(r) != 1:
            return None
        [(j, c)] = r.items()
        if out[j] is not None:
            return None
        out[j] = i, c
    d = lcm(*(c for _, c in out))
    return LinMap(len(out), len(out), [{i: den * (d // c)} for i, c in out], None, d, _clean=True)


def _column(vec, n: int) -> LinMap:
    "The vector vec of n Q / int / Fraction entries as a one-column map."
    vec = list(vec)
    if len(vec) != n:
        raise DimensionMismatch("vector length != dom")
    return LinMap.from_entries(n, 1, [[x] for x in vec])


def identity(n: int) -> LinMap:
    return LinMap.identity(n)


def _nnz_estimate(f: LinMap) -> int:
    "f's stored entries, from its factors for a leg or a lazy product, else from its row lengths."
    kind = type(f)
    if kind is _Leg:  # f._f is a plain real map
        return f._a * f._b * sum(map(len, f._f._re))
    if kind is _Kron or kind is _CKron:
        return _nnz_estimate(f._A) * _nnz_estimate(f._B)
    if kind is _CLeg:
        return f._a * f._b * _nnz_estimate(f._f)
    return sum(map(len, f._re)) + (sum(map(len, f._im)) if f._im is not None else 0)


def compose(*maps: LinMap) -> LinMap:
    """Compose maps in application order: compose(f, g)(v) = f(g(v)).

    The association order is chosen by the matrix-chain DP on estimated
    nonzeros rather than dense shapes: X @ Y costs nnz(X) * nnz(Y) / Y.cod
    (the row products Gustavson's loop adds up) and is estimated to hold
    as many entries, at most X.cod * Y.dom.  A leg I_a (x) f (x) I_b holds
    a * b * nnz(f) entries and a lazy product A (x) B nnz(A) * nnz(B).  So
    a chain like (m (x) mgl)(I (x) s (x) I)(phi (x) act), square at its
    ends, multiplies from a thin end and applies the lazy product to a
    narrow left factor instead of building it.  The result is the same
    canonical map in any order.
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
    if k == 2:  # one product: nothing to plan
        return maps[0] @ maps[1]
    # plan[i][j]: (cost, estimated nonzeros, split) of the product of maps[i..j]
    plan = [[None] * k for _ in range(k)]
    for i, f in enumerate(maps):
        plan[i][i] = 0, _nnz_estimate(f), i
    for span in range(1, k):
        for i in range(k - span):
            j = i + span
            best = None
            for s in range(i, j):
                cl, nl, _ = plan[i][s]
                cr, nr, _ = plan[s + 1][j]
                w = nl * nr / dims[s + 1] if dims[s + 1] else 0
                if best is None or cl + cr + w < best[0]:
                    best = cl + cr + w, w, s
            dense = dims[i] * dims[j + 1]
            plan[i][j] = best if best[1] <= dense else (best[0], dense, best[2])
    return _chain(maps, plan, 0, k - 1)


def _chain(maps, plan, i, j):
    """The product of maps[i..j] in the order of compose's plan.  A module
    function, because a recursive closure refers to itself: the cycle would
    keep every factor alive until the cyclic garbage collector runs."""
    if i == j:
        return maps[i]
    s = plan[i][j][2]
    return _chain(maps, plan, i, s) @ _chain(maps, plan, s + 1, j)


def tensor(*maps: LinMap) -> LinMap:
    """The Kronecker product of the maps, left to right.

    When every factor but one plain map is an identity or a real leg, the
    product is a leg, complex when that map is.  Any other product is the
    lazy product of the tensor() of all factors but the last with the last
    (see the module docstring), so nothing is built here, except for
    antilinear factors, which AntilinMap.tensor multiplies out.
    """
    if not maps:
        raise ValueError("tensor() needs at least one map")
    if len(maps) == 1:
        return maps[0]
    a, f, b = 1, _ONE, 1
    for m in maps:
        ma, mf, mb = (m._a, m._f, m._b) if type(m) is _Leg else (1, m, 1)
        if mf is _ONE:  # an identity widens the padding on the side of f it stands
            if f is _ONE:
                a *= ma * mb
            else:
                b *= ma * mb
        elif f is _ONE and type(mf) is LinMap:
            a, f, b = a * ma, mf, mb
        else:
            break
    else:
        if f is _ONE:
            return LinMap.identity(a * b)
        if a * b == 1:
            return f
        if not (a * b * f.cod * f.dom):  # no entries: the plain zero map is cheaper to use
            return LinMap.zero(a * f.cod * b, a * f.dom * b)
        return _Leg(a, f, b) if f._im is None else _CLeg(a, f, b)
    A, B = tensor(*maps[:-1]), maps[-1]
    if not isinstance(A, LinMap):  # antilinear factors
        return A.tensor(B)
    real = all(type(m) not in (_CLeg, _CKron) and m._im is None for m in (A, B))
    return _Kron(A, B) if real else _CKron(A, B)


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
    return LinMap(total, total, rows, _clean=True)


# -- fraction-free elimination over Z -------------------------------------
#
# A row is a {col: int} dict; a complex row re + i im is realified first (see
# _eliminate).  Rows are never mutated, so map rows are passed in as they are.


def _addmul(out, row, k):
    "out += k * row for a nonzero integer k, dropping cancelled entries."
    get = out.get
    for j, x in row.items():
        v = get(j, 0) + k * x
        if v:
            out[j] = v
        else:
            del out[j]


def _moved(row, off=0, s=1):
    "The row times s, its columns shifted by off."
    return {j + off: s * x for j, x in row.items()}


def _realified(re, im):
    "The integer row of v = re + i im: column j becomes 2j (its real part) and 2j + 1 (its imaginary part)."
    return {**{2 * j: x for j, x in re.items()}, **{2 * j + 1: y for j, y in im.items()}}


def _times_i(row):
    "The realified row times i: the parts of each column swap, the new real part negated."
    return {j ^ 1: -x if j & 1 else x for j, x in row.items()}


def _complexified(row):
    "The pair (re, im) whose realified row is row."
    re, im = {}, {}
    for j, x in row.items():
        if j & 1:
            im[j >> 1] = x
        else:
            re[j >> 1] = x
    return re, im


def _reduce(row, piv):
    """The row with every pivot column of piv cleared: L*row minus (L/p_c)*row[c]
    times pivot row c, L the lcm of the pivots p_c met.  Pivot rows hold no other
    pivot column, so all of them apply at once to the original entries."""
    hits = [c for c in row if c in piv]
    if not hits:
        return row
    den = lcm(*(piv[c][c] for c in hits))
    out = {j: den * x for j, x in row.items()}
    for c in hits:
        _addmul(out, piv[c], -row[c] * (den // piv[c][c]))
    return out


def _eliminate(rows) -> dict:
    """Fraction-free incremental Gauss-Jordan elimination; returns {pivot
    column: (re, im)}: divided by their pivots and sorted by column, the rows
    are the reduced row echelon form of the rows' span over Q(i), which is
    unique.  Each row is primitive (the gcd of its integer parts is 1) and has
    a positive integer pivot.

    The rows are {col: int} dicts for a real span, or (re, im) pairs.  Real
    rows, and pairs whose im parts are all empty, run through _eliminate_real
    directly.  Complex rows are realified: each v = re + i im is fed as the two
    integer rows v and i v, column j split into 2j and 2j + 1 (_realified).
    The Q(i)-span of the rows is the Q-span of those rows, so its pivots come
    in pairs (2c, 2c + 1).  If r is the echelon row over Q(i) at c (r[c] = 1),
    the rows realified from r and i r are 1 at 2c and 2c + 1 respectively, 0
    at the other's pivot, and 0 at every other pivot column: they are the
    echelon rows over Q at 2c and 2c + 1.  Both echelon forms are unique, so
    the row at 2c is the primitive integer multiple of r realified, and split
    back into a pair it is the row at c.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return {}
    rows = chain((first,), rows)
    if type(first) is not dict:
        pairs = list(rows)
        if any(im for _, im in pairs):
            piv = _eliminate_real((_realified(re, im) for re, im in pairs), True)
            return {c >> 1: _complexified(row) for c, row in piv.items() if not c & 1}
        rows = (re for re, _ in pairs)
    return {c: (row, {}) for c, row in _eliminate_real(rows).items()}


def _eliminate_real(rows, with_i: bool = False) -> dict:
    """The pivot loop of _eliminate, on integer rows: {pivot column: row}.

    Each row is reduced against the pivot rows so far; its leading column
    becomes a new pivot, made positive with the row's integer content
    divided out, and that column is cleared from the earlier pivot rows that
    hold it, found through an index from each non-pivot column to the pivot
    rows that held it, so the work follows the nonzeros.  With with_i each
    realified row v is followed by i v, whose reduction is i times v's: the
    rows before v span a space closed under i, so i v needs only v's pivot.
    """
    piv: dict = {}
    holders: dict = {}  # non-pivot column -> pivot columns whose rows held it when made; stale ones are skipped
    for row in rows:
        for second in range(1 + with_i):
            row = _reduce(_times_i(row) if second else row, piv)
            if not row:
                break
            c = min(row)
            g = gcd(*row.values())
            if row[c] < 0:
                g = -g
            if g != 1:
                row = {j: x // g for j, x in row.items()}
            p = row[c]
            for d in holders.pop(c, ()):
                q = piv[d]
                a = q.get(c)
                if a is None:
                    continue
                new = {j: p * x for j, x in q.items()}
                _addmul(new, row, -a)
                g = gcd(*new.values())
                piv[d] = new if g == 1 else {j: x // g for j, x in new.items()}
                for j in row:
                    if j not in q:
                        holders.setdefault(j, []).append(d)
            piv[c] = row
            for j in row:
                if j != c:
                    holders.setdefault(j, []).append(c)
    return piv


def _nullspace(piv, ncols):
    """The free-column basis of the null space of _eliminate's rows, as rows
    (re, im) over one denominator: for each non-pivot column f in order, e_f
    minus each pivot row's entry at f (over its pivot) at that row's pivot."""
    den = lcm(*(re[c] for c, (re, _) in piv.items()))
    free = [j for j in range(ncols) if j not in piv]
    index = {f: i for i, f in enumerate(free)}
    re_rows = [{f: den} for f in free]
    im_rows = [{} for _ in free]
    for c, (re, im) in piv.items():
        k = den // re[c]
        for j, x in re.items():
            if j != c:
                re_rows[index[j]][c] = -x * k
        for j, x in im.items():
            im_rows[index[j]][c] = -x * k
    return re_rows, im_rows, den


def solve_right(A: LinMap, B: LinMap) -> LinMap | None:
    "Least-structure X with A @ X = B (free coordinates zero), or None."
    if A.cod != B.cod:
        raise DimensionMismatch("solve: cod mismatch")
    k, n = A.dom, B.dom
    g = gcd(A._den, B._den)
    sa, sb = B._den // g, A._den // g  # [A | B] times lcm(denominators)
    if A._im is None and B._im is None:
        rows = [{**_moved(ar, 0, sa), **_moved(br, k, sb)} for ar, br in zip(A._re, B._re)]
    else:
        rows = [
            ({**_moved(ar, 0, sa), **_moved(br, k, sb)}, {**_moved(ai, 0, sa), **_moved(bi, k, sb)})
            for ar, ai, br, bi in zip(A._re, A._im_rows(), B._re, B._im_rows())
        ]
    piv = _eliminate(rows)
    if any(c >= k for c in piv):
        return None
    den = lcm(*(re[c] for c, (re, _) in piv.items()))
    re_rows, im_rows = [{} for _ in range(k)], [{} for _ in range(k)]
    for c, (re, im) in piv.items():
        s = den // re[c]
        re_rows[c] = {j - k: x * s for j, x in re.items() if j >= k}
        im_rows[c] = {j - k: x * s for j, x in im.items() if j >= k}
    return LinMap(k, n, re_rows, im_rows, den, _clean=True)


def _transpose_rows(rows, n):
    out = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def transpose(f: LinMap) -> LinMap:
    im = None if f._im is None else _transpose_rows(f._im, f.dom)
    return LinMap(f.dom, f.cod, _transpose_rows(f._re, f.dom), im, f._den, _clean=True)


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
    re, im, den = _nullspace(sub._piv, ambient)
    return LinMap(len(re), ambient, re, im, den, _clean=True), len(re)


class Subspace:
    """A subspace of a coordinate space, held as _eliminate's pivot rows.

    The rows are sorted by pivot column; each is primitive, has a positive
    integer pivot and is zero at every other pivot column.  Those rows are
    unique to the space, so equal spaces have equal rows.
    """

    __slots__ = ("ambient", "_piv")

    def __init__(self, ambient: int, piv: dict):
        "piv is {pivot column: (re, im)} as _eliminate returns it."
        self.ambient = ambient
        self._piv = {c: piv[c] for c in sorted(piv)}

    @staticmethod
    def spanned_by(ambient: int, vectors) -> "Subspace":
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise DimensionMismatch("vector length != ambient")
        return Subspace(ambient, _eliminate(LinMap.from_entries(len(vecs), ambient, vecs)._rows()))

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return LinMap.identity(ambient).image()

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, {})

    @property
    def dim(self) -> int:
        return len(self._piv)

    @property
    def basis(self) -> tuple:
        "The reduced echelon basis, as tuples of Q values."
        return tuple(map(self._vector, self._piv))

    def _vector(self, c: int) -> tuple:
        "The basis vector with pivot column c: its row over its pivot."
        re, im = self._piv[c]
        row = LinMap(1, self.ambient, [re], [im], re[c], _clean=True)
        return tuple(row.entry(0, j) for j in range(self.ambient))

    def contains(self, vec) -> bool:
        vec = list(vec)
        if len(vec) != self.ambient:
            raise DimensionMismatch("vector length != ambient")
        row = LinMap.from_entries(1, self.ambient, [vec])
        return next(self._holds(zip(row._re, row._im_rows())))

    def outside(self, other: "Subspace"):
        "The first echelon basis vector of other that lies outside this space, or None."
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient mismatch")
        for c, inside in zip(other._piv, self._holds(other._piv.values())):
            if not inside:
                return other._vector(c)
        return None

    def _holds(self, rows):
        """Whether each integer row pair (re, im) of rows lies in this space, in
        order and as needed: whether it reduces to zero against the pivot rows.
        When either side has an imaginary part, both are realified as in
        _eliminate: the pivot row v at c gives the rows v and i v at 2c and 2c + 1."""
        rows = list(rows)
        if any(im for _, im in self._piv.values()) or any(im for _, im in rows):
            piv = {}
            for c, (re, im) in self._piv.items():
                piv[2 * c] = v = _realified(re, im)
                piv[2 * c + 1] = _times_i(v)
            return (not _reduce(_realified(re, im), piv) for re, im in rows)
        piv = {c: re for c, (re, _) in self._piv.items()}
        return (not _reduce(re, piv) for re, _ in rows)

    def contains_space(self, other: "Subspace") -> bool:
        return self.outside(other) is None

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient mismatch")
        return Subspace(self.ambient, _eliminate([*self._piv.values(), *other._piv.values()]))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient mismatch")
        # Zassenhaus: the rows [u | u] and [w | 0] span pairs whose left part
        # vanishes exactly on 0 x (U n W), and those rows lead in the right half.
        n = self.ambient
        rows = [({**re, **_moved(re, n)}, {**im, **_moved(im, n)}) for re, im in self._piv.values()]
        rows += other._piv.values()
        piv = _eliminate(rows)
        return Subspace(n, {c - n: (_moved(re, -n), _moved(im, -n)) for c, (re, im) in piv.items() if c >= n})

    def inclusion(self) -> LinMap:
        "The inclusion map (dim -> ambient); columns are the echelon basis."
        den = lcm(*(re[c] for c, (re, _) in self._piv.items()))
        re_rows, im_rows = [{} for _ in range(self.ambient)], [{} for _ in range(self.ambient)]
        for k, (c, (re, im)) in enumerate(self._piv.items()):
            s = den // re[c]
            for j, x in re.items():
                re_rows[j][k] = x * s
            for j, x in im.items():
                im_rows[j][k] = x * s
        return LinMap(self.ambient, self.dim, re_rows, im_rows, den, _clean=True)

    def map_by(self, f: LinMap) -> "Subspace":
        return (f @ self.inclusion()).image()

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self._piv == other._piv

    def __hash__(self):
        return hash((self.ambient, tuple((frozenset(re.items()), frozenset(im.items())) for re, im in self._piv.values())))

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
        return (self @ _column(vec, self.dom)).lin.col(0)

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


_ONE = LinMap(1, 1, [{0: 1}], _clean=True)  # the f of every identity leg
