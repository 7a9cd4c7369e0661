"""Finite-dimensional unital associative algebras given by structure constants."""

from __future__ import annotations

from .linalg import DimensionMismatch, LinMap, compose, identity, tensor
from .reporting import Report, basis_label


class FiniteDimAlgebra:
    """An algebra on coordinates: multiplication (dim^2 -> dim) and unit (1 -> dim).

    Immutable; equal and hashed by its four fields."""

    __slots__ = ("dim", "unit", "mult", "labels")

    def __init__(self, dim: int, unit: LinMap, mult: LinMap, labels: tuple = ()):
        if unit.dom != 1 or unit.cod != dim:
            raise DimensionMismatch("unit must be a map 1 -> dim")
        if mult.dom != dim**2 or mult.cod != dim:
            raise DimensionMismatch("mult must be a map dim^2 -> dim")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "labels", labels or tuple(f"e{i}" for i in range(dim)))

    def __setattr__(self, name, value=None):
        "Refuse every assignment; the other records share this method."
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return (self.dim, self.unit, self.mult, self.labels)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def multiply(alg: FiniteDimAlgebra, x, y) -> tuple:
    "Product of two coordinate vectors."
    n = alg.dim
    x, y = [[a] for a in x], [[b] for b in y]
    if len(x) != n or len(y) != n:
        raise DimensionMismatch("vectors must have length dim")
    return (alg.mult @ LinMap.from_entries(n, 1, x).tensor(LinMap.from_entries(n, 1, y))).col(0)


def check_algebra(alg: FiniteDimAlgebra, report: Report | None = None, prefix: str = "") -> Report:
    "Associativity and two-sided unitality, each as an exact matrix identity."
    rep = report if report is not None else Report()
    n = alg.dim
    I = identity(n)
    m, u = alg.mult, alg.unit
    triple = [alg.labels[i] for i in range(n)]
    ok = rep.check_eq(prefix + "ALG_ASSOC", compose(m, tensor(m, I)), compose(m, tensor(I, m)))
    if not ok:
        e = rep.entries[-1]
        if e.witness and "input" in e.witness:
            idx = next(i for i, v in enumerate(e.witness["input"]) if v != "0")
            rep.entries[-1] = e._replace(note="basis triple " + basis_label(idx, [n, n, n], triple))
    rep.check_eq(prefix + "ALG_UNIT_L", compose(m, tensor(u, I)), I)
    rep.check_eq(prefix + "ALG_UNIT_R", compose(m, tensor(I, u)), I)
    return rep
