"""Inputs of the three benchmark workloads, written as bundle files.

`shipped` is the committed bundles exactly as they are.  `calculus` and
`ideal` are generated from `_delta_group(n)`, functions on Z/n; the seed
picks a relabeling pi of the n group elements (seed 0 is the identity),
every structure map is conjugated by its permutation matrix, and the `d1`
ideal generator becomes delta_pi(1).  Relabeling changes report bytes and
witnesses but not the multiset of (ctx, id, status).

This module imports braidcalc, so only the worker process loads it.
"""

from __future__ import annotations

import random
from pathlib import Path

from braidcalc.algebras import FiniteDimAlgebra
from braidcalc.bundles import Bundle, emit_bundle
from braidcalc.covariance import reconstruct_from_ideal, universal_ideals
from braidcalc.fixtures import _delta_group, conjugation_star
from braidcalc.groups import MultiBraidedGroup
from braidcalc.linalg import LinMap, transpose
from braidcalc.reporting import Report

SHIPPED = ("fix_1", "fix_k2", "fix_gr", "fix_k4", "fix_a4")
CALCULUS_ORDER = 3
IDEAL_ORDERS = (4, 5, 6)


def relabeling(n: int, seed: int) -> list:
    "pi as a list: element i becomes element pi[i]; seed 0 is the identity."
    perm = list(range(n))
    if seed:
        random.Random(seed).shuffle(perm)
    return perm


def relabeled_delta_group(n: int, perm) -> MultiBraidedGroup:
    "`_delta_group(n)` with every structure map conjugated by the permutation matrix of perm."
    g = _delta_group(n, tuple(f"d_{i}" for i in range(n)))
    rows = [[0] * n for _ in range(n)]
    for i, p in enumerate(perm):
        rows[p][i] = 1
    p = LinMap(n, n, rows)
    p_inv = transpose(p)
    pp, pp_inv = p.tensor(p), p_inv.tensor(p_inv)
    labels = [""] * n
    for i, q in enumerate(perm):
        labels[q] = g.alg.labels[i]
    alg = FiniteDimAlgebra(n, p @ g.unit, p @ g.mult @ pp_inv, tuple(labels))
    return MultiBraidedGroup(
        alg,
        pp @ g.coproduct @ p_inv,
        g.counit @ p_inv,
        p @ g.antipode @ p_inv,
        pp @ g.braiding @ pp_inv,
    )


def calculus_bundle(seed: int) -> Bundle:
    g = relabeled_delta_group(CALCULUS_ORDER, relabeling(CALCULUS_ORDER, seed))
    universal = reconstruct_from_ideal(g, universal_ideals(g)["zero"], Report(), name="universal")
    return Bundle(g, conjugation_star(g), [universal], [])


def ideal_bundle(n: int, seed: int) -> Bundle:
    perm = relabeling(n, seed)
    g = relabeled_delta_group(n, perm)
    generator = ["1" if j == perm[1] else "0" for j in range(n)]
    return Bundle(g, conjugation_star(g), [], [("d1", [generator])])


def build(workload: str, seed: int, root: Path, workdir: Path) -> list:
    "The workload's operations as (name, bundle path); generated bundles go to workdir."
    if workload == "shipped":
        return [(name, root / "bundles" / f"{name}.json") for name in SHIPPED]
    if workload == "calculus":
        generated = [(f"z{CALCULUS_ORDER}_universal", calculus_bundle(seed))]
    elif workload == "ideal":
        generated = [(f"z{n}_d1", ideal_bundle(n, seed)) for n in IDEAL_ORDERS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops = []
    for name, bundle in generated:
        path = workdir / f"{name}.json"
        path.write_text(emit_bundle(bundle))
        ops.append((name, path))
    return ops
