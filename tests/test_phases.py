"""The phase oracle: a record and its copy in the basis D e_k, D = diag(i^k),
must get the same verdicts.

`oracles.phased` conjugates every structure map by D.  The copy's unit and
product are complex (and its antipode on Z/3), so `check` on it runs the
complex paths of the engine (complex products and Kronecker products,
complex legs and lazy products) where the real record runs the real ones.
The sorted (ctx, id, status) lists must be equal; witnesses and the maps
in them differ by the change of basis.
"""

from pathlib import Path

import pytest

from braidcalc.bundles import Bundle, parse_bundle
from braidcalc.covariance import reconstruct_from_ideal, universal_ideals
from braidcalc.fixtures import _delta_group, conjugation_star
from braidcalc.reporting import Report
from braidcalc.scalars import Q
from braidcalc.verify import verify_bundle

from oracles import phased

BUNDLES = Path(__file__).resolve().parent.parent / "bundles"


def delta_group(n):
    return _delta_group(n, tuple(f"d_{i}" for i in range(n)))


def z3_universal() -> Bundle:
    g = delta_group(3)
    universal = reconstruct_from_ideal(g, universal_ideals(g)["zero"], Report(), name="universal")
    return Bundle(g, conjugation_star(g), [universal], [])


def z4_d1() -> Bundle:
    g = delta_group(4)
    return Bundle(g, conjugation_star(g), [], [("d1", [[Q(int(j == 1)) for j in range(4)]])])


CASES = {
    "fix_k2": lambda: parse_bundle((BUNDLES / "fix_k2.json").read_text()),
    "z3_universal": z3_universal,
    "z4_d1": z4_d1,
}


def verdicts(bundle: Bundle) -> list:
    return sorted((e.ctx, e.id, e.status) for e in verify_bundle(bundle).entries)


@pytest.mark.parametrize("name", sorted(CASES))
def test_phased_record_gets_the_same_verdicts(name):
    bundle = CASES[name]()
    twin = phased(bundle)
    assert not twin.group.mult.is_real()
    assert twin.group.braiding == bundle.group.braiding, "D commutes with the flip"
    expected = verdicts(bundle)
    assert len(expected) > 100
    assert verdicts(twin) == expected
