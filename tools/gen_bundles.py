"""Regenerate the canonical bundle files shipped under bundles/.

    python3 tools/gen_bundles.py
"""

import functools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from braidcalc.bundles import Bundle, emit_bundle
from braidcalc.covariance import reconstruct_from_ideal, universal_ideals
from braidcalc.fixtures import conjugation_star, fix_anyon, fix_gr, fix_k2, fix_k4, fix_one, gr_star
from braidcalc.reporting import Report

OUT = ROOT / "bundles"

# the nonunit basis vectors of a four-dimensional fixture, which span its ker(eps)
E1, E2, E3 = ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]
# each calculus is (its name, the universal ideal it is reconstructed from)
BOTH_CALCULI = [("universal", "zero"), ("zero", "keps")]

# name -> (the group fixture, its star, its calculi, its ideal sections)
TABLE = {
    "fix_1": (fix_one, conjugation_star, BOTH_CALCULI[:1], [("zero", [])]),
    "fix_k2": (fix_k2, conjugation_star, BOTH_CALCULI, [("zero", []), ("keps", [["0", "1"]])]),
    "fix_gr": (fix_gr, lambda g: gr_star(1), BOTH_CALCULI, [("zero", []), ("keps", [["0", "1"]])]),
    "fix_k4": (fix_k4, conjugation_star, [], [("zero", []), ("keps", [E1, E2, E3]), ("d1", [E1]), ("d2", [E2])]),
    "fix_a4": (fix_anyon, conjugation_star, [], [("zero", []), ("keps", [E1, E2, E3])]),
}


def build(fixture, star, calculi, ideals) -> Bundle:
    g = fixture()
    both = universal_ideals(g)
    sections = [reconstruct_from_ideal(g, both[ideal], Report(), name=name) for name, ideal in calculi]
    return Bundle(g, star(g), sections, ideals)


BUNDLES = {name: functools.partial(build, *spec) for name, spec in TABLE.items()}


def main():
    OUT.mkdir(exist_ok=True)
    for name, builder in BUNDLES.items():
        path = OUT / f"{name}.json"
        path.write_text(emit_bundle(builder()))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
