"""Regenerate the canonical bundle files shipped under bundles/.

    python3 tools/gen_bundles.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from braidcalc.bundles import Bundle, emit_bundle
from braidcalc.covariance import reconstruct_from_ideal, universal_ideals
from braidcalc.fixtures import conjugation_star, fix_anyon, fix_gr, fix_k2, fix_k4, fix_one, gr_star
from braidcalc.reporting import Report

OUT = ROOT / "bundles"


def k2_bundle() -> Bundle:
    g = fix_k2()
    ideals = universal_ideals(g)
    universal = reconstruct_from_ideal(g, ideals["zero"], Report(), name="universal")
    zero = reconstruct_from_ideal(g, ideals["keps"], Report(), name="zero")
    return Bundle(
        g,
        conjugation_star(g),
        [universal, zero],
        [("zero", []), ("keps", [["0", "1"]])],
    )


def gr_bundle() -> Bundle:
    g = fix_gr()
    ideals = universal_ideals(g)
    universal = reconstruct_from_ideal(g, ideals["zero"], Report(), name="universal")
    zero = reconstruct_from_ideal(g, ideals["keps"], Report(), name="zero")
    return Bundle(
        g,
        gr_star(1),
        [universal, zero],
        [("zero", []), ("keps", [["0", "1"]])],
    )


def one_bundle() -> Bundle:
    g = fix_one()
    universal = reconstruct_from_ideal(g, universal_ideals(g)["zero"], Report(), name="universal")
    return Bundle(g, conjugation_star(g), [universal], [("zero", [])])


def k4_bundle() -> Bundle:
    g = fix_k4()
    return Bundle(
        g,
        conjugation_star(g),
        [],
        [
            ("zero", []),
            ("keps", [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]),
            ("d1", [["0", "1", "0", "0"]]),
            ("d2", [["0", "0", "1", "0"]]),
        ],
    )


def a4_bundle() -> Bundle:
    g = fix_anyon()
    return Bundle(
        g,
        conjugation_star(g),
        [],
        [
            ("zero", []),
            ("keps", [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]),
        ],
    )


BUNDLES = {
    "fix_1": one_bundle,
    "fix_k2": k2_bundle,
    "fix_gr": gr_bundle,
    "fix_k4": k4_bundle,
    "fix_a4": a4_bundle,
}


def main():
    OUT.mkdir(exist_ok=True)
    for name, builder in BUNDLES.items():
        path = OUT / f"{name}.json"
        path.write_text(emit_bundle(builder()))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
