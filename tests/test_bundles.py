import importlib.util
import json
from pathlib import Path

import pytest

from braidcalc.bundles import (
    DimensionError,
    ParseError,
    bundle_digest,
    emit_bundle,
    emit_report,
    parse_bundle,
)
from braidcalc.reporting import Report

BUNDLE_DIR = Path(__file__).resolve().parent.parent / "bundles"


def test_shipped_bundles_parse():
    for name in ("fix_1", "fix_k2", "fix_gr", "fix_k4", "fix_a4"):
        b = parse_bundle((BUNDLE_DIR / f"{name}.json").read_text())
        assert b.group.dim >= 1


def test_gen_bundles_reproduces_committed_bundles():
    "tools/gen_bundles.py emits every committed bundle byte for byte (checked without writing)."
    spec = importlib.util.spec_from_file_location("gen_bundles", BUNDLE_DIR.parent / "tools" / "gen_bundles.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert sorted(gen.BUNDLES) == sorted(p.stem for p in BUNDLE_DIR.glob("*.json"))
    for name, builder in gen.BUNDLES.items():
        assert emit_bundle(builder()) == (BUNDLE_DIR / f"{name}.json").read_text(), name


def test_k2_bundle_contents():
    b = parse_bundle((BUNDLE_DIR / "fix_k2.json").read_text())
    assert b.group.dim == 2
    assert b.group.alg.labels == ("d_e", "d_g")
    assert [c.name for c in b.calculi] == ["universal", "zero"]
    assert [name for name, _ in b.ideals] == ["zero", "keps"]
    assert b.star is not None


def test_roundtrip_is_canonical():
    for name in ("fix_1", "fix_k2", "fix_gr", "fix_k4", "fix_a4"):
        text = (BUNDLE_DIR / f"{name}.json").read_text()
        once = emit_bundle(parse_bundle(text))
        twice = emit_bundle(parse_bundle(once))
        assert once == twice
        assert once == text  # shipped files are already canonical


def test_non_canonical_scalars_normalize(k2):
    text = (BUNDLE_DIR / "fix_k2.json").read_text()
    tweaked = text.replace('"1"', '"2/2"', 1)
    assert emit_bundle(parse_bundle(tweaked)) == text


def test_floats_rejected():
    text = (BUNDLE_DIR / "fix_k2.json").read_text()
    broken = text.replace('"1"', "0.5", 1)
    with pytest.raises(ParseError):
        parse_bundle(broken)


def test_float_strings_rejected():
    text = (BUNDLE_DIR / "fix_k2.json").read_text()
    broken = text.replace('"1"', '"0.5"', 1)
    with pytest.raises(ParseError) as err:
        parse_bundle(broken)
    assert "0.5" in str(err.value)


def test_dimension_error_has_path():
    data = json.loads((BUNDLE_DIR / "fix_k2.json").read_text())
    data["group"]["counit"] = [["1"]]
    with pytest.raises(DimensionError) as err:
        parse_bundle(json.dumps(data))
    assert "counit" in str(err.value)


def test_missing_field_reported():
    data = json.loads((BUNDLE_DIR / "fix_k2.json").read_text())
    del data["group"]["sigma"]
    with pytest.raises(ParseError) as err:
        parse_bundle(json.dumps(data))
    assert "sigma" in str(err.value)


def test_digest_stability():
    b1 = parse_bundle((BUNDLE_DIR / "fix_gr.json").read_text())
    b2 = parse_bundle((BUNDLE_DIR / "fix_gr.json").read_text())
    assert bundle_digest(b1) == bundle_digest(b2)
    assert bundle_digest(b1).startswith("sha256:")


def test_emit_report_shape():
    rep = Report(ctx="group")
    rep.ok("SOME_KEY", note="fine")
    rep.fail("OTHER_KEY", {"input": ["1"], "lhs": ["2"], "rhs": ["1"]})
    text = emit_report(rep, "0.1.0", "sha256:abc")
    data = json.loads(text)
    assert data["engine"] == {"name": "braidcalc", "version": "0.1.0"}
    assert data["summary"] == {"pass": 1, "fail": 1, "skipped": 0}
    assert data["entries"][1]["witness"]["lhs"] == ["2"]


def test_bundle_star_flag_required(k2):
    data = json.loads((BUNDLE_DIR / "fix_k2.json").read_text())
    data["group"]["star"]["antilinear"] = False
    with pytest.raises(ParseError):
        parse_bundle(json.dumps(data))


def test_zero_dim_calculus_roundtrip(gr):
    b = parse_bundle((BUNDLE_DIR / "fix_gr.json").read_text())
    zero = [c for c in b.calculi if c.name == "zero"][0]
    assert zero.gdim == 0
    assert emit_bundle(parse_bundle(emit_bundle(b))) == emit_bundle(b)


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda d: d.update(calculi=[1]), "calculi[0]"),
        (lambda d: d.update(ideals=[1]), "ideals[0]"),
        (lambda d: d["group"].update(basis_labels=5), "group.basis_labels"),
        (lambda d: d["ideals"][0].update(name=[1]), "ideals[0].name"),
        (lambda d: d["calculi"][0].update(name=5), "calculi[0].name"),
        (lambda d: d["group"].update(dim=True), "group.dim"),
        (lambda d: d["calculi"][0].update(gdim=True), "calculi[0].gdim"),
        (lambda d: d["ideals"][1].update(name="zero"), "ideals[1].name"),
        (lambda d: d["calculi"][1].update(name="universal"), "calculi[1].name"),
        (lambda d: (d["calculi"][0].update(name="calculus1"), d["calculi"][1].pop("name")), "calculi[1].name"),
    ],
    ids=[
        "calculus-not-object",
        "ideal-not-object",
        "labels-not-list",
        "ideal-name-not-string",
        "calculus-name-not-string",
        "dim-boolean",
        "gdim-boolean",
        "ideal-name-repeated",
        "calculus-name-repeated",
        "calculus-name-repeats-default",
    ],
)
def test_malformed_section_is_parse_error(edit, path):
    data = json.loads((BUNDLE_DIR / "fix_k2.json").read_text())
    edit(data)
    with pytest.raises(ParseError) as err:
        parse_bundle(json.dumps(data))
    assert err.value.path == path


@pytest.mark.parametrize(
    "cell, message",
    [
        ("x", "not an exact Q(i) scalar: 'x'"),
        ("1/0", "zero denominator in '1/0'"),
        (True, "booleans are not scalars"),
        ([1], "expected exact scalar string, got list"),
        (None, "expected exact scalar string, got NoneType"),
    ],
    ids=["bad-string", "zero-denominator", "boolean", "list", "null"],
)
def test_malformed_cell_names_its_path(cell, message):
    # rows 0 and 1 of sigma hold only "0" and "1", so the bad cell follows parsed ones
    data = json.loads((BUNDLE_DIR / "fix_k2.json").read_text())
    data["group"]["sigma"][2][3] = cell
    with pytest.raises(ParseError) as err:
        parse_bundle(json.dumps(data))
    assert err.value.path == "group.sigma[2][3]"
    assert str(err.value) == f"group.sigma[2][3]: {message}"


def test_integer_cells_parse_among_strings():
    text = (BUNDLE_DIR / "fix_k2.json").read_text()
    data = json.loads(text)
    data["group"]["antipode"] = [["1", 0], [0, 1]]
    assert parse_bundle(json.dumps(data)).group.antipode == parse_bundle(text).group.antipode
