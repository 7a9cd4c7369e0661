import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from braidcalc.bundles import (
    DimensionError,
    ParseError,
    bundle_digest,
    emit_bundle,
    emit_json,
    emit_report,
    parse_bundle,
)
from braidcalc.reporting import FAIL, PASS, SKIP, Entry, Report

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
        (lambda d: d.update(format_version=True), "format_version"),
        (lambda d: d.update(format_version="1"), "format_version"),
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
        "version-boolean",
        "version-string",
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


# Strings that stress the escaping: quotes, backslashes, control characters,
# non-ASCII text, characters outside the BMP and lone surrogates.
_SPECIAL = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "\u00e9", "\u2028", "\ud800", "\udfff", "\U0001f600"])
_TEXT = st.lists(st.one_of(_SPECIAL, st.characters(codec=None, categories=None)), max_size=8).map("".join)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)
_PROPS = settings(derandomize=True, max_examples=60, deadline=None)


@_PROPS
@given(_JSON)
def test_emit_json_equals_json_dumps(obj):
    assert emit_json(obj) == json.dumps(obj, sort_keys=True, indent=2)


@_PROPS
@given(st.lists(_TEXT, min_size=1, max_size=6), _TEXT)
def test_emit_json_writes_string_lists_as_json_dumps_does(items, other):
    # a list that holds a non-string after strings leaves the one-pass path
    for obj in (items, items + [1], items + [[other]], [{other: items}]):
        assert emit_json(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_emit_json_indent_prefixes_every_later_line():
    obj = {"a": [["1", "0"], []], "b": {}}
    assert emit_json(obj, "    ") == json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n    ")


@pytest.mark.parametrize("obj", [1.5, {1, 2}, object(), [b"x"], {"k": 0.5}, {1: "x"}], ids=repr)
def test_emit_json_rejects_what_it_cannot_write(obj):
    with pytest.raises(TypeError):
        emit_json(obj)


_WITNESS = st.one_of(
    st.none(),
    st.builds(lambda a, b, c: {"input": a, "lhs": b, "rhs": c}, *[st.lists(_TEXT, max_size=3)] * 3),
    st.builds(lambda r: {"reason": r}, _TEXT),
)
_ENTRY = st.builds(Entry, _TEXT, st.sampled_from([PASS, FAIL, SKIP]), _TEXT, _TEXT, _WITNESS, _TEXT)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(_ENTRY, max_size=4), _TEXT, _TEXT)
def test_emit_report_equals_json_dumps_of_entry_dicts(entries, version, digest):
    report = Report(entries=entries)
    assert emit_report(report, version, digest) == oracles.emit_report(report, version, digest)


def test_emit_report_of_an_empty_report():
    assert emit_report(Report(), "0.1.0") == oracles.emit_report(Report(), "0.1.0")
    assert '"entries": [],' in emit_report(Report(), "0.1.0")


def test_emit_report_equals_json_dumps_on_both_witness_shapes():
    rep = Report(ctx='calc:"\\\x01\u00e9\ud800')
    rep.ok("A", name="n\u2028", note="\t")
    rep.fail("B", {"input": ["1", "-1/2+3 i"], "lhs": ["2"], "rhs": ["1"]}, note="\U0001f600")
    rep.fail("C", {"reason": "shape mismatch 2x2 vs 1x2"})
    rep.fail("D", {})
    rep.skip("E")
    assert emit_report(rep, "0.1.0", "sha256:abc") == oracles.emit_report(rep, "0.1.0", "sha256:abc")


def test_zero_cells_parse_to_int_zero(monkeypatch):
    "Zero cells reach LinMap.from_entries as the int 0, and the map is unchanged."
    import braidcalc.bundles as bundles

    seen = []
    raw = bundles.LinMap.from_entries

    def spy(cod, dom, rows):
        rows = [list(r) for r in rows]
        seen.extend(x for r in rows for x in r if not x)
        return raw(cod, dom, rows)

    text = (BUNDLE_DIR / "fix_k2.json").read_text()
    data = json.loads(text)
    data["group"]["antipode"] = [["1", "0/3"], [0, "1"]]
    monkeypatch.setattr(bundles.LinMap, "from_entries", staticmethod(spy))
    b = parse_bundle(json.dumps(data))
    assert seen and all(type(x) is int for x in seen)
    monkeypatch.undo()
    assert b.group.antipode == parse_bundle(text).group.antipode
