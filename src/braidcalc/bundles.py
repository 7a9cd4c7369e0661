"""Bundle file format: groups, calculi and ideals as exact JSON.

Matrices are row-major arrays of exact scalar strings ("a/b" or
"a/b+c/d i"); floats are rejected outright.  Emission is canonical
(sorted keys, reduced scalars, fixed indentation), so parse -> emit is
idempotent byte for byte and reports can be keyed by a digest of the
canonical text.

One writer, `emit_json`, writes every JSON text braidcalc emits: bundles,
reports and the CLI's matrices.  Its output equals
`json.dumps(obj, sort_keys=True, indent=2)` byte for byte, but each string
goes through the C string encoder, where any `indent` sends `json.dumps`
through its pure-Python encoder.  A report entry is written straight from
its fields.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote

from .algebras import FiniteDimAlgebra
from .calculi import FirstOrderCalculus
from .groups import MultiBraidedGroup
from .linalg import AntilinMap, LinMap
from .reporting import Entry, Report
from .scalars import Q, ScalarParseError

FORMAT_VERSION = 1


class ParseError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class DimensionError(ParseError):
    pass


class Bundle:
    def __init__(
        self, group: MultiBraidedGroup, star: AntilinMap | None = None, calculi: list | None = None, ideals: list | None = None
    ):
        self.group = group
        self.star = star
        self.calculi = [] if calculi is None else calculi
        self.ideals = [] if ideals is None else ideals  # (name, list of coordinate vectors)


def _reject_float(text: str):
    raise ParseError("<number>", f"floating-point literal {text!r} is forbidden; use exact 'a/b' strings")


def _scalar(value) -> Q:
    "An int or an exact scalar string as Q; ScalarParseError for anything else."
    if isinstance(value, bool):
        raise ScalarParseError("booleans are not scalars")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        return Q.parse(value)
    raise ScalarParseError(f"expected exact scalar string, got {type(value).__name__}")


def _parse_scalar(value, path: str) -> Q:
    try:
        return _scalar(value)
    except ScalarParseError as exc:
        raise ParseError(path, str(exc)) from exc


def _parse_matrix(value, cod: int, dom: int, path: str) -> LinMap:
    if not isinstance(value, list):
        raise ParseError(path, "expected a list of rows")
    if len(value) != cod:
        raise DimensionError(path, f"expected {cod} rows, got {len(value)}")
    scalars: dict = {}  # scalar string -> Q (or 0), so each distinct string is parsed once
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dom:
            raise DimensionError(f"{path}[{i}]", f"expected {dom} entries")
        try:
            rows.append([scalars[x] for x in row])
        except (KeyError, TypeError):  # a string met for the first time, or a cell that is not a string
            cells = []
            for j, x in enumerate(row):
                q = scalars.get(x) if type(x) is str else None
                if q is None:
                    try:
                        q = _scalar(x) or 0  # a zero cell as the int 0, which LinMap.from_entries skips at once
                    except ScalarParseError as exc:
                        raise ParseError(f"{path}[{i}][{j}]", str(exc)) from exc
                    if type(x) is str:
                        scalars[x] = q
                cells.append(q)
            rows.append(cells)
    return LinMap.from_entries(cod, dom, rows)


def matrix_rows(f: LinMap) -> list:
    "f's entries as rows of strings: \"0\" but where an entry is stored."
    out = []
    for i in range(f.cod):
        row = ["0"] * f.dom
        for j in f.support(i):
            row[j] = str(f.entry(i, j))
        out.append(row)
    return out


def _require(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise ParseError(path, "expected a JSON object")
    if key not in obj:
        raise ParseError(path, f"missing required field {key!r}")
    return obj[key]


def _section(data: dict, key: str) -> list:
    "An optional top-level list of objects."
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ParseError(key, "expected a list")
    for k, item in enumerate(value):
        if not isinstance(item, dict):
            raise ParseError(f"{key}[{k}]", "expected a JSON object")
    return value


def _name(value, path: str, seen: set) -> str:
    "A section name; names are unique per kind, since report entries tell sections apart by ctx kind:name."
    if not isinstance(value, str):
        raise ParseError(f"{path}.name", f"expected a string, got {type(value).__name__}")
    if value in seen:
        raise ParseError(f"{path}.name", f"duplicate name {value!r}")
    seen.add(value)
    return value


def parse_bundle(text: str) -> Bundle:
    try:
        data = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("<document>", "bundle must be a JSON object")
    version = data.get("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:  # JSON true equals 1 but is no version
        raise ParseError("format_version", f"unsupported version {version}")
    gobj = _require(data, "group", "<document>")
    dim = _require(gobj, "dim", "group")
    if type(dim) is not int or dim < 1:  # bool is an int subclass: JSON true is no dimension
        raise ParseError("group.dim", "dim must be a positive integer")
    # Nothing sized by dim is allocated before the unit's rows have matched
    # it: FiniteDimAlgebra makes the default labels when the field is absent.
    labels = gobj.get("basis_labels", ())
    if "basis_labels" in gobj and (
        not isinstance(labels, list) or len(labels) != dim or not all(isinstance(x, str) for x in labels)
    ):
        raise ParseError("group.basis_labels", f"expected {dim} strings")
    alg = FiniteDimAlgebra(
        dim,
        _parse_matrix(_require(gobj, "unit", "group"), dim, 1, "group.unit"),
        _parse_matrix(_require(gobj, "mult", "group"), dim, dim * dim, "group.mult"),
        tuple(labels),
    )
    group = MultiBraidedGroup(
        alg,
        _parse_matrix(_require(gobj, "coproduct", "group"), dim * dim, dim, "group.coproduct"),
        _parse_matrix(_require(gobj, "counit", "group"), 1, dim, "group.counit"),
        _parse_matrix(_require(gobj, "antipode", "group"), dim, dim, "group.antipode"),
        _parse_matrix(_require(gobj, "sigma", "group"), dim * dim, dim * dim, "group.sigma"),
    )
    star = None
    if "star" in gobj:
        sobj = gobj["star"]
        if not isinstance(sobj, dict) or sobj.get("antilinear") is not True:
            raise ParseError("group.star", "star must be an object with antilinear: true")
        star = AntilinMap(_parse_matrix(_require(sobj, "matrix", "group.star"), dim, dim, "group.star.matrix"))
    calculi, names = [], set()
    for k, cobj in enumerate(_section(data, "calculi")):
        path = f"calculi[{k}]"
        name = _name(cobj.get("name", f"calculus{k}"), path, names)
        gdim = _require(cobj, "gdim", path)
        if type(gdim) is not int or gdim < 0:
            raise ParseError(f"{path}.gdim", "gdim must be a nonnegative integer")
        calculi.append(
            FirstOrderCalculus(
                group,
                gdim,
                _parse_matrix(_require(cobj, "mgl", path), gdim, dim * gdim, f"{path}.mgl"),
                _parse_matrix(_require(cobj, "mgr", path), gdim, gdim * dim, f"{path}.mgr"),
                _parse_matrix(_require(cobj, "d", path), gdim, dim, f"{path}.d"),
                name=name,
            )
        )
    ideals, names = [], set()
    for k, iobj in enumerate(_section(data, "ideals")):
        path = f"ideals[{k}]"
        name = _name(_require(iobj, "name", path), path, names)
        gens = _require(iobj, "generators", path)
        if not isinstance(gens, list):
            raise ParseError(f"{path}.generators", "expected a list of coordinate vectors")
        vectors = []
        for t, vec in enumerate(gens):
            if not isinstance(vec, list) or len(vec) != dim:
                raise DimensionError(f"{path}.generators[{t}]", f"expected {dim} coordinates")
            vectors.append([_parse_scalar(x, f"{path}.generators[{t}][{j}]") for j, x in enumerate(vec)])
        ideals.append((name, vectors))
    return Bundle(group, star, calculi, ideals)


def emit_bundle(b: Bundle) -> str:
    g = b.group
    gobj = {
        "dim": g.dim,
        "basis_labels": list(g.alg.labels),
        "unit": matrix_rows(g.unit),
        "mult": matrix_rows(g.mult),
        "coproduct": matrix_rows(g.coproduct),
        "counit": matrix_rows(g.counit),
        "antipode": matrix_rows(g.antipode),
        "sigma": matrix_rows(g.braiding),
    }
    if b.star is not None:
        gobj["star"] = {"antilinear": True, "matrix": matrix_rows(b.star.lin)}
    data = {"format_version": FORMAT_VERSION, "group": gobj}
    if b.calculi:
        data["calculi"] = [
            {
                "name": c.name,
                "gdim": c.gdim,
                "mgl": matrix_rows(c.mgl),
                "mgr": matrix_rows(c.mgr),
                "d": matrix_rows(c.d),
            }
            for c in b.calculi
        ]
    if b.ideals:
        data["ideals"] = [
            {"name": name, "generators": [[str(x) for x in vec] for vec in vectors]}
            for name, vectors in b.ideals
        ]
    return emit_json(data) + "\n"


def bundle_digest(b: Bundle) -> str:
    return "sha256:" + hashlib.sha256(emit_bundle(b).encode()).hexdigest()


def emit_report(report: Report, engine_version: str, input_digest: str = "") -> str:
    entries = ",\n    ".join(map(_entry_json, report.entries))
    return (
        '{\n  "engine": ' + emit_json({"name": "braidcalc", "version": engine_version}, "  ")
        + ',\n  "entries": ' + (f"[\n    {entries}\n  ]" if entries else "[]")
        + ',\n  "input_digest": ' + _quote(input_digest)
        + ',\n  "summary": ' + emit_json(report.counts(), "  ")
        + "\n}\n"
    )


def _entry_json(e: Entry) -> str:
    "A report entry as it sits in the entries list: its fields in sorted key order, the empty ones left out."
    out = '{\n      "ctx": ' + _quote(e.ctx) + ',\n      "id": ' if e.ctx else '{\n      "id": '
    out += _quote(e.id)
    if e.name:
        out += ',\n      "name": ' + _quote(e.name)
    if e.note:
        out += ',\n      "note": ' + _quote(e.note)
    out += ',\n      "status": ' + _quote(e.status)
    if e.witness is not None:
        out += ',\n      "witness": ' + emit_json(e.witness, "      ")
    return out + "\n    }"


def emit_json(obj, indent: str = "") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, each line after the first
    prefixed by `indent`, so the text can be placed at that depth.  Takes
    str, int, bool, None, list, tuple and dicts with str keys; any other
    value raises TypeError."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:  # a list of strings, such as a matrix row or a witness vector, in one C pass
            body = sep.join(map(_quote, obj))
        except TypeError:
            body = sep.join([emit_json(x, inner) for x in obj])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = sep.join([_quote(k) + ": " + emit_json(obj[k], inner) for k in sorted(obj)])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
