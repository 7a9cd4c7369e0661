import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import braidcalc
import braidcalc.cli
from braidcalc.bundles import Bundle, emit_bundle, parse_bundle
from braidcalc.cli import main
from braidcalc.fixtures import _delta_group, conjugation_star
from braidcalc.linalg import LinMap, _Leg
from braidcalc.verify import run_covariance_mode, verify_bundle

BUNDLE_DIR = Path(__file__).resolve().parent.parent / "bundles"
SHIPPED_DIGESTS = json.loads((BUNDLE_DIR.parent / "perfbench" / "expected.json").read_text())["shipped"]


@pytest.fixture()
def workdir(tmp_path):
    for name in ("fix_1", "fix_k2", "fix_gr", "fix_k4", "fix_a4"):
        shutil.copy(BUNDLE_DIR / f"{name}.json", tmp_path / f"{name}.json")
    return tmp_path


def test_check_passes_on_fixture(workdir, capsys):
    path = workdir / "fix_k2.json"
    code = main(["check", str(path), "-o", str(workdir / "rep.json")])
    assert code == 0
    data = json.loads((workdir / "rep.json").read_text())
    assert data["summary"]["fail"] == 0
    assert data["summary"]["pass"] > 1500
    out = capsys.readouterr().out
    assert "fail" in out


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_report_bytes_are_pinned(workdir, name):
    "The report of each shipped bundle is byte-identical to the one the benchmark's digests record."
    report = workdir / f"{name}.report.json"
    assert main(["check", str(workdir / f"{name}.json"), "-o", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == SHIPPED_DIGESTS[name]["sha256"]


def test_check_writes_default_report_path(workdir):
    path = workdir / "fix_1.json"
    assert main(["check", str(path)]) == 0
    assert (workdir / "fix_1.json.report.json").exists()


def test_check_exit_codes_on_missing_file(tmp_path):
    assert main(["check", str(tmp_path / "absent.json")]) == 2


def test_check_rejects_float_bundle(workdir):
    path = workdir / "bad.json"
    path.write_text((workdir / "fix_k2.json").read_text().replace('"1"', "0.25", 1))
    assert main(["check", str(path)]) == 2


def test_determinism_digest_identical_reports(workdir):
    path = workdir / "fix_gr.json"
    r1, r2 = workdir / "r1.json", workdir / "r2.json"
    assert main(["check", str(path), "-o", str(r1)]) == 0
    assert main(["check", str(path), "-o", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_derive_tau(workdir, capsys):
    assert main(["derive", str(workdir / "fix_k2.json"), "--what", "tau"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cod"] == 4 and data["dom"] == 4
    assert data["rows"][1][2] == "1"  # transposition matrix


def test_derive_sigma_n(workdir, capsys):
    assert main(["derive", str(workdir / "fix_gr.json"), "--what", "sigma-n", "-n", "-2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"][3][3] == "-1"  # graded sign survives every shift


def test_derive_kappa0_and_ad(workdir, capsys):
    assert main(["derive", str(workdir / "fix_gr.json"), "--what", "kappa0"]) == 0
    k0 = json.loads(capsys.readouterr().out)
    assert k0["rows"] == [["1", "0"], ["0", "-1"]]
    assert main(["derive", str(workdir / "fix_k2.json"), "--what", "ad"]) == 0
    ad = json.loads(capsys.readouterr().out)
    assert ad["cod"] == 4 and ad["dom"] == 2
    assert main(["derive", str(workdir / "fix_k2.json"), "--what", "a0"]) == 0
    a0 = json.loads(capsys.readouterr().out)
    assert a0["dom"] == 4 and a0["cod"] == 2


def test_build_calculus_roundtrip(workdir, capsys):
    src = workdir / "fix_k2.json"
    out = workdir / "k2_with_new.json"
    code = main(["build-calculus", str(src), "--ideal", "zero", "-o", str(out)])
    assert code == 0
    built = parse_bundle(out.read_text())
    names = [c.name for c in built.calculi]
    assert "zero-left" in names
    new_calc = [c for c in built.calculi if c.name == "zero-left"][0]
    assert new_calc.gdim == 2
    assert main(["check", str(out)]) == 0


def test_build_calculus_right_side(workdir):
    src = workdir / "fix_gr.json"
    out = workdir / "gr_right.json"
    assert main(["build-calculus", str(src), "--ideal", "zero", "--side", "right", "-o", str(out)]) == 0
    built = parse_bundle(out.read_text())
    assert any(c.name == "zero-right" for c in built.calculi)


def test_build_calculus_unknown_ideal(workdir):
    assert main(["build-calculus", str(workdir / "fix_k2.json"), "--ideal", "nope", "-o", str(workdir / "x.json")]) == 2


def test_covariance_modes_pass(workdir):
    for mode in ("left", "right", "bi", "kappa", "star", "braided"):
        code = main(["covariance", str(workdir / "fix_k2.json"), "--mode", mode,
                     "-o", str(workdir / f"cov_{mode}.json")])
        assert code == 0, mode


def test_covariance_left_detects_broken_bundle(workdir):
    data = json.loads((workdir / "fix_k2.json").read_text())
    # corrupt the left module action of the universal calculus
    data["calculi"][0]["mgl"][0][1] = "1"
    broken = workdir / "broken.json"
    broken.write_text(json.dumps(data))
    code = main(["covariance", str(broken), "--mode", "left", "-o", str(workdir / "cov.json")])
    assert code == 1
    rep = json.loads((workdir / "cov.json").read_text())
    ids = [e["id"] for e in rep["entries"]]
    assert "NOT_LEFT_COVARIANT" in ids


def test_check_detects_broken_bundle_exit_1(workdir):
    data = json.loads((workdir / "fix_gr.json").read_text())
    data["group"]["sigma"] = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    # identity braiding breaks the flip axioms for the Grassmann product
    broken = workdir / "broken_group.json"
    broken.write_text(json.dumps(data))
    code = main(["check", str(broken), "-o", str(workdir / "rep.json")])
    rep = json.loads((workdir / "rep.json").read_text())
    assert code == 1
    fails = [e["id"] for e in rep["entries"] if e["status"] == "fail"]
    assert fails, "expected at least one failing entry"


@pytest.mark.parametrize("command", [["check"], ["covariance", "--mode", "star"], ["covariance", "--mode", "braided"]])
def test_inconsistent_tau_is_a_verification_failure(workdir, command):
    "A group record whose two tau expressions disagree is a failing section (exit 1), not malformed input (exit 2)."
    data = json.loads((workdir / "fix_a4.json").read_text())
    data["group"]["sigma"][4][7] = "2"
    broken = workdir / "broken_tau.json"
    broken.write_text(json.dumps(data))
    code = main([command[0], str(broken), *command[1:], "-o", str(workdir / "rep.json")])
    assert code == 1
    fails = [e for e in json.loads((workdir / "rep.json").read_text())["entries"] if e["status"] == "fail"]
    reasons = {e["id"]: e["witness"]["reason"] for e in fails if "reason" in e["witness"]}
    failed_on_tau = reasons.get("TAU_OK" if command == ["check"] else "SECTION_ABORTED", "")
    assert failed_on_tau.startswith("tau expressions disagree")


def test_complete_system(workdir, capsys):
    assert main(["complete-system", str(workdir / "fix_k2.json"), "--max", "8"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closed"] is True and data["size"] == 1


def test_paranoid_mode(workdir, capsys):
    assert main(["check", str(workdir / "fix_1.json"), "--paranoid", "-o", "-"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)  # the report alone: the summary goes to stderr
    assert report["summary"]["fail"] == 0
    assert captured.err.startswith("checked ")


class _ClosedPipe:
    "A stdout whose reader has gone away; its descriptor is a scratch file."

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "argv",
    [
        ["complete-system", "fix_a4.json"],
        ["derive", "fix_k2.json", "--what", "tau"],
        ["check", "fix_1.json", "-o", "-"],
    ],
)
def test_closed_stdout_exits_141(workdir, monkeypatch, argv):
    with open(workdir / "stdout", "w") as scratch:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(scratch.fileno()))
        assert main([argv[0], str(workdir / argv[1])] + argv[2:]) == 141
        assert os.path.samestat(os.fstat(scratch.fileno()), os.stat(os.devnull))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "--range", "-1"], "--range"),
        (["check", "--range", "two"], "--range"),
        (["covariance", "--mode", "left", "--range", "-1"], "--range"),
        (["complete-system", "--max", "0"], "--max"),
        (["check", "--range", "0"], "--range"),
        (["covariance", "--mode", "braided", "--range", "0"], "--range"),
        (["check", "--range", "9"], "--range"),
        (["covariance", "--mode", "bi", "--range", "9"], "--range"),
        (["derive", "--what", "sigma-n", "-n", "17"], "-n"),
        (["derive", "--what", "sigma-n", "-n", "-17"], "-n"),
    ],
)
def test_cli_integers_validated(workdir, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + [str(workdir / "fix_1.json")] + argv[1:])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_one_process_parses_each_command_as_a_fresh_one(workdir, capsys, monkeypatch):
    "The parser is built once per process: a call gives the exit code and output of the same call in a fresh process."
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal width
    runs = [
        ["check", str(workdir / "fix_1.json"), "--range", "3", "-o", str(workdir / "rep.json")],
        ["derive", str(workdir / "fix_k2.json"), "--what", "tau"],
        ["check", str(workdir / "fix_1.json"), "--range", "0"],
    ]
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "braidcalc.cli", *argv],
            env=subprocess_env(COLUMNS="80"),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 2 and "argument --range: must be at least 1, got 0" in out.err


def test_start_up_loads_no_dataclass_machinery():
    "Importing the CLI and the fixtures loads neither dataclasses nor inspect, whose import every run would pay for."
    code = "import sys, braidcalc.cli, braidcalc.fixtures; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_shift_range_below_one_is_rejected():
    "The flip identities read shifts 1, -1 and -2, which a window of K = 0 does not hold."
    bundle = parse_bundle((BUNDLE_DIR / "fix_k2.json").read_text())
    with pytest.raises(ValueError, match="shift range"):
        verify_bundle(bundle, 0)
    with pytest.raises(ValueError, match="shift range"):
        run_covariance_mode(bundle, "braided", 0)


def test_shift_range_above_the_cap_is_rejected():
    "A window of K reads sigma_n up to |n| = 2K, and sigma_n stops at |n| = 16."
    bundle = parse_bundle((BUNDLE_DIR / "fix_k2.json").read_text())
    with pytest.raises(ValueError, match="between 1 and 8"):
        verify_bundle(bundle, 9)
    with pytest.raises(ValueError, match="between 1 and 8"):
        run_covariance_mode(bundle, "bi", 9)


def test_a_wide_shift_range_compares_and_inverts_few_maps(workdir, monkeypatch):
    # equal shifts are one object and their inverses are read from the group
    # record, so repeated verdicts, flips and braid inverses are found by
    # identity; with a distinct object per shift this check made 32,052
    # comparisons of distinct maps and 88 inversions
    counts = {"eq": 0, "inverse": 0}
    raw_eq, raw_inverse = LinMap.__eq__, LinMap.inverse

    def eq(a, b):
        counts["eq"] += a is not b
        return raw_eq(a, b)

    def inverse(f):
        counts["inverse"] += 1
        return raw_inverse(f)

    monkeypatch.setattr(LinMap, "__eq__", eq)
    monkeypatch.setattr(LinMap, "inverse", inverse)
    assert main(["check", str(workdir / "fix_k2.json"), "--range", "8", "-o", str(workdir / "rep.json")]) == 0
    assert counts["eq"] < 1000
    assert counts["inverse"] < 88


def subprocess_env(**extra) -> dict:
    "The environment for a Python subprocess that imports this braidcalc."
    src = str(Path(braidcalc.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def check_in_one_gib(path: Path, report: Path) -> subprocess.CompletedProcess:
    "`braidcalc check` on the bundle in a subprocess whose address space is capped at 1 GiB."

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "braidcalc.cli", "check", str(path), "-o", str(report)],
        preexec_fn=cap_address_space,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_z8_ideal_check_fits_in_one_gib(tmp_path):
    "The d1 ideal on Z/8 stays within a 1 GiB address space (a dense kernel needs far more)."
    n = 8
    g = _delta_group(n, tuple(f"d_{i}" for i in range(n)))
    generator = ["1" if j == 1 else "0" for j in range(n)]
    path = tmp_path / "z8_d1.json"
    path.write_text(emit_bundle(Bundle(g, conjugation_star(g), [], [("d1", [generator])])))
    proc = check_in_one_gib(path, tmp_path / "rep.json")
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("labels", [True, False], ids=["with_labels", "default_labels"])
def test_a_huge_dim_is_an_input_error_in_one_gib(tmp_path, labels):
    "A dim of 10^9 that no matrix matches exits 2 before anything sized by it is allocated."
    data = json.loads((BUNDLE_DIR / "fix_1.json").read_text())
    data["group"]["dim"] = 10**9
    if not labels:
        del data["group"]["basis_labels"]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    proc = check_in_one_gib(path, tmp_path / "rep.json")
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("input error: ") and len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "rep.json").exists()


def test_z8_ideal_check_builds_no_large_kronecker_product(tmp_path, monkeypatch):
    """No Kronecker product or leg of more than 384 rows (n * 48, tensor(m, iota_l) and
    tensor(unit, I) of the ideal section) is built for the d1 ideal on Z/8:
    EQ_B2B's tensor(ad, phi) has 4096 rows and phi (x) act 24576."""
    n = 8
    g = _delta_group(n, tuple(f"d_{i}" for i in range(n)))
    path = tmp_path / "z8_d1.json"
    path.write_text(emit_bundle(Bundle(g, conjugation_star(g), [], [("d1", [["1" if j == 1 else "0" for j in range(n)]])])))
    built, padded = [], []
    eager, pad = LinMap.tensor, _Leg._pad

    def recorded(f, h):
        built.append(f.cod * h.cod)
        return eager(f, h)

    def recorded_pad(leg, frows):
        padded.append(leg.cod)
        return pad(leg, frows)

    monkeypatch.setattr(LinMap, "tensor", recorded)
    monkeypatch.setattr(_Leg, "_pad", recorded_pad)
    assert main(["check", str(path), "-o", str(tmp_path / "rep.json")]) == 0
    assert built and max(built) <= 384
    assert padded and max(padded) <= 384


def test_out_of_memory_exits_3_without_a_report(workdir, monkeypatch, capsys):
    "A MemoryError is no verification failure: exit 3, one stderr line naming it, no traceback, no report."

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(braidcalc.cli, "verify_bundle", exhausted)
    report = workdir / "rep.json"
    assert main(["check", str(workdir / "fix_k2.json"), "-o", str(report)]) == 3
    err = capsys.readouterr().err
    assert "MemoryError" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not report.exists()


def test_out_of_memory_while_loading_exits_3_without_a_report(workdir, monkeypatch, capsys):
    "A MemoryError while the bundle is parsed is handled as one during the check."

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(braidcalc.cli, "parse_bundle", exhausted)
    report = workdir / "rep.json"
    assert main(["check", str(workdir / "fix_k2.json"), "-o", str(report)]) == 3
    err = capsys.readouterr().err
    assert "MemoryError" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not report.exists()
