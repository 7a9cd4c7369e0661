"""Scale ladder: `braidcalc check` on inputs too large for the benchmark.

    python3 tools/ladder.py [--src SRC] [--label TEXT] [--out FILE] [--check FILE]

The rungs are fixed:
  z{n}_d1          the d1 ideal (generated by the delta function at 1) of
                   functions on Z/n, n = 8, 12, 16, 20, 24, 32, 40
  z16_d1_phased    z16_d1 in the basis i^k e_k (tests/oracles.py `phased`):
                   the same verdicts from a complex unit and product
  z{n}_universal   the universal calculus of functions on Z/n, n = 4, 6, 8,
                   10, 12, 16, 20
  fix_a4_range{k}  bundles/fix_a4.json with `--range k`, k = 2, 4, 8
  fix_k2_range{k}  bundles/fix_k2.json with `--range k`, k = 2, 8: its
                   calculus shift loops grow as (2k+1)^3

Each rung runs `python -m braidcalc.cli check` in a fresh process with
SRC (default: this tree's src) on PYTHONPATH, its address space capped at
MEM_CAP_MB and killed after TIMEOUT_S: once, or OUT_RUNS times when the
point is written with --out.  The generated bundles are written first, by
the same braidcalc, in their own capped processes.  A rung records the
wall time of its fastest run (interpreter start, import, parsing and the
check), the lowest peak resident memory (ru_maxrss) over its runs, kept
apart from the wall time because one run's peak swings by several MB, and
the sha256 of the report they wrote; a rung that runs out of memory or time records
"exceeded", and one whose runs write different reports fails the run.

The run is printed as one JSON point.  --out appends it to FILE's
"points" (a new FILE is created).  --check fails (exit 1) when a report
digest differs from one that any point of FILE recorded for the same rung,
so a change can show that its report bytes are unchanged at scale.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEM_CAP_MB = 1024
TIMEOUT_S = 300
OUT_RUNS = 3  # runs per rung for a written point: one run's wall time swings by tens of percent on shared cores

# name -> (bundle: ("d1" | "d1_phased" | "universal", n) or a bundle file name, extra check arguments)
RUNGS = {
    **{f"z{n}_d1": (("d1", n), []) for n in (8, 12, 16, 20, 24, 32, 40)},
    "z16_d1_phased": (("d1_phased", 16), []),
    **{f"z{n}_universal": (("universal", n), []) for n in (4, 6, 8, 10, 12, 16, 20)},
    **{f"fix_a4_range{k}": ("fix_a4.json", ["--range", str(k)]) for k in (2, 4, 8)},
    **{f"fix_k2_range{k}": ("fix_k2.json", ["--range", str(k)]) for k in (2, 8)},
}


def generate(kind: str, n: int, path: str):
    "Write the bundle of a generated rung, with the braidcalc on the path."
    from braidcalc.bundles import Bundle, emit_bundle
    from braidcalc.covariance import reconstruct_from_ideal, universal_ideals
    from braidcalc.fixtures import _delta_group, conjugation_star
    from braidcalc.reporting import Report
    from braidcalc.scalars import Q

    g = _delta_group(n, tuple(f"d_{i}" for i in range(n)))
    if kind == "universal":
        universal = reconstruct_from_ideal(g, universal_ideals(g)["zero"], Report(), name="universal")
        bundle = Bundle(g, conjugation_star(g), [universal], [])
    else:
        bundle = Bundle(g, conjugation_star(g), [], [("d1", [[Q(int(j == 1)) for j in range(n)]])])
        if kind == "d1_phased":
            sys.path.insert(0, str(ROOT / "tests"))
            from oracles import phased

            bundle = phased(bundle)
    Path(path).write_text(emit_bundle(bundle))


def _cap_memory():
    cap = MEM_CAP_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_capped(argv: list, src: str, stderr_path: str):
    """(exit code, wall seconds, peak RSS in MB) of argv under the caps;
    None when it was killed for time."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err, preexec_fn=_cap_memory)
        deadline = start + TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                return None
            time.sleep(0.002)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def _exceeded(stderr_path: str) -> bool:
    return "MemoryError" in Path(stderr_path).read_text(errors="replace")


def run_rung(name: str, src: str, tmp: str, runs: int = 1):
    "The rung's record over `runs` checks of one bundle: a dict, or \"exceeded\"."
    bundle, extra = RUNGS[name]
    err = os.path.join(tmp, f"{name}.stderr")
    if isinstance(bundle, tuple):
        path = os.path.join(tmp, f"{name}.json")
        made = run_capped([sys.executable, __file__, "--generate", bundle[0], str(bundle[1]), path], src, err)
        if made is None or _exceeded(err):
            return "exceeded"
        if made[0] != 0:
            raise RuntimeError(f"{name}: generating the bundle failed:\n{Path(err).read_text()}")
    else:
        path = str(ROOT / "bundles" / bundle)
    report = os.path.join(tmp, f"{name}.report.json")
    best, peaks = None, []
    for _ in range(runs):
        ran = run_capped([sys.executable, "-m", "braidcalc.cli", "check", path, "-o", report, *extra], src, err)
        if ran is None or _exceeded(err):
            return "exceeded"
        code, wall, rss = ran
        peaks.append(rss)
        if code not in (0, 1):
            raise RuntimeError(f"{name}: check exited {code}:\n{Path(err).read_text()}")
        digest = hashlib.sha256(Path(report).read_bytes()).hexdigest()
        if best is not None and (code, digest) != (best["exit"], best["sha256"]):
            raise RuntimeError(f"{name}: runs of one bundle wrote different reports")
        if best is None or wall < best["wall_s"]:
            best = {"exit": code, "wall_s": wall, "peak_rss_mb": rss, "sha256": digest}
    return dict(best, wall_s=round(best["wall_s"], 3), peak_rss_mb=round(min(peaks), 1))


def changed_digests(point: dict, recorded: dict) -> list:
    "Rungs whose digest differs from one recorded in any point of the file."
    out = []
    for old in recorded.get("points", []):
        for name, rung in point["rungs"].items():
            was = old["rungs"].get(name)
            if isinstance(rung, dict) and isinstance(was, dict) and rung["sha256"] != was["sha256"]:
                out.append(f"{name}: {rung['sha256']} here, {was['sha256']} in point {old.get('label')!r}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="the src directory of the braidcalc to run")
    parser.add_argument("--label", default="", help="a name for this point")
    parser.add_argument("--out", help="append the point to this JSON file")
    parser.add_argument("--check", help="fail when a report digest differs from one in this JSON file")
    parser.add_argument("--generate", nargs=3, metavar=("KIND", "N", "PATH"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.generate:
        kind, n, path = args.generate
        generate(kind, int(n), path)
        return 0
    runs = OUT_RUNS if args.out else 1
    point = {
        "label": args.label,
        "machine": f"{platform.python_implementation()} {platform.python_version()}, {os.cpu_count()} cpus",
        "mem_cap_mb": MEM_CAP_MB,
        "timeout_s": TIMEOUT_S,
        "runs": runs,
        "rungs": {},
    }
    src = os.path.abspath(args.src)
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNGS:
            rung = run_rung(name, src, tmp, runs)
            point["rungs"][name] = rung
            shown = rung if rung == "exceeded" else f"{rung['wall_s']:.2f} s, {rung['peak_rss_mb']:.0f} MB, exit {rung['exit']}"
            print(f"{name}: {shown}", file=sys.stderr)
    print(json.dumps(point, indent=1))
    if args.out:
        out = Path(args.out)
        data = json.loads(out.read_text()) if out.exists() else {"points": []}
        data["points"].append(point)
        out.write_text(json.dumps(data, indent=1) + "\n")
    if args.check:
        changed = changed_digests(point, json.loads(Path(args.check).read_text()))
        for line in changed:
            print(f"DIGEST CHANGED {line}", file=sys.stderr)
        if changed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
