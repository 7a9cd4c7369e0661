"""Benchmark of `braidcalc check` on three workloads.

    python3 perfbench/run.py --workload {shipped,calculus,ideal} --seed N --seconds S --trace {0,1}

One operation is one `braidcalc check` of one bundle through
`braidcalc.cli.main`; workloads.py says what the bundles are.  A pass
runs every operation of the workload once, in a fresh worker process
(worker.py) whose address space is capped at MEM_CAP_MB and which is
killed after PASS_TIMEOUT_S.  Passes repeat while the next one is
expected to end within --seconds, and at least MIN_PASSES of them run
even past --seconds (but not past MIN_PASSES_CEILING_S), so that the
11-14 s passes of `ideal` give three samples of each operation; there is
one client and no thread pool, so `--jobs` stays 1.

Every operation is gated.  It must exit 0.  Its report's sha256 must equal
the digest in expected.json: always for the shipped bundles, at seed 0
for generated ones.  At other seeds its sorted (ctx, id, status) multiset
must equal seed 0's.  An operation that fails the gate, runs out of memory
or is killed by the timeout counts as failed.  The digests are those
worker.report_digests computes from a seed-0 report; a change meant to
alter report bytes records them anew in expected.json.

Only clean passes, whose every operation passed the gate and whose worker
finished, give figures; if no pass is clean (the run is then not correct),
every pass does.

--trace 0 prints the end-to-end metrics:
  wall_s       seconds of one pass over the operations: the sum, over the
               operations, of each one's fastest time in the run
  peak_rss_mb  peak resident memory of the worker that ran a pass, median
  setup_s      interpreter start, import, and generating and parsing the
               bundles, up to the first operation; the fastest of every
               pass and SETUP_PROBES extra workers that only set up
The times are minima, not medians: on a shared 2-core VM, other tenants
slow the CPU by 1.3-1.9x in bursts of well under a second, at a rate that
drifts from one few-second window to the next, plus rarer episodes of ten
seconds or more.  A median follows how much of a run fell in such bursts.
Taking each operation's fastest time, rather than the fastest whole pass,
lets every operation use its own quietest moment: in twelve passes of
`shipped`, single operations varied by up to 1.8x from pass to pass and
the sum of their minima sat 4-8% below the fastest pass.  Drift over
minutes remains: runs of `ideal`, whose 8.5 s Z/6 check spans many
bursts, still differ by about 15% between quiet and busy minutes, with
three passes or four alike.  The median pass and set-up are printed
too, for reference.
--trace 1 runs pairs of an untraced and a traced pass, at least
MIN_PASSES of them, and prints the per-layer metrics (tracing.py),
reporting.entries and trace.overhead_s, the traced minus the untraced wall time of a pair.  Each
is the low median of its per-pair values, so times and overhead come from
the same pairs, and counts stay whole.  Traced reports must be
byte-identical to untraced ones.

Metric names and units are those of BENCHMARK.json.  The last line of
stdout is one JSON object with keys correct, attempted, failed and
metrics.  Generated bundles and reports go to a directory under
.bench_build/perfbench in the repository root, removed at exit; the spans
of the last traced pass stay in .bench_build/perfbench/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("shipped", "calculus", "ideal")
MEM_CAP_MB = 1536
PASS_TIMEOUT_S = 80
SETUP_PROBES = 5
MIN_PASSES = 3
MIN_PASSES_CEILING_S = 140


class SetupFailed(RuntimeError):
    "A worker never reached its first operation: the checkout cannot run the benchmark."


@contextlib.contextmanager
def work_directory():
    BUILD.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_pass(workload: str, seed: int, workdir: Path, *, trace: bool = False, only=None, setup_only=False) -> dict:
    "Run one worker; returns its set-up seconds (None if it never got ready), op results and final line."
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--workdir", str(workdir)]
    if only is not None:
        cmd += ["--only", *only]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", str(BUILD / f"spans-{workload}.jsonl")]
    spawned = time.perf_counter()
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=PASS_TIMEOUT_S).stdout
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or b""
    lines = []
    for raw in out.decode().splitlines():
        try:
            lines.append(json.loads(raw))
        except json.JSONDecodeError:
            pass  # the last line of a killed worker can be cut short
    ready = next((line["ready"] for line in lines if "ready" in line), None)
    return {
        "setup_s": None if ready is None else ready - spawned,
        "ops": {line["op"]: line for line in lines if "op" in line},
        "done": next((line for line in lines if "done" in line), None),
    }


def gate(workload: str, seed: int, expected: dict, result: dict | None) -> bool:
    "True when one operation's result passes the correctness gate."
    if result is None or result["status"] != "ok":
        return False
    if workload == "shipped" or seed == 0:
        return result["sha256"] == expected["sha256"]
    return result["entries_sha256"] == expected["entries_sha256"]


def wall(p: dict) -> float:
    "Seconds of a pass: the sum over its operations."
    return sum(op["seconds"] for op in p["ops"].values())


def fastest_pass(passes: list) -> float:
    "Seconds of a pass in which every operation ran as fast as it did in any of passes."
    fastest = {}
    for p in passes:
        for name, op in p["ops"].items():
            fastest[name] = min(fastest.get(name, op["seconds"]), op["seconds"])
    return sum(fastest.values())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = json.loads((HERE / "expected.json").read_text())[workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    attempted = failed = 0

    def account(p: dict, untraced: dict | None = None) -> bool:
        "Gate every operation of pass p; True when the pass is clean."
        nonlocal attempted, failed
        if p["setup_s"] is None:
            raise SetupFailed(f"{workload} worker failed before its first operation")
        clean = p["done"] is not None
        for name, exp in expected.items():
            attempted += 1
            result = p["ops"].get(name)
            ok = gate(workload, seed, exp, result)
            if ok and untraced is not None:
                reference = untraced["ops"].get(name)
                ok = reference is not None and reference.get("sha256") == result["sha256"]
            if not ok:
                clean = False
                failed += 1
                print(f"FAILED {workload} seed {seed} {name}: {result}", file=sys.stderr)
        return clean

    setups, passes = [], []  # passes: (untraced pass, traced pass or None, clean)
    with work_directory() as workdir:
        if not trace:
            for _ in range(SETUP_PROBES):
                probe = run_pass(workload, seed, workdir, setup_only=True)
                if probe["setup_s"] is None:
                    raise SetupFailed(f"{workload} worker failed to set up")
                setups.append(probe["setup_s"])
        start = time.perf_counter()
        longest = 0.0
        while True:
            began = time.perf_counter()
            plain = run_pass(workload, seed, workdir)
            clean = account(plain)
            traced = None
            if trace:
                traced = run_pass(workload, seed, workdir, trace=True)
                clean = account(traced, untraced=plain) and clean
            passes.append((plain, traced, clean))
            longest = max(longest, time.perf_counter() - began)
            limit = seconds
            if len(passes) < MIN_PASSES:
                limit = max(seconds, MIN_PASSES_CEILING_S)
            if time.perf_counter() - start + longest > limit:
                break

    kept = [p for p in passes if p[2]] or passes
    walls = [wall(plain) for plain, _, _ in kept]
    if trace:
        samples = []
        for plain, traced, _ in kept:
            if traced["done"] is not None:
                sample = dict(traced["done"]["layers"])
                sample["reporting.entries"] = sum(op.get("entries", 0) for op in traced["ops"].values())
                sample["trace.overhead_s"] = wall(traced) - wall(plain)
                samples.append(sample)
        values = {key: statistics.median_low(s[key] for s in samples) for key in samples[0]} if samples else {}
    else:
        setups += [plain["setup_s"] for plain, _, _ in kept]
        values = {"wall_s": fastest_pass([plain for plain, _, _ in kept]), "setup_s": min(setups)}
        rss = [plain["done"]["peak_rss_mb"] for plain, _, _ in kept if plain["done"] is not None]
        if rss:
            values["peak_rss_mb"] = statistics.median(rss)
    print(f"{workload} seed {seed}: {len(passes)} passes, {len(walls)} clean, {attempted} operations attempted, {failed} failed")
    if not trace:
        print(f"failed_ratio {failed / attempted:.4f} 1")
        print(f"median pass {statistics.median(walls):.6g} s, median set-up {statistics.median(setups):.6g} s")
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupFailed, OSError, KeyError) as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
