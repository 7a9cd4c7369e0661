"""One benchmark pass in a process of its own: set up, then check every bundle.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR
                                [--only NAME ...] [--setup-only] [--trace SPANS_PATH]

run.py starts it.  The address space is capped first, at run.MEM_CAP_MB,
so running out of memory raises MemoryError here instead of disturbing the
machine.  Output is JSON lines on stdout: {"ready": t} once set-up is done,
where t is `time.perf_counter()` (the same clock in every process), then one
{"op": ...} per operation as it finishes, then {"done": true, ...}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from run import MEM_CAP_MB

ROOT = Path(__file__).resolve().parent.parent


def emit(obj: dict):
    print(json.dumps(obj), flush=True)


def report_digests(path: Path) -> dict:
    "sha256 of the report bytes, and of its sorted (ctx, id, status) multiset."
    data = path.read_bytes()
    entries = json.loads(data)["entries"]
    triples = sorted([e.get("ctx", ""), e["id"], e["status"]] for e in entries)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "entries": len(triples),
        "entries_sha256": hashlib.sha256(json.dumps(triples).encode()).hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--only", nargs="*", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args()

    cap = MEM_CAP_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(ROOT / "src"))
    from braidcalc.bundles import parse_bundle
    from braidcalc.cli import main as braidcalc_main

    import workloads

    ops = workloads.build(args.workload, args.seed, ROOT, args.workdir)
    if args.only is not None:
        ops = [op for op in ops if op[0] in args.only]
    for _, path in ops:
        parse_bundle(path.read_text())
    emit({"ready": time.perf_counter()})
    if args.setup_only:
        return 0

    tracer = None
    if args.trace is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for name, path in ops:
        report = args.workdir / f"{name}.report.json"
        if tracer is not None:
            tracer.op = name
        status = "ok"
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = braidcalc_main(["check", str(path), "-o", str(report)])
            if code != 0:
                status = f"exit {code}"
        except MemoryError:
            status = "exceeded"
        result = {"op": name, "status": status, "seconds": time.perf_counter() - start}
        if status == "ok":
            result.update(report_digests(report))
        emit(result)
        # A user runs each check in a fresh process: free this one's garbage
        # now, untimed, so it neither inflates the next one's peak memory nor
        # is collected on its time.
        gc.collect()

    done = {"done": True, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        done["layers"] = tracer.metrics()
        tracer.write_spans(args.trace)
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
