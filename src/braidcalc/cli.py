"""Command-line surface: batch verification over bundle files.

Exit codes: 0 all checks pass, 1 verification failures, 2 input errors,
3 out of memory (one stderr line names the MemoryError; no report is
written), 141 when the reader closes stdout early (as a SIGPIPE kill would).
A machine-readable report is always written for outcomes 0 and 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__
from .bundles import Bundle, ParseError, bundle_digest, emit_bundle, emit_json, emit_report, matrix_rows, parse_bundle
from .covariance import IdealInvalid
from .groups import SIGMA_CAP
from .linalg import LinMap
from .reporting import Report
from .verify import MAX_SHIFT_RANGE, build_calculus, complete_system, derive_map, run_covariance_mode, verify_bundle


def _load(path: str) -> Bundle:
    return parse_bundle(Path(path).read_text())


def _write_report(report: Report, bundle: Bundle, bundle_path: str, out: str | None):
    text = emit_report(report, __version__, bundle_digest(bundle))
    target = out if out is not None else bundle_path + ".report.json"
    if target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text)
    return target


def _summarize(report: Report, target: str):
    "The summary goes to stderr when the report itself went to stdout."
    out = sys.stderr if target == "-" else sys.stdout
    counts = report.counts()
    print(
        f"checked {len(report.entries)} entries: {counts['pass']} pass, {counts['fail']} fail, {counts['skipped']} skipped",
        file=out,
    )
    for e in report.failures():
        print(f"  FAIL [{e.ctx}] {e.id}" + (f": {e.note}" if e.note else ""), file=out)
    if target != "-":
        print(f"report written to {target}")


def _int_in(low: int, high: int | None = None):
    "An argparse type for integers in [low, high]; argparse names the flag in its error."

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def _matrix_json(f: LinMap) -> dict:
    return {
        "cod": f.cod,
        "dom": f.dom,
        "rows": matrix_rows(f),
    }


@functools.cache
def _parser() -> argparse.ArgumentParser:
    "The command-line parser, built once per process; parsing leaves no state on it."
    parser = argparse.ArgumentParser(prog="braidcalc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"braidcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="full verification of a bundle")
    p_check.add_argument("bundle")
    p_check.add_argument("-o", "--output", default=None, help="report path ('-' for stdout)")
    p_check.add_argument("--range", type=_int_in(1, MAX_SHIFT_RANGE), default=2, dest="shift_range", help="shift window for the braid family")
    p_check.add_argument("--paranoid", action="store_true", help="recompute derived maps, bypassing caches")

    p_derive = sub.add_parser("derive", help="emit a derived map as a matrix")
    p_derive.add_argument("bundle")
    p_derive.add_argument("--what", required=True, choices=["tau", "sigma-n", "a0", "kappa0", "ad"])
    p_derive.add_argument("-n", type=_int_in(-SIGMA_CAP, SIGMA_CAP), default=1, help="shift index for sigma-n")

    p_build = sub.add_parser("build-calculus", help="reconstruct a calculus from a named ideal")
    p_build.add_argument("bundle")
    p_build.add_argument("--ideal", required=True)
    p_build.add_argument("--side", choices=["left", "right"], default="left")
    p_build.add_argument("-o", "--output", required=True, help="output bundle path")
    p_build.add_argument("--report", default=None, help="construction report path")

    p_cov = sub.add_parser("covariance", help="targeted covariance decision")
    p_cov.add_argument("bundle")
    p_cov.add_argument("--mode", required=True, choices=["left", "right", "bi", "kappa", "star", "braided"])
    p_cov.add_argument("-o", "--output", default=None)
    p_cov.add_argument("--range", type=_int_in(1, MAX_SHIFT_RANGE), default=2, dest="shift_range")

    p_comp = sub.add_parser("complete-system", help="close the intrinsic braid pair under ternary operations")
    p_comp.add_argument("bundle")
    p_comp.add_argument("--max", type=_int_in(1), default=64, dest="max_elems")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            bundle = _load(args.bundle)
        except (ParseError, FileNotFoundError, OSError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 2
        code = _run(args, bundle)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`... | head`).  Point stdout's descriptor
        # at devnull, so the flush at exit is quiet, and exit as a SIGPIPE kill
        # would (128 + 13), apart from the 0/1/2 outcomes.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except MemoryError:
        # Running out of memory is not a verdict on the input: no report, and
        # an exit code of its own rather than a traceback and the failure code 1.
        print(f"out of memory: MemoryError in {args.command}; no report written", file=sys.stderr)
        return 3


def _run(args, bundle: Bundle) -> int:
    try:
        if args.command == "check":
            report = verify_bundle(bundle, args.shift_range, args.paranoid)
            target = _write_report(report, bundle, args.bundle, args.output)
            _summarize(report, target)
            return 0 if report.ok_all else 1
        if args.command == "derive":
            f = derive_map(bundle, args.what, args.n)
            print(emit_json(_matrix_json(f)))
            return 0
        if args.command == "build-calculus":
            out_bundle, report = build_calculus(bundle, args.ideal, args.side)
            Path(args.output).write_text(emit_bundle(out_bundle))
            target = args.report if args.report is not None else args.output + ".report.json"
            Path(target).write_text(emit_report(report, __version__, bundle_digest(bundle)))
            print(f"bundle with calculus '{args.ideal}-{args.side}' written to {args.output}")
            if not report.ok_all:
                for e in report.failures():
                    print(f"  FAIL [{e.ctx}] {e.id}")
                return 1
            return 0
        if args.command == "covariance":
            report = run_covariance_mode(bundle, args.mode, args.shift_range)
            target = _write_report(report, bundle, args.bundle, args.output)
            _summarize(report, target)
            return 0 if report.ok_all else 1
        if args.command == "complete-system":
            completion = complete_system(bundle, args.max_elems)
            print(
                emit_json(
                    {
                        "closed": not completion.truncated,
                        "size": len(completion.system.elements),
                        "elements": [_matrix_json(f) for f in completion.system.elements],
                    }
                )
            )
            return 0
    except (ParseError, IdealInvalid, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
