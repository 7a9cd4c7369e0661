"""Compare the output of every braidcalc command under two source trees.

    python3 tools/report_diff.py BASE_SRC [--mutants N] [--seed S]
    PYTHONPATH=src python3 tools/report_diff.py --digests [--mutants N] [--seed S]

The command set is fixed: every covariance mode, every `derive` map
(`sigma-n` at `-n -2`) and `complete-system` on each shipped bundle,
`build-calculus` on both sides for every ideal of `fix_k4` and `fix_a4`,
`check --range 1` on `fix_k2`, `check --range 3 --paranoid` on
`fix_a4`, and `check` on `fix_k2` with the braiding replaced by
`fixtures.u_basis_flip_k2()` (sigma != tau, so the shift family holds two
distinct maps), with and without its star.  On top of it, N seeded single-scalar mutants of the shipped
bundles (default 400) each run `check` and every covariance mode; most of
them fail, so they reach the witness and short-circuit paths that the
passing bundles never do.

The comparison runs the whole set once with BASE_SRC on PYTHONPATH and
once with this tree's `src`, each in its own subprocess, prints every
`(mutant, command)` whose exit code or output differs, and exits 1 on any
difference.  `--digests` prints the digests of one run, for the braidcalc
that is on the path, as JSON; `tests/data/report_digests.json` is that
output for 16 mutants at seed 0.

A digest covers the exit code, every file the command writes (report,
bundle) and its console output with the scratch directory blanked out;
`derive` and `complete-system` write no file, so their console output is
all there is.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLE_DIR = ROOT / "bundles"
SHIPPED = ("fix_1", "fix_k2", "fix_gr", "fix_k4", "fix_a4")
MODES = ("left", "right", "bi", "kappa", "star", "braided")
DERIVED = ("tau", "a0", "kappa0", "ad")
# a mutated scalar becomes one of these, other than its old value
SCALARS = ("0", "1", "-1", "2", "1/2", "0+1 i")


def fixed_commands() -> list:
    """(label, bundle name, argv without the bundle path, output file names) of
    the fixed command set; the first output file, if any, is the `-o` target."""
    out = []
    for name in SHIPPED:
        for mode in MODES:
            out.append((f"{name}: covariance --mode {mode}", name, ["covariance", "--mode", mode], ["report.json"]))
        for what in DERIVED:
            out.append((f"{name}: derive --what {what}", name, ["derive", "--what", what], []))
        out.append((f"{name}: derive --what sigma-n -n -2", name, ["derive", "--what", "sigma-n", "-n", "-2"], []))
        out.append((f"{name}: complete-system", name, ["complete-system"], []))
    for name in ("fix_k4", "fix_a4"):
        ideals = [ideal["name"] for ideal in json.loads((BUNDLE_DIR / f"{name}.json").read_text())["ideals"]]
        for ideal in ideals:
            for side in ("left", "right"):
                argv = ["build-calculus", "--ideal", ideal, "--side", side, "--report", "{dir}/built.report.json"]
                out.append((f"{name}: build-calculus --ideal {ideal} --side {side}", name, argv,
                            ["built.json", "built.report.json"]))
    out.append(("fix_k2: check --range 1", "fix_k2", ["check", "--range", "1"], ["report.json"]))
    out.append(("fix_a4: check --range 3 --paranoid", "fix_a4", ["check", "--range", "3", "--paranoid"], ["report.json"]))
    return out


def sigma_ne_tau_k2(star: bool) -> str:
    "fix_k2 with the braiding u_basis_flip_k2(), its universal and zero calculi and no ideal; the star if `star`."
    from braidcalc.bundles import matrix_rows  # here, since the comparing process has no braidcalc on its path
    from braidcalc.fixtures import u_basis_flip_k2

    data = json.loads((BUNDLE_DIR / "fix_k2.json").read_text())
    data["group"]["sigma"] = matrix_rows(u_basis_flip_k2())
    data["ideals"] = []
    if not star:
        del data["group"]["star"]
    return json.dumps(data, indent=2, sort_keys=True)


MUTANT_COMMANDS = [("check", ["check"])] + [(f"covariance --mode {mode}", ["covariance", "--mode", mode]) for mode in MODES]


def _scalar_paths(node, path=()):
    "Paths to the scalar strings of a bundle: matrix entries and ideal generators."
    if isinstance(node, dict):
        for key in sorted(node):
            if key not in ("basis_labels", "name"):
                yield from _scalar_paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _scalar_paths(item, path + (i,))
    elif isinstance(node, str):
        yield path


def mutants(count: int, seed: int) -> list:
    "(label, bundle text) of `count` single-scalar mutants of the shipped bundles."
    rng = random.Random(seed)
    sources = {name: json.loads((BUNDLE_DIR / f"{name}.json").read_text()) for name in SHIPPED}
    out = []
    for k in range(count):
        name = rng.choice(SHIPPED)
        data = json.loads(json.dumps(sources[name]))
        # pick a section (group, calculi, ideals), then a map in it, then an entry, so
        # that the small calculi and ideals are hit about as often as the group record
        sections: dict = {}
        for path in _scalar_paths(data):
            field = path[:2] if path[0] == "group" else path[:3]
            sections.setdefault(path[0], {}).setdefault(field, []).append(path)
        fields = sections[rng.choice(sorted(sections))]
        path = rng.choice(fields[rng.choice(sorted(fields, key=str))])
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        value = rng.choice([s for s in SCALARS if s != parent[path[-1]]])
        parent[path[-1]] = value
        where = ".".join(str(p) for p in path)
        out.append((f"mutant {k} ({name} {where} = {value})", json.dumps(data, indent=2, sort_keys=True)))
    return out


def run_command(bundle_text: str, argv: list, outputs: list) -> list:
    "[exit code, sha256] of one in-process command run on a bundle in a scratch directory."
    from braidcalc.cli import main  # here, since the comparing process has no braidcalc on its path

    with tempfile.TemporaryDirectory() as tmp:
        bundle = os.path.join(tmp, "bundle.json")
        Path(bundle).write_text(bundle_text)
        args = [a.replace("{dir}", tmp) for a in argv]
        args = args[:1] + [bundle] + args[1:] + (["-o", os.path.join(tmp, outputs[0])] if outputs else [])
        console = io.StringIO()
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            code = main(args)
        digest = hashlib.sha256(console.getvalue().replace(tmp, "{dir}").encode())
        for name in outputs:
            target = Path(tmp) / name
            digest.update(b"\0" + name.encode() + b"\0")
            digest.update(target.read_bytes() if target.exists() else b"(absent)")
    return [code, digest.hexdigest()]


def cases(count: int, seed: int) -> list:
    "(label, bundle text, argv, output file names) of the fixed command set and of `count` mutants."
    out = [(label, (BUNDLE_DIR / f"{name}.json").read_text(), argv, outputs)
           for label, name, argv, outputs in fixed_commands()]
    for star in (False, True):
        label = "fix_k2 sigma=u_basis_flip_k2" + (" with star" if star else "") + ": check"
        out.append((label, sigma_ne_tau_k2(star), ["check"], ["report.json"]))
    for label, text in mutants(count, seed):
        out.extend((f"{label}: {command}", text, argv, ["report.json"]) for command, argv in MUTANT_COMMANDS)
    return out


def digests(count: int, seed: int) -> dict:
    "Label -> [exit code, sha256] for the fixed command set and `count` mutants."
    return {label: run_command(text, argv, outputs) for label, text, argv, outputs in cases(count, seed)}


def _digests_under(src: str, count: int, seed: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")
    argv = [sys.executable, __file__, "--digests", "--mutants", str(count), "--seed", str(seed)]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", nargs="?", help="the src directory of the tree to compare against")
    parser.add_argument("--mutants", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--digests", action="store_true", help="print this tree's digests as JSON and stop")
    args = parser.parse_args(argv)
    if args.digests:
        json.dump(digests(args.mutants, args.seed), sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    if args.base_src is None:
        parser.error("BASE_SRC is required unless --digests is given")
    runs = [_digests_under(src, args.mutants, args.seed) for src in (args.base_src, str(ROOT / "src"))]
    outputs = [proc.communicate()[0] for proc in runs]
    if any(proc.returncode != 0 for proc in runs):
        print("a digest run failed", file=sys.stderr)
        return 2
    base, head = (json.loads(text) for text in outputs)
    differing = [label for label in base if base[label] != head.get(label)]
    for label in differing:
        print(f"DIFFERS {label}: base {base[label]}, head {head.get(label)}")
    codes = [code for code, _ in head.values()]
    print(f"{len(base)} runs compared, {len(differing)} differ; exit codes " +
          ", ".join(f"{c}: {codes.count(c)}" for c in sorted(set(codes))))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
