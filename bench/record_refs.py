"""Record the reference outputs the benchmark checks against.

Usage (from the repository root): python3 bench/record_refs.py

Runs every workload's entry-point call in this process, at both sizes, and
writes `references.json` next to this file.  Monte Carlo workloads are
recorded for workload seeds 0..PINNED_SEEDS-1 and the first PINNED_CALLS
calls of each run; other seeds are checked by invariants only.  Recording
refuses outputs that fail those invariants or a verify check, so a
reference never pins a wrong result.  Rerun only when an output is meant to
change.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import checks
import run

PINNED_SEEDS = 12
PINNED_CALLS = 20


def call(argv: list[str]) -> str:
    from dpratio import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv}: exit {rc}")
    return buf.getvalue()


def plan_fields(d: dict) -> dict:
    return {key: d[key] for key in ("k", "ell", "m", "p")}


def record(wl: run.Workload, tiny: bool) -> dict:
    if wl.kind == "expect":
        argv, _, _ = run.call_argv(wl, tiny, 0, 0)
        out = json.loads(call(argv))
        return {**plan_fields(out), **{f: out[f] for f in checks.MOMENT_FIELDS}}
    if wl.kind == "verify":
        argv, _, _ = run.call_argv(wl, tiny, 0, 0)
        out = checks.parse_verify(call(argv))
        if out["overall"] != "PASS" or any(status != "PASS" for status, _ in out["checks"]):
            raise SystemExit(f"{argv}: verify does not pass, nothing recorded")
        return {"checks": [name for _, name in out["checks"]], "overall": out["overall"]}
    ref = {"plan": None, "trials": {}}
    for seed in range(PINNED_SEEDS):
        for j in range(PINNED_CALLS):
            argv, master, trials = run.call_argv(wl, tiny, seed, j)
            out = json.loads(call(argv))
            ref["plan"] = ref["plan"] or plan_fields(out["plan"])
            unpinned = {"plan": ref["plan"], "trials": {}}
            if checks.check_mc(out, unpinned, master, trials):
                raise SystemExit(f"{argv}: output breaks the count invariants")
            ref["trials"][str(master)] = [[t["seed"], t["x"], t["y"]] for t in out["per_trial"]]
            print(f"  {' '.join(argv)}", file=sys.stderr)
    return ref


def dump(refs: dict) -> str:
    """JSON text with one Monte Carlo trial [seed, X, Y] per line."""
    text = json.dumps(refs, indent=1)
    return re.sub(r"\[\s+(\d+),\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2, \3]", text) + "\n"


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    refs = {}
    for name, wl in run.WORKLOADS.items():
        refs[name] = {}
        for tiny in (True, False):
            print(f"{name} {run.reference_key(tiny)}", file=sys.stderr)
            refs[name][run.reference_key(tiny)] = record(wl, tiny)
    with open(checks.REFERENCES, "w") as f:
        f.write(dump(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
