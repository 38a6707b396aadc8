"""Smoke test of the benchmark itself, at toy sizes (under a minute).

Usage (from the repository root): python3 bench/smoke.py

1. Runs every workload with `--tiny --seconds 1`, untraced and traced, and
   asserts that the last line is the result object, that it carries every
   metric of BENCHMARK.json with its unit, that every output checked
   correct, and that a traced call's module self times add up to its traced
   wall time within 10%.  One Monte Carlo run uses a seed without recorded
   references, so the invariant checks run too.
2. Corrupts one real output of each kind and asserts that the checks count
   the corruption in error_rate.
3. Asserts that the benchmark exits nonzero, printing no result, in a
   directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import run

ROOT = Path.cwd()
SELF_SHARE_TOL = 0.10


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_emits_every_metric(spec: dict) -> None:
    cases = [(w, t, "0") for w in run.WORKLOADS for t in (0, 1)] + [("mc_ell2", 0, "50")]
    for workload, trace, seed in cases:
        proc = bench("--workload", workload, "--seed", seed, "--seconds", "1",
                     "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, (workload, trace, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in wanted], (workload, trace)
        for m in wanted:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and isinstance(got["value"], float), (m, got)
        if trace:
            share = result["metrics"]["trace.self_share"]["value"]
            assert abs(share - 1) <= SELF_SHARE_TOL, (workload, share)
        print(f"ok  {workload} seed {seed} trace {trace}: {result['attempted']} operations")


def check_corruption_counted() -> None:
    refs = checks.load_references()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    deadline = time.monotonic() + 120
    for name, wl in run.WORKLOADS.items():
        ref = refs[name]["tiny"]
        argv, master, trials = run.call_argv(wl, True, 0, 0)
        rec = run.spawn(argv, False, env, deadline)
        text = rec["output"]

        def failed(t: str, rc: int = 0) -> int:
            return checks.check_call(wl.kind, rc, t, ref, master=master, trials=trials)

        n_ops = checks.operations(wl.kind, trials, ref)
        assert failed(text) == 0, name
        if wl.kind == "mc":
            out = json.loads(text)
            out["per_trial"][1]["x"] += 1
            assert failed(json.dumps(out)) == 1, name
            out = json.loads(text)
            out["plan"]["m"] += 1
            assert failed(json.dumps(out)) == n_ops, name
        elif wl.kind == "expect":
            out = json.loads(text)
            out["ey2_upper"] = "1/1"
            assert failed(json.dumps(out)) == 1, name
        else:
            bad = text.replace("[PASS]", "[FAIL]", 1).replace("overall: PASS", "overall: FAIL")
            assert failed(bad, rc=1) == 2, name
            assert failed(text.replace("overall: PASS", "overall: FAIL")) == 1, name
        assert failed(text, rc=2) == n_ops, name
        assert failed("") == n_ops, name
        print(f"ok  {name}: corrupted outputs counted as failures")


def check_refuses_bare_directory() -> None:
    bare = ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = bench("--workload", "mc_ell2", "--seed", "0", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok  refuses to run without the dpratio sources")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    check_emits_every_metric(spec)
    check_corruption_counted()
    check_refuses_bare_directory()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
