"""Run the benchmark over several seeds, workloads interleaved round-robin.

Usage (from the repository root):

    python3 bench/runset.py --seeds 10 [--trace-runs 1] [--compare bench/baseline.json]

Host speed drifts over minutes, so the set runs seed by seed, each seed
through every workload in turn, never one workload in a block.  It records
the git SHA (in a git checkout), the Python version, nproc, the CPU model
and MHz, and the load average at the start and end of the set.

For each workload and end-to-end metric it reports the median over runs,
the quartiles and the spread (q3 - q1) / median, flagged when the spread is
a third of the metric's bound or more, and the tail over every call of
every run pooled.  `--trace-runs N` adds N traced runs per workload for the
per-layer metrics.  `--compare` reports each median's change against an
earlier set and flags a change worse than the bound.  Everything goes to
bench/out/runset-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

ROOT = Path.cwd()


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    elapsed = time.monotonic() - t
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    with open(ROOT / "bench" / "out" / f"{workload}-seed{seed}-trace{trace}.json") as f:
        samples = json.load(f)["samples"]
    print(f"{workload:13s} seed {seed:3d} trace {trace}  {elapsed:5.1f} s  "
          f"failed {result['failed']}/{result['attempted']}", flush=True)
    return {"workload": workload, "seed": seed, "trace": trace, "elapsed_s": elapsed,
            "result": result, "samples": samples}


def summarize(runs: list[dict], spec: dict) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 0):
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        summary[workload] = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            pooled = [x for r in mine for x in r["samples"].get(m["name"], [])]
            t = run.tail(pooled)
            spread = (q3 - q1) / med
            summary[workload][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"],
                "steady": spread < m["bound"] / 3,
                "runs": len(values), "pooled_n": len(pooled),
                "pooled_tail": None if t is None else {"percentile": t[0], "value": t[1]},
            }
        summary[workload]["error_rate"] = sum(r["result"]["failed"] for r in mine) / sum(
            r["result"]["attempted"] for r in mine
        )
    return summary


def compare(summary: dict, earlier: dict, spec: dict) -> list[str]:
    lines = []
    for workload, metrics in summary.items():
        for m in spec["end_to_end"]:
            before = earlier.get(workload, {}).get(m["name"])
            if before is None:
                continue
            change = metrics[m["name"]]["median"] / before["median"] - 1
            worse = change if m["better"] == "lower" else -change
            flag = "WORSE THAN BOUND" if worse > m["bound"] else "ok"
            lines.append(f"{workload:13s} {m['name']:12s} {change:+7.2%}  (bound {m['bound']:.0%})  {flag}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--compare", help="an earlier runset JSON to compare medians with")
    args = ap.parse_args(argv)
    spec = run.load_metric_spec(ROOT)
    seconds = spec["run_seconds"]
    record = {"git_sha": git_sha(), "run_seconds": seconds, "env_start": run.environment()}

    runs = []
    for seed in range(args.seeds):
        for workload in run.WORKLOADS:
            runs.append(one_run(workload, seed, seconds, 0))
    for i in range(args.trace_runs):
        for workload in run.WORKLOADS:
            runs.append(one_run(workload, i, seconds, 1))
    record["env_end"] = run.environment()
    record["summary"] = summarize(runs, spec)
    record["per_layer"] = {
        w: {name: m["value"] for name, m in r["result"]["metrics"].items()}
        for r in runs if r["trace"] == 1 for w in [r["workload"]]
    }
    record["runs"] = [{k: v for k, v in r.items() if k != "samples"} for r in runs]

    for workload, metrics in record["summary"].items():
        print(f"\n{workload}  error_rate {metrics['error_rate']:.3g}")
        for m in spec["end_to_end"]:
            s = metrics[m["name"]]
            t = s["pooled_tail"]
            tail = f"p{t['percentile']:g} {t['value']:.4g} of {s['pooled_n']}" if t else f"{s['pooled_n']} pooled"
            print(f"  {m['name']:12s} median {s['median']:.4g} {m['unit']:4s} q1 {s['q1']:.4g} q3 {s['q3']:.4g} "
                  f"spread {s['spread']:6.2%} / bound {m['bound']:.0%}  {'ok' if s['steady'] else 'NOT STEADY'}"
                  f"  [{tail}]")
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["summary"]
        print("\nmedian change against", args.compare)
        print("\n".join(compare(record["summary"], earlier, spec)))
        record["compared_with"] = args.compare

    out = ROOT / "bench" / "out" / f"runset-{time.strftime('%Y%m%dT%H%M%S')}.json"
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    print(f"\nwrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
