"""dpratio benchmark: one workload, one seed, a fixed measuring time.

Usage (from the root of a checkout):

    python3 bench/run.py --workload mc_ell2 --seed 0 --seconds 40 --trace 0

Every entry-point call runs `dpratio.cli.main(argv)` in a fresh Python
process (`entry.py`) with `--workers 1`, one call after another: a closed
loop with a single caller.  The program is imported from `src/` of the
checkout; nothing needs building.  After the measuring time every output is
checked (`checks.py`), and the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones of `BENCHMARK.json`;
with `--trace 1` every call runs under the spans of `spans.py` and the
metrics are the per-layer ones.  Per-call records and the spans are written
under `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ENTRY = HERE / "entry.py"

#: Fresh processes that only import dpratio, for the set-up time; one more
#: runs first, untimed, so that bytecode compilation is not measured.
SETUP_PROBES = 9
#: The run as a whole stays below this, whatever a call does.
RUN_LIMIT_S = 170.0
#: Call j of a run with workload seed s uses Monte Carlo master seed
#: s * MASTER_STRIDE + j, so runs with different seeds share no trials.
MASTER_STRIDE = 1000
#: Calls whose trial 0 is recounted by Ryser permanents, when n <= 16.
ORACLE_CALLS = 3
ORACLE_MAX_N = 16
#: Percentile levels tried, highest first, for the tail of a timing.
TAIL_LEVELS = (99.9, 99.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Workload:
    kind: str  # "mc", "expect" or "verify": which output check applies
    argv: tuple[str, ...]
    tiny: tuple[str, ...]  # same shape at toy size, for the smoke test


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "mc_ell2": Workload(
        "mc",
        ("mc", "--r", "0.3", "--k", "8", "--trials", "8", "--workers", "1"),
        ("mc", "--r", "0.3", "--k", "4", "--trials", "8", "--workers", "1"),
    ),
    "moments_ell3": Workload(
        "expect", ("expect", "--r", "0.45", "--k", "18"), ("expect", "--r", "0.45", "--k", "8")
    ),
    "verify_tiny": Workload(
        "verify", ("verify", "--profile", "tiny"), ("verify", "--profile", "tiny")
    ),
}


def call_argv(wl: Workload, tiny: bool, seed: int, j: int) -> tuple[list[str], int | None, int]:
    """(argv, Monte Carlo master seed or None, trials) of call j."""
    argv = list(wl.tiny if tiny else wl.argv)
    if wl.kind != "mc":
        return argv, None, 0
    master = seed * MASTER_STRIDE + j
    trials = int(argv[argv.index("--trials") + 1])
    return argv + ["--seed", str(master)], master, trials


def reference_key(tiny: bool) -> str:
    return "tiny" if tiny else "full"


def environment() -> dict:
    cpu = {}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cpu MHz") and key not in cpu:
                    cpu[key] = value.strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("model name"),
        "cpu_mhz": cpu.get("cpu MHz"),
        "loadavg": list(os.getloadavg()),
        "time": time.time(),
    }


def spawn(argv: list[str] | None, trace: bool, env: dict, deadline: float) -> dict:
    """Run one fresh process; argv None only imports dpratio (a set-up probe)."""
    cmd = [sys.executable, str(ENTRY)]
    t = time.monotonic()
    cmd += [repr(t), "1" if trace else "0"] + ([] if argv is None else ["--", *argv])
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=max(1.0, deadline - t)
        )
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": "timeout", "wall_s": time.monotonic() - t}
    try:
        rec = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"rc": None, "error": proc.stderr[-2000:] or f"exit {proc.returncode}"}
    if rec.get("rc") not in (None, 0) or rec.get("error"):
        rec["stderr"] = proc.stderr[-2000:]
    return rec


def tail(values: list[float]):
    """(level, value) at the highest TAIL_LEVELS percentile with at least ten
    samples above it (nearest rank), or None when there are too few."""
    xs = sorted(values)
    n = len(xs)
    for q in TAIL_LEVELS:
        i = max(0, math.ceil(q / 100 * n) - 1)
        if n - 1 - i >= 10:
            return q, xs[i]
    return None


def permanent_oracle(src: Path, plan: dict):
    """Recount a trial of `plan` by Ryser permanents (an independent counter)."""
    sys.path.insert(0, str(src))
    from dpratio.counting import count_permanent
    from dpratio.digraph import build_blowup, sample_subgraph, to_general

    base = build_blowup(plan["k"], plan["ell"])

    def oracle(seed: int) -> tuple[int, int]:
        c = count_permanent(to_general(sample_subgraph(base, plan["m"], seed)))
        return c.derangements, c.permutations

    return oracle


def load_metric_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="toy sizes, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "dpratio" / "cli.py").is_file():
        print(f"error: no dpratio sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    spec = load_metric_spec(root)
    wl = WORKLOADS[args.workload]
    ref = checks.load_references()[args.workload][reference_key(args.tiny)]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    env_start = environment()

    warm = spawn(None, False, env, deadline)
    if warm.get("error") or not str(warm.get("dpratio_file", "")).startswith(str(src)):
        print(f"error: cannot import dpratio from {src}: {warm}", file=sys.stderr)
        return 2
    probes = [spawn(None, False, env, deadline) for _ in range(SETUP_PROBES)]

    calls = []
    t0 = time.monotonic()
    j = 0
    crashed = False
    while not crashed:
        cargv, master, trials = call_argv(wl, args.tiny, args.seed, j)
        rec = spawn(cargv, bool(args.trace), env, deadline)
        rec.update(call=j, argv=cargv, master=master, trials=trials)
        calls.append(rec)
        crashed = rec["rc"] is None
        j += 1
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / j > args.seconds:
            break

    # Checks run after the measuring time, so they cost the calls nothing.
    oracle = None
    if wl.kind == "mc" and ref["plan"]["k"] * ref["plan"]["ell"] <= ORACLE_MAX_N:
        oracle = permanent_oracle(src, ref["plan"])
    attempted = failed = 0
    for rec in calls:
        use_oracle = oracle if rec["call"] < ORACLE_CALLS else None
        rec["ops"] = checks.operations(wl.kind, rec["trials"], ref)
        rec["failed"] = checks.check_call(
            wl.kind, rec.get("rc"), rec.get("output", ""), ref,
            master=rec["master"], trials=rec["trials"], oracle=use_oracle,
        )
        attempted += rec["ops"]
        failed += rec["failed"]

    ran = [c for c in calls if c.get("rc") == 0]
    traced = ran if args.trace else []
    # Each set-up time is normalized by the calibration of its own process.
    processes = [p for p in probes if "cal_s" in p] + ran
    samples = {
        "setup_s": [p["setup_s"] * REFERENCE_S / p["cal_s"] for p in processes],
        "norm_wall_s": [c["wall_s"] * REFERENCE_S / c["cal_s"] for c in ran],
        "norm_ops_per_s": [c["ops"] / c["wall_s"] * c["cal_s"] / REFERENCE_S for c in ran],
        "peak_rss_mb": [c["rss_mb"] for c in ran],
        "wall_s": [c["wall_s"] for c in ran],
        "ops_per_s": [c["ops"] / c["wall_s"] for c in ran],
        "cal_s": [c["cal_s"] for c in ran],
        "raw_setup_s": [p["setup_s"] for p in processes],
    }
    # Per-layer times are normalized by the traced call's own calibration.
    for c in traced:
        scale = REFERENCE_S / c["cal_s"]
        for name, value in spans.layer_metrics(c["spans"], c["wall_s"], c["span_cost_s"]).items():
            samples.setdefault(name, []).append(value * scale if name.endswith("_s") else value)
    values = {name: statistics.median(xs) for name, xs in samples.items() if xs}
    if traced:
        ms = [
            (e - s) * 1e3 * REFERENCE_S / c["cal_s"]
            for c in traced for name, s, e, _ in c["spans"] if name == "counting.count_layered"
        ]
        p50 = statistics.median(ms) if ms else 0.0
        values["counting.count_layered_p50_ms"] = p50
        values["counting.count_layered_tail_ms"] = (tail(ms) or (50.0, p50))[1]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 3
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    stats = {
        name: {"median": statistics.median(xs), "n": len(xs), "tail": tail(xs)}
        for name, xs in samples.items() if xs
    }
    for m in wanted:
        line = f"{m['name']:34s} {metrics[m['name']]['value']:.6g} {m['unit']}"
        s = stats.get(m["name"])
        if s:
            line += f"  median of {s['n']}"
            if s["tail"]:
                line += f", p{s['tail'][0]:g} {s['tail'][1]:.6g}"
        print(line)
    for name in ("wall_s", "ops_per_s", "raw_setup_s", "cal_s"):
        if name in stats:
            print(f"{name:34s} {stats[name]['median']:.6g}  median of {stats[name]['n']}")
    print(f"error_rate {failed / attempted if attempted else 1.0:.6g} ({failed} of {attempted} operations)")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "env_start": env_start,
        "env_end": environment(),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "stats": stats,
        "samples": samples,
        "calls": [{k: v for k, v in c.items() if k not in ("output", "spans")} for c in calls],
        "run_s": time.monotonic() - run_start,
    }
    with open(out_dir / f"{stem}-trace{args.trace}.json", "w") as f:
        json.dump(detail, f, indent=1)
    if traced:
        spans.write_spans(out_dir / f"{stem}.spans.jsonl.gz", stem, traced)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
