"""Output checks for the benchmark.

Each entry-point output is compared with references recorded from the exact
code (`references.json`, written by `record_refs.py`).  Where no reference
was recorded (a Monte Carlo seed outside the pinned set), every trial is
checked against invariants that hold for any blow-up subgraph.  The check
returns the number of failed operations; an operation is one Monte Carlo
trial, one exact moment or one verify check (plus verify's overall line).

The seed split and the closed forms are re-derived here rather than
imported, so a defect in the library cannot also hide in its own check.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

#: Float fields such as p are compared only to this absolute tolerance, so a
#: legitimate change of the root solver's tolerance is not a failure.
P_TOL = 1e-9

MOMENT_FIELDS = ("ex", "ey", "ex2", "ey2_upper")


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)


def derive_seed(master: int, index: int) -> int:
    """The library's documented per-trial seed: SHA-256 of (master, index)."""
    digest = hashlib.sha256(struct.pack("<QQ", master & (2**64 - 1), index)).digest()
    return int.from_bytes(digest[:8], "little")


def closed_form_counts(k: int, ell: int) -> tuple[int, int]:
    """(derangements, permutations) of the full blow-up: upper bounds on X, Y."""
    der = math.factorial(k) ** ell
    per = sum((math.comb(k, i) * math.factorial(k - i)) ** ell for i in range(k + 1))
    return der, per


def parse_verify(text: str) -> dict:
    """Check names with their status, and the overall line, from verify's report."""
    checks = []
    overall = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("overall: "):
            overall = line[len("overall: "):]
        elif line.startswith("[PASS] ") or line.startswith("[FAIL] "):
            checks.append([line[1:5], line[7:].split("  (")[0]])
    return {"checks": checks, "overall": overall}


def operations(kind: str, trials: int, ref: dict) -> int:
    if kind == "mc":
        return trials
    if kind == "expect":
        return len(MOMENT_FIELDS)
    return len(ref["checks"]) + 1


def _plan_matches(plan: dict, ref: dict) -> bool:
    return (
        plan["k"] == ref["k"]
        and plan["ell"] == ref["ell"]
        and plan["m"] == ref["m"]
        and abs(plan["p"] - ref["p"]) <= P_TOL
    )


def check_mc(out: dict, ref: dict, master: int, trials: int, oracle=None) -> int:
    """Failed trials of one `mc` output.

    A trial fails when its seed is not the documented split of `master`,
    when (seed, X, Y) differs from the recorded reference, or, for a seed
    without a reference, when 2X <= Y, Y >= X + 1 or X, Y <= the full
    blow-up counts does not hold.  `oracle(seed) -> (X, Y)` recounts
    trial 0 with an independent counter.  A wrong plan fails every trial.
    """
    if not _plan_matches(out["plan"], ref["plan"]) or out["trials"] != trials:
        return trials
    expected = ref["trials"].get(str(master))
    k, ell = ref["plan"]["k"], ref["plan"]["ell"]
    x_max, y_max = closed_form_counts(k, ell)
    rows = out["per_trial"]
    failed = max(0, trials - len(rows))
    for t, row in enumerate(rows[:trials]):
        s, x, y = row["seed"], row["x"], row["y"]
        ok = s == derive_seed(master, t) and row["ratio"] == x / y
        if expected is not None:
            ok = ok and [s, x, y] == expected[t]
        else:
            ok = ok and 2 * x <= y and y >= x + 1 and x <= x_max and y <= y_max
        if ok and t == 0 and oracle is not None:
            ok = oracle(s) == (x, y)
        failed += not ok
    return failed


def check_moments(out: dict, ref: dict) -> int:
    """Failed moments of one `expect` output; a wrong plan fails all four."""
    if not _plan_matches(out, ref):
        return len(MOMENT_FIELDS)
    return sum(out[f] != ref[f] for f in MOMENT_FIELDS)


def check_verify(out: dict, ref: dict) -> int:
    """Reference checks not reported as PASS, plus one if overall is not PASS."""
    passed = {name for status, name in out["checks"] if status == "PASS"}
    failed = sum(name not in passed for name in ref["checks"])
    return failed + (out["overall"] != "PASS")


def check_call(kind: str, rc, text: str, ref: dict, *, master=None, trials=0, oracle=None) -> int:
    """Failed operations of one entry-point call; a crash fails all of them.

    verify exits 1 when a check fails, and its report still says which.
    """
    n_ops = operations(kind, trials, ref)
    if rc != 0 and not (kind == "verify" and rc == 1):
        return n_ops
    try:
        out = parse_verify(text) if kind == "verify" else json.loads(text)
        if kind == "mc":
            return check_mc(out, ref, master, trials, oracle)
        if kind == "expect":
            return check_moments(out, ref)
        return check_verify(out, ref)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
        return n_ops
