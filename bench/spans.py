"""In-memory spans around calls into dpratio's public functions.

`Tracer.install` wraps every public module-level function of the modules in
MODULES and rebinds each name wherever a dpratio module imported it, so the
library's own calls between modules are recorded too.  A span is
[name, start, end, parent index]; the parent is the innermost span open when
it started (-1 for the root, `cli.main`).  Generator functions are left
unwrapped, since a span would close before their items are made; their time
counts to the caller.

A module's self time is the summed duration of its spans minus the time
their direct child spans cover, so the self times of one call add up to the
root span.

The tracer's overhead is measured inside the traced process: the cost of
one span (`span_cost`) times the number of spans.  Traced minus untraced
wall time of two separate processes would measure the same thing, but on a
shared host two runs of one call differ by 5-10%, far more than the spans
cost.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

MODULES = ("cli", "experiment", "moments", "params", "series", "counting", "digraph")

#: Traced function -> per-layer metric stem; each gives `<stem>_s` (inclusive
#: seconds per entry-point call) and `<stem>_calls`.
FUNCTION_METRICS = {
    "counting.count_layered": "counting.count_layered",
    "counting.count_permanent": "counting.permanent",
    "counting.count_bruteforce": "counting.bruteforce",
    "digraph.sample_subgraph": "digraph.sample",
    "series.edge_prob_exact": "series.edge_prob",
    "series.h_exact": "series.h_exact",
    "series.falling_ratio_exact": "series.falling_ratio",
    "series.f_eval": "series.f_eval",
    "params.plan": "params.plan",
    "moments.expected_x_exact": "moments.ex",
    "moments.expected_y_exact": "moments.ey",
    "moments.second_moment_x_exact": "moments.ex2",
    "moments.second_moment_y_upper": "moments.ey2_upper",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open = [-1]

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1]]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()

        return traced

    def install(self, package) -> None:
        mods = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrapped = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in [package, *mods]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def span_cost(n: int = 20000) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one."""

    def noop():
        pass

    wrapped, clock = Tracer().wrap("noop", noop), time.perf_counter
    t = clock()
    for _ in range(n):
        noop()
    bare = clock() - t
    t = clock()
    for _ in range(n):
        wrapped()
    return (clock() - t - bare) / n


def layer_metrics(spans: list[list], wall_s: float, span_cost_s: float) -> dict[str, float]:
    """Per-layer figures of one traced entry-point call."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {f"{stem}{suffix}": 0.0 for stem in FUNCTION_METRICS.values() for suffix in ("_s", "_calls")}
    out.update({f"{m}.self_s": 0.0 for m in MODULES})
    for (name, start, end, _), child in zip(spans, covered):
        stem = FUNCTION_METRICS.get(name)
        if stem:
            out[f"{stem}_s"] += end - start
            out[f"{stem}_calls"] += 1
        out[f"{name.split('.', 1)[0]}.self_s"] += end - start - child
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = len(spans) * span_cost_s
    out["trace.self_share"] = sum(out[f"{m}.self_s"] for m in MODULES) / wall_s
    return out


def write_spans(path, run_prefix: str, calls: list[dict]) -> None:
    """One JSON line per span: run id, span id, parent, name, start, end."""
    with gzip.open(path, "wt") as f:
        for c in calls:
            run_id = f"{run_prefix}-call{c['call']}"
            for i, (name, start, end, parent) in enumerate(c["spans"]):
                f.write(json.dumps({
                    "run": run_id, "id": i, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
