"""Command-line front end.

Subcommands: construct, count, solve, expect, mc, sweep, verify.  The
randomized commands (mc, sweep) take --seed (default 0).  Every output is
written by the external formats of `dpratio.digraph`: each JSON object
carries "schema": SCHEMA_VERSION, and a missing value is JSON null or an
empty CSV cell.  The README documents the CSV columns.  Bad input exits 2
with a one-line "error: " message.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import digraph as dg
from .counting import count
from .experiment import (
    DEFAULT_EPSILON,
    DEFAULT_SEED,
    convergence_sweep,
    run_mc,
    sweep_csv,
)
from .moments import moment_report, moment_report_for_plan
from .params import plan
from .verify import PROFILES, verify_all


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_construct(args) -> int:
    g = dg.build_blowup(args.k, args.ell)
    if args.format == "json":
        text = dg.json_text(dg.to_json_dict(g))
    else:
        import io

        buf = io.StringIO()
        dg.write_edgelist(dg.to_general(g), buf)
        text = buf.getvalue()
    _write_output(text, args.out)
    return 0


def _read_graph(path: str):
    if path.endswith(".json"):
        with open(path) as f:
            d = json.load(f)
        if isinstance(d, dict) and "parts" in d:
            return dg.subgraph_from_json(d)
        return dg.from_json_dict(d)
    with open(path) as f:
        return dg.read_edgelist(f)


def _cmd_count(args) -> int:
    method, c = count(_read_graph(args.infile))
    d = {
        "schema": dg.SCHEMA_VERSION,
        "derangements": str(c.derangements),
        "permutations": str(c.permutations),
        "ratio": float(c.ratio()),
        "method": method,
    }
    _write_output(dg.json_text(d), args.out)
    return 0


def _cmd_solve(args) -> int:
    _write_output(dg.json_text(plan(args.r, args.k).to_json_dict()), args.out)
    return 0


def _cmd_expect(args) -> int:
    given = [v is not None for v in (args.r, args.k, args.ell, args.m)]
    if given == [True, True, False, False]:
        report = moment_report_for_plan(plan(args.r, args.k))
    elif given == [False, True, True, True]:
        report = moment_report(args.k, args.ell, args.m)
    else:
        raise ValueError("give either --r --k, or --k --ell --m")
    text = report.to_csv() if args.format == "csv" else dg.json_text(report.to_json_dict())
    _write_output(text, args.out)
    return 0


def _cmd_mc(args) -> int:
    cplan = plan(args.r, args.k)
    report = run_mc(cplan, args.trials, seed=args.seed, epsilon=args.epsilon, workers=args.workers)
    _write_output(dg.json_text(report.to_json_dict()), args.out)
    if args.trials_csv:
        _write_output(report.per_trial_csv(), args.trials_csv)
    return 0


def _cmd_sweep(args) -> int:
    k_list = []
    for entry in args.k_list.split(","):
        try:
            k_list.append(int(entry))
        except ValueError:
            raise ValueError(f"--k-list entries must be integers, got {entry!r}") from None
    rows = convergence_sweep(args.r, k_list, args.trials, args.seed)
    _write_output(sweep_csv(rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    summary = verify_all(args.profile)
    print(summary.render())
    return 0 if summary.passed else 1


#: subcommand -> (help, handler, its options as (flag, add_argument keywords))
_COMMANDS = {
    "construct": ("emit a blow-up digraph", _cmd_construct, [
        ("--k", dict(type=int, required=True)),
        ("--ell", dict(type=int, required=True)),
        ("--format", dict(choices=["edgelist", "json"], default="json")),
        ("--out", {}),
    ]),
    "count": ("count derangements and permutations", _cmd_count, [
        ("--in", dict(dest="infile", required=True)),
        ("--out", {}),
    ]),
    "solve": ("solve (ell, p) from a target ratio r", _cmd_solve, [
        ("--r", dict(type=float, required=True)),
        ("--k", dict(type=int, help="also assemble m for this part size")),
        ("--out", {}),
    ]),
    "expect": ("exact and asymptotic moment report", _cmd_expect, [
        ("--r", dict(type=float)),
        ("--k", dict(type=int)),
        ("--ell", dict(type=int)),
        ("--m", dict(type=int)),
        ("--format", dict(choices=["json", "csv"], default="json")),
        ("--out", {}),
    ]),
    "mc": ("Monte Carlo concentration experiment", _cmd_mc, [
        ("--r", dict(type=float, required=True)),
        ("--k", dict(type=int, required=True)),
        ("--trials", dict(type=int, required=True)),
        ("--seed", dict(type=int, default=DEFAULT_SEED)),
        ("--epsilon", dict(type=float, default=DEFAULT_EPSILON)),
        ("--workers", dict(type=int, default=1)),
        ("--trials-csv", dict(help="also write per-trial CSV here")),
        ("--out", {}),
    ]),
    "sweep": ("convergence sweep over part sizes", _cmd_sweep, [
        ("--r", dict(type=float, required=True)),
        ("--k-list", dict(required=True, help="comma-separated part sizes")),
        ("--trials", dict(type=int, default=0)),
        ("--seed", dict(type=int, default=DEFAULT_SEED)),
        ("--out", {}),
    ]),
    "verify": ("run the cross-check suite", _cmd_verify, [
        ("--profile", dict(choices=list(PROFILES), default="small")),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The dpratio parser; given a subcommand's name, with only that
    subcommand, whose help, usage and errors stay the full parser's (the
    metavar keeps every command in the top-level usage line)."""
    ap = argparse.ArgumentParser(
        prog="dpratio",
        description=(
            "Realize derangement-to-permutation ratios in digraphs: build "
            "blow-up cycle digraphs, sample uniform m-edge subgraphs, count "
            "derangements/permutations exactly, solve construction "
            "parameters, and compute exact and asymptotic moments."
        ),
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        help_, func, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # -h, no command or an unknown one: the full parser's help and errors
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
