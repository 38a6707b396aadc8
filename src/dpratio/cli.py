"""Command-line front end.

Subcommands: construct, count, solve, expect, mc, sweep, verify.
All randomized commands take --seed (default 0).  JSON outputs carry
"schema": 1; CSV columns are documented in the README.
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
from .moments import moment_report
from .params import DEFAULT_TOL, plan, ConstructionPlan
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
        text = json.dumps(dg.to_json_dict(g), indent=2) + "\n"
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
        if "parts" in d:
            return dg.subgraph_from_json(d)
        return dg.from_json_dict(d)
    with open(path) as f:
        return dg.read_edgelist(f)


def _cmd_count(args) -> int:
    g = _read_graph(args.infile)
    method = args.method
    if method == "layered" and not isinstance(g, dg.SampledSubgraph):
        print("error: layered counting needs JSON input with 'parts'", file=sys.stderr)
        return 2
    c = count(g, method=method)
    text = (
        json.dumps(
            {
                "schema": 1,
                "derangements": str(c.derangements),
                "permutations": str(c.permutations),
                "ratio": float(c.ratio()) if c.permutations else None,
                "method": method,
            },
            indent=2,
        )
        + "\n"
    )
    _write_output(text, args.out)
    return 0


def _cmd_solve(args) -> int:
    if args.k is not None:
        cplan = plan(args.r, args.k, tol=args.tol)
    else:
        from .params import choose_ell, solve_p

        ell = choose_ell(args.r)
        p, x = solve_p(args.r, ell, tol=args.tol)
        cplan = ConstructionPlan(r=args.r, ell=ell, p=p, x=x, k=0, m=0)
    _write_output(json.dumps(cplan.to_json_dict(), indent=2) + "\n", args.out)
    return 0


def _cmd_expect(args) -> int:
    if args.r is not None:
        if args.k is None:
            print("error: --r requires --k", file=sys.stderr)
            return 2
        cplan = plan(args.r, args.k)
        report = moment_report(cplan.k, cplan.ell, cplan.m, p=cplan.p, r=args.r)
    else:
        if args.k is None or args.ell is None or args.m is None:
            print("error: need --r --k, or --k --ell --m", file=sys.stderr)
            return 2
        report = moment_report(args.k, args.ell, args.m)
    if args.format == "csv":
        text = report.CSV_COLUMNS + "\n" + report.to_csv_row() + "\n"
    else:
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    _write_output(text, args.out)
    return 0


def _cmd_mc(args) -> int:
    cplan = plan(args.r, args.k)
    report = run_mc(
        cplan, args.trials, seed=args.seed, epsilon=args.epsilon, workers=args.workers
    )
    _write_output(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    if args.trials_csv:
        with open(args.trials_csv, "w") as f:
            f.write(report.per_trial_csv())
    return 0


def _cmd_sweep(args) -> int:
    k_list = [int(s) for s in args.k_list.split(",")]
    rows = convergence_sweep(
        args.r, k_list, trials=args.trials, seed=args.seed, epsilon=args.epsilon
    )
    _write_output(sweep_csv(rows), args.out)
    return 0


def _cmd_verify(args) -> int:
    summary = verify_all(args.profile)
    print(summary.render())
    return 0 if summary.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dpratio",
        description=(
            "Realize derangement-to-permutation ratios in digraphs: build "
            "blow-up cycle digraphs, sample uniform m-edge subgraphs, count "
            "derangements/permutations exactly, solve construction "
            "parameters, and compute exact and asymptotic moments."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a blow-up digraph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--format", choices=["edgelist", "json"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("count", help="count derangements and permutations")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=["brute", "permanent", "layered", "auto"], default="auto")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("solve", help="solve (ell, p) from a target ratio r")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--k", type=int, help="also assemble m for this part size")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("expect", help="exact and asymptotic moment report")
    p.add_argument("--r", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("mc", help="Monte Carlo concentration experiment")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--trials-csv", help="also write per-trial CSV here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("sweep", help="convergence sweep over part sizes")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--k-list", required=True, help="comma-separated part sizes")
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run the cross-check suite")
    p.add_argument("--profile", choices=list(PROFILES), default="small")
    p.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
