import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpratio
from dpratio.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_json(capsys):
    code, out = run_cli(capsys, "construct", "--k", "2", "--ell", "3")
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == 1
    assert d["n"] == 6
    assert len(d["edges"]) == 12
    assert d["parts"] == [[0, 1], [2, 3], [4, 5]]


def test_construct_edgelist(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code, _ = run_cli(
        capsys, "construct", "--k", "1", "--ell", "3", "--format", "edgelist", "--out", str(path)
    )
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "3 3"


def test_count_edgelist(capsys, tmp_path):
    path = tmp_path / "g.txt"
    run_cli(capsys, "construct", "--k", "2", "--ell", "2", "--format", "edgelist", "--out", str(path))
    code, out = run_cli(capsys, "count", "--in", str(path))
    assert code == 0
    d = json.loads(out)
    assert (d["derangements"], d["permutations"], d["method"]) == ("4", "9", "permanent")


@pytest.mark.parametrize(
    "text",
    [
        "3 -2\n",  # a negative edge count, once read as no edges
        "3 2\n0 1\n0 1\n",  # a duplicate edge, once read as one edge
        "3 1\n0 1\n1 2\n2 0\n",  # edges past the m-th, once dropped
    ],
)
def test_count_refuses_misread_edgelist(capsys, tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert main(["count", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 x\n", "expected header line 'n m' of two integers, got '3 x'"),
        ("3\n", "expected header line 'n m' of two integers, got '3'"),
        ("3 1\n0 a\n", "expected edge line 'u v' of two integers, got '0 a'"),
        ("3 2\n0 1\n1.5 2\n", "expected edge line 'u v' of two integers, got '1.5 2'"),
    ],
)
def test_count_edgelist_names_non_integer_line(capsys, tmp_path, text, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert main(["count", "--in", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_count_edgelist_trailing_blank_lines(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 3\n0 1\n1 2\n2 0\n\n  \n")
    code, out = run_cli(capsys, "count", "--in", str(path))
    assert code == 0
    assert (json.loads(out)["derangements"], json.loads(out)["permutations"]) == ("1", "2")


def test_count_large_edgelist_uses_permanent(capsys, tmp_path):
    path = tmp_path / "g.txt"
    run_cli(capsys, "construct", "--k", "3", "--ell", "4", "--format", "edgelist", "--out", str(path))
    code, out = run_cli(capsys, "count", "--in", str(path))
    assert code == 0
    d = json.loads(out)
    assert (d["derangements"], d["permutations"], d["method"]) == ("1296", "2674", "permanent")


def test_count_layered_json(capsys, tmp_path):
    path = tmp_path / "g.json"
    run_cli(capsys, "construct", "--k", "2", "--ell", "2", "--out", str(path))
    code, out = run_cli(capsys, "count", "--in", str(path))
    assert code == 0
    d = json.loads(out)
    assert (d["derangements"], d["permutations"], d["method"]) == ("4", "9", "layered")


def test_solve(capsys):
    code, out = run_cli(capsys, "solve", "--r", "0.3")
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == 1
    assert d["ell"] == 2
    assert 0 < d["p"] < 1
    assert (d["k"], d["m"]) == (None, None)  # no part size given


def test_solve_tiny_ratio(capsys):
    # the bracket for f_2(x) = 1e300 overshoots into overflow; the root stays finite
    code, out = run_cli(capsys, "solve", "--r", "1e-300")
    assert code == 0
    d = json.loads(out)
    assert d["ell"] == 2
    assert abs(d["p"] - 0.0028778) <= 1e-7


def test_solve_with_k(capsys):
    code, out = run_cli(capsys, "solve", "--r", "0.3", "--k", "8")
    d = json.loads(out)
    assert d["k"] == 8
    assert 0 < d["m"] < 128


def test_expect_by_plan(capsys):
    code, out = run_cli(capsys, "expect", "--r", "0.3", "--k", "4")
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == 1
    assert d["ell"] == 2


def test_expect_by_kellm(capsys):
    code, out = run_cli(capsys, "expect", "--k", "2", "--ell", "2", "--m", "6")
    d = json.loads(out)
    assert d["ex"] == "6/7"
    assert d["ey"] == "4/1"


def test_expect_csv(capsys):
    code, out = run_cli(capsys, "expect", "--k", "2", "--ell", "2", "--m", "6", "--format", "csv")
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("r,k,ell,p,m")


def test_expect_missing_values(capsys):
    # E[X] = 0 has no X concentration: null in JSON, an empty cell in CSV
    _, out = run_cli(capsys, "expect", "--k", "1", "--ell", "2", "--m", "1")
    assert json.loads(out)["x_concentration"] is None
    _, out = run_cli(capsys, "expect", "--k", "1", "--ell", "2", "--m", "1", "--format", "csv")
    assert out.splitlines()[1] == ",1,2,0.5,1,0.0,0.0,1.0,,0.0,-2.386294361119891,0.038678434395568395"


def test_expect_at_m_zero(capsys):
    # the exact moments exist at m = 0; log p does not
    code, out = run_cli(capsys, "expect", "--k", "2", "--ell", "2", "--m", "0")
    assert code == 0
    d = json.loads(out)
    assert (d["ex"], d["ey"], d["p"]) == ("0/1", "1/1", 0.0)
    assert d["ex_asym_log"] is d["ey_asym_log"] is d["x_concentration"] is None
    _, out = run_cli(capsys, "expect", "--k", "2", "--ell", "2", "--m", "0", "--format", "csv")
    assert out.splitlines()[1] == ",2,2,0.0,0,0.0,0.0,1.0,,0.0,,"


def test_expect_bad_args(capsys):
    assert main(["expect", "--k", "2"]) == 2


def test_value_error_exits_2_without_traceback(capsys):
    for argv in (
        ["expect", "--k", "30", "--ell", "2", "--m", "1000"],
        ["mc", "--r", "0.3", "--k", "4", "--trials", "2", "--seed", str(2**70)],
        ["expect", "--k", "2"],
        ["expect", "--r", "0.3"],
        ["expect", "--k", "0", "--ell", "2", "--m", "0"],
        ["expect", "--k", "2", "--ell", "0", "--m", "0"],
        ["expect", "--k", "2", "--ell", "1", "--m", "3"],
        ["expect", "--k", "-1", "--ell", "2", "--m", "0"],
        # refused by the k <= 25 limit before anything of size k is built
        ["expect", "--k", "100000000", "--ell", "2", "--m", "5"],
        ["solve", "--r", "1e-320"],
        # input that used to be ignored or read wrong
        ["mc", "--r", "0.3", "--k", "4", "--trials", "2", "--workers", "0"],
        ["mc", "--r", "0.3", "--k", "4", "--trials", "2", "--workers", "-1"],
        ["mc", "--r", "0.3", "--k", "4", "--trials", "2", "--epsilon", "nan"],
        ["mc", "--r", "0.3", "--k", "4", "--trials", "2", "--epsilon=-0.1"],
        ["sweep", "--r", "0.3", "--k-list", "4", "--trials", "-1"],
        ["sweep", "--r", "0.3", "--k-list", ","],
        ["sweep", "--r", "0.3", "--k-list", "4,a"],
        ["sweep", "--r", "0.3", "--k-list", "2,2"],
        ["expect", "--r", "0.3", "--k", "4", "--ell", "3"],
        ["expect", "--r", "0.3", "--k", "4", "--m", "7"],
        ["expect", "--r", "0.3", "--k", "4", "--ell", "3", "--m", "7"],
        # a concentration number past the float range
        ["expect", "--k", "2", "--ell", "400", "--m", "800"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


def test_asymptotic_log_overflow_names_field(capsys, monkeypatch):
    # at a small p, f_ell(1/p) overflows a float while the exact moments
    # exist; the error comes before the second moments, which at (25, 1000, 5)
    # and (25, 50, 5) would take minutes
    def refuse(k, ell, m):
        raise AssertionError("a second moment ran before the float-range error")

    for name in ("second_moment_x_exact", "second_moment_y_upper"):
        monkeypatch.setattr(dpratio.moments, name, refuse)
    cases = ((25, 2, 3, 0.0024), (20, 3, 2, 2 / 1200), (10, 4, 1, 0.0025))
    for k, ell, m, p in cases + ((25, 1000, 5, 8e-06), (25, 50, 5, 0.00016)):
        assert main(["expect", "--k", str(k), "--ell", str(ell), "--m", str(m)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: ey_asym_log is past the float range (f_{ell}(1/p) > 1.8e308 at p = {p})\n"
        )


COMMANDS = ["construct", "count", "solve", "expect", "mc", "sweep", "verify"]


def _argparse_exit(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [[cmd, "--help"] for cmd in COMMANDS]
    + [
        ["expect", "--bogus", "1"],  # a top-level error after a named command
        ["expect", "--k", "x"],
        ["mc", "--k", "4", "--trials", "2"],
        ["bogus"],
        [],
        ["-h"],
    ],
)
def test_cli_matches_full_parser(argv):
    # main builds only the named subcommand's parser; every help and error
    # text and exit code stays the full parser's
    expected = _argparse_exit(lambda a: build_parser().parse_args(a), argv)
    assert _argparse_exit(main, argv) == expected
    # the full parser's own texts: every command in the top-level usage
    # line, and the subcommand argument named by its dest
    if argv[:2] == ["expect", "--bogus"]:
        assert expected[2].startswith(f"usage: dpratio [-h] {{{','.join(COMMANDS)}}} ...\n")
    if argv == []:
        assert expected[2].endswith("error: the following arguments are required: command\n")


def test_named_command_builds_one_subparser():
    def commands(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    assert list(commands(build_parser())) == COMMANDS
    for cmd in COMMANDS:
        assert list(commands(build_parser(cmd))) == [cmd]


def test_k_list_error_names_flag_and_entry(capsys):
    for k_list, entry in ((",", "''"), ("4,a", "'a'"), ("4,,6", "''"), ("4.5", "'4.5'")):
        assert main(["sweep", "--r", "0.3", "--k-list", k_list]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --k-list entries must be integers, got {entry}\n"


def test_file_errors_exit_2_without_traceback(capsys, tmp_path):
    no_keys = tmp_path / "no_edges.json"
    no_keys.write_text('{"n": 3}')
    not_object = tmp_path / "number.json"
    not_object.write_text("3")
    bad_types = []  # 'n' and 'edges' present, but a field of the wrong type
    for i, text in enumerate((
        '{"n": 3, "edges": [1]}',
        '{"n": "3", "edges": []}',
        '{"n": 4, "edges": [], "parts": 5}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        # 'n' disagrees with the vertex count of 'parts'
        '{"n": 5, "edges": [[0, 2], [2, 0], [1, 3], [3, 1]], "parts": [[0, 1], [2, 3]]}',
        # a repeated edge, once counted as the graph without the repeat
        '{"n": 3, "edges": [[0, 1], [0, 1], [1, 2], [2, 0]]}',
        '{"n": 4, "edges": [[0, 2], [0, 2], [2, 0]], "parts": [[0, 1], [2, 3]]}',
        # bad vertices beside 'parts', read as a digraph first
        '{"n": 4, "edges": [[0, 5]], "parts": [[0, 1], [2, 3]]}',
        '{"n": 4, "edges": [[-1, 2]], "parts": [[0, 1], [2, 3]]}',
        '{"n": 4, "edges": [[0, 0]], "parts": [[0, 1], [2, 3]]}',
    )):
        path = tmp_path / f"bad_types_{i}.json"
        path.write_text(text)
        bad_types.append(["count", "--in", str(path)])
    for argv in (
        ["count", "--in", str(tmp_path / "missing.txt")],
        ["construct", "--k", "2", "--ell", "2", "--out", str(tmp_path / "missing" / "g.json")],
        ["count", "--in", str(no_keys)],
        ["count", "--in", str(not_object)],
        *bad_types,
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
    # an edge inside a part, an edge that skips a part, a negative vertex
    # count: each with its own message
    for i, (text, message) in enumerate((
        (
            '{"n": 4, "edges": [[0, 1]], "parts": [[0, 1], [2, 3]]}',
            "edge (0, 1) does not go to the successor part",
        ),
        (
            '{"n": 6, "edges": [[0, 4]], "parts": [[0, 1], [2, 3], [4, 5]]}',
            "edge (0, 4) does not go to the successor part",
        ),
        ('{"n": -1, "edges": []}', "vertex count must be nonnegative, got -1"),
    )):
        path = tmp_path / f"bad_graph_{i}.json"
        path.write_text(text)
        assert main(["count", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@st.composite
def graph_json(draw):
    """Graph JSON for `count --in`: a digraph, a blow-up subgraph with
    contiguous parts, or a digraph with malformed parts; then maybe a few
    bad edges (self-loops, out-of-range pairs) and a wrong 'n'."""
    shape = draw(st.sampled_from(["digraph", "parts", "bad parts"]))
    if shape == "parts":
        k, ell = draw(st.integers(1, 4)), draw(st.integers(2, 4))
        n = k * ell
        parts = [list(range(c * k, (c + 1) * k)) for c in range(ell)]
        pairs = [
            [c * k + i, (c + 1) % ell * k + j]
            for c in range(ell) for i in range(k) for j in range(k)
        ]
    else:
        n = draw(st.integers(0, 12))
        parts = draw(st.lists(st.lists(st.integers(-1, 13), max_size=4), max_size=4))
        pairs = [[u, v] for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    edges += draw(st.lists(st.lists(st.integers(-1, n + 1), min_size=2, max_size=2), max_size=3))
    d = {"n": draw(st.one_of(st.just(n), st.integers(-2, 14))), "edges": edges}
    if shape != "digraph":
        d["parts"] = parts
    return d


@settings(max_examples=100, deadline=500)
@given(d=graph_json())
def test_count_json_exits_0_or_2_without_traceback(d):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w") as f:
            json.dump(d, f)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["count", "--in", path])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["method"] in ("layered", "permanent")
    else:
        assert err.getvalue().startswith("error: ")


def test_mc(capsys, tmp_path):
    csv_path = tmp_path / "trials.csv"
    code, out = run_cli(
        capsys,
        "mc", "--r", "0.3", "--k", "4", "--trials", "10",
        "--seed", "0", "--trials-csv", str(csv_path),
    )
    assert code == 0
    d = json.loads(out)
    assert d["trials"] == 10
    assert len(d["per_trial"]) == 10
    assert csv_path.read_text().startswith("trial,seed,x,y,ratio")


def test_mc_default_seed_is_zero(capsys):
    _, out1 = run_cli(capsys, "mc", "--r", "0.3", "--k", "4", "--trials", "5")
    _, out2 = run_cli(capsys, "mc", "--r", "0.3", "--k", "4", "--trials", "5", "--seed", "0")
    assert out1 == out2


def test_sweep(capsys):
    code, out = run_cli(capsys, "sweep", "--r", "0.3", "--k-list", "4,6", "--trials", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == "k,ell,m,p,exact_ratio,abs_error,x_concentration,empirical_mean_ratio"
    # sweep prints no per-trial tolerance, so it takes no --epsilon
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--r", "0.3", "--k-list", "4", "--epsilon", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon 0.1" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("construct_k2_ell2.json", "construct --k 2 --ell 2"),
        ("solve_r0.3_k8.json", "solve --r 0.3 --k 8"),
        ("expect_k2_ell2_m6.json", "expect --k 2 --ell 2 --m 6"),
        ("expect_k2_ell2_m6.csv", "expect --k 2 --ell 2 --m 6 --format csv"),
        ("expect_r0.45_k18.json", "expect --r 0.45 --k 18"),
        ("expect_r0.3_k25.csv", "expect --r 0.3 --k 25 --format csv"),
        ("mc_r0.3_k4_trials3.json", "mc --r 0.3 --k 4 --trials 3"),
        ("sweep_r0.3_k2-3_trials2.csv", "sweep --r 0.3 --k-list 2,3 --trials 2"),
        ("verify_tiny.txt", "verify --profile tiny"),
    ],
)
def test_frozen_output(capsys, name, argv):
    """Full stdout, byte for byte, of a few invocations (tests/golden/)."""
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_frozen_trials_csv(capsys, tmp_path):
    path = tmp_path / "trials.csv"
    run_cli(capsys, "mc", "--r", "0.3", "--k", "4", "--trials", "3", "--trials-csv", str(path))
    assert path.read_text() == (GOLDEN / "mc_r0.3_k4_trials3_trials.csv").read_text()


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


@st.composite
def cli_argv(draw):
    """Bounded arguments for every subcommand but count and verify: k <= 5,
    trials <= 3, at most one worker.  Each value is valid three times in
    four, else drawn from the invalid edge cases (non-finite r and epsilon
    among them)."""

    def pick(valid, invalid):
        return draw(st.sampled_from(invalid if draw(st.integers(0, 3)) == 0 else valid))

    cmd = draw(st.sampled_from(["construct", "solve", "expect", "mc", "sweep"]))
    r = pick([0.3, 0.45, 0.49], [math.nan, math.inf, -math.inf, 0.0, 0.5, 1e-300])
    k, ell = pick(range(1, 6), [-1, 0]), pick(range(2, 6), [0, 1])
    trials = pick(range(1, 4), [-1, 0])
    eps = pick([0.05, 0.0], [-0.1, math.nan, math.inf])
    if cmd == "construct":
        fmt = draw(st.sampled_from(["json", "edgelist"]))
        return [cmd, f"--k={k}", f"--ell={ell}", f"--format={fmt}"]
    if cmd == "solve":
        return [cmd, f"--r={r}"] + draw(st.sampled_from([[], [f"--k={k}"]]))
    if cmd == "expect":
        total = max(0, k * k * ell)
        values = {"r": r, "k": k, "ell": ell, "m": pick(range(total + 1), [-1, total + 1])}
        given_args = pick([("r", "k"), ("k", "ell", "m")], [("r", "k", "ell"), ("k", "ell")])
        fmt = draw(st.sampled_from(["json", "csv"]))
        return [cmd, f"--format={fmt}"] + [f"--{a}={values[a]}" for a in given_args]
    if cmd == "mc":
        workers = pick([1], [0, -1])
        return [cmd, f"--r={r}", f"--k={k}", f"--trials={trials}", f"--epsilon={eps}",
                f"--workers={workers}"]
    k_list = ",".join(str(pick(range(2, 6), [-1, 0, 1])) for _ in range(draw(st.integers(1, 2))))
    return [cmd, f"--r={r}", f"--k-list={k_list}", f"--trials={trials - 1}"]


@settings(max_examples=100, deadline=1000)
@given(argv=cli_argv())
def test_cli_exits_cleanly_and_writes_only_json_or_empty_cells(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: "))
    if code != 0:
        return
    text = out.getvalue()
    if argv[0] == "sweep" or "--format=csv" in argv:
        for line in text.splitlines()[1:]:  # a missing value is an empty cell
            assert all(cell == "" or math.isfinite(float(cell)) for cell in line.split(","))
    elif "--format=edgelist" not in argv:
        json.loads(text, parse_constant=_not_json)


def test_verify_tiny(capsys):
    code, out = run_cli(capsys, "verify", "--profile", "tiny")
    assert code == 0
    assert "overall: PASS" in out


def test_import_leaves_process_pool_unloaded():
    # the process pool is imported only when mc runs with --workers > 1
    src = os.path.dirname(os.path.dirname(dpratio.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, dpratio.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
