import json

import pytest

from dpratio.cli import main


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
    code, out = run_cli(capsys, "count", "--in", str(path), "--method", "brute")
    assert code == 0
    d = json.loads(out)
    assert (d["derangements"], d["permutations"]) == ("4", "9")


def test_count_layered_json(capsys, tmp_path):
    path = tmp_path / "g.json"
    run_cli(capsys, "construct", "--k", "2", "--ell", "2", "--out", str(path))
    for method in ("brute", "permanent", "layered", "auto"):
        code, out = run_cli(capsys, "count", "--in", str(path), "--method", method)
        assert code == 0
        d = json.loads(out)
        assert (d["derangements"], d["permutations"]) == ("4", "9")


def test_count_layered_needs_parts(capsys, tmp_path):
    path = tmp_path / "g.txt"
    run_cli(capsys, "construct", "--k", "2", "--ell", "2", "--format", "edgelist", "--out", str(path))
    code = main(["count", "--in", str(path), "--method", "layered"])
    assert code == 2


def test_solve(capsys):
    code, out = run_cli(capsys, "solve", "--r", "0.3")
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == 1
    assert d["ell"] == 2
    assert 0 < d["p"] < 1


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


def test_expect_bad_args(capsys):
    assert main(["expect", "--k", "2"]) == 2


def test_value_error_exits_2_without_traceback(capsys):
    for argv in (
        ["expect", "--k", "30", "--ell", "2", "--m", "1000"],
        ["mc", "--r", "0.3", "--k", "4", "--trials", "2", "--seed", str(2**70)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


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


def test_verify_tiny(capsys):
    code, out = run_cli(capsys, "verify", "--profile", "tiny")
    assert code == 0
    assert "overall: PASS" in out
