"""Exit-code and file-level tests for the command-line surface."""

from pathlib import Path

import pytest

from nkline.cli import main
from nkline.pointfile import MAGIC, parse


def test_construct_explicit_writes_file_and_report(tmp_path, capsys):
    out = tmp_path / "s.txt"
    code = main(["construct", "--n", "16", "--k", "11", "--mode", "explicit", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == MAGIC
    assert len(text.splitlines()) == 2 + 176
    sidecar = tmp_path / "s.txt.report.txt"
    assert "status: certified" in sidecar.read_text()


def test_construct_usage_error_for_k_above_n(tmp_path):
    code = main(["construct", "--n", "10", "--k", "11", "--out", str(tmp_path / "x.txt")])
    assert code == 1


def test_construct_biuniform_deterministic_bytes(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["construct", "--n", "40", "--k", "30", "--mode", "biuniform",
            "--seed", "7", "--retries", "8", "--reserve", "0"]
    code_a = main(args + ["--out", str(a)])
    code_b = main(args + ["--out", str(b)])
    assert code_a == code_b
    assert a.read_bytes() == b.read_bytes()


def test_construct_biuniform_divisibility_usage_error(tmp_path):
    code = main(["construct", "--n", "41", "--k", "30", "--mode", "biuniform",
                 "--out", str(tmp_path / "x.txt")])
    assert code == 1


def test_construct_retries_exhausted_exit_code(tmp_path):
    out = tmp_path / "hard.txt"
    code = main(["construct", "--n", "40", "--k", "30", "--mode", "biuniform",
                 "--seed", "1", "--retries", "2", "--reserve", "25", "--out", str(out)])
    assert code == 2
    assert out.exists()
    assert "retries exhausted" in (tmp_path / "hard.txt.report.txt").read_text()


def test_verify_roundtrip_exit_zero(tmp_path):
    out = tmp_path / "s.txt"
    assert main(["construct", "--n", "12", "--k", "9", "--mode", "explicit", "--out", str(out)]) == 0
    assert main(["verify", "--in", str(out), "--k", "9"]) == 0


def test_verify_collinear_triple_exit_three(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text(f"{MAGIC}\nn=3 k=2 reserve=unknown seed=none\n1 1\n2 2\n3 3\n")
    code = main(["verify", "--in", str(f), "--k", "2"])
    assert code == 3
    assert "worst_line" in capsys.readouterr().out


def test_verify_truncated_file_exit_one(tmp_path, capsys):
    f = tmp_path / "trunc.txt"
    f.write_text(f"{MAGIC}\nn=3 k=2 reserve=unknown seed=none\n1\n")
    assert main(["verify", "--in", str(f), "--k", "2"]) == 1
    assert "line 3" in capsys.readouterr().err


def test_verify_missing_file(tmp_path):
    assert main(["verify", "--in", str(tmp_path / "none.txt"), "--k", "2"]) == 1


def test_stats_small_census(capsys):
    assert main(["stats", "--n", "3", "--j", "3"]) == 0
    assert "count=2" in capsys.readouterr().out


def test_stats_ratio_and_csv(capsys):
    assert main(["stats", "--n", "100", "--j", "20", "--ratio", "--csv"]) == 0
    out = capsys.readouterr().out
    assert "n,j,count" in out
    assert "ratio" in out


def test_stats_usage_error_for_small_j(capsys):
    assert main(["stats", "--n", "3", "--j", "1"]) == 1


def test_stats_kappa_bound(capsys):
    assert main(["stats", "--n", "10", "--kappa", "10"]) == 0
    assert "10.00" in capsys.readouterr().out


def test_bounds_report(capsys):
    assert main(["bounds", "--n", "1000000", "--C", "12.5"]) == 0
    out = capsys.readouterr().out
    assert "tail_coeff   = 4.31" in out
    assert "k_min" in out
    assert "feasible k range" in out


def test_bounds_rejects_bad_parameters(capsys):
    assert main(["bounds", "--n", "100", "--p", "1.5"]) == 1


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1
