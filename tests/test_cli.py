"""Exit-code and file-level tests for the command-line surface."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nkline
from nkline.cli import main
from nkline.grid import Direction
from nkline.pointfile import MAGIC, parse
from nkline.secants import count_on_line


def test_construct_explicit_writes_file_and_report(tmp_path, capsys):
    out = tmp_path / "s.txt"
    code = main(["construct", "--n", "16", "--k", "11", "--mode", "explicit", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == MAGIC
    assert len(text.splitlines()) == 2 + 176
    sidecar = tmp_path / "s.txt.report.txt"
    assert "status: certified" in sidecar.read_text()


# sha256 of the file `nkline construct --n 16 --k 11 --mode explicit`
# writes, measured before the filler's circulant became the sampler's
# bool mask
CONSTRUCT_EXPLICIT_16_11_SHA256 = "cc45c0f85e45d9d0f84aae855a1806259282d7e20f29b6fd858c336553514af1"


def test_construct_explicit_golden_bytes(tmp_path):
    out = tmp_path / "e.txt"
    assert main(["construct", "--n", "16", "--k", "11", "--mode", "explicit", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTRUCT_EXPLICIT_16_11_SHA256


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


# sha256 of the file `nkline construct --n 403 --k 233 --seed 11` writes;
# it moves only when the sampler, the 1-factor extraction or the
# reserve spend changes its bytes.  Re-pinned because the spend now
# drops and grows the retry's own shift-class 1-factors instead of
# Hopcroft-Karp matchings.
CONSTRUCT_403_233_SEED_11_SHA256 = "e8766266ca849d25f65f61f92c0745a5aa95fe85f51b171257da9fe825e5e099"


def test_construct_auto_golden_bytes(tmp_path):
    out = tmp_path / "c.txt"
    assert main(["construct", "--n", "403", "--k", "233", "--seed", "11", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTRUCT_403_233_SEED_11_SHA256


def test_construct_truncates_a_longer_file_and_keeps_it_on_a_usage_error(tmp_path, capsys):
    out = tmp_path / "c.txt"
    old = b"nkline v1\n" + b"1 1\n" * 500_000  # longer than the file construct writes
    out.write_bytes(old)
    # rejected before the file is opened: k above n, and a seed outside int64
    assert main(["construct", "--n", "403", "--k", "500", "--out", str(out)]) == 1
    assert main(["construct", "--n", "403", "--k", "233", "--seed", "99999999999999999999",
                 "--out", str(out)]) == 1
    assert out.read_bytes() == old
    assert main(["construct", "--n", "403", "--k", "233", "--seed", "11", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTRUCT_403_233_SEED_11_SHA256


def test_main_parses_each_call_afresh(tmp_path, capsys):
    # the parser is built once per process, so no value of one call may
    # reach the next
    out = tmp_path / "c.txt"
    args = ["construct", "--n", "403", "--k", "233", "--out", str(out)]
    # 403/233 lies below the explicit route's k >= 2n/3
    assert main(args + ["--mode", "explicit"]) == 1
    assert "below 2n/3" in capsys.readouterr().err
    assert main(args + ["--seed", "12"]) == 0
    assert parse(out.read_text()).seed == 12
    assert main(args) == 0
    assert parse(out.read_text()).seed == 0
    assert main(args + ["--seed", "11"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTRUCT_403_233_SEED_11_SHA256


# sha256 of the files `nkline construct --n 400 --k K --seed 11` writes
# for K = 230 (no reserve spent) and K = 233 (only k shrinks).
# Re-pinned because the retry sampler is now a relabeled circulant;
# 233 again because the spend now drops the retry's own shift classes.
CONSTRUCT_400_SEED_11_SHA256 = {
    230: "ba64ee02855c42908c332541d78e54be2ccec3b02b685e94bbf42c7bc736cd45",
    233: "54859624098074127da59dfd679f1baa22f4454170777cd197ddcb628589583b",
}


@pytest.mark.parametrize("k", sorted(CONSTRUCT_400_SEED_11_SHA256))
def test_construct_auto_golden_bytes_on_a_round_grid(tmp_path, k):
    out = tmp_path / "c.txt"
    assert main(["construct", "--n", "400", "--k", str(k), "--seed", "11", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONSTRUCT_400_SEED_11_SHA256[k]


def test_construct_seed_outside_int64_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.txt"
    code = main(["construct", "--n", "100", "--k", "40", "--seed", "99999999999999999999", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "64-bit" in err
    assert not out.exists()


def test_construct_biuniform_divisibility_usage_error(tmp_path):
    code = main(["construct", "--n", "41", "--k", "30", "--mode", "biuniform",
                 "--out", str(tmp_path / "x.txt")])
    assert code == 1



def test_construct_biuniform_3x3_matrix(tmp_path, capsys):
    out = tmp_path / "m3.txt"
    args = ["construct", "--n", "30", "--k", "20", "--mode", "biuniform", "--seed", "1"]
    assert main(args + ["--matrix", "3x3", "--out", str(out)]) == 0
    parsed = parse(out.read_text())
    assert len(parsed.points) == 600 and parsed.k == 20
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    # 30 is not a multiple of 4
    assert main(args + ["--matrix", "4x4", "--out", str(tmp_path / "m4.txt")]) == 1


@pytest.mark.parametrize("mode", ["auto", "explicit"])
@pytest.mark.parametrize("flag", [["--reserve", "15"], ["--matrix", "3x3"]])
def test_construct_rejects_biuniform_flags_in_other_modes(tmp_path, capsys, mode, flag):
    out = tmp_path / "s.txt"
    args = ["construct", "--n", "400", "--k", "120", "--seed", "7", "--mode", mode, "--out", str(out)]
    assert main(args + flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --reserve and --matrix act only under --mode biuniform")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", [["--seed", "12"], ["--retries", "3"], ["--seed", "0"]])
def test_construct_explicit_rejects_seed_and_retries(tmp_path, capsys, flag):
    args = ["construct", "--n", "16", "--k", "11", "--mode", "explicit", "--out", str(tmp_path / "e.txt")]
    assert main(args + flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed and --retries act only under --mode auto or biuniform, not explicit\n"
    assert list(tmp_path.iterdir()) == []


def test_construct_auto_takes_seed_on_the_explicit_route(tmp_path):
    out = tmp_path / "a.txt"
    assert main(["construct", "--n", "16", "--k", "11", "--seed", "12", "--retries", "3", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "n=16 k=11 reserve=0 seed=12"


def test_construct_sidecar_names_the_worst_line(tmp_path):
    out = tmp_path / "c.txt"
    assert main(["construct", "--n", "403", "--k", "233", "--seed", "11", "--out", str(out)]) == 0
    lines = (tmp_path / "c.txt.report.txt").read_text().splitlines()
    assert lines[0] == "status: certified"
    fields = dict(line.split(": ", 1) for line in lines)
    names = list(fields)
    assert names.index("worst line") == names.index("generic max") + 1
    worst = re.fullmatch(r"direction \((\d+),(-?\d+)\) intercept (-?\d+)", fields["worst line"])
    vx, vy, c = map(int, worst.groups())
    points = parse(out.read_text()).points
    assert count_on_line(points, Direction(vx, vy), c) == int(fields["generic max"])


def test_construct_retries_exhausted_exit_code(tmp_path):
    out = tmp_path / "hard.txt"
    code = main(["construct", "--n", "40", "--k", "30", "--mode", "biuniform",
                 "--seed", "1", "--retries", "2", "--reserve", "25", "--out", str(out)])
    assert code == 2
    assert out.exists()
    assert "retries exhausted" in (tmp_path / "hard.txt.report.txt").read_text()


def test_construct_retries_exhausted_writes_the_sample_it_holds(tmp_path, capsys):
    # neither retry at (400, 120), spent to (403, 113), is certified, so
    # the best spent set is a 113-factor on [1,403]^2 with a line of 118
    # points, and the file and its sidecar must say so
    out = tmp_path / "best.txt"
    code = main(["construct", "--n", "403", "--k", "113", "--seed", "7", "--retries", "2",
                 "--out", str(out)])
    assert code == 2
    assert out.read_text().splitlines()[1] == "n=403 k=113 reserve=unknown seed=7"
    sidecar = (tmp_path / "best.txt.report.txt").read_text().splitlines()
    assert sidecar[0] == "status: retries exhausted"
    assert "achieved reserve: -5" in sidecar
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 3
    assert "achieved_reserve=-5 " in capsys.readouterr().out


def test_verify_negative_reserve_is_usage_error(tmp_path, capsys):
    out = tmp_path / "s.txt"
    assert main(["construct", "--n", "12", "--k", "9", "--mode", "explicit", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--reserve", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("out", ["missing/s.txt", "."])
def test_construct_unwritable_out_is_usage_error(tmp_path, capsys, out):
    path = tmp_path / out
    code = main(["construct", "--n", "16", "--k", "11", "--mode", "explicit", "--out", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


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


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM of a Linux process")
def test_verify_sparse_file_on_a_huge_grid_stays_small(tmp_path):
    # memory must follow the number of points, not n^2 (10^10 cells here);
    # VmHWM is the child's own peak RSS (ru_maxrss may carry the parent's
    # peak over fork and exec)
    f = tmp_path / "sparse.txt"
    f.write_text(f"{MAGIC}\nn=100000 k=3 reserve=unknown seed=none\n1 1\n2 2\n100000 100000\n")
    script = (
        "import sys\n"
        "from nkline.cli import main\n"
        "code = main(['verify', '--in', sys.argv[1]])\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "print(code, status.split()[0])\n"
    )
    src = str(Path(nkline.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script, str(f)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "generic_max=3" in lines[0] and "points: 3" in lines[1]
    code, peak_kb = map(int, lines[-1].split())
    assert code == 0
    assert peak_kb < 100 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"



def test_python_dash_m_runs_the_cli():
    src = str(Path(nkline.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "nkline", "stats", "--n", "20", "--j", "3"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("n=20 j=3 count=")


def test_python_dash_m_construct_then_verify(tmp_path):
    # each command in its own fresh process, so every module the command
    # needs is imported on demand
    src = str(Path(nkline.__file__).resolve().parents[1])
    for command in (["construct", "--n", "40", "--k", "30", "--out", "f"], ["verify", "--in", "f"]):
        run = subprocess.run(
            [sys.executable, "-m", "nkline", *command], cwd=tmp_path,
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == 0, (command, run.stderr)
    assert "PASS k=30" in run.stdout

def test_verify_missing_file(tmp_path):
    assert main(["verify", "--in", str(tmp_path / "none.txt"), "--k", "2"]) == 1


def test_verify_file_that_is_not_utf8_exit_one(tmp_path, capsys):
    f = tmp_path / "latin1.txt"
    f.write_bytes(f"{MAGIC}\nn=3 k=2 reserve=unknown seed=none\n1 1\n".encode() + b"\xff 2\n")
    assert main(["verify", "--in", str(f), "--k", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_directory_exit_one(tmp_path, capsys):
    assert main(["verify", "--in", str(tmp_path), "--k", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_non_ascii_digit_names_its_line(tmp_path, capsys):
    f = tmp_path / "arabic.txt"
    f.write_text(f"{MAGIC}\nn=3 k=2 reserve=unknown seed=none\n1 1\n2 \u0663\n", encoding="utf-8")
    assert main(["verify", "--in", str(f), "--k", "2"]) == 1
    assert "line 4" in capsys.readouterr().err


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


def test_stats_ratio_on_an_empty_grid_is_usage_error(capsys):
    assert main(["stats", "--n", "0", "--j", "2", "--ratio"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_stats_kappa_bound(capsys):
    assert main(["stats", "--n", "10", "--kappa", "10"]) == 0
    assert "10.00" in capsys.readouterr().out


def test_bounds_report(capsys):
    assert main(["bounds", "--n", "1000000", "--C", "12.5"]) == 0
    out = capsys.readouterr().out
    assert "tail_coeff   = 4.31" in out
    assert "k_min" in out
    assert "feasible k range" in out


@pytest.mark.parametrize("m", [3, 4])
def test_bounds_default_C_is_the_printed_growth_coefficient(capsys, m):
    n = 2000
    assert main(["bounds", "--n", str(n), "--m", str(m)]) == 0
    out = capsys.readouterr().out
    coeff = re.search(r"growth coefficient of k_min: (\S+) \* sqrt\(n ln n\)", out).group(1)
    line = re.search(r"feasible k range for C=(\S+): (.*)", out)
    assert line.group(1) == coeff
    # 14.79 * sqrt(n ln n) = 1824 lies above 5n/6 = 1666
    assert line.group(2) == ("[1542, 1666]" if m == 3 else "empty")


def test_bounds_rejects_bad_parameters(capsys):
    assert main(["bounds", "--n", "100", "--p", "1.5"]) == 1


def test_bounds_zero_denominator_delta_is_usage_error(capsys):
    assert main(["bounds", "--n", "100", "--delta", "2/0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("C", ["0", "nan"])
def test_bounds_bad_C_is_one_error_line_and_no_output(C, capsys):
    assert main(["bounds", "--n", "100", "--C", C]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "100", "--K", "nan"],
        ["bounds", "--n", "100", "--L", "inf"],
        ["stats", "--n", "100", "--kappa", "inf"],
        ["stats", "--n", "100", "--kappa", "nan"],
        ["stats", "--n", "100", "--kappa", "10", "--L", "inf"],
        # a valid census must not be printed before --kappa is rejected
        ["stats", "--n", "100", "--j", "5", "--kappa", "inf"],
        # arithmetic that overflows or divides by zero is a usage error too
        ["bounds", "--n", "1" + "0" * 400],
        ["bounds", "--n", "100", "--C", "1e308"],
        ["bounds", "--n", "100", "--delta", "1e400"],
        ["stats", "--n", "1" + "0" * 400, "--kappa", "2"],
        ["stats", "--n", "100", "--kappa", "1e-300"],
        # the census is cheap here, and its reference ratio overflows
        ["stats", "--n", "1" + "0" * 100, "--j", "1" + "0" * 100, "--ratio"],
    ],
)
def test_non_finite_parameter_is_one_error_line_and_no_output(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["bounds", "--n", "100", "--C", "1e308"], "C=1e+308"),
        # kappa**3 underflows to 0
        (["stats", "--n", "100", "--kappa", "1e-300"], "kappa=1e-300"),
    ],
)
def test_overflow_error_names_the_value_at_fault(argv, named, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and named in err


def test_stats_kappa_bound_rejects_nonpositive_n(capsys):
    assert main(["stats", "--n", "-5", "--kappa", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [[], ["construct"], ["verify"], ["stats"], ["bounds"]])
def test_help_exits_zero_with_usage_on_stdout(argv, capsys):
    assert main(argv + ["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: nkline")


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1
