import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from npslab import cli
from npslab.cli import main
from npslab.complexity import WitnessConstructionError, worst_case
from npslab.curves import LimitCurve, partition_boundary
from npslab.integrals import avg_lower_integral, worst_case_integral
from npslab.partitions import Partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_brute(capsys):
    code, out, _ = run(capsys, "exact", "--shape", "2,1", "--method", "brute")
    assert code == 0
    assert out.startswith("2/3")


def test_exact_all_agreement(capsys):
    code, out, _ = run(capsys, "exact", "--shape", "2,2", "--all")
    assert code == 0
    assert out.count("11/6") == 3
    assert "e-abs-h" in out and "5/3" in out


def test_exact_inapplicable_method(capsys):
    code, _, err = run(capsys, "exact", "--shape", "3,2,1", "--method", "two-row")
    assert code == 2
    assert "not applicable" in err


def test_exact_refuses_too_many_subdiagrams(capsys):
    code, out, err = run(capsys, "exact", "--shape", ",".join(["12"] * 12))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "2704156 subdiagrams" in err


def test_exact_brute_refuses_too_many_sorted_orders():
    # a fresh process with a deadline: before the guard this command ran
    # without end, enumerating f = 1,662,804 sorted orders
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "npslab", "exact", "--shape", "5,5,5,5",
         "--method", "brute", "--cutoff", "20"],
        capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "1662804" in proc.stderr and "50000" in proc.stderr


def test_exact_brute_refuses_too_much_work():
    # a fresh process with a deadline: before the work budget this command
    # ran for minutes, since the hook (1000,1) has only f = 1000 sorted orders
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "npslab", "exact", "--shape", "1000,1",
         "--method", "brute", "--cutoff", "1001"],
        capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "1002001000 units of work" in proc.stderr and "20000000" in proc.stderr


@pytest.mark.parametrize("argv,message", [
    # a named brute force runs at any size, so the cutoff's own guard reports it
    (["exact", "--shape", "5,5", "--method", "brute"],
     "size 10 exceeds enumeration cutoff 9"),
    (["exact", "--shape", "5,5,5,5", "--method", "brute", "--cutoff", "20"],
     "5,5,5,5 has f = 1662804 sorted orders, above the enumeration budget of 50000"),
    (["exact", "--shape", "1000,1", "--method", "brute", "--cutoff", "1001"],
     "1000,1 needs f n^2 = 1002001000 units of work, above the enumeration budget of "
     "20000000"),
    (["exact", "--shape", ",".join(["12"] * 12)],
     "2704156 subdiagrams, exceeding the limit 1000000"),
    (["sample", "--shape", "5,4,3,2", "--uniformity", "--draws", "10"],
     "48048 standard tableaux is too many to tabulate"),
], ids=["enumeration-cutoff", "sorted-orders", "work", "subdiagrams", "uniformity-classes"])
def test_size_guards_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.rstrip("\n").endswith(message)


def test_exact_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "exact", "--shape", "2,1",
                       "--method", "chicago")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "2/3"
    assert math.isclose(doc["decimal"], 2 / 3)


def test_worst_with_witness(capsys):
    code, out, _ = run(capsys, "worst", "--shape", "2,2", "--witness")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["4", "4,2;3,1", "exchanges=4"]

    code, out, _ = run(capsys, "worst", "--shape", "1")
    assert code == 0
    assert out.strip() == "0"


def test_sample_commands(capsys):
    code, out, _ = run(capsys, "sample", "--shape", "2,1", "--draws", "2000",
                       "--seed", "3")
    assert code == 0
    assert out.startswith("mean=")
    code, out, _ = run(capsys, "sample", "--shape", "2,1", "--draws", "2000",
                       "--seed", "3", "--uniformity")
    assert code == 0
    assert "dof=1" in out


def test_block_draws_keep_monte_carlo_output(tmp_path, capsys, monkeypatch, boards_per_draw):
    runs = [
        ["sample", "--shape", "3,2", "--draws", "2000", "--seed", "3"],
        ["sample", "--shape", "3,2", "--draws", "2000", "--seed", "3", "--uniformity"],
        ["sweep", "--family", "staircase", "--sizes", "3..12", "--seed", "9",
         "--samples", "600", "--exact-limit", "4", "--out", str(tmp_path / "x.csv")],
    ]

    def outputs():
        return [run(capsys, *argv) for argv in runs] + [(tmp_path / "x.csv").read_bytes()]

    blocks = outputs()
    monkeypatch.setattr("npslab.sampling._chunked_boards", boards_per_draw)
    assert blocks == outputs()
    rows = [row.split(b",") for row in blocks[-1].splitlines()]
    assert rows[0][5] == b"C_stderr" and any(row[5] for row in rows[1:])  # Monte Carlo rows


def test_limit_builtin_curves(capsys):
    code, out, _ = run(capsys, "limit", "--curve", "square", "--integral", "W",
                       "--tol", "1e-4")
    assert code == 0
    assert abs(float(out) - 1.0) < 1e-3
    code, out, _ = run(capsys, "limit", "--curve", "square", "--integral", "I2")
    assert abs(float(out) - 0.5) < 1e-3


def test_limit_curve_file(tmp_path, capsys):
    from npslab.curves import flat_top_curve
    path = tmp_path / "flat.json"
    flat_top_curve().to_file(path)
    code, out, _ = run(capsys, "limit", "--curve", str(path), "--integral", "W")
    assert code == 0
    assert abs(float(out) - math.sqrt(2) / 3) < 1e-3

    code, _, err = run(capsys, "limit", "--curve", str(tmp_path / "nope.json"),
                       "--integral", "W")
    assert code == 2 and "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"breakpoints": [[-1, 2], [1, 1]]}')
    code, _, err = run(capsys, "limit", "--curve", str(bad), "--integral", "W")
    assert code == 2 and "invalid curve" in err


@pytest.mark.parametrize("argv,apex,named", [
    (["limit", "--integral", "W"], "true", "True"),
    (["limit", "--integral", "W"], "Infinity", "inf"),
    (["limit", "--integral", "W"], "NaN", "nan"),
    (["sweep", "--family", "curve-file", "--sizes", "10..12", "--out", "{tmp}/x.csv"],
     "Infinity", "inf"),
], ids=["limit-true", "limit-infinity", "limit-nan", "sweep-infinity"])
def test_curve_file_refuses_bools_and_non_finite_numbers(tmp_path, capsys, argv, apex, named):
    # JSON true would read as 1 and Infinity would reach Fraction as an
    # OverflowError; both are invalid curve files that name the value
    path = tmp_path / "curve.json"
    path.write_text(f'{{"breakpoints": [[-1, 1], [0, {apex}], [1, 1]]}}')
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv] + ["--curve", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "invalid curve file" in err and f"coordinate {named}" in err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_square_family(tmp_path, capsys):
    out_path = tmp_path / "sq.csv"
    code, _, _ = run(capsys, "sweep", "--family", "square", "--sizes", "4..30",
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,W,W_scaled,W_integral,C,C_stderr,C_integral,C_over_W"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["4", "9", "16", "25"]
    # W / n^{3/2} = 1 - 1/sqrt(n), exactly representable here
    for r in rows:
        n = int(r[0])
        m = math.isqrt(n)
        assert int(r[1]) == m**3 - m**2
        assert math.isclose(float(r[2]), 1 - 1 / m)


def test_sweep_two_row_ratio_column(tmp_path, capsys):
    out_path = tmp_path / "tr.csv"
    code, _, _ = run(capsys, "sweep", "--family", "two-row", "--param", "5",
                     "--sizes", "100,1005", "--out", str(out_path))
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().strip().splitlines()[1:]]
    assert rows[-1][0] == "1005"
    # final C/W ratio approaches one half; the one-sided prediction is 1/2
    assert abs(float(rows[-1][-1]) - 0.5) < 0.01
    assert abs(float(rows[-1][3]) - 0.5) < 1e-3


def test_sweep_curve_file_family(tmp_path, capsys):
    curve_path = tmp_path / "curve.json"
    partition_boundary(Partition([4, 2]), 6).to_file(curve_path)
    out_path = tmp_path / "cf.csv"
    code, _, _ = run(capsys, "sweep", "--family", "curve-file", "--sizes", "10..20",
                     "--curve", str(curve_path), "--out", str(out_path))
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().strip().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(10, 21))
    curve = LimitCurve.from_file(curve_path)
    w_pred = f"{worst_case_integral(curve):.12g}"
    c_pred = f"{avg_lower_integral(curve):.12g}"
    assert all(r[3] == w_pred and r[6] == c_pred for r in rows)
    # at n = 24 and 54 the fitted shapes are (4,2) blown up 2x2 and 3x3
    code, _, _ = run(capsys, "sweep", "--family", "curve-file", "--sizes", "24,54",
                     "--curve", str(curve_path), "--out", str(out_path))
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().strip().splitlines()[1:]]
    blown_up = [Partition([8, 8, 4, 4]), Partition([12, 12, 12, 6, 6, 6])]
    assert [int(r[1]) for r in rows] == [worst_case(p) for p in blown_up] == [80, 297]


@pytest.mark.parametrize("breakpoints,area", [([], "0"), ([[-2, 2], [0, 4], [2, 2]], "8")],
                         ids=["empty", "area-8"])
def test_sweep_refuses_curve_without_unit_area(tmp_path, capsys, breakpoints, area):
    curve_path = tmp_path / "curve.json"
    curve_path.write_text(json.dumps({"breakpoints": breakpoints}))
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "sweep", "--family", "curve-file", "--sizes", "10..12",
                         "--curve", str(curve_path), "--out", str(out_path))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert f"has area {area}," in err
    assert not out_path.exists()


def test_sweep_byte_stable(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--family", "staircase", "--sizes", "3..40", "--seed", "9",
            "--samples", "50", "--exact-limit", "10"]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_empty_sizes(tmp_path, capsys):
    out_path = tmp_path / "empty.csv"
    code, _, _ = run(capsys, "sweep", "--family", "square", "--sizes", "",
                     "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().strip() == "n,W,W_scaled,W_integral,C,C_stderr,C_integral,C_over_W"


def test_sweep_rejects_unsorted_sizes(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--family", "square", "--sizes", "9,4",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 2 and "ascending" in err


def test_config_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("tol = 0.01\n# comment\nsamples = 10\n")
    code, out, _ = run(capsys, "--config", str(cfg), "limit", "--curve", "square",
                       "--integral", "W")
    assert code == 0
    code2, out2, _ = run(capsys, "--config", str(cfg), "limit", "--curve", "square",
                         "--integral", "W", "--tol", "1e-5")
    assert code2 == 0
    assert abs(float(out2) - 1.0) < 1e-3

    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    code, _, err = run(capsys, "--config", str(bad), "worst", "--shape", "1")
    assert code == 2 and "config" in err


def test_config_loses_to_explicit_flag_in_any_form(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("samples = 3\nenumeration_cutoff = 3\n")
    sweep = ["sweep", "--family", "square", "--sizes", "36", "--exact-limit", "1"]
    csvs = {}
    for name, flags in [("plain", ["--samples", "50"]), ("abbrev", ["--samp", "50"]),
                        ("equals", ["--samples=50"]), ("config", [])]:
        out = tmp_path / f"{name}.csv"
        assert run(capsys, "--config", str(cfg), *sweep, *flags, "--out", str(out))[0] == 0
        csvs[name] = out.read_bytes()
    assert run(capsys, *sweep, "--samples", "3", "--out", str(tmp_path / "three.csv"))[0] == 0
    assert csvs["config"] == (tmp_path / "three.csv").read_bytes() != csvs["plain"]
    assert csvs["abbrev"] == csvs["equals"] == csvs["plain"]

    exact = ["--config", str(cfg), "exact", "--shape", "2,2", "--method", "brute"]
    for flags in (["--cut", "9"], ["--cutoff=9"]):
        code, out, _ = run(capsys, *exact, *flags)
        assert code == 0 and out.startswith("11/6")
    code, _, err = run(capsys, *exact)
    assert code == 2 and "enumeration cutoff 3" in err

    cfg.write_text("samples = many\n")
    code, _, err = run(capsys, "--config", str(cfg), *sweep, "--out", str(tmp_path / "x.csv"))
    assert code == 2 and err.startswith("error: ") and "'samples'" in err and "'many'" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "square", "--sizes", "4", "--out", "{missing}/x.csv"],
    ["--config", "{missing}/lab.cfg", "verify"],
    ["sweep", "--family", "curve-file", "--curve", "{missing}/curve.json", "--sizes", "4",
     "--out", "{missing}/x.csv"],
], ids=["sweep-out", "config", "sweep-curve"])
def test_unopenable_file_is_usage_error(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing")
    code, _, err = run(capsys, *(a.replace("{missing}", missing) for a in argv))
    assert code == 2 and missing in err


@pytest.mark.parametrize("argv,config,named", [
    (["sweep", "--family", "square", "--sizes", "9..4", "--out", "{tmp}/x.csv"], None, None),
    (["sweep", "--family", "square", "--sizes", "4", "--jobs", "0", "--out", "{tmp}/x.csv"], None,
     None),
    (["sweep", "--family", "square", "--sizes", "4", "--jobs", "-1", "--out", "{tmp}/x.csv"],
     None, None),
    (["verify", "--jobs", "0"], None, None),
    (["verify", "--jobs", "-1"], None, None),
    (["verify"], "jobs = 0\n", None),
    (["sweep", "--family", "square", "--sizes", "4", "--out", "{tmp}/x.csv"], "jobs = -1\n",
     None),
    (["sweep", "--family", "square", "--sizes", "4", "--out", "{tmp}/x.csv"], "samples = many\n",
     None),
    (["sweep", "--family", "square", "--sizes", "0..4", "--out", "{tmp}/x.csv"], None, "size 0 "),
    (["sweep", "--family", "staircase", "--sizes", "0..4", "--out", "{tmp}/x.csv"], None,
     "size 0 "),
    (["sweep", "--family", "two-row", "--sizes", "0..4", "--out", "{tmp}/x.csv"], None,
     "size 0 "),
    (["sweep", "--family", "curve-file", "--curve", "flat", "--sizes", "0",
      "--out", "{tmp}/x.csv"], None, "size 0 "),
    (["sweep", "--family", "square", "--sizes=-4..4", "--out", "{tmp}/x.csv"], None, "size -4 "),
], ids=["reversed-range", "sweep-jobs-0", "sweep-jobs-negative", "verify-jobs-0",
        "verify-jobs-negative", "config-jobs-0", "config-jobs-negative",
        "config-samples-unparsable", "square-size-0", "staircase-size-0", "two-row-size-0",
        "curve-file-size-0", "square-size-negative"])
def test_bad_argument_is_usage_error(tmp_path, capsys, argv, config, named):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if config is not None:
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(config)
        argv = ["--config", str(cfg)] + argv
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not (tmp_path / "x.csv").exists()
    if named is not None:
        assert named in err


def test_verify_fast(capsys):
    code, out, _ = run(capsys, "verify", "--level", "fast")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "all 12 checks passed" in out


def test_verify_reports_first_failure(capsys, monkeypatch):
    from npslab.verify import CheckResult

    def broken(level):
        return [CheckResult("good-check", True, "fine", 0.0),
                CheckResult("broken-check", False, "invariant violated", 0.0)]

    monkeypatch.setattr("npslab.cli.run_suite", broken)
    code, out, err = run(capsys, "verify", "--level", "fast")
    assert code == 1
    assert "[FAIL] broken-check" in out
    assert "broken-check" in err and "invariant violated" in err


@pytest.mark.parametrize("error", [WitnessConstructionError, AssertionError],
                         ids=["witness", "assertion"])
def test_self_check_failure_is_verification_failure(capsys, monkeypatch, error):
    def broken(shape):
        raise error("self-check failed")

    monkeypatch.setattr("npslab.cli.worst_case_witness", broken)
    code, out, err = run(capsys, "worst", "--shape", "2,2", "--witness")
    assert (code, out, err) == (1, "", "error: self-check failed\n")


@pytest.mark.parametrize("error,line", [
    (RuntimeError("lost state"), "error: internal: RuntimeError: lost state"),
    (KeyError("missing"), "error: internal: KeyError: 'missing'"),
    (RuntimeError("two\nlines"), "error: internal: RuntimeError: two lines"),
], ids=["runtime", "key", "multiline"])
def test_program_fault_exits_1_in_one_line(capsys, monkeypatch, error, line):
    def broken(args):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "worst", broken)
    code, out, err = run(capsys, "worst", "--shape", "2,2")
    assert (code, out, err) == (1, "", line + "\n")
    assert "Traceback" not in err


def test_cli_import_leaves_process_pool_unloaded(tmp_path):
    # nor does a sweep with --jobs 2 and Monte Carlo rows: no code starts a process
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    sweep = ["sweep", "--family", "square", "--sizes", "4..16", "--exact-limit", "4",
             "--samples", "20", "--jobs", "2", "--out", str(tmp_path / "x.csv")]
    code = ("import sys, npslab, npslab.cli; "
            "loaded = 'concurrent.futures.process' in sys.modules; "
            f"assert npslab.cli.main({sweep!r}) == 0; "
            "print(loaded, 'concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=env)
    assert proc.returncode == 0 and proc.stdout.endswith("False False\n"), proc.stderr


def test_cli_import_leaves_numpy_unloaded():
    # numpy is imported by the commands that draw, not by importing the package
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, npslab, npslab.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=env)
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


def test_sweep_jobs_do_not_change_output(tmp_path, capsys):
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    args = ["sweep", "--family", "square", "--sizes", "4..50", "--seed", "1",
            "--samples", "40", "--exact-limit", "10"]
    assert run(capsys, *args, "--out", str(one))[0] == 0
    assert run(capsys, *args, "--jobs", "3", "--out", str(two))[0] == 0
    assert one.read_bytes() == two.read_bytes()


def test_verify_jobs_do_not_change_output(capsys):
    outputs = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "verify", "--level", "fast", "--jobs", jobs)
        assert code == 0
        outputs.append(re.sub(r"\(\d+\.\d\ds\)", "(SECONDS)", out))
    assert outputs[0] == outputs[1]
    assert outputs[0].count("(SECONDS)") == 12
