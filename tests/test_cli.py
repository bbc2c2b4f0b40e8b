import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from npslab import cli, curves, two_row
from npslab.cli import main
from npslab.complexity import WitnessConstructionError, average_case_chicago, worst_case
from npslab.curves import LimitCurve, partition_boundary
from npslab.integrals import DEFAULT_TOL, avg_lower_integral, worst_case_integral
from npslab.nps import DEFAULT_ENUMERATION_CUTOFF
from npslab.partitions import Partition
from npslab.sampling import estimate_avg_case


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
    # refused before a table of 10**9 cells
    (["worst", "--shape", "1000000000"],
     "1000000000 has 1000000000 cells, above the worst-case budget of 1000000"),
    # the table of 10**5 cells is built, the witness refused before its sort
    (["worst", "--shape", "100000", "--witness"],
     "100000 needs W = 4999950000 exchanges, above the witness budget of 10000000"),
], ids=["enumeration-cutoff", "sorted-orders", "work", "subdiagrams", "uniformity-classes",
        "worst-cells", "worst-witness-exchanges"])
def test_size_guards_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.rstrip("\n").endswith(message)


@pytest.mark.parametrize("argv", [
    ["sample", "--shape", "3,2", "--draws", "201"],
    ["sample", "--shape", "3,2", "--draws", "201", "--uniformity"],
    # the 4x4 row is sampled, above --exact-limit
    ["sweep", "--family", "square", "--sizes", "16", "--samples", "63", "--exact-limit", "4"],
], ids=["sample", "sample-uniformity", "sweep-samples"])
def test_draw_budget_exits_2(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setattr("npslab.sampling.MAX_DRAW_ENTRIES", 1_000)
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.rstrip("\n").endswith(
        "exceed the budget of MAX_DRAW_ENTRIES = 1000 draw entries")


@pytest.mark.parametrize("command", ["exact", "sweep"])
def test_two_row_budget_exits_2_before_any_work(capsys, monkeypatch, tmp_path, command):
    # a budget of 10: a second part of 11 is refused before the closed form
    # or the sweep's integrals run, and 10 is admitted
    out_path = tmp_path / "x.csv"

    def argv(lam2):
        if command == "exact":
            return ["exact", "--shape", f"30,{lam2}", "--method", "two-row"]
        return ["sweep", "--family", "two-row", "--param", str(lam2), "--sizes", "20..30",
                "--out", str(out_path)]

    monkeypatch.setattr(two_row, "MAX_SECOND_PART", 10)
    with monkeypatch.context() as patch:
        patch.setattr(two_row, "s0_direct", lambda *a: pytest.fail("closed form before the guard"))
        patch.setattr(cli, "imbalanced_integrals",
                      lambda *a, **k: pytest.fail("integrals before the guard"))
        code, out, err = run(capsys, *argv(11))
    assert code == 2 and out == ""
    assert err.rstrip("\n").endswith("exceeds the two-row budget of MAX_SECOND_PART = 10"), err
    assert not out_path.exists()
    code, _, _ = run(capsys, *argv(10))
    assert code == 0


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


def test_block_draws_keep_monte_carlo_output(tmp_path, capsys, monkeypatch, one_row_blocks):
    runs = [
        ["sample", "--shape", "3,2", "--draws", "2000", "--seed", "3"],
        ["sample", "--shape", "3,2", "--draws", "2000", "--seed", "3", "--uniformity"],
        ["sweep", "--family", "staircase", "--sizes", "3..12", "--seed", "9",
         "--samples", "600", "--exact-limit", "4", "--out", str(tmp_path / "x.csv")],
    ]

    def outputs():
        return [run(capsys, *argv) for argv in runs] + [(tmp_path / "x.csv").read_bytes()]

    blocks = outputs()
    monkeypatch.setattr("npslab.sampling._draw_blocks", one_row_blocks)
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


def test_curve_file_sweep_builds_one_segment_table(tmp_path, capsys, monkeypatch):
    # the file curve builds its segment table once, and every fit and both
    # integrals read that table: no other is built during the sweep
    curve_path = tmp_path / "curve.json"
    partition_boundary(Partition([4, 2]), 6).to_file(curve_path)
    built, read = [], []
    segments = curves._Segments

    def counted(*fields):
        built.append(segments(*fields))
        return built[-1]

    def reading(function):
        def call(curve, *args, **kwargs):
            read.append(curve._segments)
            return function(curve, *args, **kwargs)
        return call

    monkeypatch.setattr(curves, "_Segments", counted)
    for name in ("_deepest_cells", "worst_case_integral", "avg_lower_integral"):
        monkeypatch.setattr(cli, name, reading(getattr(cli, name)))
    code, _, _ = run(capsys, "sweep", "--family", "curve-file", "--sizes", "10..20",
                     "--curve", str(curve_path), "--out", str(tmp_path / "cf.csv"))
    assert code == 0 and len(read) == 11 + 2
    assert len(built) == 1 and all(table is built[0] for table in read)


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


def _cli_workload_sweeps(tmp_path, seed):
    """The four sweeps of perfbench's `cli` workload at its default length,
    as (family, argv) pairs."""
    curve_path = tmp_path / "boundary.json"
    partition_boundary(Partition([4, 2]), 6).to_file(curve_path)
    common = ["--exact-limit", "20", "--seed", str(seed), "--jobs", "1"]
    return [
        ("curve-file", ["--sizes", "10..30", "--curve", str(curve_path)] + common),
        ("square", ["--sizes", "4..100"] + common),
        ("staircase", ["--sizes", "1..45"] + common),
        ("two-row", ["--sizes", "100..250", "--param", "5"] + common),
    ]


def test_cli_workload_sweeps_are_pinned(tmp_path, capsys):
    # sha256 of each CSV, Monte Carlo columns included, as written before
    # the sweeps sorted their Monte Carlo rows in one lane batch
    pinned = {
        "curve-file": "91454c51839b845cb8a7df3db1772b4de6517901fdb1743cddcc8e4fd762ee9a",
        "square": "4a1a53848256bf157cc3c8d7719ef6bbaf1cf5aca5b3794d5c9809b120236c0a",
        "staircase": "105376b6c078cf5c38d921ecdd11782a22b3c4bf70e289acb8ef10dd054db2a9",
        "two-row": "b4f3fb4e4de304587eb02dfd04f361fab617c8176c5cf34a755422618e517d73",
    }
    digests = {}
    for family, argv in _cli_workload_sweeps(tmp_path, seed=1):
        out_path = tmp_path / f"{family}.csv"
        assert run(capsys, "sweep", "--family", family, *argv, "--out", str(out_path))[0] == 0
        digests[family] = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digests == pinned


def test_sweep_sorts_its_monte_carlo_rows_in_one_call(tmp_path, capsys, monkeypatch):
    # each Monte Carlo row equals `estimate_avg_case` of its shape at the
    # sweep's seed, by `float.hex`, though the sweep's 800 to 2,000 draws
    # take the lanes and each row's 200 alone the scalar sift
    calls = []
    estimate_avg_cases = cli.estimate_avg_cases

    def recorded(shapes, m, seed):
        estimates = estimate_avg_cases(shapes, m, seed)
        calls.append((shapes, m, seed, estimates))
        return estimates

    monkeypatch.setattr(cli, "estimate_avg_cases", recorded)
    for family, argv in _cli_workload_sweeps(tmp_path, seed=3)[:3]:
        del calls[:]
        out_path = tmp_path / f"{family}.csv"
        assert run(capsys, "sweep", "--family", family, *argv, "--out", str(out_path))[0] == 0
        (shapes, m, seed, estimates), = calls
        assert (m, seed, len(shapes) * m >= 800) == (200, 3, True)
        with open(out_path, newline="", encoding="utf-8") as fh:
            sampled = [row for row in csv.DictReader(fh) if row["C_stderr"]]
        assert [int(row["n"]) for row in sampled] == [shape.size for shape in shapes]
        for row, shape, (mean, stderr) in zip(sampled, shapes, estimates):
            assert [x.hex() for x in estimate_avg_case(shape, m, seed)] == [mean.hex(),
                                                                             stderr.hex()]
            assert (row["C"], row["C_stderr"]) == (f"{mean:.12g}", f"{stderr:.12g}")


@pytest.mark.parametrize("samples, budget, message", [
    ("1", None, "need at least two samples"),
    # 200 draws of 25 and 36 cells fit; the 7x7 row is the first refused
    ("200", 7_200, "200 draws of 49 cells exceed the budget of MAX_DRAW_ENTRIES = 7200 draw "
                   "entries"),
], ids=["one-sample", "over-budget-row"])
def test_sweep_refuses_a_monte_carlo_row_before_any_draw(tmp_path, capsys, monkeypatch, samples,
                                                        budget, message):
    def no_draws(*args):
        raise AssertionError("drew before the refusal")

    monkeypatch.setattr("npslab.sampling._draw_blocks", no_draws)
    if budget is not None:
        monkeypatch.setattr("npslab.sampling.MAX_DRAW_ENTRIES", budget)
    out_path = tmp_path / "x.csv"
    assert run(capsys, "sweep", "--family", "square", "--sizes", "4..100", "--exact-limit", "20",
               "--samples", samples, "--out", str(out_path)) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


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


@pytest.mark.parametrize("sizes", ["1..11", "1,2,3,4,5,6,7,8,9,10,11", "5..1000000000000000"])
def test_sweep_refuses_sizes_over_the_budget(tmp_path, capsys, monkeypatch, sizes):
    # the sizes are counted before any list of them is built and before the
    # family's integrals: a budget of 10, a range that refuses to hold more
    # than 10 values and a family that must not be built
    def bounded_range(*args):
        values = range(*args)
        assert len(values) <= 10, "built a range of sizes over the budget"
        return values

    family = cli._sweep_family
    monkeypatch.setattr(cli, "MAX_SWEEP_SIZES", 10, raising=False)
    monkeypatch.setattr(cli, "range", bounded_range, raising=False)
    monkeypatch.setattr(cli, "_sweep_family", lambda args: pytest.fail("family built first"))
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "sweep", "--family", "square", "--sizes", sizes,
                         "--out", str(out_path))
    assert code == 2 and out == "" and "sizes exceed the sweep budget of 10" in err, err
    assert not out_path.exists()
    monkeypatch.setattr(cli, "_sweep_family", family)
    code, _, _ = run(capsys, "sweep", "--family", "square", "--sizes", "1..10",
                     "--out", str(out_path))
    assert code == 0 and out_path.read_text().count("\n") == 4


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


CONFIGURABLE = {
    "sweep": ["sweep", "--family", "square", "--sizes", "4", "--out", "x.csv"],
    "verify": ["verify"],
    "exact": ["exact", "--shape", "1"],
    "limit": ["limit", "--curve", "square", "--integral", "W"],
}


def _configured(capsys, monkeypatch, *prefix):
    """Per command, the values main hands it for the four config flags."""
    seen = {}

    def record(args):
        seen[args.command] = {k: getattr(args, k, None) for k in ("tol", "jobs", "samples", "cutoff")}
        return 0

    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(CONFIGURABLE, record))
    for argv in CONFIGURABLE.values():
        assert run(capsys, *prefix, *argv)[0] == 0
    return seen


def test_config_does_not_outlive_its_call(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("tol = 0.5\njobs = 3\nsamples = 7\nenumeration_cutoff = 4\n")
    defaults = _configured(capsys, monkeypatch)
    assert _configured(capsys, monkeypatch, "--config", str(cfg)) == {
        "sweep": {"tol": 0.5, "jobs": 3, "samples": 7, "cutoff": None},
        "verify": {"tol": None, "jobs": 3, "samples": None, "cutoff": None},
        "exact": {"tol": None, "jobs": None, "samples": None, "cutoff": 4},
        "limit": {"tol": 0.5, "jobs": None, "samples": None, "cutoff": None}}
    assert _configured(capsys, monkeypatch) == defaults == {
        "sweep": {"tol": DEFAULT_TOL, "jobs": 1, "samples": 200, "cutoff": None},
        "verify": {"tol": None, "jobs": 1, "samples": None, "cutoff": None},
        "exact": {"tol": None, "jobs": None, "samples": None, "cutoff": DEFAULT_ENUMERATION_CUTOFF},
        "limit": {"tol": DEFAULT_TOL, "jobs": None, "samples": None, "cutoff": None}}


def test_one_parser_per_process(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("tol = 0.5\njobs = 3\nsamples = 7\nenumeration_cutoff = 4\n")
    cli._parser.cache_clear()
    try:
        for k in range(20):
            config = ["--config", str(cfg)] if k % 2 else []
            assert run(capsys, *config, "exact", "--shape", "2,1", "--method", "brute")[0] == 0
        assert cli._parser.cache_info().misses == 1
        # the parser the calls used still parses as a new one does
        used, new = cli._parser(), cli._parser.__wrapped__()
        for argv in CONFIGURABLE.values():
            parsed = vars(used.parse_args(argv))
            assert parsed == vars(new.parse_args(argv))
            assert all(parsed.get(k) is None for k in ("tol", "jobs", "samples", "cutoff"))
    finally:
        cli._parser.cache_clear()


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
    (["exact", "--shape", "5,5", "--cutoff", "-3", "--all"], None,
     "cutoff must be at least 0, got -3"),
    (["exact", "--shape", "5,5", "--all"], "enumeration_cutoff = -3\n",
     "cutoff must be at least 0, got -3"),
    (["verify"], "jobs 2\n", "bad config line 'jobs 2'"),
    (["sweep", "--family", "two-row", "--param", "0", "--sizes", "4", "--out", "{tmp}/x.csv"],
     None, "--param >= 1"),
    (["sweep", "--family", "curve-file", "--sizes", "4", "--out", "{tmp}/x.csv"], None,
     "needs --curve"),
    (["sweep", "--family", "square", "--sizes", "4..x", "--out", "{tmp}/x.csv"], None,
     "cannot parse sizes '4..x'"),
    (["exact", "--shape", "3,x"], None, "'x'"),
    (["sample", "--shape", "3,2", "--draws", "1"], None, "error: need at least two samples\n"),
    (["sample", "--shape", "3,2", "--uniformity", "--draws", "49"], None,
     "error: need m >= 50 draws for 5 classes\n"),
    (["sweep", "--family", "square", "--sizes", "36", "--exact-limit", "20", "--samples", "1",
      "--out", "{tmp}/x.csv"], None, "error: need at least two samples\n"),
    (["worst", "--shape", "", "--witness"], None,
     "error: cannot build a witness for the empty shape\n"),
], ids=["reversed-range", "sweep-jobs-0", "sweep-jobs-negative", "verify-jobs-0",
        "verify-jobs-negative", "config-jobs-0", "config-jobs-negative",
        "config-samples-unparsable", "square-size-0", "staircase-size-0", "two-row-size-0",
        "curve-file-size-0", "square-size-negative", "exact-cutoff-negative",
        "config-cutoff-negative", "config-line-without-equals", "two-row-param-0",
        "curve-file-without-curve", "sizes-unparsable", "shape-unparsable", "sample-one-draw",
        "uniformity-too-few-draws", "sweep-one-sample", "empty-shape-witness"])
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


def _witness_keys(out, err, tmp_path):
    doc = json.loads(out)
    assert (doc["witness"], doc["exchanges"], doc["worst_case"]) == ("4,2;3,1", 4, 4)


def _exact_to_limit(out, err, tmp_path):
    """Rows up to --exact-limit carry the exact C and no stderr; n = 36 is sampled."""
    assert out == f"wrote 5 rows to {tmp_path / 'sq.csv'}\n"
    lines = (tmp_path / "sq.csv").read_text().splitlines()
    rows = {int(r[0]): r for r in (line.split(",") for line in lines[1:])}
    assert sorted(rows) == [4, 9, 16, 25, 36]
    for n in (4, 9, 16, 25):
        m = math.isqrt(n)
        exact = float(average_case_chicago(Partition([m] * m)))
        assert (rows[n][4], rows[n][5]) == (f"{exact:.12g}", ""), n
    assert rows[36][5] != ""


def _disagreement(out, err, tmp_path):
    assert out == "" and err.startswith("method disagreement: brute=11/6, chicago=0, ")


@pytest.mark.parametrize("argv, patch, code, expect", [
    (["exact", "--shape", "3,1", "--method", "e-abs-h"], None, 0, "3/2 (~ 1.5)\n"),
    (["--format", "json", "worst", "--shape", "2,2", "--witness"], None, 0, _witness_keys),
    # CN_LOWER_VALUE to 12 digits
    (["limit", "--curve", "square", "--integral", "C"], None, 0, "0.295431453707\n"),
    (["limit", "--curve", "square", "--integral", "I1"], None, 0, "0.5\n"),
    (["limit", "--curve", "square", "--integral", "I2"], None, 0, "0.5\n"),
    (["sample", "--shape", "2,1", "--draws", "2000", "--seed", "3", "--uniformity"], None, 0,
     "chi_square=0.072 dof=1\n"),
    (["sweep", "--family", "square", "--sizes", "4..36", "--exact-limit", "30",
      "--out", "{tmp}/sq.csv"], None, 0, _exact_to_limit),
    (["exact", "--shape", "2,2", "--all"], ("average_case_chicago", lambda shape: Fraction(0)),
     1, _disagreement),
], ids=["e-abs-h", "json-witness", "limit-c", "limit-i1", "limit-i2", "sample-uniformity",
        "sweep-exact-limit", "exact-all-disagreement"])
def test_command_output(tmp_path, capsys, monkeypatch, argv, patch, code, expect):
    if patch is not None:
        monkeypatch.setattr(cli, *patch)
    got, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert got == code, err
    if callable(expect):
        expect(out, err, tmp_path)
    else:
        assert out == expect


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


def test_verify_honours_json_format(capsys, monkeypatch):
    code, out, _ = run(capsys, "--format", "json", "verify", "--level", "fast")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] == 12
    assert all(sorted(c) == ["detail", "name", "ok", "seconds"] for c in doc["checks"])
    _, text, _ = run(capsys, "verify", "--level", "fast")
    masked = [re.sub(r"\(\d+\.\d\ds\)", "", line) for line in text.splitlines()]
    assert masked == [f"[PASS] {c['name']} : {c['detail']}" for c in doc["checks"]] + [
        "all 12 checks passed"]
    from npslab.verify import CheckResult
    monkeypatch.setattr("npslab.cli.run_suite", lambda level: [
        CheckResult("good-check", True, "fine", 0.0),
        CheckResult("broken-check", False, "invariant violated", 0.5)])
    code, out, err = run(capsys, "--format", "json", "verify")
    assert code == 1 and err == "FAILED: broken-check: invariant violated\n"
    assert json.loads(out) == {"passed": 1, "checks": [
        {"name": "good-check", "ok": True, "detail": "fine", "seconds": 0.0},
        {"name": "broken-check", "ok": False, "detail": "invariant violated", "seconds": 0.5}]}


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


def test_library_value_error_is_a_program_fault(capsys, monkeypatch):
    # only a usage error or a size guard exits 2; any other ValueError is a fault
    def broken(shape):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "worst_case", broken)
    code, out, err = run(capsys, "worst", "--shape", "2,2")
    assert (code, out, err) == (1, "", "error: internal: ValueError: boom\n")


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


def test_verify_fast_leaves_numpy_unloaded():
    # only the full level's sampler-uniformity check draws through numpy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys; from npslab.verify import run_suite; "
            "results = run_suite('fast'); "
            "print(all(r.ok for r in results), 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0 and proc.stdout == "True False\n", proc.stderr


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
