"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each criterion runs the shared checks of `npslab.verify` at values no smaller
than those of `verify --level full`.  Criterion 6, the Monte Carlo leg of
criterion 8 and the named equality shapes of criterion 10 are checked here
only.  The corrupted-table test shows that every check reading the
brute-force table fails when the table is wrong, and the last tests run the
README's library example and its command lines.
"""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from npslab import two_row, verify
from npslab.cli import main
from npslab.complexity import (
    average_case_bruteforce,
    average_case_chicago,
    expected_hook_abs,
    max_case_bruteforce,
    worst_case,
)
from npslab.curves import LimitCurve, flat_top_curve
from npslab.partitions import Partition
from npslab.sampling import estimate_avg_case
from npslab.two_row import c_closed, c_double_sums, c_equal_rows, c_fixed_distance
from npslab.verify import CN_LOWER_VALUE


def report(number, *results):
    """Print the criterion's line from its (ok, detail) results and assert."""
    ok = all(passed for passed, _ in results)
    detail = "; ".join(text for _, text in results)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_harmonic_formula_oracle(brute):
    report(1, verify.check_chicago(brute))


def test_criterion_02_worst_case(brute):
    report(2, verify.check_worst(brute), verify.check_witness_random(424242))


def test_criterion_03_bijectivity():
    report(3, verify.check_bijection(7))


def test_criterion_04_two_row_theorem(brute):
    report(4, verify.check_two_row_theorem(30, brute))


def test_criterion_05_representation_identities():
    report(5, verify.check_s0_representations(50, 25))


def test_criterion_06_specific_values():
    bad = []
    for parts, expected in (((2, 1), Fraction(2, 3)), ((2, 2), Fraction(11, 6)),
                            ((1, 1), Fraction(1, 2))):
        shape = Partition(parts)
        lam1, lam2 = parts
        values = {
            "brute": average_case_bruteforce(shape),
            "chicago": average_case_chicago(shape),
            "closed": c_closed(lam1, lam2),
            "double-sums": c_double_sums(lam1, lam2),
            "fixed-distance": c_fixed_distance(lam2, lam1 - lam2),
        }
        if lam1 == lam2:
            values["equal-rows"] = c_equal_rows(lam2)
        bad += [f"{name} gives {v} on {shape}" for name, v in values.items() if v != expected]
    for parts, expected in (((2, 2), 4), ((2, 1), 1)):
        shape = Partition(parts)
        if not worst_case(shape) == max_case_bruteforce(shape) == expected:
            bad.append(f"W({shape}) != {expected}")
    report(6, (not bad, "C((2,1)) = 2/3, C((2,2)) = 11/6, C((1,1)) = 1/2, W((2,2)) = 4, "
                        "W((2,1)) = 1 by every applicable route" + (f"; {bad}" if bad else "")))


def test_criterion_07_distance_integral_identity():
    report(7, verify.check_wn_identity(10), verify.check_square_family())


def test_criterion_08_average_lower_bound():
    below = []
    for m, samples in ((10, 400), (20, 200), (30, 120)):
        mean, stderr = estimate_avg_case(Partition((m,) * m), samples, seed=20260809)
        scale = (m * m)**1.5
        if mean / scale <= CN_LOWER_VALUE - 3 * stderr / scale:
            below.append(m * m)
    report(8, verify.check_cn_value(),
           (not below, "Monte Carlo averages for squares n=100,400,900 exceed it minus 3 stderr"
                       + (f"; not at n={below}" if below else "")))


def test_criterion_09_imbalanced_scaling():
    report(9, verify.check_cw_imbalanced())


def test_criterion_10_expected_hook_bound(brute):
    # The check finds equality exactly on the hook shapes (no 2x2 box), e.g.
    # both sides are 3/2 on (3,1); the smallest ones are named here too.
    named = [Partition(p) for p in ((2,), (1, 1), (2, 1))]
    missing = [s for s in named if average_case_bruteforce(s) != expected_hook_abs(s)]
    report(10, verify.check_eh_bound(brute),
           (not missing, "equality on (2), (1,1), (2,1)"
                         + (f"; not on {missing}" if missing else "")))


def test_criterion_11_conjugation_symmetry(brute):
    report(11, verify.check_conjugation(brute))


def test_criterion_12_sampler_uniformity():
    report(12, verify.check_uniformity((1, 2, 3, 4, 5)))


@pytest.mark.parametrize("check, field", [
    (verify.check_chicago, 0),
    (verify.check_worst, 1),
    (lambda table: verify.check_two_row_theorem(1, table), 0),
    (verify.check_eh_bound, 0),
    (verify.check_conjugation, 0),
], ids=["chicago", "worst", "two-row", "eh-bound", "conjugation"])
def test_check_fails_on_corrupted_brute_table(brute, check, field):
    shape = Partition([3, 1])
    stats = list(brute[shape])
    stats[field] += 1
    ok, detail = check({**brute, shape: tuple(stats)})
    assert not ok
    assert re.search(r"(?<![\d,])3,1(?!,?\d)", detail), detail


def _off_at(fn, point):
    """`fn` with its value one higher at the arguments `point` only."""
    return lambda *args: fn(*args) + (args == point)


def _swapped_at(fn, point, args):
    """`fn` called with `args` in place of the arguments `point`."""
    return lambda *given: fn(*(args if given == point else given))


def _harmonic_off_at(fn, n):
    """`_harmonic_numerators` with D H_n one higher when called with `n`."""
    def off(m):
        lcd, scaled = fn(m)
        return lcd, scaled[:-1] + [scaled[-1] + (m == n)]
    return off


def _pairs_short_at(fn, shape):
    """`verify_bijection` reporting one distinct pair fewer on `shape`."""
    def short(s):
        report = fn(s)
        return report._replace(distinct_pairs=report.distinct_pairs - (s == shape))
    return short


def _one_more_exchange_at(fn, shape):
    """`nps_sort` reporting one more exchange on fillings of `shape`."""
    def more(tableau):
        outcome = fn(tableau)
        return outcome._replace(exchanges=outcome.exchanges + (tableau.shape == shape))
    return more


def _swapped_fn_at(fn, shape, other):
    """`fn` with `other` called in its place on `shape` only."""
    return lambda s: other(s) if s == shape else fn(s)


_S0_CLEAN = "S0 representations, equal-rows, fixed-distance and sum identities agree"
_EH_CLEAN = "lower bound holds, strict off hooks; 10 equality shapes, all hooks"


@pytest.mark.parametrize("check, clean, owner, name, fault, named", [
    (lambda: verify.check_s0_representations(5, 4), _S0_CLEAN, two_row, "s0_nested",
     lambda fn: _off_at(fn, (4, 2)), "nested S0 differ at (4,2)"),
    (lambda: verify.check_s0_representations(5, 4), _S0_CLEAN, two_row, "c_equal_rows",
     lambda fn: _off_at(fn, (3,)), "equal-rows formula fails at lam2=3"),
    (lambda: verify.check_s0_representations(5, 4), _S0_CLEAN, two_row, "c_fixed_distance",
     lambda fn: _off_at(fn, (2, 3)), "fixed-distance formula fails at (lam2=2, delta=3)"),
    (lambda: verify.check_s0_representations(5, 4), _S0_CLEAN, verify, "harmonic",
     lambda fn: _off_at(fn, (3,)), "equal-rows S0 special case fails at lam2=3"),
    (lambda: verify.check_s0_representations(5, 4), _S0_CLEAN, verify, "_harmonic_numerators",
     lambda fn: _harmonic_off_at(fn, 3), "companion identity (nested sum) fails at lam2=3"),
    (lambda: verify.check_bijection(5), "bijection certified on 18 shapes up to size 5", verify,
     "verify_bijection", lambda fn: _pairs_short_at(fn, Partition([3, 1, 1])),
     "bijection certification failed on 3,1,1:"),
    # the last of the 20 shapes that seed 20170515 draws
    (lambda: verify.check_witness_random(20170515),
     "witness construction verified on 20 random shapes up to size 40", verify, "nps_sort",
     lambda fn: _one_more_exchange_at(fn, Partition([6, 3, 2, 2, 1, 1, 1, 1])),
     "not W, on 6,3,2,2,1,1,1,1"),
    (verify.check_square_family, "square family trend and unit-square integral verified",
     verify, "worst_case", lambda fn: _off_at(fn, (Partition([3, 3, 3]),)),
     "square worst case 19 != m^3 - m^2 at m=3"),
    (verify.check_square_family, "square family trend and unit-square integral verified",
     verify, "partition_boundary",
     lambda fn: _swapped_at(fn, (Partition([3, 3, 3]), 9), (Partition([4, 3, 2]), 9)),
     "3x3 boundary does not collapse"),
    (verify.check_square_family, "square family trend and unit-square integral verified",
     verify, "worst_case_integral", lambda fn: lambda curve: fn(curve) + 1e-9,
     "unit-square distance integral"),
    (lambda: verify.check_wn_identity(4),
     "discrete distance identity exact for all shapes up to size 4", verify, "worst_case",
     lambda fn: _off_at(fn, (Partition([2, 1]),)), "cell-wise integral 8 != 10 on 2,1"),
    (verify.check_cn_value, "lower-bound integral = 0.29543", verify, "avg_lower_integral",
     lambda fn: lambda curve: fn(curve) + 1e-9, "lower-bound integral 0.2954"),
    (verify.check_cw_imbalanced, "imbalanced ratio 0.499995, integrals (0.5000, 0.5000)", verify,
     "imbalanced_integrals", lambda fn: lambda curve: [v + 1e-9 for v in fn(curve)],
     "unit-square diagonal integrals"),
    (lambda: verify.check_uniformity((1,)), "chi-square 2.310 below 18.467 with dof 4", verify,
     "syt_uniformity_test", lambda fn: lambda shape, draws, seed: (100.0, 4),
     "chi-square 100.0 at seed 1 above"),
    # C(4, 1) is the first binomial of lam2 = 3 and no binomial of a smaller lam2
    (lambda: verify.check_s0_representations(5, 4), _S0_CLEAN, verify, "comb",
     lambda fn: _off_at(fn, (4, 1)), "binomial half-weight identity fails at lam2=3"),
    # L = lcm(1 C(3, 1), 2 C(4, 2)) = 12 at lam2 = 2; 13 leaves L / (i b_i) inexact
    (lambda: verify.check_s0_representations(5, 4), _S0_CLEAN, verify, "lcm",
     lambda fn: _off_at(fn, (3, 12)), "companion identity (plain sum) fails at lam2=2"),
    (lambda: verify.check_eh_bound(verify.brute_table(4)), _EH_CLEAN, verify,
     "expected_hook_abs", lambda fn: _off_at(fn, (Partition([2, 1]),)),
     "average 2/3 below expected |H| 5/3 on 2,1"),
    (lambda: verify.check_eh_bound(verify.brute_table(4)), _EH_CLEAN, verify,
     "expected_hook_abs", lambda fn: lambda shape: fn(shape) - (shape == Partition([3, 1])),
     "expected equality on the hook shape 3,1"),
    (lambda: verify.check_eh_bound(verify.brute_table(4)), _EH_CLEAN, verify,
     "expected_hook_abs", lambda fn: _swapped_fn_at(fn, Partition([2, 2]), average_case_chicago),
     "strictness fails on shapes containing a 2x2 box: [Partition([2, 2])]"),
    (verify.check_cn_value, "lower-bound integral = 0.29543", verify, "worst_case_integral",
     lambda fn: lambda curve: 0.5, "lower bound not below half the worst-case integral"),
    (verify.check_cw_imbalanced, "imbalanced ratio 0.499995, integrals (0.5000, 0.5000)", verify,
     "worst_case", lambda fn: lambda shape: 2 * fn(shape), "not within 0.01 of 1/2"),
    # the mirror of the unit square read as the flat top, whose integrals are sqrt(2)/3
    (verify.check_cw_imbalanced, "imbalanced ratio 0.499995, integrals (0.5000, 0.5000)",
     LimitCurve, "mirrored", lambda fn: lambda curve: flat_top_curve(),
     "mirroring does not swap the diagonal integrals"),
    (lambda: verify.check_uniformity((1,)), "chi-square 2.310 below 18.467 with dof 4", verify,
     "syt_uniformity_test", lambda fn: lambda shape, draws, seed: (2.0, 3), "unexpected dof 3"),
], ids=["s0-nested", "equal-rows", "fixed-distance", "equal-rows-harmonic",
        "companion-nested-harmonic", "bijection", "witness-random", "square-worst",
        "square-boundary", "square-integral", "wn-identity", "cn-value", "imbalanced",
        "uniformity", "binomial-half-weight", "companion-plain", "eh-below", "eh-hook-strict",
        "eh-box-equality", "cn-not-below-half-w", "imbalanced-ratio", "imbalanced-mirror",
        "uniformity-dof"])
def test_verify_check_fails_on_faulty_route(monkeypatch, check, clean, owner, name, fault, named):
    assert check() == (True, clean)
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    ok, detail = check()
    assert ok is False and named in detail, detail


def test_run_suite_refuses_an_unknown_level():
    with pytest.raises(ValueError, match="unknown level 'medium'"):
        verify.run_suite("medium")


def test_run_suite_reports_a_crash_as_a_failure(monkeypatch):
    def crash(*args):
        raise RuntimeError("lost state")

    monkeypatch.setattr(verify, "check_cn_value", crash)
    results = {r.name: r for r in verify.run_suite("fast")}
    assert (results["average-lower-integral"].ok,
            results["average-lower-integral"].detail) == (False, "RuntimeError: lost state")
    assert all(r.ok for name, r in results.items() if name != "average-lower-integral")


def test_run_suite_full_level_runs_every_check():
    results = verify.run_suite("full")
    assert [r.name for r in results] == [
        "harmonic-formula-oracle", "worst-case-tightness", "worst-case-witness-random",
        "bijection-certification", "two-row-theorem", "s0-representations",
        "expected-hook-lower-bound", "conjugation-symmetry", "distance-integral-identity",
        "square-family-trend", "average-lower-integral", "imbalanced-scaling",
        "sampler-uniformity"]
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]
    assert results[-1].detail == "chi-square 2.310 below 18.467 with dof 4"


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def _readme_commands():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("npslab ")]


@pytest.mark.parametrize("line", _readme_commands(),
                         ids=lambda line: line.split("#")[0].strip())
def test_readme_command(tmp_path, capsys, line):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:]
    if "--out" in argv:
        k = argv.index("--out") + 1
        argv[k] = str(tmp_path / argv[k])
    assert main(argv) == 0
    quoted = re.search(r'"(.*)"', comment)
    if quoted:
        assert capsys.readouterr().out == quoted.group(1) + "\n"
