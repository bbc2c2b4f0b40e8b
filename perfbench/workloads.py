"""The benchmark's four workloads.

Each workload turns a seed and a length into a list of operations.  An
operation makes one or two calls into npslab's public API (through the
tracer, so a traced pass records a span per call), computes its reference
once before any pass is timed, and checks every output against that
reference after the pass.  The seed drives the Monte Carlo streams, the
random fillings, the probe points and the extra shapes, each drawn from a set
of similar cost; the named shapes stay in every seed.
"""

import contextlib
import csv
import hashlib
import io
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Optional

from npslab import (
    Partition,
    SeededStream,
    average_case_bruteforce,
    average_case_chicago,
    avg_lower_integral,
    c_closed,
    estimate_avg_case,
    hook_coordinates,
    hook_distances,
    imbalanced_integrals,
    nps_sort,
    partition_boundary,
    random_tableau,
    syt_uniformity_test,
    unit_square_curve,
    verify_bijection,
    worst_case,
    worst_case_integral,
    worst_case_witness,
)
from npslab.cli import main as cli_main
# The one name taken from a submodule: npslab/__init__.py does not export it.
from npslab.nps import DEFAULT_ENUMERATION_CUTOFF

import oracles

DEFAULT_SEED = 1
# Largest subdiagram count handed to average_case_chicago.  At the parent
# commit a subdiagram costs about 0.7 ms, so the cap bounds one call near 15 s.
SUBDIAGRAM_CAP = 20_000
# Largest lengths of the workloads without a size guard in the package: the
# ROADMAP's curve-file sweep (sizes 10..60) and 2,000 probe points.
CLI_MAX_LENGTH = 60
LIMIT_MAX_LENGTH = 2_000
TOL = 1e-4
# Bounds that a correct sampler exceeds with probability below 1e-8.
Z_BOUND = 6.0
CHI2_BOUND_DOF4 = 50.0


class SizeGuardError(ValueError):
    """A seed or length would exceed a size guard of the package."""


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One workload operation: the parent of the spans its calls record."""

    name: str
    layer: str  # the layer charged when the operation fails
    run: Callable  # run(tracer) -> output
    check: Callable  # check(output, reference) -> {observation: value}
    reference: Callable = lambda: None  # computed once, outside the timed passes


@dataclass
class Workload:
    name: str
    why: str
    default_length: int
    min_length: int
    length_meaning: str
    build: Callable  # build(seed, length, workdir) -> list of Op
    # sha256 of the output documented as stable, at the default seed and length
    stable_digest: Optional[str] = None


def _guard_enumeration(size):
    if size > DEFAULT_ENUMERATION_CUTOFF:
        raise SizeGuardError(
            f"enumerating all fillings of size {size} exceeds "
            f"DEFAULT_ENUMERATION_CUTOFF = {DEFAULT_ENUMERATION_CUTOFF}")


def _guard_length(workload, length, largest):
    if length > largest:
        raise SizeGuardError(f"{workload} length {length} exceeds its largest, {largest}")


def _guard_subdiagrams(parts):
    """The subdiagram count of a shape given to average_case_chicago."""
    count = oracles.subdiagram_count(parts)
    if count > SUBDIAGRAM_CAP:
        raise SizeGuardError(f"shape {parts} has {count} subdiagrams; "
                             f"average_case_chicago is capped at {SUBDIAGRAM_CAP}")
    return count


def _random_parts(rng, rows, largest):
    return tuple(sorted((rng.randint(1, largest) for _ in range(rows)), reverse=True))


def _check_exact(value, reference):
    expect(isinstance(value, (int, Fraction)), f"{value!r} is not exact")
    expect(value == reference, f"got {value}, reference {reference}")
    return {}


def _check_quadrature(metric):
    def check(value, reference):
        values, references = _as_tuple(value), _as_tuple(reference)
        expect(len(values) == len(references), f"{value} does not match the shape of {reference}")
        err = max(abs(v - r) for v, r in zip(values, references))
        expect(err <= TOL, f"{value} differs from reference {reference} by {err:.3e} > tol {TOL}")
        return {metric: err, "integral_err": err}
    return check


def _as_tuple(value):
    return value if isinstance(value, tuple) else (value,)


# -- sift ------------------------------------------------------------------


def _check_sort(output, _):
    filling, outcome = output
    rows, exchanges = oracles.nps_sort(filling.rows)
    expect(sorted(v for r in filling.rows for v in r) == list(range(1, filling.shape.size + 1)),
           "random filling is not a bijection onto 1..n")
    expect(outcome.output.rows == rows, f"sorted output differs from the sift oracle on {filling}")
    expect(outcome.exchanges == exchanges,
           f"{outcome.exchanges} exchanges, the sift oracle counts {exchanges}")
    return {}


def _check_bijection(report, n_fillings):
    expect(report.injective and report.uniform,
           f"bijection report not injective/uniform: {report.distinct_pairs} pairs")
    expect(report.distinct_pairs == report.expected == n_fillings,
           f"{report.distinct_pairs} pairs, expected {n_fillings}")
    return {}


def _check_estimate(output, exact):
    mean, stderr = output
    expect(stderr > 0, f"standard error {stderr} is not positive")
    z = abs(mean - float(exact)) / stderr
    expect(z <= Z_BOUND, f"mean {mean} is {z:.2f} standard errors from the exact {float(exact)}")
    return {"sampling.estimate_avg_case.z": z}


def _check_uniformity(output, dof):
    chi2, got_dof = output
    expect(got_dof == dof, f"dof {got_dof}, expected {dof}")
    expect(chi2 < CHI2_BOUND_DOF4, f"chi-square {chi2} above {CHI2_BOUND_DOF4}")
    return {}


def build_sift(seed, length, workdir):
    n_max = length
    _guard_enumeration(n_max + 1)
    rng = random.Random(seed)
    ops = []
    for n in range(1, n_max + 1):
        for parts in oracles.partitions(n):
            ops.append(_bruteforce_op(Partition(parts)))
    # Extra shapes of the next size, drawn from those with two or more rows
    # and columns, whose enumeration costs are alike.
    extra = [p for p in oracles.partitions(n_max + 1) if len(p) > 1 and p[0] > 1]
    for parts in rng.sample(extra, 2):
        ops.append(_bruteforce_op(Partition(parts)))
    for shape in map(Partition, oracles.partitions(n_max)):
        ops.append(Op(f"bijection {shape}", "nps",
                      lambda t, s=shape, k=factorial(n_max): t.call("nps.verify_bijection", k,
                                                                    verify_bijection, s),
                      _check_bijection,
                      lambda s=shape: factorial(s.size)))
    square7 = Partition((7,) * 7)
    for i in range(30 * length):
        stream = SeededStream(seed, i)

        def run(t, stream=stream):
            filling = t.call("sampling.random_tableau", 1, random_tableau, square7, stream)
            return filling, t.call("nps.nps_sort", 1, nps_sort, filling)

        ops.append(Op(f"sort filling {i}", "nps", run, _check_sort))
    draws = 800 * length
    ops.append(Op("estimate 7x7", "sampling",
                  lambda t: t.call("sampling.estimate_avg_case", draws,
                                   estimate_avg_case, square7, draws, seed),
                  _check_estimate, lambda: oracles.average_case(square7.parts)))
    tests = 2000 * length
    ops.append(Op("uniformity 3,2", "sampling",
                  lambda t: t.call("sampling.syt_uniformity_test", tests,
                                   syt_uniformity_test, Partition((3, 2)), tests, seed),
                  _check_uniformity, lambda: 4))
    return ops


def _bruteforce_op(shape):
    def reference():
        exact = oracles.average_case(shape.parts)
        # the package's other exact routes must agree as well
        routes = [average_case_chicago(shape)]
        if len(shape.parts) <= 2:
            routes.append(c_closed(shape.parts[0], shape.row(2)))
        if any(r != exact for r in routes):
            raise CheckFailed(f"exact routes {routes} disagree with the oracle {exact} on {shape}")
        return exact

    sorts = factorial(shape.size)
    return Op(f"bruteforce {shape}", "complexity",
              lambda t: t.call("complexity.average_case_bruteforce", sorts,
                               average_case_bruteforce, shape),
              _check_exact, reference)


# -- exact -----------------------------------------------------------------

# sha256 of the "p/q" form of c_closed(1200, 600).  A two-row lattice-path
# evaluation of the harmonic formula gave the same Fraction in 34 s, too
# long to repeat in every run.
C_CLOSED_BIG = (1200, 600)
C_CLOSED_BIG_SHA256 = "a97acee2f398c19a963d2fb094d7a27a01e9109c98a8fc31983120597166edfa"


def _fraction_digest(value):
    return hashlib.sha256(f"{value.numerator}/{value.denominator}".encode()).hexdigest()


def _check_big_closed(value, _):
    expect(0 < value < oracles.worst_case(C_CLOSED_BIG),
           f"c_closed{C_CLOSED_BIG} = {float(value)} outside (0, W)")
    expect(_fraction_digest(value) == C_CLOSED_BIG_SHA256,
           f"c_closed{C_CLOSED_BIG} digest {_fraction_digest(value)} differs from the reference")
    return {}


def _check_witness(output, reference):
    parts, want = reference
    w, witness = output
    expect(w == want, f"W = {w}, the cell sum gives {want}")
    expect(tuple(len(r) for r in witness.rows) == parts
           and sorted(v for r in witness.rows for v in r) == list(range(1, sum(parts) + 1)),
           f"witness {witness} is not a filling of {parts}")
    _, exchanges = oracles.nps_sort(witness.rows)
    expect(exchanges == want, f"witness takes {exchanges} exchanges, W = {want}")
    return {}


def build_exact(seed, length, workdir):
    m = length
    rng = random.Random(seed)
    target = comb(2 * m, m)
    # The extra shape has m rows, like the square, and a subdiagram count
    # within 10% of the square's, so its cost is alike for every seed.
    extra = None
    for _ in range(10_000):
        parts = _random_parts(rng, m, m + 2)
        near = abs(oracles.subdiagram_count(parts) - target) <= target // 10
        if near and parts != oracles.square(m):
            extra = parts
            break
    if extra is None:
        raise SizeGuardError(f"no shape with {m} rows has about {target} subdiagrams")
    ops = []
    for parts in (oracles.square(m), oracles.square(m - 1), oracles.staircase(m), extra):
        count = _guard_subdiagrams(parts)
        shape = Partition(parts)
        ops.append(Op(f"chicago {shape}", "complexity",
                      lambda t, s=shape, c=count: t.call("complexity.average_case_chicago", c,
                                                         average_case_chicago, s),
                      _check_exact, lambda p=parts: oracles.average_case(p)))
    pairs = [(n - k, k) for n in range(40, 201, 40) for k in (n // 8, n // 4, 3 * n // 8, n // 2)]
    for _ in range(4):
        n = rng.randint(150, 200)
        k = rng.randint(n // 8, n // 2)
        pairs.append((n - k, k))
    for lam in pairs:
        ops.append(Op(f"c_closed {lam}", "two_row",
                      lambda t, lam=lam: t.call("two_row.c_closed", 1, c_closed, *lam),
                      _check_exact, lambda lam=lam: oracles.average_case(lam)))
    ops.append(Op(f"c_closed {C_CLOSED_BIG}", "two_row",
                  lambda t: t.call("two_row.c_closed", 1, c_closed, *C_CLOSED_BIG),
                  _check_big_closed))
    witnesses = [oracles.staircase(30)] + [_random_parts(rng, 30, 30) for _ in range(3)]
    for parts in witnesses:
        shape = Partition(parts)

        def run(t, s=shape):
            return (t.call("complexity.worst_case", 1, worst_case, s),
                    t.call("complexity.worst_case_witness", 1, worst_case_witness, s))

        ops.append(Op(f"witness {shape}", "complexity", run, _check_witness,
                      lambda p=parts: (p, oracles.worst_case(p))))
    return ops


# -- limit -----------------------------------------------------------------

PROBE_SHAPE = (6, 5, 3, 3, 1)  # probe points and the lower-bound integral
DISTANCE_SHAPE = (4, 3, 1)  # the distance integral
DIAGONAL_SHAPE = (3, 3)  # the two diagonal integrals


def _check_boundary(curve, points):
    xs = sorted({x for x, _ in points} | {x for x, _ in curve.breakpoints})
    gap = max(abs(curve.value(x) - oracles.gamma(points, x)) for x in xs)
    expect(gap <= 1e-12, f"boundary curve is {gap:.3e} away from the profile")
    return {}


def _check_probe(output, reference):
    (a, l, d), (s, t) = output
    x, (ra, rl, rd) = reference
    root2 = math.sqrt(2.0)
    errors = (a - ra, l - rl, d - rd, s - (x - rl / root2), t - (x + ra / root2))
    expect(max(map(abs, errors)) <= 1e-9, f"hook distances {(a, l, d)} and coordinates {(s, t)} "
           f"differ from the oracle {(ra, rl, rd)}")
    return {}


def _interior_points(points, count, rng):
    """Points strictly inside the region between |x| and the curve."""
    lo, hi = points[0][0], points[-1][0]
    out = []
    while len(out) < count:
        x = rng.uniform(lo, hi)
        top = oracles.gamma(points, x)
        if top - abs(x) > 1e-9:
            out.append((x, abs(x) + rng.uniform(0.02, 0.98) * (top - abs(x))))
    return out


def build_limit(seed, length, workdir):
    _guard_length("limit", length, LIMIT_MAX_LENGTH)
    rng = random.Random(seed)
    shapes = (PROBE_SHAPE, DISTANCE_SHAPE, DIAGONAL_SHAPE)
    curves = {parts: partition_boundary(Partition(parts), sum(parts)) for parts in shapes}
    square = unit_square_curve()
    probe_points = oracles.boundary_points(PROBE_SHAPE)
    ops = []
    for parts in shapes:
        ops.append(Op(f"boundary {parts}", "curves",
                      lambda t, p=parts: t.call("curves.partition_boundary", 1,
                                                partition_boundary, Partition(p), sum(p)),
                      _check_boundary, lambda p=parts: oracles.boundary_points(p)))
    integrals = (
        ("worst_case_integral", worst_case_integral, DISTANCE_SHAPE,
         lambda: oracles.cellwise_w_integral(DISTANCE_SHAPE)),
        ("worst_case_integral", worst_case_integral, None, lambda: 1.0),
        ("imbalanced_integrals", imbalanced_integrals, DIAGONAL_SHAPE,
         lambda: oracles.imbalanced_integrals(oracles.boundary_points(DIAGONAL_SHAPE))),
        ("imbalanced_integrals", imbalanced_integrals, None, lambda: (0.5, 0.5)),
        ("avg_lower_integral", avg_lower_integral, PROBE_SHAPE,
         lambda: oracles.avg_lower_integral(probe_points)),
        ("avg_lower_integral", avg_lower_integral, None, lambda: oracles.AVG_LOWER_UNIT_SQUARE),
    )
    for name, fn, parts, reference in integrals:
        span = "integrals." + name
        curve = square if parts is None else curves[parts]
        where = "unit square" if parts is None else f"boundary {parts}"
        ops.append(Op(f"{name} {where}", "integrals",
                      lambda t, s=span, f=fn, c=curve: t.call(s, 1, f, c, tol=TOL),
                      _check_quadrature(span + ".err"), reference))
    curve = curves[PROBE_SHAPE]
    for i, (x, y) in enumerate(_interior_points(probe_points, length, rng)):
        def run(t, p=(x, y)):
            return (t.call("curves.hook_distances", 1, hook_distances, curve, p),
                    t.call("curves.hook_coordinates", 1, hook_coordinates, curve, p))

        ops.append(Op(f"probe point {i}", "curves", run, _check_probe,
                      lambda x=x, y=y: (x, oracles.hook_distances(probe_points, x, y))))
    return ops


# -- cli -------------------------------------------------------------------

CURVE_FILE_SHAPE = (4, 2)
EXACT_LIMIT = 20
TWO_ROW_PARAM = 5
_SECONDS = re.compile(r"\(\d+\.\d+s\)")
# sha256 of the stable CLI output at the default seed and length: the exact
# --all and worst --witness output, the n, W and exact C sweep columns of the
# square, staircase and two-row families, and verify with its seconds masked.
CLI_STABLE_SHA256 = "a4fbcc2c515fb298c404bcc2d8660711a715dbaccc56e8bffd38a521316b3f29"


def run_cli(argv):
    """npslab.cli.main in process, with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _cli_op(name, layer, span, work, argv, check, reference=lambda: None, csv_path=None):
    def run(t):
        code, text = t.call(span, work, run_cli, argv)
        if csv_path is None:
            return code, text, None
        with open(csv_path, encoding="utf-8") as fh:
            return code, text, fh.read()

    def checked(output, ref):
        code, text, table = output
        expect(code == 0, f"npslab {' '.join(argv)} exited {code}")
        return check(text if table is None else table, ref)

    return Op(name, layer, run, checked, reference)


def _sweep_shapes(family, sizes):
    """(n, shape) for each row the sweep writes; the shape is None for the
    curve-file family, whose partitions the command fits itself."""
    rows = []
    for n in sizes:
        if family == "square":
            m = math.isqrt(n)
            parts = oracles.square(m) if m * m == n else None
        elif family == "staircase":
            m = (math.isqrt(8 * n + 1) - 1) // 2
            parts = oracles.staircase(m) if m * (m + 1) // 2 == n else None
        elif family == "two-row":
            parts = (n - TWO_ROW_PARAM, TWO_ROW_PARAM) if n >= 2 * TWO_ROW_PARAM else None
        else:
            rows.append((n, None))
            continue
        if parts is not None:
            rows.append((n, parts))
    return rows


def _sweep_reference(family, sizes):
    """Per row (n, exact W, exact C), None where no reference is taken, and
    the references of the W_integral and C_integral columns."""
    rows = []
    for n, parts in _sweep_shapes(family, sizes):
        if parts is None:
            rows.append((n, None, None))
            continue
        # two-row rows are all exact; every tenth is checked against the oracle
        checked = n % 10 == 0 if family == "two-row" else n <= EXACT_LIMIT
        exact = oracles.average_case(parts) if checked else None
        rows.append((n, oracles.worst_case(parts), exact))
    if family == "square":
        integrals = (1.0, oracles.AVG_LOWER_UNIT_SQUARE)
    elif family == "staircase":
        integrals = (oracles.W_INTEGRAL_FLAT, oracles.AVG_LOWER_FLAT)
    elif family == "two-row":
        # the one-sided regime reports I1 of the unit square, and half of it
        integrals = (0.5, 0.25)
    else:
        integrals = (oracles.cellwise_w_integral(CURVE_FILE_SHAPE),
                     oracles.avg_lower_integral(oracles.boundary_points(CURVE_FILE_SHAPE)))
    return rows, integrals


def _check_sweep(table, reference):
    rows, (w_ref, c_ref) = reference
    got = list(csv.DictReader(io.StringIO(table)))
    expect([int(r["n"]) for r in got] == [n for n, _, _ in rows],
           f"sweep rows {[r['n'] for r in got]} differ from the admissible sizes")
    err = 0.0
    for r, (n, w, c) in zip(got, rows):
        value, stderr, w_got = float(r["C"]), r["C_stderr"], int(r["W"])
        expect(w is None or w_got == w, f"n={n}: W = {w_got}, the cell sum gives {w}")
        expect(0 <= value <= w_got, f"n={n}: C = {value} outside [0, W = {w_got}]")
        if stderr:
            expect(float(stderr) > 0, f"n={n}: Monte Carlo row without a positive stderr")
        elif c is not None:
            expect(abs(value - float(c)) <= 1e-10 * max(1.0, float(c)),
                   f"n={n}: C = {value}, the oracle gives {float(c)}")
        for column, ref in (("W_integral", w_ref), ("C_integral", c_ref)):
            err = max(err, abs(float(r[column]) - ref))
    expect(err <= TOL, f"integral columns differ from their references by {err:.3e} > tol {TOL}")
    seen = {"integral_err": err}
    if rows and rows[0][1] is not None:  # curve-file rows depend on the fitted partitions
        seen["stable"] = _stable_columns(got)
    return seen


def _stable_columns(rows):
    """n, W and the exact C values: the sweep columns documented as stable."""
    return "\n".join(f"{r['n']},{r['W']},{r['C'] if not r['C_stderr'] else ''}" for r in rows)


def _parse_fraction(text):
    return Fraction(text.split(" ")[0])


def _check_exact_all(text, reference):
    exact, hook_bound = reference
    lines = dict(line.split(": ", 1) for line in text.strip().splitlines())
    expect({"brute", "chicago"} <= set(lines), f"methods missing from {sorted(lines)}")
    for method, value in lines.items():
        want = hook_bound if method.startswith("e-abs-h") else exact
        expect(_parse_fraction(value) == want, f"{method}: {value}, the oracle gives {want}")
    return {"stable": text}


def _check_worst(text, parts):
    w, witness, exchanges = text.strip().splitlines()
    want = oracles.worst_case(parts)
    rows = tuple(tuple(int(v) for v in row.split(",")) for row in witness.split(";"))
    expect(int(w) == want and exchanges == f"exchanges={want}", f"W reported as {w}, {exchanges}; "
           f"the cell sum gives {want}")
    expect(tuple(map(len, rows)) == parts, f"witness {witness} does not have shape {parts}")
    expect(oracles.nps_sort(rows)[1] == want, f"witness {witness} does not take {want} exchanges")
    return {"stable": text}


def _check_limit(text, _):
    err = abs(float(text) - oracles.AVG_LOWER_UNIT_SQUARE)
    expect(err <= TOL, f"limit C = {text.strip()}, reference {oracles.AVG_LOWER_UNIT_SQUARE}")
    return {"integral_err": err}


def _check_sample(text, _):
    fields = dict(item.split("=") for item in text.split())
    return _check_uniformity((float(fields["chi_square"]), int(fields["dof"])), 4)


def _check_verify(text, _):
    lines = text.strip().splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    expect(not failed and lines[-1].startswith("all "), f"verify reported {failed or lines[-1:]}")
    return {"stable": _SECONDS.sub("(s)", text)}


def build_cli(seed, length, workdir):
    _guard_length("cli", length, CLI_MAX_LENGTH)
    rng = random.Random(seed)
    curve_path = os.path.join(workdir, "boundary.json")
    partition_boundary(Partition(CURVE_FILE_SHAPE), sum(CURVE_FILE_SHAPE)).to_file(curve_path)
    sweeps = (
        ("curve-file", range(10, length + 1), ["--curve", curve_path]),
        ("square", range(4, 101), []),
        ("staircase", range(1, 46), []),
        ("two-row", range(100, 251), ["--param", str(TWO_ROW_PARAM)]),
    )
    ops = []
    for family, sizes, extra in sweeps:
        out = os.path.join(workdir, f"{family}.csv")
        argv = (["sweep", "--family", family, "--sizes", f"{sizes.start}..{sizes.stop - 1}",
                 "--exact-limit", str(EXACT_LIMIT), "--seed", str(seed), "--jobs", "1",
                 "--out", out] + extra)
        ops.append(_cli_op(f"sweep {family}", "cli", f"cli.sweep.{family}",
                           len(_sweep_shapes(family, sizes)), argv, _check_sweep,
                           lambda f=family, s=sizes: _sweep_reference(f, s), csv_path=out))
    exact_shape = rng.choice(list(oracles.partitions(7)))
    witness_shape = _random_parts(rng, 12, 12)
    shape_text = lambda p: ",".join(map(str, p))
    ops.append(_cli_op("exact --all", "cli", "cli.exact", 1,
                       ["exact", "--shape", shape_text(exact_shape), "--all"], _check_exact_all,
                       lambda: (oracles.average_case(exact_shape),
                                oracles.expected_hook_abs(exact_shape))))
    ops.append(_cli_op("worst --witness", "cli", "cli.worst", 1,
                       ["worst", "--shape", shape_text(witness_shape), "--witness"],
                       _check_worst, lambda: witness_shape))
    ops.append(_cli_op("limit C", "cli", "cli.limit", 1,
                       ["limit", "--curve", "square", "--integral", "C", "--tol", str(TOL)],
                       _check_limit))
    draws = 10_000
    ops.append(_cli_op("sample --uniformity", "cli", "cli.sample", draws,
                       ["sample", "--shape", "3,2", "--draws", str(draws), "--seed", str(seed),
                        "--uniformity"], _check_sample))
    ops.append(_cli_op("verify fast", "verify", "cli.verify", 1,
                       ["verify", "--level", "fast", "--jobs", "1"], _check_verify))
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("sift", "n! enumeration, random fillings and Monte Carlo: the sift kernel does "
                 "almost all the work; no exact engine or quadrature runs",
                 7, 3, "largest size enumerated over all shapes", build_sift),
        Workload("exact", "harmonic formula over subdiagrams, two-row closed forms and witnesses: "
                 "exact engines in Fractions and big integers, no sift enumeration",
                 6, 3, "side of the largest square given to average_case_chicago", build_exact),
        Workload("limit", "limit integrals and hook distances on partition boundaries: curves and "
                 "quadrature only, no sorting or exact counting",
                 400, 50, "number of seeded probe points", build_limit),
        Workload("cli", "the README commands in process: sweeps, exact, worst, limit, sample and "
                 "verify; the only workload that runs cli and verify code",
                 30, 12, "largest size of the curve-file sweep", build_cli, CLI_STABLE_SHA256),
    )
}
