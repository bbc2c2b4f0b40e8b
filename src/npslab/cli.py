"""Command-line harness: exact computation, worst-case reports, convergence
sweeps, verification suites, Monte Carlo sampling and curve integrals.

Exit codes: 0 success, 1 verification failure or program fault (one line,
no traceback), 2 usage error or size guard.  All output is deterministic
given flags and seed; CSV uses '.' decimals and stable float formatting, and
JSON carries exact fractions as "p/q" strings.
"""

import argparse
import csv
import json
import math
import sys
from functools import cache, partial

from . import two_row
from .complexity import (
    WitnessConstructionError,
    average_case_bruteforce,
    average_case_chicago,
    expected_hook_abs,
    worst_case,
    worst_case_witness,
)
from .curves import (
    FILE_TOLERANCE,
    LimitCurve,
    ScalingExponents,
    _deepest_cells,
    flat_top_curve,
    unit_square_curve,
)
from .integrals import (
    DEFAULT_TOL,
    avg_lower_integral,
    imbalanced_integrals,
    worst_case_integral,
)
from .nps import DEFAULT_ENUMERATION_CUTOFF
from .partitions import Partition, SizeGuardError
from .sampling import _check_draws, estimate_avg_case, estimate_avg_cases, syt_uniformity_test
from .verify import run_suite

__all__ = ["main"]

# The most sizes one sweep admits, counted before any work: a two-row sweep
# of 2..20001 took 8.8 s on a 2-vCPU Xeon, and the cost per size grows with n.
MAX_SWEEP_SIZES = 10**6


class UsageError(Exception):
    pass


def _fmt_float(value):
    return f"{value:.12g}"


def _parse_shape(text):
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_sizes(text):
    text = text.strip()
    ranged = ".." in text
    try:
        lo, hi = (int(v) for v in text.split("..")) if ranged else (1, text.count(",") + bool(text))
    except ValueError:
        raise UsageError(f"cannot parse sizes {text!r}") from None
    if ranged and hi < lo:
        raise UsageError("sizes must be strictly ascending")
    if hi - lo + 1 > MAX_SWEEP_SIZES:
        raise SizeGuardError(f"{hi - lo + 1} sizes exceed the sweep budget of {MAX_SWEEP_SIZES}")
    try:
        sizes = list(range(lo, hi + 1)) if ranged else [int(v) for v in text.split(",") if text]
    except ValueError:
        raise UsageError(f"cannot parse sizes {text!r}") from None
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise UsageError("sizes must be strictly ascending")
    if sizes and sizes[0] < 1:
        raise UsageError(f"size {sizes[0]} is below 1")
    return sizes


def _load_config(path):
    settings = {}
    if path is None:
        return settings
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}") from None
    with fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            settings[key] = value
    return settings


def _emit(args, document, text_lines):
    if args.format == "json":
        print(json.dumps(document, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- exact ---------------------------------------------------------------


def _exact_methods(shape, cutoff):
    methods = {"brute": lambda: average_case_bruteforce(shape, cutoff=cutoff),
               "chicago": lambda: average_case_chicago(shape)}
    if 1 <= len(shape.parts) <= 2:
        methods["two-row"] = lambda: two_row.c_closed(shape.row(1), shape.row(2))
    return methods


def _cmd_exact(args):
    shape = _parse_shape(args.shape)
    cutoff = args.cutoff
    methods = _exact_methods(shape, cutoff)
    if args.all:
        # brute force runs above the cutoff only when named
        values = {name: fn() for name, fn in methods.items()
                  if name != "brute" or shape.size <= cutoff}
        if len(set(values.values())) > 1:
            print("method disagreement: " + ", ".join(f"{k}={v}" for k, v in values.items()),
                  file=sys.stderr)
            return 1
        bound = expected_hook_abs(shape)
        doc = {"shape": str(shape),
               "methods": {k: str(v) for k, v in values.items()},
               "expected_abs_hook": str(bound)}
        lines = [f"{name}: {v} (~ {_fmt_float(float(v))})"
                 for name, v in values.items()]
        lines.append(f"e-abs-h (lower bound): {bound} (~ {_fmt_float(float(bound))})")
        _emit(args, doc, lines)
        return 0
    method = args.method or "chicago"
    if method == "e-abs-h":
        value = expected_hook_abs(shape)
    elif method in methods:
        value = methods[method]()
    else:
        raise UsageError(f"method {method!r} not applicable to shape {shape}")
    doc = {"shape": str(shape), "method": method, "value": str(value),
           "decimal": float(value)}
    _emit(args, doc, [f"{value} (~ {_fmt_float(float(value))})"])
    return 0


# -- worst ---------------------------------------------------------------


def _cmd_worst(args):
    shape = _parse_shape(args.shape)
    value = worst_case(shape)
    doc = {"shape": str(shape), "worst_case": value}
    lines = [str(value)]
    if args.witness:
        witness = worst_case_witness(shape)  # self-check raises on failure
        doc["witness"] = witness.format()
        doc["exchanges"] = value
        lines.append(witness.format())
        lines.append(f"exchanges={value}")
    _emit(args, doc, lines)
    return 0


# -- sweep ---------------------------------------------------------------


def _square_shape(n):
    m = math.isqrt(n)
    return Partition((m,) * m) if m * m == n else None


def _staircase_shape(n):
    m = int((math.isqrt(8 * n + 1) - 1) // 2)
    return Partition(range(m, 0, -1)) if m * (m + 1) // 2 == n else None


def _sweep_family(args):
    """(shape of size n or None, growth exponent, W and C integrals) of the family."""
    family = args.family
    tol = args.tol
    if family == "two-row":
        c = args.param
        if c < 1:
            raise UsageError("two-row family needs --param >= 1")
        if c > two_row.MAX_SECOND_PART:
            raise SizeGuardError(f"--param {c} exceeds the two-row budget of "
                                 f"MAX_SECOND_PART = {two_row.MAX_SECOND_PART}")

        def shape_for(n):
            return Partition((n - c, c)) if n >= 2 * c else None

        # In the one-sided scaling regime the leading coefficients are the
        # first diagonal integral and half of it.
        w_pred = imbalanced_integrals(unit_square_curve(), tol=tol)[0]
        exponents = ScalingExponents.from_pq(1, math.inf)
        return shape_for, float(exponents.growth_exponent), w_pred, w_pred / 2.0
    if family == "square":
        shape_for, curve = _square_shape, unit_square_curve()
    elif family == "staircase":
        shape_for, curve = _staircase_shape, flat_top_curve()
    else:  # curve-file, the one family argparse admits besides these
        if not args.curve:
            raise UsageError("curve-file family needs --curve")
        curve = _load_curve(args.curve)
        if abs(curve.area - 1) > FILE_TOLERANCE:
            raise UsageError(f"curve {args.curve!r} has area {float(curve.area):.12g}, not 1")
        shape_for = partial(_deepest_cells, curve)
    exponent = float(ScalingExponents.balanced().growth_exponent)
    return (shape_for, exponent, worst_case_integral(curve, tol=tol),
            avg_lower_integral(curve, tol=tol))


def _cmd_sweep(args):
    """Write the sweep's CSV.  Each row's shape, W and route are resolved in
    size order first: C exactly where feasible (two rows, or n up to
    --exact-limit), else by Monte Carlo, whose draw count and budget are
    checked at the row, so a refusal names the same row as when each row
    ran alone, before any draw.  Then all the Monte Carlo rows are sorted
    in one `estimate_avg_cases` call, one lane batch for the whole sweep
    where it fits, each row's draws those of `estimate_avg_case`."""
    sizes = _parse_sizes(args.sizes)
    shape_for, exponent, w_pred, c_pred = _sweep_family(args)
    resolved, sampled = [], []
    for n in sizes:
        shape = shape_for(n)
        if shape is None:
            continue
        if len(shape.parts) <= 2:
            c = float(two_row.c_closed(shape.parts[0], shape.row(2))), ""
        elif n <= args.exact_limit:
            c = float(average_case_chicago(shape)), ""
        else:
            _check_draws(shape, args.samples)
            c = None
            sampled.append(shape)
        resolved.append((n, worst_case(shape), c))
    estimates = iter(estimate_avg_cases(sampled, args.samples, args.seed))
    rows = [["n", "W", "W_scaled", "W_integral", "C", "C_stderr", "C_integral", "C_over_W"]]
    for n, w, c in resolved:
        if c is None:
            mean, stderr = next(estimates)
            c = mean, _fmt_float(stderr)
        c_value, c_err = c
        scale = float(n) ** exponent
        rows.append([
            str(n), str(w), _fmt_float(w / scale), _fmt_float(w_pred),
            _fmt_float(c_value), c_err, _fmt_float(c_pred),
            _fmt_float(c_value / w) if w else "",
        ])
    try:
        fh = open(args.out, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write output file {args.out!r}: {exc.strerror}") from None
    with fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    print(f"wrote {len(rows) - 1} rows to {args.out}")
    return 0


# -- verify --------------------------------------------------------------


def _cmd_verify(args):
    results = run_suite(args.level)
    failures = [r for r in results if not r.ok]
    lines = [f"[{'PASS' if r.ok else 'FAIL'}] {r.name} ({r.seconds:.2f}s): {r.detail}"
             for r in results]
    doc = {"checks": [r._asdict() for r in results], "passed": len(results) - len(failures)}
    _emit(args, doc, lines + ([] if failures else [f"all {len(results)} checks passed"]))
    if failures:
        print(f"FAILED: {failures[0].name}: {failures[0].detail}", file=sys.stderr)
        return 1
    return 0


# -- sample --------------------------------------------------------------


def _cmd_sample(args):
    shape = _parse_shape(args.shape)
    if args.uniformity:
        chi2, dof = syt_uniformity_test(shape, args.draws, args.seed)
        doc = {"shape": str(shape), "chi_square": chi2, "dof": dof,
               "draws": args.draws, "seed": args.seed}
        _emit(args, doc, [f"chi_square={_fmt_float(chi2)} dof={dof}"])
        return 0
    mean, stderr = estimate_avg_case(shape, args.draws, args.seed)
    doc = {"shape": str(shape), "mean": mean, "stderr": stderr,
           "draws": args.draws, "seed": args.seed}
    _emit(args, doc, [f"mean={_fmt_float(mean)} stderr={_fmt_float(stderr)}"])
    return 0


# -- limit ---------------------------------------------------------------

_BUILTIN_CURVES = {"square": unit_square_curve, "flat": flat_top_curve}


def _load_curve(name):
    builder = _BUILTIN_CURVES.get(name)
    if builder is not None:
        return builder()
    try:
        return LimitCurve.from_file(name)
    except OSError as exc:
        raise UsageError(f"cannot read curve file {name!r}: {exc}") from None
    except ValueError as exc:
        raise UsageError(f"invalid curve file {name!r}: {exc}") from None


def _cmd_limit(args):
    curve = _load_curve(args.curve)
    tol = args.tol
    if args.integral == "W":
        value = worst_case_integral(curve, tol=tol)
    elif args.integral == "C":
        value = avg_lower_integral(curve, tol=tol)
    else:  # I1 or I2, the two integrals argparse admits besides these
        pair = imbalanced_integrals(curve, tol=tol)
        value = pair[0] if args.integral == "I1" else pair[1]
    doc = {"curve": args.curve, "integral": args.integral, "value": value, "tol": tol}
    _emit(args, doc, [_fmt_float(value)])
    return 0


# -- parser --------------------------------------------------------------


@cache
def _parser():
    """The argument parser, built on the first call in a process and never
    changed afterwards: flags that a config file may supply default to
    None, and `main` fills them in on the parsed arguments."""
    parser = argparse.ArgumentParser(
        prog="npslab",
        description="Exact and asymptotic complexity laboratory for the "
                    "column-wise tableau sorting algorithm.")
    parser.add_argument("--config", help="key = value file with defaults")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact average-case values")
    p_exact.add_argument("--shape", required=True)
    p_exact.add_argument("--method", choices=("brute", "chicago", "two-row", "e-abs-h"))
    p_exact.add_argument("--all", action="store_true",
                         help="run every applicable method and assert agreement")
    p_exact.add_argument("--cutoff", type=int)

    p_worst = sub.add_parser("worst", help="worst-case value and witness")
    p_worst.add_argument("--shape", required=True)
    p_worst.add_argument("--witness", action="store_true")

    p_sweep = sub.add_parser("sweep", help="convergence sweep to CSV")
    p_sweep.add_argument("--family", required=True,
                         choices=("square", "two-row", "staircase", "curve-file"))
    p_sweep.add_argument("--sizes", required=True, help='"lo..hi" or comma list')
    p_sweep.add_argument("--param", type=int, default=5,
                         help="fixed second part for the two-row family")
    p_sweep.add_argument("--curve", help="curve file for the curve-file family")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--samples", type=int)
    p_sweep.add_argument("--exact-limit", type=int, default=30,
                         help="largest n computed exactly instead of sampled")
    p_sweep.add_argument("--tol", type=float)
    p_sweep.add_argument("--jobs", type=int)
    p_sweep.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--level", choices=("fast", "full"), default="fast")
    p_verify.add_argument("--jobs", type=int)

    p_sample = sub.add_parser("sample", help="Monte Carlo estimation")
    p_sample.add_argument("--shape", required=True)
    p_sample.add_argument("--draws", type=int, default=10_000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--uniformity", action="store_true",
                          help="chi-square uniformity test of sorted outputs")

    p_limit = sub.add_parser("limit", help="curve integrals")
    p_limit.add_argument("--curve", required=True,
                         help='curve file, or builtin "square"/"flat"')
    p_limit.add_argument("--integral", required=True, choices=("W", "C", "I1", "I2"))
    p_limit.add_argument("--tol", type=float)
    return parser


_HANDLERS = {
    "exact": _cmd_exact,
    "worst": _cmd_worst,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "limit": _cmd_limit,
}


# Config keys map to an argument name, its type and its built-in default.
# Each of these flags defaults to None in the parser, so a flag given in any
# form argparse accepts is not None and wins over the config file.
_CONFIG_KEYS = {
    "tol": ("tol", float, DEFAULT_TOL),
    "jobs": ("jobs", int, 1),
    "samples": ("samples", int, 200),
    "enumeration_cutoff": ("cutoff", int, DEFAULT_ENUMERATION_CUTOFF),
}


def _fill_defaults(args, settings):
    """Set each config flag of the command that no flag gave: from the
    config settings when they name it, else to its built-in default."""
    values = {name: default for name, _, default in _CONFIG_KEYS.values()}
    for key, raw in settings.items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        name, cast, _ = _CONFIG_KEYS[key]
        if hasattr(args, name):
            try:
                values[name] = cast(raw)
            except ValueError:
                raise UsageError(f"config key {key!r} needs {cast.__name__}, got {raw!r}") from None
    for name, value in values.items():
        if getattr(args, name, value) is None:
            setattr(args, name, value)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _fill_defaults(args, _load_config(args.config))
        for name, least in (("jobs", 1), ("cutoff", 0)):
            if getattr(args, name, least) < least:
                raise UsageError(f"{name} must be at least {least}, got {getattr(args, name)}")
        return _HANDLERS[args.command](args)
    except (UsageError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, WitnessConstructionError) as exc:
        # an internal self-check failed: a verification failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a program fault: one line, no traceback
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
