"""Time the operations of a perfbench `sift`, `limit` or `cli` pass in one
process, two checkouts in alternation.

    python3 tools/nps_ab.py PARENT CHANGE [--workload sift|limit|cli]
                            [--batches 5] [--rounds 10] [--seed 1]

PARENT and CHANGE are checkouts (repository roots).  Each one's
`src/npslab` is loaded under its own package name, `npslab_a` and
`npslab_b`, and then PARENT's once more as `npslab_c`, which works because
every import inside the package is relative.  A round times one pass of
each side over the operations of a pass at the workload's default length,
in the order A, B on even rounds and B, A on odd ones.  A `sift` pass (the
default) has five:

- `verify_bijection` on every shape of size 7;
- `nps_sort(random_tableau(7x7, SeededStream(seed, i)))` for i < 210;
- `estimate_avg_case` on 7x7 with 5,600 draws;
- `syt_uniformity_test` on (3,2) with 14,000 draws;
- `exchange_stats` on every shape of size <= 7.

A `limit` pass has five, on the curves of perfbench's `limit` workload:

- `partition_boundary` of (6,5,3,3,1), (4,3,1) and (3,3);
- `worst_case_integral` on the (4,3,1) boundary and the unit square;
- `imbalanced_integrals` on the (3,3) boundary and the unit square;
- `avg_lower_integral` on the (6,5,3,3,1) boundary and the unit square;
- `hook_distances` and `hook_coordinates` at 400 seeded points inside the
  (6,5,3,3,1) boundary, drawn as perfbench draws its probe points.

A `cli` pass runs `cli.main` on the commands of perfbench's `cli` workload,
its two seeded shapes fixed: the curve-file ((4,2) boundary, sizes 10..30),
square (4..100), staircase (1..45) and two-row (100..250) sweeps at
`--exact-limit 20`, then `exact --all`, `worst --witness`, `limit`,
`sample --uniformity` and `verify --level fast`.  Each operation returns its
exit code and standard output, a sweep's CSV bytes too; its working
directory and `verify`'s seconds are masked in the output.

The rounds run in K batches, each a B/A run of the rounds followed by an
A/A run, in which `npslab_a` is timed against `npslab_c`: the spread that
the host alone gives.  Both ratios set a package loaded earlier against one
loaded later, so the A/A ratio carries the bias of the load order that
B/A carries: identical code loaded later reads slower in both.  For each
operation and for the whole pass it prints each side's median milliseconds
over all rounds, the median and the quartiles of the per-round ratio B / A,
the ratio of the two sides' minimum times in each batch, and the median of
those batch minima, then the same for A/A.  The per-round ratio spreads
widely on a noisy host; the minima of interleaved runs spread less, but one
run's minimum still moves by several percent, so the median over the
batches of each batch's minimum ratio is the one to gate on.  Outputs are compared between the three packages once, before timing.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import random
import re
import statistics
import sys
import tempfile
from functools import partial
from pathlib import Path
from time import perf_counter

SIZE = 7
SORTS = 30 * SIZE
DRAWS = 800 * SIZE
TESTS = 2000 * SIZE
PROBES = 400


def load(checkout, name):
    """The package `src/npslab` of `checkout`, imported as `name`."""
    root = Path(checkout) / "src" / "npslab"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def sift_operations(pkg, seed):
    """The five operations of a `sift` pass over `pkg`, by name, each a
    function of no arguments that returns its outputs."""
    exchange_stats = importlib.import_module(pkg.__name__ + ".complexity").exchange_stats
    shapes = list(pkg.partitions_of(SIZE))
    smaller = [s for n in range(1, SIZE + 1) for s in pkg.partitions_of(n)]
    square = pkg.Partition((SIZE,) * SIZE)
    fillings = [pkg.random_tableau(square, pkg.SeededStream(seed, i)) for i in range(SORTS)]
    return {
        "verify_bijection": lambda: [pkg.verify_bijection(s) for s in shapes],
        "nps_sort": lambda: [pkg.nps_sort(f) for f in fillings],
        "estimate_avg_case": lambda: pkg.estimate_avg_case(square, DRAWS, seed),
        "syt_uniformity_test": lambda: pkg.syt_uniformity_test(pkg.Partition((3, 2)), TESTS, seed),
        "exchange_stats": lambda: [exchange_stats(s) for s in smaller],
    }


def limit_operations(pkg, seed):
    """The five operations of a `limit` pass over `pkg`, by name, each a
    function of no arguments that returns its outputs; the integrals and
    the probes read curves built once, as perfbench's do."""
    shapes = [(6, 5, 3, 3, 1), (4, 3, 1), (3, 3)]
    probe, distance, diagonal = (pkg.partition_boundary(pkg.Partition(p), sum(p)) for p in shapes)
    square = pkg.unit_square_curve()
    rng = random.Random(seed)
    (lo, _), (hi, _) = probe.breakpoints[0], probe.breakpoints[-1]
    points = []
    while len(points) < PROBES:
        x = rng.uniform(lo, hi)
        top = probe.value(x)
        if top - abs(x) > 1e-9:
            points.append((x, abs(x) + rng.uniform(0.02, 0.98) * (top - abs(x))))
    return {
        "partition_boundary": lambda: [pkg.partition_boundary(pkg.Partition(p), sum(p))
                                       for p in shapes],
        "worst_case_integral": lambda: [pkg.worst_case_integral(c, tol=1e-4)
                                        for c in (distance, square)],
        "imbalanced_integrals": lambda: [pkg.imbalanced_integrals(c, tol=1e-4)
                                         for c in (diagonal, square)],
        "avg_lower_integral": lambda: [pkg.avg_lower_integral(c, tol=1e-4)
                                       for c in (probe, square)],
        "probes": lambda: [(pkg.hook_distances(probe, p), pkg.hook_coordinates(probe, p))
                           for p in points],
    }


def cli_operations(pkg, seed, workdir):
    """The nine operations of a `cli` pass over `pkg`, by name, each a
    function of no arguments that returns its outputs; the sweeps write
    their CSV files and the curve file in `workdir`/`pkg.__name__`."""
    main = importlib.import_module(pkg.__name__ + ".cli").main
    root = workdir / pkg.__name__
    root.mkdir(parents=True)
    curve = root / "boundary.json"
    pkg.partition_boundary(pkg.Partition((4, 2)), 6).to_file(curve)

    def command(argv, csv_path=None):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            text = re.sub(r"\(\d+\.\d+s\)", "(s)", out.getvalue().replace(str(root), "DIR"))
            return code, text, csv_path.read_bytes() if csv_path else None
        return run

    ops = {}
    for family, sizes, extra in (("curve-file", "10..30", ["--curve", str(curve)]),
                                 ("square", "4..100", []), ("staircase", "1..45", []),
                                 ("two-row", "100..250", ["--param", "5"])):
        out = root / f"{family}.csv"
        ops[f"sweep {family}"] = command(
            ["sweep", "--family", family, "--sizes", sizes, "--exact-limit", "20",
             "--seed", str(seed), "--jobs", "1", "--out", str(out)] + extra, out)
    ops["exact --all"] = command(["exact", "--shape", "3,2,1,1", "--all"])
    ops["worst --witness"] = command(["worst", "--shape", "9,8,8,6,5,5,4,3,2,2,1,1",
                                      "--witness"])
    ops["limit C"] = command(["limit", "--curve", "square", "--integral", "C", "--tol", "1e-4"])
    ops["sample --uniformity"] = command(["sample", "--shape", "3,2", "--draws", "10000",
                                          "--seed", str(seed), "--uniformity"])
    ops["verify fast"] = command(["verify", "--level", "fast", "--jobs", "1"])
    return ops


def comparable(name, outputs):
    """The outputs with their package's types read as plain values."""
    if name == "verify_bijection":
        return [(r.shape.parts, r.distinct_pairs, r.expected, r.injective, r.each_syt_count,
                 r.uniform) for r in outputs]
    if name == "partition_boundary":
        return [(c.xs, c.ys, c.scale_sq) for c in outputs]
    if name == "nps_sort":
        return [(o.output.rows, o.hooks.rows, o.exchanges, [tuple(e) for e in o.trace])
                for o in outputs]
    return outputs


def timed_pass(ops):
    times = {}
    for name, op in ops.items():
        start = perf_counter()
        op()
        times[name] = perf_counter() - start
    times["pass"] = sum(times.values())
    return times


def timings(a_ops, b_ops, rounds):
    """Per name, the (A, B) times of every round."""
    out = {}
    for k in range(rounds):
        first, second = (a_ops, b_ops) if k % 2 == 0 else (b_ops, a_ops)
        t_first, t_second = timed_pass(first), timed_pass(second)
        t_a, t_b = (t_first, t_second) if k % 2 == 0 else (t_second, t_first)
        for name in t_a:
            out.setdefault(name, []).append((t_a[name], t_b[name]))
    return out


def report(title, batches):
    """`batches` holds one `timings` table per batch."""
    print(title)
    print(f"  {'operation':19s}  A ms     B ms     round B/A: median  quartiles     B faster"
          f"   minima B/A per batch, median")
    for name in batches[0]:
        pairs = [pair for table in batches for pair in table[name]]
        values = [b / a for a, b in pairs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        wins = sum(v < 1 for v in values)
        lows = [min(b for _, b in table[name]) / min(a for a, _ in table[name])
                for table in batches]
        a_ms, b_ms = (1e3 * statistics.median(side) for side in zip(*pairs))
        print(f"  {name:19s} {a_ms:7.2f}  {b_ms:7.2f}  {median:17.3f}  {q1:.3f}..{q3:.3f}  "
              f"{wins:4d}/{len(values):<4d}  {' '.join(f'{x:.3f}' for x in lows)}, "
              f"{statistics.median(lows):.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", choices=("sift", "limit", "cli"), default="sift")
    parser.add_argument("--batches", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=10, help="rounds per batch")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        operations = {"sift": sift_operations, "limit": limit_operations,
                      "cli": partial(cli_operations, workdir=Path(workdir))}[args.workload]
        a_ops = operations(load(args.parent, "npslab_a"), args.seed)
        b_ops = operations(load(args.change, "npslab_b"), args.seed)
        c_ops = operations(load(args.parent, "npslab_c"), args.seed)
        for name in a_ops:
            expected = comparable(name, a_ops[name]())
            for label, ops in (("CHANGE", b_ops), ("PARENT loaded again", c_ops)):
                if comparable(name, ops[name]()) != expected:
                    sys.exit(f"{name}: the outputs of PARENT and {label} differ")
        ab, aa = [], []
        for _ in range(args.batches):
            ab.append(timings(a_ops, b_ops, args.rounds))
            aa.append(timings(a_ops, c_ops, args.rounds))
    shape = f"{args.batches} batches of {args.rounds} rounds"
    report(f"B / A, {args.workload}, {shape}, seed {args.seed}", ab)
    report(f"A / A (PARENT loaded again as B), {args.workload}, {shape}", aa)


if __name__ == "__main__":
    main()
