"""Run one workload of the npslab benchmark and print its metrics.

    python3 perfbench/run.py --workload sift --seed 1 --seconds 20 --trace 0

The run is closed-loop and single-process: one caller makes every call into
the package, each starting after the previous one finished.  It imports
npslab from the `src` directory next to this one, builds the workload's
inputs and references, runs one untimed warm-up pass, then repeats passes for
`--seconds` and checks every output of every pass; an untraced run also times
a fresh interpreter's set-up after each pass.  `--trace 0` prints the
end-to-end metrics; `--trace 1` alternates untraced and traced passes and
prints the per-layer metrics taken from the spans.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Fewest fresh interpreters whose median is setup_s.  An untraced run times
# one after every pass, so the samples spread over the whole run instead of
# falling into one slow or fast spell of the host.
SETUP_REPEATS = 5

LAYERS = ("nps", "complexity", "two_row", "curves", "integrals", "sampling", "verify", "cli")
# Spans whose busy time is reported, as `<span>.busy_s`.
BUSY_SPANS = (
    "nps.nps_sort", "nps.verify_bijection",
    "complexity.average_case_bruteforce", "complexity.average_case_chicago",
    "complexity.worst_case_witness", "two_row.c_closed",
    "curves.hook_distances", "curves.hook_coordinates", "curves.partition_boundary",
    "integrals.worst_case_integral", "integrals.imbalanced_integrals",
    "integrals.avg_lower_integral",
    "sampling.estimate_avg_case", "sampling.syt_uniformity_test", "sampling.random_tableau",
    "cli.sweep.curve-file", "cli.sweep.square", "cli.sweep.staircase", "cli.sweep.two-row",
    "cli.exact", "cli.worst", "cli.limit", "cli.sample", "cli.verify",
)
SWEEPS = tuple(name for name in BUSY_SPANS if name.startswith("cli.sweep."))
# Work per busy second: metric name -> the spans whose work and time it sums.
RATES = {
    "nps.nps_sort.sorts_per_s": ("nps.nps_sort",),
    "nps.verify_bijection.fillings_per_s": ("nps.verify_bijection",),
    "complexity.average_case_bruteforce.sorts_per_s": ("complexity.average_case_bruteforce",),
    "complexity.average_case_chicago.subdiagrams_per_s": ("complexity.average_case_chicago",),
    "curves.hook_distances.points_per_s": ("curves.hook_distances",),
    "sampling.estimate_avg_case.draws_per_s": ("sampling.estimate_avg_case",),
    "cli.sweep.rows_per_s": SWEEPS,
}
# Largest value a check observed: metric name -> unit.
OBSERVED = {
    "integrals.worst_case_integral.err": "abs",
    "integrals.imbalanced_integrals.err": "abs",
    "integrals.avg_lower_integral.err": "abs",
    "integral_err": "abs",
    "sampling.estimate_avg_case.z": "sigma",
}
NO_WAIT_NOTE = ("no layer has wait time to record: the layers are single-threaded "
                "and have no queues, so every span is busy time")


def import_package():
    """Import npslab from this checkout's src directory, and nothing else."""
    sys.path[:0] = [SRC, HERE]
    try:
        import npslab
    except ImportError as exc:
        sys.exit(f"error: cannot import npslab from {SRC}: {exc}")
    if not os.path.abspath(npslab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: npslab was imported from {npslab.__file__}, not from {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--length", type=int,
                        help="workload size; see perfbench/README.md for each workload")
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit (times setup_s)")
    return parser.parse_args(argv)


def build(workload, seed, length, workdir):
    os.makedirs(workdir, exist_ok=True)
    return workload.build(seed, length, workdir)


def time_setup(args, length):
    """Wall time of a fresh interpreter that imports npslab and builds the
    workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload",
           args.workload, "--seed", str(args.seed), "--length", str(length)]
    start = time.perf_counter()
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"error: set-up run failed: {done.stderr.strip()}")
    return time.perf_counter() - start


def compute_references(ops):
    """One reference per operation; a reference that cannot be computed is
    kept as the exception, and fails the operation in every pass."""
    references = []
    for op in ops:
        try:
            references.append(op.reference())
        except Exception as exc:
            references.append(exc)
    return references


def run_pass(ops, tracer):
    outputs = []
    start = time.perf_counter()
    for op in ops:
        with tracer.operation(op.name):
            try:
                outputs.append(op.run(tracer))
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs.append(exc)
    return time.perf_counter() - start, outputs


class Tally:
    """Failures and check observations over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.layer_failed = dict.fromkeys(LAYERS, 0)
        self.observed = {}
        self.stable = None
        self.messages = []

    def check(self, ops, references, outputs):
        stable = []
        for op, ref, out in zip(ops, references, outputs):
            self.attempted += 1
            try:
                if isinstance(ref, Exception):
                    raise ref
                if isinstance(out, Exception):
                    raise out
                seen = op.check(out, ref)
            except Exception as exc:  # a wrong or malformed output fails the operation
                self.failed += 1
                self.layer_failed[op.layer] += 1
                if len(self.messages) < 5:
                    self.messages.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            for key, value in seen.items():
                if key == "stable":
                    stable.append(value)
                else:
                    self.observed[key] = max(self.observed.get(key, 0.0), value)
        self.stable = "\n".join(stable)


def provenance(args, length):
    import numpy
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "length": length,
        "seconds": args.seconds,
        "src_lines": src_lines(),
    }


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def src_lines():
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def layer_metrics(spans, traced_walls, untraced_walls, tally):
    """Per-layer metrics from the spans of the traced passes."""
    passes = sorted({s["pass"] for s in spans})
    busy = {p: {} for p in passes}
    work = {}
    total_busy = {}
    for s in spans:
        if s["name"].startswith("op."):
            continue
        took = s["end"] - s["start"]
        per = busy[s["pass"]]
        per[s["name"]] = per.get(s["name"], 0.0) + took
        total_busy[s["name"]] = total_busy.get(s["name"], 0.0) + took
        work[s["name"]] = work.get(s["name"], 0) + s["work"]
    metrics = {}
    for name in BUSY_SPANS:
        metrics[f"{name}.busy_s"] = (statistics.median(busy[p].get(name, 0.0) for p in passes), "s")
    for metric, names in RATES.items():
        seconds = sum(total_busy.get(n, 0.0) for n in names)
        count = sum(work.get(n, 0) for n in names)
        metrics[metric] = (count / seconds if seconds else 0.0, "1/s")
    chicago = "complexity.average_case_chicago"
    metrics[chicago + ".subdiagrams"] = (work.get(chicago, 0) // max(len(passes), 1), "count")
    for metric, unit in OBSERVED.items():
        metrics[metric] = (tally.observed.get(metric, 0.0), unit)
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (tally.layer_failed[layer], "count")
    overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}, "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    length = workload.default_length if args.length is None else args.length
    if length < workload.min_length:
        sys.exit(f"error: {args.workload} length must be at least {workload.min_length}")
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        try:
            if args.setup_only:
                build(workload, args.seed, length, workdir)
                return 0
            ops = build(workload, args.seed, length, workdir)
        except workloads.SizeGuardError as exc:
            sys.exit(f"error: {type(exc).__name__}: {exc}")
        return measure(args, workload, length, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, length, ops):
    import workloads
    from spans import Tracer, Untraced

    references = compute_references(ops)
    tally = Tally()
    untraced = Untraced()
    tracer = Tracer(uuid.uuid4().hex)
    _, outputs = run_pass(ops, untraced)  # warm-up: fills the package's caches
    tally.check(ops, references, outputs)
    walls = {False: [], True: []}
    setups = []
    start = time.perf_counter()
    elapsed = 0.0
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        tracer.pass_index = len(walls[True])
        wall, outputs = run_pass(ops, tracer if traced else untraced)
        walls[traced].append(wall)
        tally.check(ops, references, outputs)
        if not args.trace:
            setups.append(time_setup(args, length))
        step = time.perf_counter() - start - elapsed
        elapsed += step
        enough = walls[True] if args.trace else len(setups) >= SETUP_REPEATS
        if enough and elapsed + step > args.seconds:
            break

    at_default = args.seed == workloads.DEFAULT_SEED and length == workload.default_length
    digest_want = workload.stable_digest if at_default else None
    if digest_want is not None:
        tally.attempted += 1
        got = hashlib.sha256(tally.stable.encode()).hexdigest()
        if got != digest_want:
            tally.failed += 1
            tally.layer_failed["cli"] += 1
            tally.messages.append(f"stable CLI output digest {got} differs from {digest_want}")

    record = provenance(args, length)
    n_ops = len(ops)
    print(f"workload {workload.name}: {workload.why}")
    print(f"  length {length} ({workload.length_meaning}), {n_ops} operations per pass, "
          f"closed loop, 1 caller, --jobs 1")
    if args.trace:
        metrics = layer_metrics(tracer.spans, walls[True], walls[False], tally)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload.name}-{args.seed}.json")
        tracer.write(path, {"provenance": record})
        print(f"  {len(walls[True])} traced and {len(walls[False])} untraced passes; "
              f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
        print(f"  note: {NO_WAIT_NOTE}")
    else:
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"  wall_s is the median of {len(walls[False])} passes "
              f"({', '.join(f'{w:.3f}' for w in walls[False])} s)")
        print(f"  setup_s is the median of {len(setups)} fresh interpreters, one after each pass")
    print(f"  failed_ops {tally.failed} of {tally.attempted} ops")
    for message in tally.messages:
        print(f"  FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print("provenance " + json.dumps(record, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
