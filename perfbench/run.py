"""Benchmark of casimir-lens: time to an accuracy-gated result table.

    python3 perfbench/run.py --workload force-sweep --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory and from nowhere else.  One process, one thread.

--trace 0 prints the end-to-end metrics: table_s (median wall time of one
full result table after a warm-up pass), setup_s (median fresh-interpreter
time to import casimir_lens and parse the workload's configs) and
peak_rss_mb.  --trace 1 prints the per-layer metrics from a run that wraps
the package's module boundaries in spans.  Both count evaluations attempted
and failed against the accuracy references (gate.py).  The last line of
standard output is one JSON object; the lines before it are for people.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STORED = os.path.join(HERE, "reference_seed0.json")
NAMES = ("force-sweep", "cryo-sweep", "freq-shift", "oracle-check")

MIN_SAMPLES = 2
SETUP_REPS = 5

SETUP_CHILD = """\
import sys
src = sys.argv[1]
sys.path.insert(0, src)
import casimir_lens
if not casimir_lens.__file__.startswith(src):
    sys.exit(3)
for text in sys.argv[2:]:
    casimir_lens.parse_config(text)
"""


def import_package():
    """Import casimir_lens from ROOT/src; exit with an error if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "casimir_lens", "__init__.py")):
        sys.exit(f"error: no casimir_lens sources under {SRC}; run from the "
                 "root of a source checkout")
    sys.path.insert(0, SRC)
    import casimir_lens
    if not os.path.abspath(casimir_lens.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: casimir_lens imported from {casimir_lens.__file__}, "
                 f"not from {SRC}")
    return casimir_lens


def git_sha(root: str):
    """Commit of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(cl, seed: int) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(ROOT),
        "casimir_lens": cl.__version__,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_once(texts) -> float:
    """Wall seconds of a fresh interpreter that imports and parses the configs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC, *texts],
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def timed_pass(wl, threads: int, expected, mismatches: list) -> float:
    t0 = time.perf_counter()
    out = wl.table(threads)
    dt = time.perf_counter() - t0
    if out != expected:
        mismatches.append(threads)
    return dt


def describe_samples(name: str, samples: list) -> str:
    """Median, range and the highest percentile with 10 samples beyond it."""
    n = len(samples)
    line = (f"{name} = {statistics.median(samples):.4f} s  (median of n = {n}; "
            f"min {min(samples):.4f}, max {max(samples):.4f}")
    if n > 10:
        p = int(100 * (1 - 10 / n))
        line += f"; p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f}"
    return line + ")"


def run_untraced(wl, seconds: float, expected, mismatches: list, log) -> dict:
    # Set-ups are spread over the run, one per table pass, so that both
    # medians see the same stretch of machine load.
    setup, samples = [], []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        setup.append(setup_once(wl.texts))
        samples.append(timed_pass(wl, 1, expected, mismatches))
    while len(setup) < SETUP_REPS:
        setup.append(setup_once(wl.texts))
    log(describe_samples("setup_s", setup))
    log(describe_samples("table_s", samples))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    log(f"peak_rss_mb = {rss_mb:.3f} MB")
    return {
        "table_s": (statistics.median(samples), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_traced(wl, seconds: float, expected, mismatches: list, log,
               err_ratio_max: float) -> dict:
    from layers import BOUNDARIES, PER_LAYER, span_metrics, split_checks
    from spans import Tracer, layer_stats, require_calls

    plain, traced, threads2 = [], [], []
    tracer = Tracer(BOUNDARIES)
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(timed_pass(wl, 1, expected, mismatches))
        with tracer:
            wl.parse()
            traced.append(timed_pass(wl, 1, expected, mismatches))
        if wl.threads2:
            threads2.append(timed_pass(wl, 2, expected, mismatches))
    stats = layer_stats(tracer.spans)
    require_calls(stats, wl.required, wl.name)

    # Ratios are taken pass by pass against the untraced pass just before,
    # which ran under nearly the same machine load.
    metrics = span_metrics(stats, tracer.spans, len(traced))
    metrics["cli.threads2_speedup"] = (
        statistics.median(p / t for p, t in zip(plain, threads2))
        if wl.threads2 else 0.0)
    metrics["trace.overhead_frac"] = statistics.median(
        t / p for p, t in zip(plain, traced)) - 1.0
    metrics["accuracy.err_ratio_max"] = err_ratio_max
    log(describe_samples("table_s untraced", plain))
    log(describe_samples("table_s traced", traced))
    if wl.threads2:
        log(describe_samples("table_s --threads 2", threads2))
    log(f"spans recorded: {len(tracer.spans)} over {len(traced)} traced passes")
    for claim, held in split_checks(wl.name, stats, metrics):
        log(f"split check {'PASS' if held else 'FAIL'}: {claim}")
    return {name: (metrics[name], unit) for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cl = import_package()
    import gate
    import workloads

    def log(line: str) -> None:
        print(line, flush=True)

    log(f"# casimir-lens benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}")
    log("# provenance " + json.dumps(provenance(cl, args.seed)))

    wl = workloads.make(args.workload, args.seed)
    stored = None
    if args.seed == workloads.NOMINAL_SEED:
        with open(STORED, encoding="utf-8") as fh:
            stored = json.load(fh)[wl.name]
    refs = wl.references()
    expected = wl.table(1)  # warm-up pass; its values are the ones gated
    evals = wl.evaluations(expected, refs, stored)
    summary = gate.summarize(evals)

    mismatches: list = []
    if args.trace:
        metrics = run_traced(wl, args.seconds, expected, mismatches, log,
                             summary["err_ratio_max"])
    else:
        metrics = run_untraced(wl, args.seconds, expected, mismatches, log)

    log(f"evals_failed/evals_attempted = {summary['failed']}/{summary['attempted']}"
        f"  (worst |value - ref| / bound = {summary['err_ratio_max']:.4g})")
    for e in evals:
        if e.failed:
            log(f"  failed {e.describe()}")
    if summary["wrong"]:
        log(f"wrong: {summary['wrong']} evaluations off by more than "
            f"{gate.SANITY_REL:g} relative (or their bound, if wider)")
    if mismatches:
        log(f"wrong: {len(mismatches)} passes did not reproduce the first "
            "pass bit for bit")
    metrics = {name: (value if isinstance(value, int) else float(value), unit)
               for name, (value, unit) in metrics.items()}
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value!r} {unit}")

    print(json.dumps({
        "correct": summary["wrong"] == 0 and not mismatches,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
