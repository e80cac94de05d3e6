"""qsakit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload rate-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
./src, never from an installed copy.  The run sets up its inputs several
times (the median is setup_s), then repeats whole rounds of the
workload's operations while another round still fits in --seconds (at
least one round), checking every output after it is timed.  Times are
in reference seconds (see refclock.py), which the machine's shifting
speed leaves steady.  The last line of standard output is one JSON
object with the run's result.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced
round, then traced rounds, and reports the per-layer metrics together
with the tracing overhead.  See README.md in this directory.
"""

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import refclock
import spans
import workloads

SETUP_REPEATS = 9
OUT_DIR = ".bench_runs"


@dataclass
class Round:
    ref_s: float
    seconds: float
    attempted: int
    failed: int
    incorrect: int
    peak_rss_mb: float


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(ops, clock):
    """Time each operation, then check its output; a failure is counted.

    An operation fails when it raises (a non-zero exit code included) or
    when a check rejects its output; the latter also marks the round
    incorrect.  Check time is not part of ref_s or seconds.
    """
    ref = wall = 0.0
    failed = incorrect = 0
    peak = 0.0
    for op in ops:
        value, units, seconds = clock.measure(op.run)
        ref += units * refclock.KERNEL_S
        wall += seconds
        if isinstance(value, Exception):
            failed += 1
            print(f"operation {op.name} failed: {value!r}", file=sys.stderr)
            continue
        print(f"operation {op.name}: {units * refclock.KERNEL_S:.3f} reference s, "
              f"{seconds:.3f} s", file=sys.stderr)
        peak = max(peak, peak_rss_mb())
        try:
            problems = op.check(value)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"output unreadable: {exc!r}"]
        if problems:
            failed += 1
            incorrect += 1
            for problem in problems:
                print(f"operation {op.name} wrong: {problem}", file=sys.stderr)
    return Round(ref, wall, len(ops), failed, incorrect, peak)


def repeat_rounds(ops, clock, seconds):
    """Whole rounds while the next one, as long as the last, still fits."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(run_round(ops, clock))
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            return rounds


def forget_package():
    """Drop every loaded qsakit module and collect what they held."""
    for name in list(spans.qsakit_modules()):
        del sys.modules[name]
    importlib.invalidate_caches()
    gc.collect()


def load_package(src):
    """Import qsakit from src and return its loaded modules."""
    cli = importlib.import_module("qsakit.cli")
    if Path(cli.__file__).resolve().parent != (src / "qsakit").resolve():
        raise SystemExit(f"error: imported qsakit from {cli.__file__}, not from {src}")
    return spans.qsakit_modules()


def set_up(workload, seed, out, src, clock):
    """Import the package, write the workload's inputs and resolve them.

    Returns the set-up time in reference seconds, the loaded modules and
    the workload's operations.
    """
    forget_package()

    def load():
        mods = load_package(src)
        ops = workloads.build(workload, seed, out, mods)
        config = mods["qsakit.config"]
        for path in sorted((out / "inputs").glob("*.json")):
            config.resolve(config.load_config(path))
        return mods, ops

    loaded, units, _ = clock.measure(load)
    if isinstance(loaded, Exception):
        raise loaded
    return units * refclock.KERNEL_S, *loaded


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_times, steps_per_round):
    times = [r.ref_s for r in rounds]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_ref_s": metric(statistics.median(times), "s"),
        "rk4_steps_per_ref_s": metric(
            statistics.median(steps_per_round / t for t in times), "steps/s"
        ),
        "peak_rss_mb": metric(max(r.peak_rss_mb for r in rounds), "MB"),
    }


def per_layer(tracer, untraced, traced, out):
    layers = {
        name: metric(value, unit)
        for name, (value, unit) in tracer.layer_metrics(len(traced)).items()
    }
    artifact_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()
                         and p.parent.name != "inputs")
    layers["cli.artifact_mb"] = metric(artifact_bytes / 1e6, "MB")
    overhead = statistics.median(r.seconds for r in traced) - untraced[0].seconds
    layers["trace.overhead_s"] = metric(overhead, "s")
    return layers


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "qsakit" / "__init__.py").is_file():
        print(f"error: no qsakit sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out = root / OUT_DIR / args.workload
    shutil.rmtree(out, ignore_errors=True)
    try:
        # The traced run samples the kernel only around operations, so that
        # no kernel run falls inside a span.
        clock = refclock.ReferenceClock(period=None if args.trace else refclock.PERIOD)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            seconds, mods, ops = set_up(args.workload, args.seed, out, src, clock)
            setup_times.append(seconds)
        if args.trace:
            untraced = [run_round(ops, clock)]
            tracer = spans.Tracer(mods, full=True).install()
            try:
                traced = repeat_rounds(ops, clock, args.seconds - untraced[0].seconds)
            finally:
                tracer.uninstall()
            rounds = untraced + traced
            metrics = per_layer(tracer, untraced, traced, out)
        else:
            ledger = spans.Tracer(mods, full=False).install()
            try:
                rounds = repeat_rounds(ops, clock, args.seconds)
            finally:
                ledger.uninstall()
            metrics = end_to_end(rounds, setup_times, ledger.total_steps() / len(rounds))
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            (root / OUT_DIR).rmdir()
        except OSError:
            pass
    result = {
        "correct": not any(r.incorrect for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
