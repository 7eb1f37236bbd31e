"""cycbar benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload closed_form_scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; cycbar is imported from its
``src/``.  The seed only shuffles the order of the workload's fixed item
list.  Items are repeated in passes until ``--seconds`` would be
exceeded by one more pass (at least one pass runs), every output is
checked against ``oracles.py``, and the last line printed is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of the run's slowest pass
(see README.md for why not the median), plus ``setup_s``, the median of
several fresh interpreters importing cycbar.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.py``; its spans go to ``perfbench/out/``.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 15
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cycbar, cycbar.cli
bars = [cycbar.CyclicBar(k) for k in (3, 4, 5)]
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_info(seed):
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
    }


def measure_setup():
    """Median seconds for a fresh interpreter to import cycbar and build its bars."""
    cmd = [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC)]
    times = []
    for n in range(SETUP_RUNS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        if n:  # the first run writes the bytecode cache
            times.append(float(done.stdout))
    return statistics.median(times)


def run_pass(items, rng, tracer=None):
    """Run every item once in a seeded order; time the program, then check it."""
    order = list(items)
    rng.shuffle(order)
    gc.collect()
    walls, cpus, problems, failed = [], [], [], 0
    for item in order:
        w0, c0 = perf_counter(), process_time()
        try:
            out = item.run()
        except Exception as exc:  # an item that raises has failed
            out = exc
        cpus.append(process_time() - c0)
        walls.append(perf_counter() - w0)
        if tracer is not None:  # command line items return what they printed
            tracer.counts["cli.output_bytes"] += len(getattr(out, "stdout", ""))  # ASCII JSON
        found = [f"raised {out!r}"] if isinstance(out, Exception) else check(item, out)
        del out
        failed += bool(found)
        problems += [f"{item.name}: {p}" for p in found]
    return {
        "wall": sum(walls),
        "cpu": sum(cpus),
        "slowest": max(walls),
        "items": {item.name: w for item, w in zip(order, walls)},
        "attempted": len(order),
        "failed": failed,
        "problems": problems,
    }


def check(item, out):
    """The oracle's problems with an output; a failed or unreadable run is one."""
    try:
        return item.check(out)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def passes_until(deadline, run_one):
    """Call run_one() until one more call would likely pass the deadline."""
    results = []
    while True:
        t0 = perf_counter()
        results.append(run_one())
        if perf_counter() + (perf_counter() - t0) > deadline:
            return results


def end_to_end(items, rng, seconds):
    setup_s = measure_setup()
    passes = passes_until(perf_counter() + seconds, lambda: run_pass(items, rng))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": (max(p["wall"] for p in passes), "s"),
        "cpu_s": (max(p["cpu"] for p in passes), "s"),
        "slowest_item_s": (max(p["slowest"] for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return passes, metrics, []


def traced(items, rng, seconds, spans_path):
    import tracing

    plain, tracers, passes = [], [], []

    def pair():
        plain.append(run_pass(items, rng))
        tracer = tracing.Tracer()
        with tracer.installed():
            passes.append(run_pass(items, rng, tracer))
        tracers.append(tracer)

    passes_until(perf_counter() + seconds, pair)
    problems = []
    if any(t.counts != tracers[0].counts for t in tracers):
        problems.append("count metrics differ between traced passes")
    with open(spans_path, "w") as fh:
        json.dump([{"spans": t.spans, "counts": t.counts} for t in tracers], fh)

    times = [t.self_times() for t in tracers]
    metrics = {f"{layer}.self_s": (statistics.median(x[layer] for x in times), "s") for layer in tracing.TIMED_LAYERS}
    metrics |= tracing.count_metrics(tracers[0].counts)
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall"] for p in passes) - statistics.median(p["wall"] for p in plain),
        "s",
    )
    return plain + passes, metrics, problems


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cycbar" / "__init__.py").is_file():
        print(f"error: no cycbar sources under {SRC}; run from a cycbar checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cycbar
    import workloads

    if Path(cycbar.__file__).resolve().parent != SRC / "cycbar":
        print(f"error: imported cycbar from {cycbar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    items = workloads.WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        passes, metrics, problems = traced(items, rng, args.seconds, OUT / f"spans-{tag}.json")
    else:
        passes, metrics, problems = end_to_end(items, rng, args.seconds)
    problems += [p for run in passes for p in run["problems"]]
    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)

    info = run_info(args.seed) | {"workload": args.workload, "trace": args.trace, "pass_count": len(passes)}
    result = {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(info | result | {"passes": passes}, indent=1) + "\n"
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
