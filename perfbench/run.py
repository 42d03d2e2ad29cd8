"""biphoton benchmark: one closed-loop client, no threads, run in-process.

    python3 perfbench/run.py --workload {paper,tables,events,export} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.
``--trace 0`` runs the named workload for S seconds, then a fixed
reference slice of each of the other three, and prints every end-to-end
metric.  ``--trace 1`` runs the workload untraced for S/2 seconds and
traced for S/2 seconds and prints the per-layer metrics.  Times are
scaled to reference host speed (hostspeed.py).  The last stdout line is
the result; the line before it records the environment, the sample counts
and the raw (unscaled) end-to-end values.
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
from pathlib import Path

# pin thread pools before numpy is imported anywhere
for _var in ("BIPHOTON_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

#: table points per block of the tables_per_s median
TABLE_BLOCK = 50


def probe_setup():
    """Interval for a fresh interpreter to import and warm up, and its import time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        rc = proc.wait(PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or not line:
        raise RuntimeError(f"setup probe failed with exit code {rc}")
    return (t0, t1), json.loads(line)["import_s"]


def environment():
    def version(name):
        try:
            return __import__(name).__version__
        except ImportError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {v: os.environ[v] for v in
                    ("BIPHOTON_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def drive(step, per_unit, run, seconds, min_units=1):
    """Closed loop: run ``step`` back to back for ``seconds`` of its own time.

    Ends on a whole unit of work, after at least ``min_units``.  Returns
    the units done and the raw interval of each step.
    """
    spent = 0.0
    spans = []
    while spent < seconds or len(spans) < min_units * per_unit or len(spans) % per_unit:
        t0 = time.perf_counter()
        step(run)
        t1 = time.perf_counter()
        spans.append((t0, t1))
        spent += t1 - t0
    return len(spans) // per_unit, spans


def raw_seconds(spans):
    return sum(t1 - t0 for t0, t1 in spans)


def end_to_end(samples, setup, peak_rss_mb, seconds_of):
    """Every end-to-end metric as (value, unit).

    ``seconds_of(intervals)`` gives the seconds a sample took; run.py passes
    the host-speed-scaled sum, and ``raw_seconds`` for the record.
    """
    def times(key):
        return [seconds_of(spans) for spans, _ in samples[key]]

    def rates(key):
        return [n / seconds_of(spans) for spans, n in samples[key]]

    lossless, lossy = times("table_lossless_s"), times("table_lossy_s")
    points = [a + b for a, b in zip(lossless, lossy)]
    # throughput per block of points; the median of blocks ignores one-off stalls
    table_rates = [2 * len(points[i:i + TABLE_BLOCK]) / sum(points[i:i + TABLE_BLOCK])
                   for i in range(0, len(points), TABLE_BLOCK)]
    median = statistics.median
    return {
        "setup_s": (median(seconds_of([p]) for p in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "paper_s": (median(times("paper_s")), "s"),
        "critical_eta_s": (median(times("critical_eta_s")), "s"),
        "optimize_s": (median(times("optimize_s")), "s"),
        "tables_per_s": (median(table_rates), "1/s"),
        "table_lossless_p50_ms": (1e3 * median(lossless), "ms"),
        "table_lossy_p50_ms": (1e3 * median(lossy), "ms"),
        "events_per_s": (median(rates("events_per_s")), "1/s"),
        "export_rows_per_s": (median(rates("export_rows_per_s")), "1/s"),
    }


def run_benchmark(workload, seed, seconds, trace, sizes=None, setup_probes=SETUP_PROBES):
    """One benchmark run; returns (result dict, info dict)."""
    import hostspeed
    import tracing
    import workloads

    sizes = sizes or workloads.FULL
    OUT_DIR.mkdir(exist_ok=True)
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "env": environment()}
    speed = hostspeed.HostSpeed()
    with speed.running():
        probes = [probe_setup() for _ in range(setup_probes)]
        workloads.warm_up(OUT_DIR)
        run = workloads.Run(seed, sizes, OUT_DIR)
        step, per_unit = workloads.STEPS[workload]
        ref = workloads.reference_units(sizes)
        if trace:
            plain_units, plain_spans = drive(step, per_unit, run, seconds / 2)
            run.tracer = tracing.Tracer()
            run.tracer.install()
            try:
                traced_units, traced_spans = drive(step, per_unit, run, seconds / 2)
            finally:
                run.tracer.uninstall()
        else:
            # the focus workload first, doing at least what its reference
            # slice would; then each other workload's reference slice
            units, _ = drive(step, per_unit, run, seconds, ref[workload])
            for name, ref_units in ref.items():
                if name != workload:
                    drive(*workloads.STEPS[name], run, 0.0, ref_units)
        workloads.check_configs(run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def scaled(spans):
        return sum(speed.scaled(t0, t1) for t0, t1 in spans)

    if trace:
        run.tracer.write(OUT_DIR / f"spans-{workload}-{seed}.jsonl")
        metrics = tracing.layer_metrics(
            run.tracer, traced_units,
            speed.factor(traced_spans[0][0], traced_spans[-1][1]))
        metrics["cli.import_s"] = (
            statistics.median(p[1] * speed.factor(*p[0]) for p in probes), "s")
        metrics["trace.overhead_ratio"] = (
            (scaled(traced_spans) / traced_units) / (scaled(plain_spans) / plain_units),
            "ratio")
        info["units"] = {"untraced": plain_units, "traced": traced_units,
                         "spans": len(run.tracer.spans)}
    else:
        info["units"] = dict(ref, **{workload: units})
        setup = [p[0] for p in probes]
        metrics = end_to_end(run.samples, setup, peak_rss_mb, scaled)
        raw = end_to_end(run.samples, setup, peak_rss_mb, raw_seconds)
        info["raw"] = {k: v for k, (v, _) in raw.items()}
        info["samples"] = dict({k: len(v) for k, v in run.samples.items()},
                               setup_s=len(probes))
    info["loop_ms"] = {"median": 1e3 * statistics.median(speed.loops),
                       "marks": len(speed.loops)}
    info["problems"] = run.problems[:20]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "tables", "events", "export"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "biphoton" / "__init__.py").is_file():
        print(f"error: no biphoton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # one CPU for the ops, the host-speed marks and the set-up probes alike
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    result, info = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    with open(OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    for problem in info["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
