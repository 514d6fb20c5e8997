"""Benchmark of besselbr's verdict workloads, run through ``besselbr.cli.run``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload br-selftest --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one caller: op i runs with master seed
``seed + i`` and the next op starts only after the previous report has been
validated.  No op starts after ``--seconds``; the op in flight finishes.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the first half of the time untraced and the second half with
:class:`tracer.Tracer` installed, and prints the per-layer metrics, per op.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
metrics by name and unit, the failure breakdown, machine info and the golden
report digests.

besselbr is imported from ``src/`` of the checkout, never from an installed
copy; without it the benchmark exits with an error and prints no result.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import Tracer
from workloads import WORKLOADS, run_op

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN_SEED = 20240601  # fixed seed of the warm-up op whose reports are hashed
SETUP_SPAWNS = 5
SPAWN_TIMEOUT_S = 120


def load_cli():
    """Import ``besselbr.cli`` from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "besselbr", "cli.py")):
        raise SystemExit(f"error: no besselbr sources under {SRC}")
    sys.path.insert(0, SRC)
    import besselbr.cli as cli

    return cli


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _out_dir():
    return tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)


def setup_probe(workload):
    """Body of one set-up spawn: import the CLI and run the warm-up op."""
    cli = load_cli()
    out_dir = _out_dir()
    try:
        result = run_op(cli, workload.warmup, GOLDEN_SEED, out_dir, [])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 1 if result.error or result.malformed else 0


def measure_setup(workload):
    """Median wall time of fresh interpreters through import and warm-up."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload.name]
    samples = []
    for _ in range(SETUP_SPAWNS):
        started = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S)
        samples.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up spawn failed ({proc.returncode}): {proc.stderr.strip()}")
    return statistics.median(samples)


def _reset_peak_rss():
    # Linux resets VmHWM to the current RSS; where it cannot, the process peak is kept
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def closed_loop(cli, workload, first_seed, seconds, out_dir, log):
    """Run ops back to back until ``seconds`` have passed; return per-op records.

    Each record is (wall seconds, peak RSS in MB during the op, OpResult).
    """
    ops = []
    started = time.perf_counter()
    while not ops or time.perf_counter() - started < seconds:
        seed = first_seed + len(ops)
        _reset_peak_rss()
        t0 = time.perf_counter()
        result = run_op(cli, workload.commands, seed, out_dir, log)
        duration = time.perf_counter() - t0
        ops.append((duration, _peak_rss_mb(), result))
    return ops, time.perf_counter() - started


def p99(values):
    """Nearest-rank 99th percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = -(-99 * len(ordered) // 100)
    return ordered[rank - 1], len(ordered) - rank


def end_to_end_metrics(workload, ops, elapsed, setup_s):
    completed = sum(1 for _, _, r in ops if not (r.error or r.malformed))
    return {
        "verdict_s": statistics.median(d for d, _, _ in ops),
        "work_per_s": completed * workload.items_per_op / elapsed,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(m for _, m, _ in ops),
    }


def per_layer_value(name, tracer, ops, overhead_s):
    """Resolve one per-layer metric name against the tracer totals, per traced op."""
    per_op = 1.0 / len(ops)
    if name == "trace.overhead_s":
        return overhead_s
    if name == "cli.report_bytes":
        return sum(r.report_bytes for _, _, r in ops) * per_op
    if name == "numerics.parallel_map.worker_busy_s":
        return tracer.pool_worker_busy_s * per_op
    if name == "numerics.parallel_map.idle_s":
        return tracer.pool_idle_s * per_op
    if name in ("rescale.rows", "rescale.normals_drawn"):
        return tracer.computed[name] * per_op
    prefix, _, field = name.rpartition(".")
    if field == "calls":
        return tracer.calls[prefix] * per_op
    if field == "busy_s":
        return tracer.busy_s[prefix] * per_op
    if field == "self_s":
        return tracer.self_s[prefix] * per_op
    raise ValueError(f"no rule for per-layer metric {name!r}")


def machine_info():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be nonnegative")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=seed, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def traced_run(cli, workload, seed, seconds, out_dir, log, per_layer):
    """Half the time untraced, half traced; per-layer values per traced op."""
    plain, _ = closed_loop(cli, workload, seed, seconds / 2, out_dir, log)
    tracer = Tracer()
    tracer.install()
    try:
        ops, _ = closed_loop(cli, workload, seed + len(plain), seconds / 2, out_dir, log)
    finally:
        tracer.uninstall()
    overhead_s = statistics.median(d for d, _, _ in ops) - statistics.median(d for d, _, _ in plain)
    values = {m["name"]: per_layer_value(m["name"], tracer, ops, overhead_s) for m in per_layer}
    lines = [
        f"  traced {name}: {calls / len(ops):.6g} calls/op, {tracer.busy_s[name] / len(ops):.6g} s/op busy"
        for name, calls in sorted(tracer.calls.items())
        if calls
    ]
    return plain + ops, values, lines


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")

    spec = load_spec()
    cli = load_cli()  # fails before any spawn when the sources are missing
    log, trace_lines = [], []
    out_dir = _out_dir()
    try:
        # scaled-down warm-ups may miss thresholds sized for the full op: log only faults
        golden_log = []
        golden = run_op(cli, workload.warmup, GOLDEN_SEED, out_dir, golden_log)
        if golden.error or golden.malformed:
            log.extend(golden_log)
        if args.trace:
            specs = spec["per_layer"]
            ops, values, trace_lines = traced_run(
                cli, workload, args.seed, args.seconds, out_dir, log, specs
            )
        else:
            specs = spec["end_to_end"]
            setup_s = measure_setup(workload)
            ops, elapsed = closed_loop(cli, workload, args.seed, args.seconds, out_dir, log)
            values = end_to_end_metrics(workload, ops, elapsed, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    errors = sum(1 for _, _, r in ops if r.error)
    malformed = sum(1 for _, _, r in ops if r.malformed)
    failed = sum(1 for _, _, r in ops if r.failed)
    thresholds = sum(1 for _, _, r in ops if r.threshold_failed and not (r.error or r.malformed))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    print(
        f"workload {workload.name}: {len(ops)} ops, seeds {args.seed}..{args.seed + len(ops) - 1}, "
        f"{workload.threads} thread(s), {workload.items_per_op} x {workload.item} per op"
    )
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"failed_ratio = {failed}/{len(ops)} = {failed / len(ops):.4g} (errors {errors}, "
        f"malformed reports {malformed}, threshold failures {thresholds})"
    )
    if not args.trace:
        value, beyond = p99([d for d, _, _ in ops])
        print(f"verdict_s_p99 = {value:.6g} s ({beyond} ops beyond it; printed, not gated)")
    for line in trace_lines + [f"problem: {line}" for line in log[:20]]:
        print(line)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    info = {
        "workload": workload.name,
        "why": why.get(workload.name),
        "seed": args.seed,
        "threads": workload.threads,
        "machine": machine_info(),
        "golden_seed": GOLDEN_SEED,
        "golden_sha256": golden.digests,
    }
    print("info " + json.dumps(info, sort_keys=True))
    correct = errors == 0 and malformed == 0 and not (golden.error or golden.malformed)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
