"""circleconj benchmark: one seeded workload per run, checked and timed.

    python3 bench/run.py --workload classify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all            # every workload, every metric

A run imports the package from ``src/`` of the checkout it sits in, builds
its inputs from ``--seed``, and performs operations one after another on
one thread, cycling through its inputs, until ``--seconds`` have passed.  It
then checks every output outside the timed section.  It prints a
``{"report": ...}`` line with the environment stamp, every end-to-end
figure (also those that only some workloads have) and the check details,
and as its last line the result object: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.

Timings are per input, the fastest of its repeats in the run.  Only
``classify`` repeats inputs (it decides its whole family over and over);
there the minimum filters out the spells of up to 1.7 times slower
execution a shared machine shows, which a median over all calls follows.
Set-up (package import in a fresh interpreter, input generation, descriptor
files) is repeated before and after the timed section, each time at least
twice and for at least 1.5 seconds, and its median reported.

The traced run first runs untraced for half the time, then replays the same
operations with every layer's public functions wrapped in spans; the ratio
of the two summed per-input times gives ``trace.overhead_share``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is repeated before and again after the timed section, each time at
# least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS have gone into
# it: a cheap set-up of a tenth of a second gets a median over dozens of
# repeats, taken at two moments half a minute apart.
SETUP_MIN_REPEATS = 2
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPEATS = 20
# p99 needs at least ten samples above it
P99_MIN_SAMPLES = 1000
IMPORT_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import circleconj.cli
print(time.perf_counter() - t)
"""


def env_stamp() -> dict:
    import mpmath

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_sha": git_sha(),
        "nproc": nproc,
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_seconds() -> float:
    """Seconds to import the package in a fresh interpreter, start-up excluded."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def best_per_input(durations, size: int) -> list:
    """Fastest duration of each input that ran at least once."""
    return [min(durations[p::size]) for p in range(min(size, len(durations)))]


def timed_ops(workload, seconds: float, count=None, tracer=None):
    """Run ops 0, 1, ... until ``seconds`` pass (or exactly ``count`` ops).

    Returns (records, per-op durations).  An op that raises is recorded as
    an OpError and counted as failed by the check.
    """
    from workloads import OpError

    records, durations = [], array("d")
    deadline = perf_counter() + seconds
    i = 0
    while (perf_counter() < deadline) if count is None else (i < count):
        t = perf_counter()
        try:
            rec = tracer.op(workload.op, i) if tracer else workload.op(i)
        except Exception as exc:  # keep running; the check counts it
            rec = OpError(exc)
            print(f"op {i} raised {rec.text}", file=sys.stderr)
        durations.append(perf_counter() - t)
        records.append(rec)
        i += 1
    return records, durations


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def run(args) -> int:
    if not (ROOT / "src" / "circleconj").is_dir():
        print(f"error: no circleconj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    workdir = ROOT / ".bench_build" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, prints = [], set()

        def set_up():
            times = []
            while len(times) < SETUP_MAX_REPEATS and (
                len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS
            ):
                t_import = import_seconds()
                t = perf_counter()
                built = workloads.WORKLOADS[args.workload](args.seed, args.quick, str(workdir))
                times.append(t_import + perf_counter() - t)
                prints.add(built.fingerprint())
            setups.extend(times)
            return built

        workload = set_up()

        tracing.surd_cache_clear()
        records, durations = timed_ops(workload, args.seconds / (2 if args.trace else 1))
        best = best_per_input(durations, workload.size)
        checked = workload.check(records)
        attempted, failed = len(records), checked.pop("failed")
        if args.trace:
            tracer = tracing.Tracer()
            tracing.surd_cache_clear()
            tracer.install()
            try:
                traced, traced_durations = timed_ops(workload, 0, len(records), tracer)
            finally:
                tracer.uninstall()
            hits, lookups = tracing.surd_cache_counts()
            layer = tracer.layer_metrics(len(traced), hits, lookups)
            traced_best = best_per_input(traced_durations, workload.size)
            layer["trace.overhead_share"] = sum(traced_best) / sum(best) - 1
            tracer.write(str(ROOT / ".bench_build" / f"spans-{args.workload}-{args.seed}.jsonl"))
            attempted += len(traced)
            traced_check = workload.check(traced)
            failed += traced_check["failed"]
            checked["failures"] += traced_check["failures"]
        set_up()
        deterministic = len(prints) == 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ms = [b * 1e3 for b in best]
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (workload.units_per_op * len(best) / sum(best), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_share": (failed / attempted, "ratio"),
    }
    if len(ms) >= P99_MIN_SAMPLES:
        e2e["op_p99_ms"] = (statistics.quantiles(ms, n=100)[98], "ms")
    if "skipped_share" in checked:
        e2e["skipped_share"] = (checked.pop("skipped_share"), "ratio")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "env": env_stamp(),
        "ops": len(durations),
        "inputs": len(best),
        "op_unit": workload.unit,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "checks": dict(checked, setup_deterministic=deterministic),
    }
    spec = contract()
    if args.trace:
        report["per_layer"] = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in layer.items()}
        wanted = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        wanted = {m["name"]: (e2e[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in wanted.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh interpreter."""
    failed = False
    tables = []
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                argv.append("--quick")
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failed = True
                continue
            print(lines[-2])
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            failed |= not result["correct"]
            metrics = report["per_layer"] if trace else report["metrics"]
            tables.append((name, trace, result, metrics))
    for name, trace, result, metrics in tables:
        kind = "per-layer" if trace else "end-to-end"
        print(f"\n{name} ({kind}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, value in metrics.items():
            print(f"  {key:<42} {value['value']:>14.6g} {value['unit']}")
    return 1 if failed else 0


WORKLOAD_NAMES = ("classify", "verify", "orbit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, print every metric")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="minimal inputs, for smoke tests")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(contract()["run_seconds"])
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
