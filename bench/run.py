"""relugeo benchmark: one closed-loop client calling ``relugeo.cli.run`` in process.

    python3 bench/run.py --workload classify-mix --seed 1 --seconds 30 --trace 0

Run from the repository root; relugeo is imported from ``src/``.  One item is
one ``cli.run(argv)`` call on generated JSON files with stdout captured, which
covers JSON loading, the core layers and serialization without interpreter
start-up.  Items run in whole cycles of the workload's shape list for at least
``--seconds`` of wall time, and each output is checked outside the timed
region.  The last stdout line is the JSON result, the line before it says what
ran.  With ``--trace 1`` every item runs untraced and then traced, and the
per-layer metrics come from the traced calls.  bench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# On a shared 2-vCPU Xeon host the CPU speed swings by up to 3x over periods
# of seconds as other tenants load it, and CPU time swings with wall time.
# Each item and each set-up is bracketed by a short probe, a fixed Fraction
# loop that takes about PROBE_NS when that host is idle.  Reported times are
# measured times * PROBE_NS / probe, the time at that nominal host speed; raw
# times go to the info line.
PROBE_TERMS = 2000
PROBE_NS = 4_000_000
# latency_p90_ms needs ten samples above it; a run goes on past --seconds until
# it has MIN_ITEMS items, but never past MAX_RUN_FACTOR * --seconds
MIN_ITEMS = 100
MAX_RUN_FACTOR = 1.5

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_relugeo():
    """A fresh import of relugeo.cli from this checkout's src/ directory."""
    src = ROOT / "src"
    if not (src / "relugeo" / "cli.py").is_file():
        raise FileNotFoundError(f"no relugeo sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "relugeo" or n.startswith("relugeo.")]:
        del sys.modules[name]
    cli = importlib.import_module("relugeo.cli")
    if Path(cli.__file__).resolve().parent != (src / "relugeo").resolve():
        raise ImportError(f"relugeo was imported from {cli.__file__}, not from {src}")
    return cli


class Inputs:
    """The workload's item stream, written to files one cycle at a time."""

    def __init__(self, workload, seed):
        self.items = WORKLOADS[workload].items(random.Random(f"{workload}:{seed}"))
        self.cycle = WORKLOADS[workload].cycle
        self.count = 0
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)

    def next_cycle(self):
        batch = []
        for _ in range(self.cycle):
            item = next(self.items)
            paths = []
            for k, obj in enumerate(item.files):
                path = WORK / f"{self.count:06d}-{k}.json"
                path.write_text(json.dumps(obj), encoding="utf-8")
                paths.append(str(path))
            batch.append((self.count, item, paths))
            self.count += 1
        return batch


def setup(workload, seed):
    """Import relugeo, generate and write the first cycle; return (seconds, cli, inputs, batch)."""
    t0 = perf_counter()
    cli = import_relugeo()
    inputs = Inputs(workload, seed)
    batch = inputs.next_cycle()
    return perf_counter() - t0, cli, inputs, batch


def call(cli, argv):
    """(exit code, stdout, duration in ns) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter_ns()
        try:
            code = cli.run(argv)
        except Exception:  # a traceback is a failed item, not a failed benchmark
            code = None
            print(traceback.format_exc(), file=sys.__stderr__)
        elapsed = perf_counter_ns() - t0
    return code, out.getvalue(), elapsed


def passes(check, item, paths, code, out):
    try:
        return check(item, paths, code, out)
    except Exception:  # malformed output: the check itself could not read it
        print(traceback.format_exc(), file=sys.__stderr__)
        return False


def host_probe():
    """ns taken by a fixed Fraction loop; it reads high while the shared host is contended."""
    t0 = perf_counter_ns()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return perf_counter_ns() - t0


def host_scaled(times, probes):
    """Times scaled from the host speed their probes saw to the nominal speed."""
    return [t * PROBE_NS / p for t, p in zip(times, probes)]


def run(workload, seed, seconds, traced):
    """One benchmark run: prints the info line and returns the result object."""
    setups, setup_probes = [], []
    for _ in range(SETUP_REPEATS):
        before = host_probe()
        elapsed, cli, inputs, batch = setup(workload, seed)
        setups.append(elapsed)
        setup_probes.append((before + host_probe()) / 2)
    check = WORKLOADS[workload].check
    tracer = Tracer() if traced else None
    latencies, probes, overheads, tags = [], [], [], Counter()
    traced_probes = {}
    failed = 0
    start = perf_counter()
    while True:
        for index, item, paths in batch:
            argv = item.argv(paths)
            before = host_probe()
            code, out, ns = call(cli, argv)
            after = host_probe()
            probes.append((before + after) / 2)
            ok = passes(check, item, paths, code, out)
            if tracer is not None:
                tracer.install()
                try:
                    t_code, t_out, t_ns = tracer.call_item(index, call, cli, argv)
                finally:
                    tracer.uninstall()
                traced_probes[index] = (after + host_probe()) / 2
                overheads.append(1 - ns / t_ns)
                ok = ok and (t_code, t_out) == (code, out)
            if not ok:
                failed += 1
                print(f"failed: {workload} item {index} ({item.tag}): {argv}", file=sys.stderr)
            latencies.append(ns / 1e6)
            tags[item.tag] += 1
            for path in paths:
                os.remove(path)
        elapsed = perf_counter() - start
        enough = traced or len(latencies) >= MIN_ITEMS
        if elapsed >= seconds and enough or elapsed >= MAX_RUN_FACTOR * seconds:
            break
        batch = inputs.next_cycle()
    shutil.rmtree(WORK, ignore_errors=True)

    attempted = len(latencies)
    info = {
        "workload": workload,
        "seed": seed,
        "items": attempted,
        "mix": {tag: round(n / attempted, 4) for tag, n in sorted(tags.items())},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if tracer is None:
        timed = host_scaled(latencies, probes)
        info["raw"] = {
            "setup_s": statistics.median(setups),
            "items_per_s": attempted / (sum(latencies) / 1e3),
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[8],
        }
        values = {
            "items_per_s": attempted / (sum(timed) / 1e3),
            "latency_p50_ms": statistics.median(timed),
            "latency_p90_ms": statistics.quantiles(timed, n=10)[8],
            "success_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(host_scaled(setups, setup_probes)),
        }
        units = END_TO_END_UNITS
        correct = failed == 0
    else:
        scale = {index: PROBE_NS / p for index, p in traced_probes.items()}
        values = tracer.metrics(attempted, statistics.median(overheads), scale)
        units = metric_units()
        self_sum_ok = tracer.self_sum_ok()
        info["spans"] = len(tracer.name_id)
        info["self_sum_ok"] = self_sum_ok
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}.bin")
        correct = failed == 0 and self_sum_ok
    print(json.dumps(info))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
