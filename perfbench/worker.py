"""One benchmark process: set up a workload, run its passes, check them.

Started by ``run.py`` from the root of a checkout.  It prints ``READY`` once
arbozeta is imported and the inputs are built, so the parent can time the
set-up; with ``--setup-only`` it stops there.  Otherwise it runs passes until
the next one would overrun ``--seconds`` (always at least one), checks every
output, and prints one JSON line with what it measured.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the checkout's sources, ahead of any installed copy

import arbozeta  # noqa: E402
import numpy  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pace import BURST, Pace  # noqa: E402


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_names() -> dict[str, float]:
    """Every per-layer metric this benchmark can report, at zero."""
    names = ["syntax.parse_s", "syntax.format_s", "words.shuffle_s",
             "forest_algebra.tree_shuffle_s", "forest_algebra.flatten_s",
             "forest_algebra.associator_s", "forest_algebra.binarise_s",
             "zeta.reduce_s", "zeta.eval_s", "zeta.polylog_s", "zeta.eval_failed_s",
             "zeta.eval_useful_share", "words.shuffle_terms",
             "forest_algebra.tree_shuffle_terms", "forest_algebra.flatten_terms",
             "zeta.reduce_terms", "zeta.eval_terms", "suites.checks",
             "cli.import_ms", "cli.python_floor_ms", "cli.error_exit_ms",
             "trace.wall_s", "trace.spans", "trace.overhead_share"]
    names += [f"cli.call_ms.{verb}" for verb in workloads.VERBS]
    names += [f"suites.{name}_s" for name in workloads.suites.SUITES]
    names += list(workloads.cache_entries())
    return dict.fromkeys(names, 0.0)


def python_ms(argv: list[str], repeats: int) -> float:
    """Median wall time of a bare interpreter call, in milliseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=workloads.cli_env(ROOT), check=True)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def run_passes(workload, tracer, pace, seconds: float):
    """Passes, each on cleared caches, until the next would overrun the budget.

    The machine-speed probe runs before the first pass, between operations
    and after every pass; the ops of a pass are scaled by the probes taken
    from the burst before it to the burst after it (``pace.py``).  A pass's
    time is the sum of its ops' latencies, raw and scaled.  The budget
    counts real time, probes included.  The first pass is kept whole for
    the output checks.  A later pass keeps only its latencies and which of
    its outputs differ from the first's, so memory does not grow with the
    number of passes.
    """
    first, walls, raw_walls, latencies, raw_latencies = None, [], [], [], []
    differs, layer_times, caches = [], [], None
    began = time.perf_counter()
    pace.burst()
    while True:
        workloads.clear_caches()
        mark, since = tracer.mark(), max(0, len(pace.took) - BURST)
        start = time.perf_counter()
        result = workload.run_pass(tracer, pace, keep=first is None)
        took = time.perf_counter() - start
        pace.burst()
        scaled = pace.scaled(result.latency, since)
        walls.append(sum(scaled))
        raw_walls.append(sum(result.latency))
        latencies.extend(scaled)
        raw_latencies.extend(result.latency)
        if first is None:
            first, caches = result, workloads.cache_entries()
        else:
            differs.append([(t, s) != (t1, s1) for t, s, t1, s1 in
                            zip(result.text, result.status, first.text, first.status)])
        if tracer.enabled:
            layer_times.append((mark, tracer.self_times(mark)))
        if time.perf_counter() - began + took > seconds:
            return first, differs, walls, raw_walls, latencies, raw_latencies, layer_times, caches


def judge(workload, first, differs) -> list[str]:
    """Verdicts for every op of every pass; a later pass whose outputs differ
    from the first pass's is wrong throughout."""
    verdicts = workload.check(first)
    out = list(verdicts)
    for later in differs:
        out += [workloads.WRONG] * len(verdicts) if any(later) else verdicts
    return out


def traced_layers(workload, tracer, first, walls, layer_times, caches) -> dict[str, float]:
    layers = layer_names()
    for name in {n for _, times in layer_times for n in times}:
        metric = name + "_s"
        if metric in layers:
            layers[metric] = statistics.median(t.get(name, 0.0) for _, t in layer_times)
    failed_ops = workload.failed_ops(first) if hasattr(workload, "failed_ops") else set()
    if failed_ops:
        per_pass = []
        for mark, _ in layer_times:
            per_pass.append(sum(end - start for _, name, start, end, _, op in tracer.spans[mark:]
                                if name == "zeta.eval" and op in failed_ops))
        layers["zeta.eval_failed_s"] = statistics.median(per_pass)
    if layers["zeta.eval_s"]:
        layers["zeta.eval_useful_share"] = 1.0 - layers["zeta.eval_failed_s"] / layers["zeta.eval_s"]
    layers.update(workload.counts(first))
    layers.update(caches)
    layers.update(trace_cost(tracer, walls))
    return layers


def trace_cost(tracer, walls) -> dict[str, float]:
    """Traced pass time, spans per pass, and the share of it spent recording spans."""
    per_pass = len(tracer.spans) / len(walls)
    wall = statistics.median(walls)
    return {"trace.wall_s": wall, "trace.spans": per_pass,
            "trace.overhead_share": spans.span_cost_s() * per_pass / wall}


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any CLI process it ran, in MB.

    Read right after the timed passes, so the output checks do not count.
    """
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(arbozeta.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported arbozeta from {arbozeta.__file__}, not {SRC}", file=sys.stderr)
        return 2

    factories = {
        "cli-mix": lambda: workloads.CliMix(args.seed, args.tiny, ROOT),
        "symbolic": lambda: workloads.Symbolic(args.seed, args.tiny),
        "numeric": lambda: workloads.Numeric(args.seed, args.tiny),
        "check-all": lambda: workloads.CheckAll(args.tiny, ROOT),
    }
    workload = factories[args.workload]()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    pace = Pace(probing=workload.SCALED)
    layers = {}
    if args.trace and args.workload == "check-all":
        # In process, one suite at a time, so each suite gets its own span.
        workloads.clear_caches()
        start = time.perf_counter()
        report = workload.run_in_process(tracer)
        walls = [time.perf_counter() - start]
        rss_mb = peak_rss_mb()
        verdicts = [workloads.OK if entry["pass"] else workloads.WRONG for entry in report]
        latencies = raw_latencies = raw_walls = walls
        layers = layer_names()
        for name, seconds in tracer.self_times().items():
            layers[name + "_s"] = seconds
        layers.update(workloads.cache_entries())
        layers["suites.checks"] = len(report)
        layers.update(trace_cost(tracer, walls))
    else:
        first, differs, walls, raw_walls, latencies, raw_latencies, layer_times, caches = \
            run_passes(workload, tracer, pace, args.seconds)
        rss_mb = peak_rss_mb()
        verdicts = judge(workload, first, differs)
        if args.trace:
            layers = traced_layers(workload, tracer, first, raw_walls, layer_times, caches)
            if args.workload == "cli-mix":
                for group, times in workload.latency_by_verb(raw_latencies).items():
                    key = "cli.error_exit_ms" if group == "error" else f"cli.call_ms.{group}"
                    layers[key] = 1000 * statistics.median(times)
                repeats = 3 if args.tiny else 9
                layers["cli.import_ms"] = python_ms(["-c", "import arbozeta.cli"], repeats)
                layers["cli.python_floor_ms"] = python_ms(["-c", "pass"], repeats)
    if args.trace:
        out = ROOT / "perfbench" / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(out, {"workload": args.workload, "seed": args.seed, "walls": raw_walls})

    failed = sum(v != workloads.OK for v in verdicts)
    print(json.dumps({
        "wall_s": statistics.median(walls),
        "passes": len(walls),
        "op_p50_ms": 1000 * percentile(latencies, 50),
        "op_p90_ms": 1000 * percentile(latencies, 90),
        "op_samples": len(latencies),
        "raw_wall_s": statistics.median(raw_walls),
        "raw_op_p50_ms": 1000 * percentile(raw_latencies, 50),
        "raw_op_p90_ms": 1000 * percentile(raw_latencies, 90),
        "probe_ms": 1000 * statistics.median(pace.took) if pace.took else 0.0,
        "probes": len(pace.took),
        "attempted": len(verdicts),
        "failed": failed,
        "wrong": sum(v == workloads.WRONG for v in verdicts),
        "layers": layers,
        "peak_rss_mb": rss_mb,
        "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
