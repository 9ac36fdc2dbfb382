#!/usr/bin/env python3
"""arbozeta benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli-mix,symbolic,numeric,check-all}
        --seed N --seconds S --trace {0,1} [--tiny]

The set-up of a fresh worker process (import arbozeta, build the seeded
inputs) is timed SETUP_RUNS times and reported as a median.  The last worker
then runs the workload and checks its outputs; it reports peak RSS, read
with getrusage for itself and the CLI processes it ran, before the checks.
With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The last line of stdout is the result; lines before it
are a readable table and the run environment.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import REFERENCE_S  # beside this script, so on sys.path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 170
WORKLOADS = ("cli-mix", "symbolic", "numeric", "check-all")


def start_worker(args, setup_only: bool):
    """Start a worker and wait for its READY line; returns it and the set-up time."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    return proc, ready


def finish_worker(proc) -> str:
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker still running after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return stdout


def environment(args) -> dict:
    env = {"seed": args.seed, "workload": args.workload, "python": platform.python_version(),
           "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), "unknown")
    except OSError:
        env["cpu"] = "unknown"
    git = ["git", "-C", str(ROOT)]
    # Stop git at the checkout: a checkout that is not a repository reports unknown.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        env["git_sha"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                        text=True, check=True, env=git_env).stdout.strip()
        env["git_dirty"] = bool(subprocess.run(git + ["status", "--porcelain"], env=git_env,
                                               capture_output=True, text=True).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        env["git_sha"], env["git_dirty"] = "unknown (not a git checkout)", None
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args()

    if os.environ.get("ARBOZETA_MAX_N"):
        print("error: ARBOZETA_MAX_N is set; it changes summation horizons and so every "
              "numeric timing. Unset it to benchmark.", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "arbozeta" / "__init__.py").is_file():
        print(f"error: no arbozeta sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment(args)
    try:
        setups = []
        for _ in range(SETUP_RUNS - 1):
            proc, ready = start_worker(args, setup_only=True)
            finish_worker(proc)
            setups.append(ready)
        proc, ready = start_worker(args, setup_only=False)
        setups.append(ready)
        measured = json.loads(finish_worker(proc).splitlines()[-1])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["numpy"] = measured["numpy"]

    attempted, failed = measured["attempted"], measured["failed"]
    if args.trace:
        values = measured["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": measured["wall_s"],
            "op_p50_ms": measured["op_p50_ms"],
            "op_p90_ms": measured["op_p90_ms"],
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            print(f"warning: {entry['name']} is not measured by {args.workload}", file=sys.stderr)
        metrics[entry["name"]] = {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={measured['passes']} op_samples={measured['op_samples']}")
    if not args.trace:
        print(f"#   fail_share = {failed}/{attempted} = {failed / attempted:.4f} "
              f"(ok_share = 1 - fail_share; {measured['wrong']} wrong outputs)")
        if measured["probes"]:
            print(f"#   machine-speed probe: median {measured['probe_ms']:.4f} ms over "
                  f"{measured['probes']} probes (reference {1000 * REFERENCE_S:g} ms); unscaled: "
                  f"wall_s {measured['raw_wall_s']:.4g}, op_p50_ms {measured['raw_op_p50_ms']:.4g}, "
                  f"op_p90_ms {measured['raw_op_p90_ms']:.4g}")
        if measured["op_samples"] < 100:
            print(f"#   op_p90_ms rests on {measured['op_samples']} samples, "
                  "fewer than 10 beyond it")
    for name, metric in metrics.items():
        print(f"#   {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print("# env " + json.dumps(env))
    print(json.dumps({"correct": measured["wrong"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
