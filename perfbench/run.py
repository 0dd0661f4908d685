#!/usr/bin/env python3
"""Layered benchmark for the supersat CLI and library.

Run from the repository root:

    python3 perfbench/run.py --workload count-n16 --seed 1 --seconds 30 --trace 0

With --trace 0 it times the workload's CLI command sequence and prints the
end-to-end metrics; with --trace 1 it prints the per-layer metrics of a
separate traced run.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the
run metadata.  A fuller record, with spans and self times when traced, goes
to .perfbench/BENCH_<workload>_<seed>_<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

WORKLOADS = ("count-n16", "construct-n16", "small-n")
# the inputs are set up this many times, identically; setup_s is the median
SETUP_ROUNDS = 5


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return out.stdout.strip() or None


def run_metadata(root: Path, backend: str, nproc: int, load_before, load_after) -> dict:
    import cpuinfo

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "cpu_brand": cpuinfo.get_cpu_info().get("brand_raw"),
        "nproc": nproc,
        "numpy": numpy_version,
        "backend": backend,
        "git_commit": git_commit(root),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "supersat" / "cli.py").is_file():
        print("error: run from the root of a supersat checkout (src/supersat missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import supersat
    import workloads
    import tracing

    load_before = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    # children inherit the pin, so each gauge() runs on the CPU its command ran on
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work = root / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload, setups = workloads.set_up(args.workload, args.seed, work, SETUP_ROUNDS)
        runner = workloads.Runner(root, work)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
        if args.trace:
            trace_id = f"{args.workload}-{args.seed}-{os.getpid()}"
            metrics, spans, errors, checks = tracing.traced_run(
                workload, runner, args.seed, work, trace_id
            )
            units = {name: trace_unit(name) for name in metrics}
            record["spans"] = spans
        else:
            # whole sequences only: stop when another one as long as the
            # last would overrun --seconds
            walls = [[] for _ in workload.sequence]
            start = time.perf_counter()
            while True:
                before = time.perf_counter()
                for cmd, times in zip(workload.sequence, walls):
                    run = runner.run(cmd)
                    times.append(workloads.gauged(run.wall, run.gauge))
                now = time.perf_counter()
                if (now - start) + (now - before) > args.seconds:
                    break
            measured = workloads.end_to_end(setups, walls, runner.runs)
            metrics = {name: value for name, (value, _) in measured.items()}
            units = {name: unit for name, (_, unit) in measured.items()}
            record["gauged_walls"] = walls
            errors, checks = [], 0
        errors = [run.error for run in runner.runs if run.error] + errors
        attempted = len(runner.runs) + checks
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = run_metadata(root, supersat.BACKEND, nproc, load_before, os.getloadavg())
    meta["pinned_cpu"] = cpu
    record.update(
        meta=meta,
        setup_gauged=setups,
        setup_times=workload.setup_times,
        commands=[vars(run) for run in runner.runs],
        errors=errors,
    )
    out = root / ".perfbench" / f"BENCH_{args.workload}_{args.seed}_{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for error in errors:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


def trace_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ns_per_member_level"):
        return "ns"
    if name.endswith("family_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
