"""Self-tests for the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench/tests -q
They start real CLI children; the whole file takes about 90 s.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wl  # noqa: E402


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench" / f"test-{os.getpid()}-{request.node.name}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _metric_units(out):
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metric["unit"] for name, metric in metrics.items()}


def _declared_units(metrics):
    return {metric["name"]: metric["unit"] for metric in metrics}


def test_dropped_member_fails_count_gate(work):
    workload = wl.build_count(1, work)
    path, _ = workload.replay["count"][0]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    runner = wl.Runner(ROOT, work)
    counts = [cmd for cmd in workload.sequence if cmd.kind == "count"]
    run = runner.run(counts[0])
    assert run.error is not None and "expected" in run.error
    assert sum(1 for r in runner.runs if r.error) == 1


def test_printed_metrics_match_benchmark_json():
    bench = _bench_json()
    plain = _run_bench("--workload", "small-n", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert plain.returncode == 0, plain.stderr
    assert _metric_units(plain) == _declared_units(bench["end_to_end"])
    traced = _run_bench("--workload", "small-n", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert traced.returncode == 0, traced.stderr
    assert _metric_units(traced) == _declared_units(bench["per_layer"])
    assert {w["name"] for w in bench["workloads"]} == set(wl.BUILDERS)


def test_seeds_give_different_inputs_that_pass_the_gate(work):
    for name, build in wl.BUILDERS.items():
        built = []
        for seed in (1, 2):
            sub = work / f"{name}-{seed}"
            sub.mkdir()
            workload = build(seed, sub)
            built.append(workload)
            runner = wl.Runner(ROOT, sub)
            chosen = workload.sequence if name == "small-n" else workload.sequence[:3]
            for cmd in chosen:
                assert runner.run(cmd).error is None
        if name == "count-n16":
            # the seed goes into the family files, not the arguments
            inputs = [[path.read_text() for path, _ in w.replay["count"]] for w in built]
        else:
            inputs = [[cmd.args for cmd in w.sequence] for w in built]
        assert inputs[0] != inputs[1], name


def test_exits_nonzero_outside_a_checkout(work):
    shutil.copy(ROOT / "BENCHMARK.json", work)
    shutil.copytree(ROOT / "perfbench", work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench("--workload", "small-n", "--seed", "1", "--seconds", "1", cwd=work)
    assert out.returncode != 0
    assert out.stdout == ""
