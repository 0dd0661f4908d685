"""Seeded inputs, CLI command sequences and correctness gates for the
benchmark workloads.

Every workload is a list of `supersat` CLI commands built from a workload
seed.  Each command carries its own gate, which runs after the command and
outside its timing; a nonzero exit or a failed gate counts as a failed
operation and is never dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import supersat
from supersat import __version__
from supersat.bounds import build_extremal_family, supersat_bound, tight_x_max
from supersat.core import level_words, parse_family, serialize_family, sigma
from supersat.counting import count_k_chains_naive

# n of the count and construct workloads: large enough that library work
# outweighs process start-up, small enough that a run repeats each command
# often enough for the median of its times to be steady
N_BIG = 16
COUNT_K = 3
CONSTRUCT_KS = (2, 3, 4, 5)
# (n, k, size, iterations) of the two annealer commands
ANNEAL = ((8, 2, 132, 2000), (10, 3, 700, 200))
KLEITMAN_N = 4
KLEITMAN_KS = (2, 3, 4, 5)
SUITES = ("scd", "counting", "theorem")
VERSION_CALLS = 10

# A gate returns None when the command's output is correct, else a reason.
Gate = Callable[[str], Optional[str]]


@dataclass
class Command:
    kind: str
    args: list[str]
    gate: Gate


@dataclass
class ChildRun:
    kind: str
    start: float
    wall: float
    cpu: float
    rss_mb: float
    error: Optional[str]
    gauge: float  # mean gauge() just before and just after the child


@dataclass
class Workload:
    name: str
    sequence: list[Command]
    setup_times: list[float]
    # what the in-process replay needs: library inputs keyed by command
    replay: dict = field(default_factory=dict)


# wait4's ru_maxrss starts from the parent's own peak RSS, so each child
# runs the CLI through this shim and writes its own VmHWM on the way out
_LAUNCH = """
import atexit, runpy, sys
def report(path=sys.argv.pop(1)):
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(peak)
atexit.register(report)
runpy.run_module("supersat.cli", run_name="__main__", alter_sys=True)
"""


class Runner:
    """Runs CLI children one at a time and gates their output."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONSTARTUP", None)
        self.runs: list[ChildRun] = []

    def run(self, cmd: Command) -> ChildRun:
        out_path = self.work / "stdout.txt"
        err_path = self.work / "stderr.txt"
        rss_path = self.work / "peak_kib.txt"
        rss_path.unlink(missing_ok=True)
        argv = [sys.executable, "-c", _LAUNCH, str(rss_path), *cmd.args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            before = gauge()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            after = gauge()
        proc.returncode = os.waitstatus_to_exitcode(status)
        error = None
        peak_kib = int(rss_path.read_text()) if rss_path.is_file() else 0
        if proc.returncode != 0:
            error = f"exit {proc.returncode}: {err_path.read_text(errors='replace')[-300:]}"
        elif not peak_kib:
            error = "the child reported no peak RSS"
        else:
            try:
                error = cmd.gate(out_path.read_text())
            except (ValueError, KeyError, TypeError, OSError) as exc:
                error = f"gate raised {exc!r}"
        result = ChildRun(
            cmd.kind,
            start,
            wall,
            usage.ru_utime + usage.ru_stime,
            peak_kib / 1024,
            None if error is None else f"{' '.join(cmd.args)}: {error}",
            (before + after) / 2,
        )
        self.runs.append(result)
        return result

    def run_sequence(self, commands: list[Command]) -> float:
        """Summed wall time of the commands; gates run between them."""
        return sum(self.run(cmd).wall for cmd in commands)


# The host's CPU speed drifts by up to 1.5x, over seconds to minutes, as
# other tenants load it.  Each timing is therefore divided by gauge(), a
# fixed pure-Python loop timed on the same CPU right around it, and given
# in seconds at the speed where gauge() takes GAUGE_NOMINAL_S.  The loop
# reads a 2^16-entry table at scattered places, so that it feels cache
# contention as the library's 2^n-entry tables do.
GAUGE_LOOPS = 70_000
GAUGE_NOMINAL_S = 0.020
_GAUGE_TABLE = [i * i for i in range(1 << 16)]


def gauge() -> float:
    """Seconds that a fixed pure-Python loop takes now."""
    table = _GAUGE_TABLE
    start = time.perf_counter()
    acc = 0
    for i in range(GAUGE_LOOPS):
        acc ^= table[(i * 40503) & 0xFFFF] >> (i & 7)
    return time.perf_counter() - start


def gauged(seconds: float, gauge_s: float) -> float:
    return seconds * GAUGE_NOMINAL_S / gauge_s


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _antithetic(rng: random.Random, hi: int) -> tuple[int, int]:
    # x and hi + 1 - x: every seed gets a different pair, but the pair's
    # total added-row work is the same, so seeds do not spread wall_s
    x = rng.randint(1, hi)
    return x, hi + 1 - x


def seeded_selector(rng: random.Random):
    """Added-row selector for build_extremal_family; any selection gives
    the same chain count."""

    def select(n: int, lvl: int, count: int) -> list[int]:
        return rng.sample(list(level_words(n, lvl)), count)

    return select


def expect_count(want: int) -> Gate:
    def gate(stdout: str) -> Optional[str]:
        got = int(json.loads(stdout)["count"])
        return None if got == want else f"count {got}, expected {want}"

    return gate


def expect_family(path: Path, want, size: int) -> Gate:
    passed = set()

    def gate(stdout: str) -> Optional[str]:
        text = path.read_text(encoding="utf-8")
        digest = hashlib.sha256(f"{stdout}\0{text}".encode()).digest()
        if digest in passed:
            return None  # byte for byte an output that passed the full check
        reported = json.loads(stdout)["size"]
        fam = parse_family(text)
        if fam != want:
            return "family differs from build_extremal_family"
        if fam.size() != size or reported != size:
            return f"size {fam.size()} (reported {reported}), expected {size}"
        passed.add(digest)
        return None

    return gate


def expect_anneal(n: int, k: int, size: int) -> Gate:
    def gate(stdout: str) -> Optional[str]:
        payload = json.loads(stdout)
        witness = parse_family(payload["witness"])
        if witness.n != n or witness.size() != size:
            return f"witness over [{witness.n}] of size {witness.size()}, expected [{n}], {size}"
        naive = count_k_chains_naive(witness, k)
        got = int(payload["min_count"])
        return None if got == naive else f"min_count {got}, naive count {naive}"

    return gate


def expect_rows(want: list[int]) -> Gate:
    def gate(stdout: str) -> Optional[str]:
        rows = json.loads(stdout)["rows"]
        got = [int(row["min_count"]) for row in rows]
        if got != want or not all(row["exact"] for row in rows):
            return f"rows {got}, expected exact {want}"
        return None

    return gate


def expect_ok(stdout: str) -> Optional[str]:
    payload = json.loads(stdout)
    return None if payload["ok"] is True else f"suite reported ok={payload['ok']}"


def expect_version(stdout: str) -> Optional[str]:
    want = f"supersat {__version__}"
    return None if stdout.strip() == want else f"printed {stdout.strip()!r}, expected {want!r}"


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def small_inputs(rng: random.Random) -> tuple[list[tuple], dict[str, int]]:
    """Annealer (n, k, size, iterations, seed) tuples and verify-suite seeds."""
    anneal = [(*shape, rng.randrange(1 << 31)) for shape in ANNEAL]
    return anneal, {suite: rng.randrange(1 << 31) for suite in SUITES}


def anneal_commands(anneal: list[tuple]) -> list[Command]:
    commands = []
    for n, k, size, iters, seed in anneal:
        args = ["oracle", "--n", str(n), "--k", str(k), "--size", str(size),
                "--heuristic", "--seed", str(seed), "--iters", str(iters)]  # fmt: skip
        commands.append(Command("oracle", args, expect_anneal(n, k, size)))
    return commands


def version_commands() -> list[Command]:
    return [Command("version", ["--version"], expect_version)] * VERSION_CALLS


_EXACT_ROWS = """
import json, sys
from supersat.oracle import min_chain_count_exact
n, ks = int(sys.argv[1]), [int(k) for k in sys.argv[2:]]
print(json.dumps([[min_chain_count_exact(n, k, m).min_count for m in range((1 << n) + 1)] for k in ks]))
"""


def exact_rows() -> tuple[list[list[int]], float]:
    """The exact minimum rows of kleitman --n 4 for each K, and the seconds
    they took.  They are computed in a fresh process, because the library
    caches its tables and every set-up round must pay for them."""
    env = dict(os.environ, PYTHONPATH=str(Path(supersat.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", _EXACT_ROWS, str(KLEITMAN_N), *map(str, KLEITMAN_KS)]
    start = time.perf_counter()
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout), time.perf_counter() - start


def kleitman_commands(rows: list[list[int]]) -> list[Command]:
    commands = []
    for k, want in zip(KLEITMAN_KS, rows):
        args = ["kleitman", "--n", str(KLEITMAN_N), "--k", str(k), "--json"]
        commands.append(Command("kleitman", args, expect_rows(want)))
    return commands


def verify_commands(suites: dict[str, int]) -> list[Command]:
    return [
        Command("verify", ["verify", "--suite", suite, "--seed", str(seed)], expect_ok)
        for suite, seed in suites.items()
    ]


def build_count(seed: int, work: Path) -> Workload:
    """Two n = 16, k = 3 extremal families with seeded surplus and added-row
    sets, written as family files; the sequence counts both."""
    rng = _rng("count-n16", seed)
    commands, setups, files = [], [], []
    for i, x in enumerate(_antithetic(rng, tight_x_max(N_BIG, COUNT_K))):
        path = work / f"count-{i}.fam"
        start = time.perf_counter()
        fam = build_extremal_family(N_BIG, COUNT_K, x, seeded_selector(rng))
        path.write_text(serialize_family(fam), encoding="utf-8")
        setups.append(time.perf_counter() - start)
        want = supersat_bound(N_BIG, COUNT_K, x)
        args = ["count", "--k", str(COUNT_K), "--family", path.name]
        commands.append(Command("count", args, expect_count(want)))
        files.append((path, x))
    return Workload("count-n16", commands, setups, replay={"count": files})


def build_construct(seed: int, work: Path) -> Workload:
    """construct --n 16 for K = 2..5, each K at a seeded surplus X and at its
    antithetic partner; set-up builds the reference families the gate uses."""
    rng = _rng("construct-n16", seed)
    commands, setups, items = [], [], []
    for k in CONSTRUCT_KS:
        for x in _antithetic(rng, tight_x_max(N_BIG, k)):
            want, took = _timed(build_extremal_family, N_BIG, k, x)
            setups.append(took)
            out = work / f"construct-k{k}.fam"
            args = ["construct", "--n", str(N_BIG), "--k", str(k), "--x", str(x), "--out", out.name]
            gate = expect_family(out, want, sigma(N_BIG, k - 1) + x)
            commands.append(Command("construct", args, gate))
            items.append((k, x))
    return Workload("construct-n16", commands, setups, replay={"construct": items})


def build_small(seed: int, work: Path) -> Workload:
    """Annealer, exhaustive-sweep, verify and --version commands; set-up
    fills the exact minimum tables that gate the kleitman rows."""
    rng = _rng("small-n", seed)
    rows, took = exact_rows()
    anneal, suites = small_inputs(rng)
    sequence = [
        *anneal_commands(anneal),
        *kleitman_commands(rows),
        *verify_commands(suites),
        *version_commands(),
    ]
    return Workload("small-n", sequence, [took], replay={"oracle": anneal, "verify": suites})


BUILDERS = {"count-n16": build_count, "construct-n16": build_construct, "small-n": build_small}


def set_up(name: str, seed: int, work: Path, rounds: int) -> tuple[Workload, list[float]]:
    """Sets the workload up `rounds` times, identically; returns the last
    and the gauged set-up seconds of each round."""
    seconds = []
    for _ in range(rounds):
        before = gauge()
        workload = BUILDERS[name](seed, work)
        seconds.append(gauged(sum(workload.setup_times), (before + gauge()) / 2))
    return workload, seconds


def end_to_end(setups: list[float], walls: list[list[float]], runs: list[ChildRun]) -> dict:
    """setups: gauged seconds of each set-up round; walls: gauged wall
    times of each command of the sequence, one per repeat."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(statistics.median(times) for times in walls), "s"),
        "peak_rss_mb": (max(run.rss_mb for run in runs), "MiB"),
    }
