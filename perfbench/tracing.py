"""The traced run: spans kept in memory around each call into a supersat
module, and the per-layer metrics derived from them.

Spans are recorded here, in the benchmark, around public library calls; the
library itself is not instrumented.  A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from supersat.bounds import build_extremal_family, supersat_bound, tight_x_max
from supersat.core import build_b_family, parse_family, serialize_family, sigma
from supersat.counting import count_k_chains, count_k_chains_naive
from supersat.oracle import centered_family, min_chain_count_exact, min_chain_count_heuristic
from supersat.scd import scd_inductive, validate_scd
from supersat.verify import run_suite

import workloads as wl

MODULES = ("core", "bounds", "counting", "oracle", "verify", "scd", "cli")
# the n the scd suite validates up to
SCD_N = 8
# count_k_chains calls per annealer shape for counting.small_calls_per_s
SMALL_CALLS = {(8, 2): 1000, (10, 3): 50}
CENSUS_N = 10
CENSUS_K = 3


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: str


@dataclass
class Tracer:
    trace_id: str
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    checks: int = 0
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.trace_id)
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def record(self, name: str, start: float, seconds: float) -> None:
        """A child span measured elsewhere, such as in another process."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(len(self.spans), name, start, start + seconds, parent, self.trace_id))

    def run_cli(self, runner, cmd):
        """Run one CLI command; its span covers the child, not the gate."""
        run = runner.run(cmd)
        self.record(f"cli.{cmd.kind}", run.start, run.wall)
        return run

    def adopt(self, other: "Tracer") -> None:
        """Graft another tracer's spans under the current span."""
        base = len(self.spans)
        here = self._stack[-1] if self._stack else None
        for s in other.spans:
            parent = here if s.parent is None else s.parent + base
            self.spans.append(Span(s.id + base, s.name, s.start, s.end, parent, self.trace_id))
        self.counts = {**other.counts, **self.counts}
        self.errors += other.errors
        self.checks += other.checks

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.errors.append(what)

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def has(self, name: str) -> bool:
        return any(s.name == name for s in self.spans)

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self) -> list[dict]:
        return [
            {**vars(s), "self": own} for s, own in zip(self.spans, self.self_times())
        ]


def family_bytes(family) -> int:
    """Bytes held by the family's fields, whatever its representation."""
    return sum(sys.getsizeof(value) for value in vars(family).values())


def _consume(family) -> int:
    return sum(1 for _ in family.words())


def count_levels(tr: Tracer, family, k: int) -> tuple[dict, int]:
    """Counts for k = 1..k; level j costs t(j + 1) - t(j)."""
    times = []
    for j in range(1, k + 1):
        with tr.span(f"counting.count_k_chains.k{j}") as span:
            got = count_k_chains(family, j)
        times.append(span.end - span.start)
    member_levels = family.size() * (k - 1)
    metrics = {f"counting.level_{j}.s": times[j] - times[j - 1] for j in range(1, k)}
    metrics["counting.count_k_chains.s"] = times[-1]
    metrics["counting.member_levels"] = member_levels
    metrics["counting.ns_per_member_level"] = times[-1] / member_levels * 1e9
    return metrics, got


def replay_count(tr: Tracer, workload, seed: int) -> tuple[dict, list]:
    """The library work of one count command, plus the set-up that made its
    input; returns metrics and (CLI kind, position, library seconds)."""
    path, x = workload.replay["count"][0]
    rng = random.Random(f"replay:{seed}")
    with tr.span("replay.count"):
        built = tr.call(
            "bounds.build_extremal_family",
            build_extremal_family, wl.N_BIG, wl.COUNT_K, x, wl.seeded_selector(rng),
        )  # fmt: skip
        tr.call("core.build_b_family", build_b_family, wl.N_BIG, wl.COUNT_K - 1)
        tr.call("core.serialize_family", serialize_family, built)
        with tr.span("core.parse_family") as parse:
            fam = parse_family(path.read_text(encoding="utf-8"))
        tr.call("core.family_words", _consume, fam)
        metrics, got = count_levels(tr, fam, wl.COUNT_K)
    tr.check(got == supersat_bound(wl.N_BIG, wl.COUNT_K, x), f"replayed count {got} at x={x}")
    tr.counts["core.family_bytes"] = family_bytes(fam)
    library = (parse.end - parse.start) + metrics["counting.count_k_chains.s"]
    return metrics, [("count", 0, library)]


def replay_construct(tr: Tracer, workload, seed: int) -> tuple[dict, list]:
    """The library work of the first construct command of each K."""
    pairs = []
    items = workload.replay["construct"]
    for index in range(0, len(items), 2):
        k, x = items[index]
        with tr.span("replay.construct"):
            with tr.span("bounds.build_extremal_family") as build:
                fam = build_extremal_family(wl.N_BIG, k, x)
            tr.call("core.build_b_family", build_b_family, wl.N_BIG, k - 1)
            tr.call("core.family_words", _consume, fam)
            with tr.span("core.serialize_family") as ser:
                serialize_family(fam)
        tr.check(fam.size() == sigma(wl.N_BIG, k - 1) + x, f"replayed construct k={k} x={x}")
        tr.counts["core.family_bytes"] = max(tr.counts.get("core.family_bytes", 0), family_bytes(fam))
        pairs.append(("construct", index, (build.end - build.start) + (ser.end - ser.start)))
    return {}, pairs


_FRESH_TABLE = """
import json, sys, time
from supersat.oracle import kleitman_report, min_chain_count_exact
n, k = int(sys.argv[1]), int(sys.argv[2])
t0 = time.perf_counter()
min_chain_count_exact(n, k, 0)
t1 = time.perf_counter()
rows = kleitman_report(n, k)
t2 = time.perf_counter()
print(json.dumps({"table": t1 - t0, "report": t2 - t1, "mins": [r.min_count for r in rows]}))
"""


def replay_small(tr: Tracer, anneal, suites: dict, env: dict) -> tuple[dict, list]:
    """Annealer, exhaustive sweep, verify and SCD layers on the small-n
    inputs; returns metrics and (CLI kind, position, library seconds)."""
    pairs = []
    witnesses = []
    iters = 0
    for pos, (n, k, size, its, seed) in enumerate(anneal):
        with tr.span("replay.oracle"):
            tr.call("oracle.centered_family", centered_family, n, size)
            with tr.span("oracle.anneal") as span:
                result = min_chain_count_heuristic(n, k, size, seed, its)
            with tr.span("core.serialize_family") as ser:
                text = serialize_family(result.witness)
            fam = tr.call("core.parse_family", parse_family, text)
            tr.call("core.family_words", _consume, fam)
        tr.check(count_k_chains_naive(fam, k) == result.min_count, f"replayed anneal {n},{k},{size}")
        iters += its
        witnesses.append((fam, k))
        pairs.append(("oracle", pos, (span.end - span.start) + (ser.end - ser.start)))
    metrics = {"oracle.anneal.iters_per_s": iters / tr.total("oracle.anneal")}

    with tr.span("replay.counting"):
        calls = 0
        with tr.span("counting.small_calls") as span:
            for fam, k in witnesses:
                for _ in range(SMALL_CALLS[(fam.n, k)]):
                    count_k_chains(fam, k)
                    calls += 1
        metrics["counting.small_calls_per_s"] = calls / (span.end - span.start)
        x = tight_x_max(CENSUS_N, CENSUS_K)
        fam = tr.call("bounds.build_extremal_family", build_extremal_family, CENSUS_N, CENSUS_K, x)
        tr.call("core.build_b_family", build_b_family, CENSUS_N, CENSUS_K - 1)
        level_metrics, got = count_levels(tr, fam, CENSUS_K)
        metrics.update(level_metrics)
        tr.check(got == supersat_bound(CENSUS_N, CENSUS_K, x), f"count at n={CENSUS_N}, x={x}")
        tr.counts["core.family_bytes"] = family_bytes(fam)

    for k in wl.KLEITMAN_KS:
        argv = [sys.executable, "-c", _FRESH_TABLE, str(wl.KLEITMAN_N), str(k)]
        with tr.span("oracle.fresh_process") as span:
            out = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
            ok = out.returncode == 0
            child = json.loads(out.stdout) if ok else {"table": 0.0, "report": 0.0, "mins": []}
            # times measured in the child, placed at the start of its span
            tr.record(f"oracle.min_table.k{k}", span.start, child["table"])
            tr.record("oracle.kleitman_report", span.start + child["table"], child["report"])
        sizes = range((1 << wl.KLEITMAN_N) + 1)
        want = [min_chain_count_exact(wl.KLEITMAN_N, k, m).min_count for m in sizes]
        tr.check(ok and child["mins"] == want, f"fresh-process kleitman k={k}: {out.stderr[-200:]}")
        metrics[f"oracle.min_table.k{k}.s"] = child["table"]

    for pos, (suite, seed) in enumerate(suites.items()):
        with tr.span(f"verify.{suite}") as span:
            checks = run_suite(suite, seed)
        tr.check(all(c.ok for c in checks), f"verify {suite} seed {seed}")
        metrics[f"verify.{suite}.checks"] = len(checks)
        pairs.append(("verify", pos, span.end - span.start))

    dec = tr.call("scd.scd_inductive", scd_inductive, SCD_N)
    report = tr.call("scd.validate_scd", validate_scd, dec)
    tr.check(report.ok, f"validate_scd({SCD_N})")
    return metrics, pairs


TIMED_SPANS = (
    "core.parse_family", "core.serialize_family", "core.family_words", "core.build_b_family",
    "bounds.build_extremal_family", "oracle.centered_family", "oracle.kleitman_report",
    "scd.scd_inductive", "scd.validate_scd", *(f"verify.{s}" for s in wl.SUITES),
)  # fmt: skip


def span_metrics(tr: Tracer) -> dict:
    metrics = {f"{name}.s": tr.total(name) for name in TIMED_SPANS if tr.has(name)}
    metrics.update(tr.counts)
    return metrics


def census_replay(tr: Tracer, seed: int, env: dict) -> dict:
    """Layers the count and construct workloads do not reach, timed on small-n inputs;
    the spans join the workload's trace, the metrics are returned apart."""
    census = Tracer(tr.trace_id)
    anneal, suites = wl.small_inputs(random.Random(f"census:{seed}"))
    with census.span("census"):
        metrics, _ = replay_small(census, anneal, suites, env)
    metrics.update(span_metrics(census))
    tr.adopt(census)
    return metrics


def census_commands(rng: random.Random, work, skip: set) -> list:
    """One small CLI command of each kind the workload's own sequence lacks,
    so every traced run reports every cli.<command>.s."""
    x = rng.randint(1, tight_x_max(CENSUS_N, CENSUS_K))
    want = build_extremal_family(CENSUS_N, CENSUS_K, x)
    out = work / "census-out.fam"
    args = ["construct", "--n", str(CENSUS_N), "--k", str(CENSUS_K), "--x", str(x), "--out", out.name]
    construct = wl.Command(
        "construct", args, wl.expect_family(out, want, sigma(CENSUS_N, CENSUS_K - 1) + x)
    )
    family = work / "census.fam"
    family.write_text(serialize_family(want), encoding="utf-8")
    args = ["count", "--k", str(CENSUS_K), "--family", family.name]
    count = wl.Command("count", args, wl.expect_count(supersat_bound(CENSUS_N, CENSUS_K, x)))
    anneal, suites = wl.small_inputs(rng)
    commands = [
        construct,
        count,
        wl.anneal_commands(anneal)[0],
        wl.kleitman_commands(wl.exact_rows()[0])[0],
        wl.verify_commands(suites)[0],
        *wl.version_commands()[: wl.VERSION_CALLS // 2],
    ]
    return [c for c in commands if c.kind not in skip]


def traced_run(workload, runner, seed: int, work, trace_id: str) -> tuple[dict, list, list[str], int]:
    """Returns per-layer metrics, spans, errors and the number of checks."""
    sequence = workload.sequence
    start = time.perf_counter()
    runner.run_sequence(sequence)
    untraced = time.perf_counter() - start

    tr = Tracer(trace_id)
    with tr.span("workload"):
        first_run = len(runner.runs)
        with tr.span("harness.cli_sequence") as seq:
            for cmd in sequence:
                tr.run_cli(runner, cmd)
        traced = seq.end - seq.start
        seq_runs = runner.runs[first_run:]

        if workload.name == "small-n":
            inputs = workload.replay
            primary, pairs = replay_small(tr, inputs["oracle"], inputs["verify"], runner.env)
        else:
            replay = replay_count if workload.name == "count-n16" else replay_construct
            primary, pairs = replay(tr, workload, seed)
        cli_pairs = [(_nth(seq_runs, kind, pos), lib) for kind, pos, lib in pairs]
        primary = {**span_metrics(tr), **primary}
        census = {} if workload.name == "small-n" else census_replay(tr, seed, runner.env)

        skip = {run.kind for run in seq_runs}
        first_census = len(runner.runs)
        with tr.span("harness.cli_census"):
            for cmd in census_commands(random.Random(f"census-cli:{seed}"), work, skip):
                tr.run_cli(runner, cmd)
        cli_runs = seq_runs + runner.runs[first_census:]

    metrics = {**census, **primary}
    for kind in ("count", "construct", "oracle", "kleitman", "verify"):
        metrics[f"cli.{kind}.s"] = statistics.median(r.wall for r in cli_runs if r.kind == kind)
    metrics["cli.startup.s"] = statistics.median(r.wall for r in cli_runs if r.kind == "version")
    metrics["cli.overhead.s"] = statistics.median(run.wall - lib for run, lib in cli_pairs)
    metrics["cli.peak_rss_mb"] = max(r.rss_mb for r in cli_runs)
    metrics["trace.overhead_s"] = traced - untraced

    spans = tr.dump()
    own = {}
    for span in spans:
        module = span["name"].split(".", 1)[0]
        key = module if module in MODULES else "harness"
        own[key] = own.get(key, 0.0) + span["self"]
    for key, value in own.items():
        metrics[f"{key}.self_s"] = value
    return metrics, spans, tr.errors, tr.checks


def _nth(runs, kind: str, pos: int):
    return [r for r in runs if r.kind == kind][pos]
