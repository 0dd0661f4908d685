"""Check that no `construct`, `count` or `scd` path is quadratic in 2^n;
pytest does not collect this file.  Run it from anywhere:

    python tests/scale.py

Each command runs as a whole process, `python -m supersat.cli` with this
checkout's `src` first on the path, at n = 18 and at n = 20, in three
rounds.  Each takes the least wall time and max RSS of its rounds, less
the least of `--version`, which is start-up alone.  Work linear in 2^n
grows x4 from n = 18 to 20, n * 2^n work x4.4 and quadratic work x16, so
a growth above x6 in time or in RSS fails: the table is printed, and the
exit status is 1.  `count` reads the `construct` file of its n.

Exempt by design, and not run: `kleitman` and `oracle --heuristic`, whose
n <= 10 cap keeps them from n = 18, and the exhaustive n <= 4 table.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (18, 20)
ROUNDS = 3
BOUND = 6.0


def commands(n: int, family: str) -> dict[str, list[str]]:
    rotation = ",".join(map(str, (*range(2, n + 1), 1)))
    return {
        "construct --k 4 --x 1": ["construct", "--n", str(n), "--k", "4", "--x", "1", "--out", family],
        "count --k 4": ["count", "--k", "4", "--family", family],
        "scd": ["scd", "--n", str(n)],
        "scd --validate": ["scd", "--n", str(n), "--validate"],
        "scd --permute": ["scd", "--n", str(n), "--permute", rotation],
        "scd --permute --validate": ["scd", "--n", str(n), "--permute", rotation, "--validate"],
    }


def run(argv: list[str], env: dict[str, str]) -> tuple[float, float]:
    """Wall seconds and max RSS in MiB of one CLI process, its stdout discarded."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "supersat.cli", *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)}: exit {proc.returncode}")
    return elapsed, usage.ru_maxrss / 1024


def main() -> int:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    best: dict[tuple[str, int], tuple[float, float]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(ROUNDS):
            jobs = [("--version", 0, ["--version"])]
            for n in SIZES:
                jobs += [(name, n, argv) for name, argv in commands(n, str(Path(tmp) / f"{n}.fam")).items()]
            for name, n, argv in jobs:
                t, rss = run(argv, env)
                old = best.get((name, n), (t, rss))
                best[name, n] = (min(t, old[0]), min(rss, old[1]))
    t0, rss0 = best["--version", 0]
    print(f"start-up (--version): {t0:.3f} s, {rss0:.1f} MiB; growth bound x{BOUND:g}")
    print(f"| command | time above start-up, n = {SIZES[0]} -> {SIZES[1]} | growth "
          f"| RSS above start-up, n = {SIZES[0]} -> {SIZES[1]} | growth |")
    print("| --- | --- | --- | --- | --- |")
    bad = []
    for name in commands(0, ""):
        (ta, ra), (tb, rb) = (best[name, n] for n in SIZES)
        dt, dr = (ta - t0, tb - t0), (ra - rss0, rb - rss0)
        growth = [b / a if a > 0 else float("inf") for a, b in (dt, dr)]
        print(f"| `{name}` | {dt[0]:.3f} -> {dt[1]:.3f} s | x{growth[0]:.2f} "
              f"| {dr[0]:.1f} -> {dr[1]:.1f} MiB | x{growth[1]:.2f} |")
        if max(growth) > BOUND:
            bad.append(name)
    if bad:
        print(f"grows by more than x{BOUND:g} from n = {SIZES[0]} to {SIZES[1]}: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
