"""Run `construct`, `count` and every `scd` mode as whole processes at
n = 18 and 20: check that none is quadratic in 2^n, and pin their outputs
and peaks at n = 20.  pytest does not collect this file.  Run it from
anywhere:

    python tests/scale.py

Each command runs as `python -m supersat.cli` with this checkout's `src`
first on the path, in three rounds, in a temp dir that holds its family
files and takes its stdout and stderr as files.  A process's max RSS counts
the peak of the process it was forked from, and this script's own peak,
its source compiled, reaches a CLI process's start-up: so a small
`python -S` launcher forks and times each CLI process.

Growth.  Each row takes the least wall time and max RSS of its rounds, less
the least of `--version`, which is start-up alone and runs before every
run.  Within a round each row runs at n = 18 and then at n = 20 before the
next row starts, so `construct` still runs before `count` at each n.  Work
linear in 2^n grows x4 from n = 18 to 20, n * 2^n work x4.4 and quadratic
work x16, so a growth above x6 in time or in RSS fails.  The rows:
`construct --k k --x C(n, n//2 + k//2)`, the middle k - 1 rows and the
whole row next to them (`tight_x_max(n, k)`), for k = 4 and 2;
`count --k k` on that file; `scd`, `scd --validate`,
`scd --permute 2,...,n,1` and the permuted `--validate`.

Pins, on every round.  Each `count` equals what `bound` prints for its
family, at both sizes.  At n = 20 the k = 4 family file, the stdout of
every `scd` mode and the k = 2 family's size are pinned, and so is each
command's largest max RSS of the rounds.  `count --k 4` on three broken
copies of the k = 4 file (line 3 repeated, a 0xff byte inserted at offset
100, and UTF-8 cut short at the end) exits 5 with no stdout and a pinned
stderr.  The copies are bounded at n = 20 only: the first two fail within
about 10 ms of start-up at either size, and a ratio of two such
differences is noise.

The script imports nothing from `supersat`, hashes and copies files in
64 KiB chunks, and reads whole only the one-line JSON that `construct
--out`, `count` and `bound` print.  Every failure is collected and printed
after the tables, and the exit status is then 1.

Exempt by design, and not run: `kleitman` and `oracle --heuristic`, whose
n <= 10 cap keeps them from n = 18, and the exhaustive n <= 4 table.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (18, 20)
ROUNDS = 3
BOUND = 6.0
FAMILIES = (4, 2)
PINNED = 20
VALID = "5f67284dd63d9c209725d284d7900389ea0e30b86fc90b1b29ce148688d9d5b6"
# at n = 20, the SHA-256 of what a command writes: its --out file, or else its stdout
DIGESTS = {
    "construct --k 4": "ce1f31149c9503d7cc2981c9a102976ed629cd94941594117ffbc54b73f66a87",
    "scd": "eade05e64150306671464ae632d8cf98d9ab9fad70ec3909b019b4e978616c94",
    "scd --validate": VALID,
    "scd --permute": "e839c69ce383b2bd715e3fa2a38d9caefbb12b5420ec3245f8ad8033adb430c2",
    # a permuted SCD of [20] validates to the same report
    "scd --permute --validate": VALID,
}
# C(20, 10) + C(20, 11): the middle row and the whole row next to it
SIZE_K2 = 352_716
# at n = 20, the bound in MiB on a command's largest max RSS over the rounds.
# `construct` marks the added row below one cut word and holds two 2^n-byte
# masks and one block of text; `count` streams its file, so its peak is the
# kernel's tables; no `scd` mode holds a decomposition: `--validate` marks
# one flag per word and `--permute` sorts one level of images at a time; and
# a broken file is read in chunks with no byte decoded twice
PEAKS = {
    "construct --k 4": 20,
    "count --k 4": 42,
    "construct --k 2": 20,
    "scd": 40,
    "scd --validate": 25,
    "scd --permute": 40,
    "scd --permute --validate": 40,
    "count --k 4 on dup.fam": 25,
    "count --k 4 on bad.fam": 25,
    "count --k 4 on cut.fam": 40,
}
# at n = 20, the stderr of `count --k 4` on each broken copy of the k = 4 file
BROKEN = {
    "dup.fam": b"error: line 4: duplicate subset '1 2 3 4 5 6 7 8 10'\n",
    "bad.fam": b"error: bad.fam: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 100: "
    b"invalid start byte)\n",
    "cut.fam": b"error: cut.fam: not UTF-8 text ('utf-8' codec can't decode bytes in position "
    b"17131928-17131929: unexpected end of data)\n",
}


def added(n: int, k: int) -> int:
    """The whole row next to the middle k - 1 rows of an even n."""
    return comb(n, n // 2 + k // 2)


def commands(n: int) -> dict[str, list[str]]:
    """The growth rows at n, in the order they run."""
    rows = {}
    for k in FAMILIES:
        fam = f"k{k}-{n}.fam"
        rows[f"construct --k {k}"] = ["construct", "--n", str(n), "--k", str(k), "--x", str(added(n, k)), "--out", fam]
        rows[f"count --k {k}"] = ["count", "--k", str(k), "--family", fam]
    rotation = ",".join(map(str, (*range(2, n + 1), 1)))
    rows["scd"] = ["scd", "--n", str(n)]
    rows["scd --validate"] = ["scd", "--n", str(n), "--validate"]
    rows["scd --permute"] = ["scd", "--n", str(n), "--permute", rotation]
    rows["scd --permute --validate"] = ["scd", "--n", str(n), "--permute", rotation, "--validate"]
    return rows


# forks one CLI process with its stdout and stderr sent to two files, and
# prints its wall seconds, max RSS in KiB and exit status
LAUNCH = """
import os, sys, time
out, err, *argv = sys.argv[1:]
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.dup2(os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 1)
        os.dup2(os.open(err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)
        os.execv(sys.executable, [sys.executable, "-m", "supersat.cli", *argv])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def run(argv: list[str], tmp: Path, env: dict[str, str]) -> tuple[float, float, int]:
    """Wall seconds, max RSS in MiB and exit status of one CLI process run in
    `tmp`, its stdout and stderr written to the files `out` and `err` there."""
    launch = [sys.executable, "-S", "-c", LAUNCH, "out", "err", *argv]
    elapsed, rss, code = subprocess.run(launch, cwd=tmp, env=env, capture_output=True, check=True).stdout.split()
    return float(elapsed), int(rss) / 1024, int(code)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def field(path: Path, key: str) -> object:
    """One field of the JSON object a command printed, or None."""
    try:
        return json.loads(path.read_bytes())[key]
    except (ValueError, KeyError, TypeError):
        return None


def break_copies(tmp: Path) -> None:
    """The three broken copies of the n = 20 k = 4 family file."""
    fam = tmp / f"k4-{PINNED}.fam"
    with open(fam, "rb") as src, open(tmp / "dup.fam", "wb") as dst:
        head = [src.readline() for _ in range(3)]
        dst.writelines([*head, head[2]])
        shutil.copyfileobj(src, dst)
    with open(fam, "rb") as src, open(tmp / "bad.fam", "wb") as dst:
        dst.write(src.read(100) + b"\xff")
        shutil.copyfileobj(src, dst)
    with open(fam, "rb") as src, open(tmp / "cut.fam", "wb") as dst:
        shutil.copyfileobj(src, dst)
        dst.write(b"1 2\xe2\x82")


def check(name: str, n: int, argv: list[str], code: int, tmp: Path, bounds: dict[tuple[int, int], object]) -> list[str]:
    """What a growth row's run got wrong."""
    if code:
        return [f"{name} at n = {n}: exit {code}: {(tmp / 'err').read_bytes()[:300]!r}"]
    bad = []
    kind, _, k = name.partition(" --k ")
    if kind == "count":
        count, want = field(tmp / "out", "count"), bounds[n, int(k)]
        if count != want:
            bad.append(f"{name} at n = {n}: count {count}, bound {want}")
    if n != PINNED:
        return bad
    if name in DIGESTS:
        digest = sha256(tmp / (argv[-1] if "--out" in argv else "out"))
        if digest != DIGESTS[name]:
            bad.append(f"{name} at n = {n}: sha256 {digest}, pinned {DIGESTS[name]}")
    if name == "construct --k 2" and (size := field(tmp / "out", "size")) != SIZE_K2:
        bad.append(f"{name} at n = {n}: size {size}, pinned {SIZE_K2}")
    return bad


def main() -> int:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    best: dict[tuple[str, int], tuple[float, float]] = {}
    peak: dict[str, float] = {}
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        bounds = {}
        for n in SIZES:
            for k in FAMILIES:
                run(["bound", "--n", str(n), "--k", str(k), "--x", str(added(n, k))], tmp, env)
                bounds[n, k] = field(tmp / "out", "bound")
        # start-up before every run: alone it varies by tens of ms here,
        # about what `construct` does above it at n = 18.  A row's two sizes
        # run back to back, so load that drifts over a round falls on both
        # sides of its ratio
        rows = {n: commands(n) for n in SIZES}
        runs = [job for name in rows[PINNED] for n in SIZES
                for job in (("--version", 0, ["--version"]), (name, n, rows[n][name]))]
        for _ in range(ROUNDS):
            for name, n, argv in runs:
                t, rss, code = run(argv, tmp, env)
                old = best.get((name, n), (t, rss))
                best[name, n] = (min(t, old[0]), min(rss, old[1]))
                if n == PINNED:
                    peak[name] = max(rss, peak.get(name, 0.0))
                if n:
                    failures += check(name, n, argv, code, tmp, bounds)
            if (tmp / f"k4-{PINNED}.fam").exists():
                break_copies(tmp)
            for fam, stderr in BROKEN.items():
                name = f"count --k 4 on {fam}"
                _, rss, code = run(["count", "--k", "4", "--family", fam], tmp, env)
                peak[name] = max(rss, peak.get(name, 0.0))
                got = (code, (tmp / "out").stat().st_size, (tmp / "err").read_bytes())
                if got != (5, 0, stderr):
                    failures.append(f"{name} at n = {PINNED}: exit {got[0]}, stdout {got[1]} bytes, stderr {got[2]!r}")
    t0, rss0 = best["--version", 0]
    print(f"start-up (--version): {t0:.3f} s, {rss0:.1f} MiB; growth bound x{BOUND:g}")
    print(f"| command | time above start-up, n = {SIZES[0]} -> {SIZES[1]} | growth "
          f"| RSS above start-up, n = {SIZES[0]} -> {SIZES[1]} | growth |")
    print("| --- | --- | --- | --- | --- |")
    for name in commands(0):
        (ta, ra), (tb, rb) = (best[name, n] for n in SIZES)
        dt, dr = (ta - t0, tb - t0), (ra - rss0, rb - rss0)
        growth = [b / a if a > 0 else float("inf") for a, b in (dt, dr)]
        print(f"| `{name}` | {dt[0]:.3f} -> {dt[1]:.3f} s | x{growth[0]:.2f} "
              f"| {dr[0]:.1f} -> {dr[1]:.1f} MiB | x{growth[1]:.2f} |")
        if max(growth) > BOUND:
            failures.append(f"{name}: grows by more than x{BOUND:g} from n = {SIZES[0]} to {SIZES[1]}")
    print()
    print(f"| command at n = {PINNED} | largest max RSS of {ROUNDS} rounds | bound |")
    print("| --- | --- | --- |")
    for name, limit in PEAKS.items():
        print(f"| `{name}` | {peak[name]:.1f} MiB | {limit} MiB |")
        if peak[name] >= limit:
            failures.append(f"{name} at n = {PINNED}: max RSS {peak[name]:.1f} MiB, bound {limit} MiB")
    if failures:
        print()
        print("\n".join(dict.fromkeys(failures)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
