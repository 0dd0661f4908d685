"""Replay the mutant corpus of `mutants.json`; pytest does not collect this
file.  Run it from anywhere:

    python tests/run_mutants.py

Each record of the corpus is one edit of one source file under `src/`:
`find` and `replace` are lists of lines, and `tests` names the tests that
the edit must make fail.  First every named test runs on the unmutated
tree, where all of them must pass.  Then, for each mutant, `src/` is copied
to a temporary directory and the edit applied there; its `find` text must
occur exactly once in the file, or the corpus is stale.  Its tests run with
`PYTHONPATH` at the copy, and every one of them must fail.  The exit status
is 0 when each mutant is killed by each of its tests, and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pytest(src: Path, tests: list[str]) -> tuple[int, str]:
    """Exit status and output of pytest on the named tests, with `src` first on the path."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def survivors(output: str, tests: list[str]) -> list[str]:
    """The named tests that the short summary of `output` does not report failed."""
    lines = output.splitlines()
    return [test for test in tests
            if not any(line == f"{outcome} {test}" or line.startswith(f"{outcome} {test} - ")
                       for line in lines for outcome in ("FAILED", "ERROR"))]


def main() -> int:
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))
    named = sorted({test for mutant in mutants for test in mutant["tests"]})
    status, output = pytest(ROOT / "src", named)
    if status:
        print(output)
        print(f"the {len(named)} named tests do not all pass on the unmutated tree")
        return 1
    print(f"unmutated tree: the {len(named)} named tests pass")
    bad = 0
    for mutant in mutants:
        find, replace = "\n".join(mutant["find"]), "\n".join(mutant["replace"])
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            path = Path(tmp) / mutant["file"]
            text = path.read_text(encoding="utf-8")
            if text.count(find) != 1:
                print(f"STALE   {mutant['name']}: its text occurs {text.count(find)} times in {mutant['file']}")
                bad += 1
                continue
            path.write_text(text.replace(find, replace), encoding="utf-8")
            status, output = pytest(src, mutant["tests"])
        alive = survivors(output, mutant["tests"])
        if alive:
            print(output)
            print(f"SURVIVED {mutant['name']}: {', '.join(alive)} did not fail (pytest exit {status})")
            bad += 1
        else:
            print(f"killed  {mutant['name']}")
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed by every named test")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
