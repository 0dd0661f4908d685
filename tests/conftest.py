"""The family files `count` reads, written once per test session, and the
fresh interpreter that the traced-peak tests measure in."""

import ast
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import supersat
from supersat.bounds import build_extremal_family
from supersat.core import serialize_family

# the `src` the tests import supersat from, which a mutant's copy replaces
SRC = str(Path(supersat.__file__).resolve().parents[1])


def traced_peak(setup: str, traced: str, result: str = "None") -> tuple[int, object]:
    """Run `setup` in a fresh interpreter, then the statement `traced` under
    `tracemalloc`; return the traced peak in bytes and the value of the
    expression `result`, a literal evaluated once tracing stops.

    No earlier test shapes the child's allocator, so what it reads depends
    on the snippet alone.  The snippet runs in a function, so that its names
    are locals and no global dict grows in the traced window; tracemalloc is
    imported first, so that no import after `setup` takes objects off the
    free lists.  The child imports supersat from `SRC`, and its last line
    of stdout is the pair."""
    body = textwrap.dedent(setup) + textwrap.dedent(f"""
        tracemalloc.start()
        try:
            {traced}
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(repr((peak, {result})))
        """)
    code = "import tracemalloc\n\ndef run():\n" + textwrap.indent(body, "    ") + "\nrun()\n"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


# `construct --n 14 --k 4 --x 5` in the layouts CI counts, plus a lone-"\r"
# file and one after 70,000 blank lines; each parses to that family
LAYOUTS = ("g.fam", "g.crlf", "g.rev", "g.bom", "g.shuf", "g.sort", "g.cr", "g.blank")


def _family_files() -> dict[str, bytes]:
    text = serialize_family(build_extremal_family(14, 4, 5)).encode()
    header, body = text.split(b"\n", 1)
    lines = body.splitlines(keepends=True)
    shuffled = lines[:]
    random.Random(14).shuffle(shuffled)
    return {
        "g.fam": text,
        "g.crlf": text.replace(b"\n", b"\r\n"),
        "g.rev": header + b"\n# body reversed\n" + b"".join(reversed(lines)),
        "g.bom": b"\xef\xbb\xbf" + text,
        "g.shuf": header + b"\n" + b"".join(shuffled),
        "g.sort": header + b"\n" + b"".join(sorted(lines)),
        "g.cr": text.replace(b"\n", b"\r"),
        "g.blank": b"\n" * 70_000 + text,
        # malformed: a repeated line, element 15, a bad header, no header
        "dup.fam": text + lines[100],
        "range.fam": text + b"3 15\n",
        "header.fam": b"n=x\n" + body,
        "empty.fam": b"",
        # not UTF-8: Latin-1 in a comment, and a bad byte far past the first decode chunk
        "latin1.fam": b"n=3\n# caf\xe9\n1 2\n",
        "late.bad": text[:100_000] + b"\xff" + text[100_000:],
    }


@pytest.fixture(scope="session")
def family_dir(tmp_path_factory):
    """A directory holding the files of `_family_files` by name."""
    root = tmp_path_factory.mktemp("families")
    for name, data in _family_files().items():
        (root / name).write_bytes(data)
    return root
