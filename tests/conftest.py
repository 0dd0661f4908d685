"""The family files `count` reads, written once per test session."""

import random

import pytest

from supersat.bounds import build_extremal_family
from supersat.core import serialize_family

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
