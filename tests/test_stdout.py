"""CLI stdout pinned by SHA-256: each command of `stdout.sha256` runs in
process through `cli.main`, and its exit code and the hash of its stdout
must equal the pinned ones."""

import hashlib
from pathlib import Path

import pytest

from supersat.cli import main

PINNED = [
    line.split(" ", 2)
    for line in Path(__file__).with_name("stdout.sha256").read_text(encoding="ascii").splitlines()
    if line and not line.startswith("#")
]


@pytest.mark.parametrize("digest, code, args", PINNED, ids=[args for _, _, args in PINNED])
def test_stdout_matches_its_pinned_hash(capsys, digest, code, args):
    assert main(args.split()) == int(code)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
