"""CLI stdout pinned by SHA-256: each command of `stdout.sha256` runs in
process through `cli.main`, in the directory of the family files, and its
exit code, the hash of its stdout and its stderr must equal the pinned
ones."""

import hashlib
from pathlib import Path

import pytest

from supersat.cli import main

PINNED = [
    (*line.split(" ", 2), err)
    for line, _, err in (
        row.partition("\t")
        for row in Path(__file__).with_name("stdout.sha256").read_text(encoding="ascii").splitlines()
        if row and not row.startswith("#")
    )
]


@pytest.mark.parametrize("digest, code, args, err", PINNED, ids=[args for _, _, args, _ in PINNED])
def test_stdout_matches_its_pinned_hash(capsys, monkeypatch, family_dir, digest, code, args, err):
    monkeypatch.chdir(family_dir)
    assert main(args.split()) == int(code)
    out, got = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert got == (err and err + "\n")
