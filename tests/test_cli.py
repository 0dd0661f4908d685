import io
import json
import subprocess
import sys

import pytest

from conftest import traced_peak
from supersat import core
from supersat.cli import main
from supersat.core import FamilyFormatError, binom, parse_family, read_family, serialize_family, build_b_family
from supersat.counting import count_k_chains
from supersat.bounds import build_extremal_family, supersat_bound


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def read_error(path) -> str:
    """The format error `read_family` raises on the file at `path`, as `count` prints it."""
    with pytest.raises(FamilyFormatError) as info:
        read_family(str(path))
    return f"error: {info.value}\n"


def test_bound_payload(capsys):
    payload = run_json(capsys, "bound", "--n", "4", "--k", "2", "--x", "1")
    assert payload == {"n": 4, "k": 2, "x": 1, "sigma": 6, "bound": 3, "tight_x_max": 4}


def test_sigma_payload(capsys):
    assert run_json(capsys, "sigma", "--n", "4", "--k", "2") == {"n": 4, "k": 2, "sigma": 10}


def test_count_antichain(tmp_path, capsys):
    path = tmp_path / "antichain.fam"
    path.write_text(serialize_family(build_b_family(4, 1)), encoding="utf-8")
    assert run_json(capsys, "count", "--k", "2", "--family", str(path)) == {"count": 0}


def test_construct_pipes_into_count(tmp_path, capsys):
    from supersat.bounds import tight_x_max

    for n in range(2, 11):
        for k in range(2, min(5, n + 2)):
            for x in {1, tight_x_max(n, k)}:
                code, out, err = run_cli(
                    capsys, "construct", "--n", str(n), "--k", str(k), "--x", str(x)
                )
                assert code == 0
                family = parse_family(out)
                assert count_k_chains(family, k) == supersat_bound(n, k, x)


def test_construct_to_file(tmp_path, capsys):
    out_path = tmp_path / "fam.txt"
    payload = run_json(
        capsys, "construct", "--n", "4", "--k", "2", "--x", "1", "--out", str(out_path)
    )
    assert payload["size"] == 7 and payload["out"] == str(out_path)
    family = parse_family(out_path.read_text(encoding="utf-8"))
    assert family.size() == 7


@pytest.mark.parametrize("n, k, x", [(1, 2, 0), (4, 2, 1), (9, 3, 0), (12, 4, 300), (16, 5, 4004)])
def test_construct_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsys, n, k, x):
    argv = ["construct", "--n", str(n), "--k", str(k), "--x", str(x)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    path = tmp_path / "fam.txt"
    assert run_json(capsys, *argv, "--out", str(path))["out"] == str(path)
    assert path.read_bytes() == out.encode("utf-8")
    assert out == serialize_family(build_extremal_family(n, k, x))


def test_construct_holds_one_block_of_text_at_a_time(tmp_path):
    path = tmp_path / "fam.txt"
    argv = ["construct", "--n", "16", "--k", "5", "--x", "4004", "--out", str(path)]
    # imported first, so that the trace sees only the command's own work;
    # argparse's messages import locale through gettext on first use
    setup = """
        import json
        import locale
        import supersat.bounds
        from supersat.cli import main
        """
    peak, code = traced_peak(setup, f"code = main({argv!r})", "code")
    assert code == 0
    # the whole text at once, as one string and its encoding, would be twice the file
    assert peak < path.stat().st_size / 4, (peak, path.stat().st_size)


def test_construct_rejects_oversized_x(capsys):
    code, out, err = run_cli(capsys, "construct", "--n", "4", "--k", "2", "--x", "5")
    assert code == 3
    assert "x must be in [0, 4]" in err


def test_count_missing_file(capsys):
    code, _, err = run_cli(capsys, "count", "--k", "2", "--family", "/nonexistent.fam")
    assert code == 4
    assert err


def test_count_malformed_family(tmp_path, capsys):
    path = tmp_path / "bad.fam"
    path.write_text("n=3\n4\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "count", "--k", "2", "--family", str(path))
    assert code == 5
    assert "element 4" in err


def test_count_non_utf8_family_is_format_error(tmp_path, capsys):
    path = tmp_path / "latin1.fam"
    path.write_bytes("n=3\n# caf\u00e9\n1 2\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "count", "--k", "2", "--family", str(path))
    assert code == 5
    assert out == ""
    assert err == (f"error: {path}: not UTF-8 text ('utf-8' codec can't decode byte 0xe9"
                   " in position 9: invalid continuation byte)\n")
    assert read_error(path) == err


@pytest.mark.parametrize("case", ["late bad byte", "duplicate first", "truncated at the end", "a cut-short mark"])
def test_count_reports_a_bad_byte_as_a_whole_file_read_does(tmp_path, capsys, case):
    # the file is read in chunks, yet the error counts the position from the
    # file's start, and a bad byte anywhere wins over an earlier format error
    text = serialize_family(build_extremal_family(16, 3, 5000)).encode()
    header, first, rest = text.split(b"\n", 2)
    data, want = {
        "late bad byte": (text[:400_000] + b"\xff" + text[400_000:], "byte 0xff in position 400000: invalid start byte"),
        "duplicate first": (b"\n".join([header, first, first, rest]) + b"\xff\n",
                            f"byte 0xff in position {len(text) + len(first) + 1}: invalid start byte"),
        "truncated at the end": (text + b"1 2\xe2\x82",
                                 f"bytes in position {len(text) + 3}-{len(text) + 4}: unexpected end of data"),
        # the first two bytes of a byte-order mark, and nothing more
        "a cut-short mark": (b"\xef\xbb", "bytes in position 0-1: unexpected end of data"),
    }[case]
    path = tmp_path / "bad.fam"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "count", "--k", "3", "--family", str(path))
    assert (code, out) == (5, "")
    assert err == f"error: {path}: not UTF-8 text ('utf-8' codec can't decode {want})\n"
    assert read_error(path) == err


@pytest.mark.parametrize("name", ["dup.fam", "late.bad", "latin1.fam"])
def test_count_reads_no_error_path_whole(family_dir, capsys, monkeypatch, name):
    # after a format error the rest of the file is read in chunks, and a
    # decode error is placed in the file from the bytes decoded so far, with
    # no second read, so no read asks for the whole file; the error is the
    # one a plain handle gives
    argv = ("count", "--k", "4", "--family", str(family_dir / name))
    want = run_cli(capsys, *argv)
    assert want[:2] == (5, "")

    class SizedReads(io.BufferedReader):
        def read(self, size=-1):
            assert size is not None and size >= 0, "a read of the whole file"
            return super().read(size)

        def seek(self, *args):
            raise AssertionError("a second read")

    monkeypatch.setattr(core, "open", lambda file, mode: SizedReads(io.FileIO(file)), raising=False)
    assert run_cli(capsys, *argv) == want
    # the library reader, under the same patch, raises the error `count` prints
    assert read_error(family_dir / name) == want[2]


def test_count_accepts_a_leading_byte_order_mark(tmp_path, capsys):
    text = serialize_family(build_extremal_family(6, 3, 4))
    plain, marked = tmp_path / "plain.fam", tmp_path / "bom.fam"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want = run_json(capsys, "count", "--k", "3", "--family", str(plain))
    assert run_json(capsys, "count", "--k", "3", "--family", str(marked)) == want
    assert want == {"count": supersat_bound(6, 3, 4)}
    assert read_family(str(marked)) == read_family(str(plain)) == parse_family(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("\ufeff\ufeffn=3\n1 2\n", "expected `n=<int>` header, got '\\ufeffn=3'"),
        ("# a comment\n\ufeffn=3\n1 2\n", "line 2: expected `n=<int>` header"),
        ("n=3\n\ufeff1 2\n", "line 2: '\\ufeff1' is not an element"),
        ("n=3\n1 2\n1\ufeff\n", "line 3: '1\\ufeff' is not an element"),
    ],
)
def test_count_rejects_a_byte_order_mark_past_the_start(tmp_path, capsys, text, message):
    path = tmp_path / "bom.fam"
    path.write_bytes(text.encode("utf-8"))
    code, out, err = run_cli(capsys, "count", "--k", "2", "--family", str(path))
    assert (code, out) == (5, "")
    assert message in err
    assert read_error(path) == err


def test_count_non_decimal_element_is_format_error(tmp_path, capsys):
    path = tmp_path / "underscore.fam"
    path.write_text("n=12\n1_0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "count", "--k", "2", "--family", str(path))
    assert code == 5
    assert out == ""
    assert "'1_0' is not an element" in err


def test_bound_checks_k_before_sigma(capsys):
    code, out, err = run_cli(capsys, "bound", "--n", "4", "--k", "9", "--x", "1")
    assert code == 3
    assert out == ""
    # the message names the k the user passed, not sigma's k - 1
    assert "k must be in [2, 5], got 9" in err


def test_bound_rejects_family_larger_than_lattice(capsys):
    # sigma(4, 1) + x sets must fit in 2^4 = 16, so x <= 10
    assert run_json(capsys, "bound", "--n", "4", "--k", "2", "--x", "10")["bound"] == 30
    code, out, err = run_cli(capsys, "bound", "--n", "4", "--k", "2", "--x", "99")
    assert code == 3
    assert out == ""
    assert "x must be in [0, 10], got 99" in err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_scd_dump_has_one_line_per_chain(capsys):
    code, out, _ = run_cli(capsys, "scd", "--n", "4", "--method", "bracketing")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == binom(4, 2)
    assert any(line.startswith("- -> ") for line in lines)


def test_scd_dump_matches_the_per_word_reference(capsys):
    from supersat.core import format_word
    from supersat.scd import scd_inductive

    for n in range(1, 11):
        code, out, _ = run_cli(capsys, "scd", "--n", str(n))
        assert code == 0
        chains = scd_inductive(n).chains
        assert out == "".join(" -> ".join(map(format_word, chain)) + "\n" for chain in chains), n


def test_scd_validate_report(capsys):
    payload = run_json(capsys, "scd", "--n", "6", "--method", "inductive", "--validate")
    assert payload["valid"] is True
    assert payload["chains"] == binom(6, 3)
    assert all(payload["checks"].values())
    assert list(payload["checks"]) == ["partition", "skipless", "symmetric", "chain_count", "locator"]


def test_scd_permuted_still_valid(capsys):
    payload = run_json(
        capsys, "scd", "--n", "4", "--method", "inductive", "--permute", "2,3,4,1", "--validate"
    )
    assert payload["valid"] is True


def test_scd_bad_permutation(capsys):
    code, _, err = run_cli(capsys, "scd", "--n", "3", "--permute", "1,1,2")
    assert code == 3
    assert "bijection" in err


def test_nperm_payload(capsys):
    payload = run_json(capsys, "nperm", "--n", "4", "--levels", "1,2", "--enumerate")
    assert payload == {
        "n": 4,
        "levels": [1, 2],
        "factorial_form": 8,
        "ratio_form": 8,
        "agree": True,
        "enumerated": 8,
    }


def test_scd_dump_never_builds_the_locator(capsys, monkeypatch):
    # every mode reads the chains as they are made and builds no
    # `Decomposition` at all: the plain dump, `--validate`, which counts
    # the chains it reads, and `--permute`, which maps them as they come
    import supersat.scd
    from supersat.scd import Decomposition

    built = []
    init = Decomposition.__init__

    def recording(self, n, chains):
        init(self, n, chains)
        built.append(self)

    def refuse(dec):
        raise AssertionError("first-chain table built")

    monkeypatch.setattr(Decomposition, "__init__", recording)
    monkeypatch.setattr(supersat.scd, "_first_chains", refuse)
    code, out, _ = run_cli(capsys, "scd", "--n", "12")
    assert code == 0 and len(out.splitlines()) == binom(12, 6)
    code, out, _ = run_cli(capsys, "scd", "--n", "12", "--validate")
    assert code == 0 and json.loads(out)["checks"]["locator"] is True
    assert json.loads(out)["chains"] == binom(12, 6)
    rotation = ",".join(map(str, [*range(2, 13), 1]))
    code, out, _ = run_cli(capsys, "scd", "--n", "12", "--permute", rotation)
    assert code == 0 and len(out.splitlines()) == binom(12, 6)
    code, out, _ = run_cli(capsys, "scd", "--n", "12", "--permute", rotation, "--validate")
    assert code == 0 and json.loads(out)["valid"] is True
    assert json.loads(out)["chains"] == binom(12, 6)
    assert built == []


def test_nperm_enumerate_rejects_large_n_before_building_the_scd(capsys, monkeypatch):
    import supersat.scd

    def unused(n):
        raise AssertionError(f"built the n = {n} decomposition")

    monkeypatch.setattr(supersat.scd, "scd_inductive", unused)
    code, out, err = run_cli(capsys, "nperm", "--n", "20", "--levels", "1,2", "--enumerate")
    assert (code, out) == (3, "")
    assert err == "error: factorial enumeration is capped at n = 7\n"


def test_nperm_rejects_bad_levels(capsys):
    code, _, err = run_cli(capsys, "nperm", "--n", "4", "--levels", "2,2")
    assert code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("scd", "--n", "3", "--permute", "1,x,2"),
            "permutation must be comma-separated integers, got '1,x,2'",
        ),
        (("scd", "--n", "3", "--permute", "2,1"), "permutation lists 2 images, expected 3"),
        (("scd", "--n", "3", "--permute", "1,2,3,4"), "permutation lists 4 images, expected 3"),
        (("nperm", "--n", "4", "--levels", "x"), "levels must be comma-separated integers, got 'x'"),
        (("nperm", "--n", "4", "--levels", "1,,2"), "levels must be comma-separated integers, got '1,,2'"),
    ],
)
def test_comma_separated_options_reject_bad_lists(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_oracle_exact_payload(capsys):
    payload = run_json(capsys, "oracle", "--n", "4", "--k", "2", "--size", "7")
    assert payload["min_count"] == 3
    assert payload["exact"] is True
    witness = parse_family(payload["witness"])
    assert witness.size() == 7
    assert count_k_chains(witness, 2) == 3


def test_oracle_heuristic_payload(capsys):
    payload = run_json(
        capsys,
        *"oracle --n 5 --k 2 --size 11 --heuristic --seed 1 --iters 2000".split(),
    )
    assert payload["exact"] is False
    assert payload["min_count"] == supersat_bound(5, 2, 1)


@pytest.mark.parametrize(
    "argv",
    [
        "oracle --n 4 --k 2 --size 7".split(),
        "oracle --n 3 --k 3 --size 5 --iters 0".split(),
        "kleitman --n 3 --k 2".split(),
        "kleitman --n 4 --k 3 --json".split(),
    ],
)
def test_seed_is_accepted_and_ignored_on_the_exact_path(capsys, argv):
    # --help says so; the exit code and stdout stay those of the default seed
    assert run_cli(capsys, *argv, "--seed", "99") == run_cli(capsys, *argv)


@pytest.mark.parametrize("command", ["oracle", "kleitman"])
def test_seed_help_says_the_exact_path_ignores_it(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    # the option list comes after the usage line, which names --seed too
    assert "ignore" in text.rsplit("--seed SEED", 1)[1].split("--iters", 1)[0]


@pytest.mark.parametrize(
    "argv",
    [
        "oracle --n 4 --k 2 --size 7".split(),
        "oracle --n 3 --k 3 --size 5 --seed 4".split(),
        "kleitman --n 3 --k 2".split(),
        "kleitman --n 4 --k 3 --json".split(),
    ],
)
def test_iters_is_accepted_and_ignored_on_the_exact_path(capsys, argv):
    # --help says so; the exit code and stdout stay those of the default count
    default = run_cli(capsys, *argv)
    assert default[0] == 0
    for iters in ("0", "7", "100000"):
        assert run_cli(capsys, *argv, "--iters", iters) == default


@pytest.mark.parametrize("command", ["oracle", "kleitman"])
def test_iters_help_says_the_exact_path_ignores_it(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    # the option's own entry: its line and the wrapped lines up to the next option
    start = next(i for i, line in enumerate(lines) if line.lstrip().startswith("--iters ITERS"))
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].lstrip().startswith("-")), len(lines)
    )
    entry = " ".join(" ".join(lines[start:end]).split())
    assert "ignore" in entry and "exact" in entry


def test_oracle_exact_rejects_n5(capsys):
    code, _, err = run_cli(capsys, "oracle", "--n", "5", "--k", "2", "--size", "3")
    assert code == 3


def test_kleitman_table(capsys):
    code, out, _ = run_cli(capsys, "kleitman", "--n", "4", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["size", "min_count", "exact", "construction", "equal"]
    assert len(lines) == 18
    assert all(line.split("\t")[4] == "true" for line in lines[1:])


def test_kleitman_rejects_negative_iterations(capsys):
    # the exact rows (n = 4) and the rows the construction settles (n = 5,
    # k = 7) never reach the annealer, so the report checks it up front
    for n, k in (("4", "2"), ("5", "7")):
        code, out, err = run_cli(capsys, "kleitman", "--n", n, "--k", k, "--iters", "-3")
        assert (code, out) == (3, ""), (n, k)
        assert "iterations must be nonnegative" in err


def test_kleitman_json(capsys):
    payload = run_json(capsys, "kleitman", "--n", "3", "--k", "2", "--json")
    assert payload["n"] == 3
    assert len(payload["rows"]) == 9


def test_verify_suites_pass(capsys):
    for suite in ("scd", "counting", "theorem"):
        payload = run_json(capsys, "verify", "--suite", suite)
        assert payload["ok"] is True, payload


def test_verify_theorem_reports_the_failing_yz_case(monkeypatch):
    from supersat import verify

    real = verify.min_max_yz_verification

    def broken(n, k):
        return real(n, k)._replace(predicted_attains=(n, k) != (5, 3))

    monkeypatch.setattr(verify, "min_max_yz_verification", broken)
    checks = {c.name: c for c in verify.theorem_suite()}
    check = checks["min_max_yz_closed_form_sharp_off_full_span"]
    assert not check.ok
    assert check.detail.startswith("n=5, k=3: ")


@pytest.mark.parametrize("heuristic", [(), ("--heuristic",)])
def test_oracle_rejects_negative_iterations(capsys, heuristic):
    argv = ("oracle", "--n", "4", "--k", "2", "--size", "7", "--iters", "-3", *heuristic)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert "iterations must be nonnegative" in err


def test_verify_scd_compares_against_the_bracket_rule(monkeypatch, capsys):
    from supersat import scd, verify

    def permuted(n):
        dec = scd.scd_inductive(n)
        if n < 2:
            return dec
        # a valid SCD, but not the one the bracket rule gives
        return scd.permute_decomposition(dec, scd.Permutation((2, 1) + tuple(range(3, n + 1))))

    monkeypatch.setattr(verify, "scd_inductive", permuted)
    code, out, _ = run_cli(capsys, "verify", "--suite", "scd")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    # the suite's checks, in order: a dropped, added or renamed check fails here
    assert list(checks) == [
        "inductive_valid_through_n8",
        "min_level_census",
        "level_pair_coverage",
        "permutation_group_action_n_le_4",
        "permuted_images_pairwise_distinct",
        "constructions_comparison",
    ]
    # there is one SCD, and a permuted SCD is still a valid one: only the
    # comparison with the bracket rule applied word by word fails
    assert checks["inductive_valid_through_n8"]["ok"]
    assert not checks["constructions_comparison"]["ok"]
    assert checks["constructions_comparison"]["detail"].startswith("n=2, word ")


def test_verify_scd_builds_each_decomposition_and_image_once(monkeypatch):
    from supersat import verify

    calls = {"scd_inductive": 0, "permute_decomposition": 0}
    for name in calls:

        def counted(*args, _real=getattr(verify, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(verify, name, counted)
    checks = verify.scd_suite()
    assert all(check.ok for check in checks), checks
    # one SCD for each n <= 8; for n <= 4, one image per permutation
    # (1 + 2 + 6 + 24 = 33) and one more per pair (1 + 4 + 36 + 576 = 617)
    assert calls == {"scd_inductive": 8, "permute_decomposition": 650}


def test_determinism_of_repeated_invocations(capsys):
    first = run_cli(capsys, "construct", "--n", "6", "--k", "2", "--x", "3")
    second = run_cli(capsys, "construct", "--n", "6", "--k", "2", "--x", "3")
    assert first == second
    a = run_cli(capsys, *"oracle --n 5 --k 2 --size 13 --heuristic --seed 7 --iters 300".split())
    b = run_cli(capsys, *"oracle --n 5 --k 2 --size 13 --heuristic --seed 7 --iters 300".split())
    assert a == b


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "supersat.cli", "bound", "--n", "5", "--k", "3", "--x", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["bound"] == 2 * supersat_bound(5, 3, 1)


def test_count_reads_a_family_from_a_pipe(family_dir):
    # a pipe cannot seek back, yet a bad byte is reported at its position in
    # the file, as for a file on disk
    def count(data):
        argv = [sys.executable, "-m", "supersat.cli", "count", "--k", "2", "--family", "/dev/stdin"]
        proc = subprocess.run(argv, input=data, capture_output=True)
        return proc.returncode, proc.stdout, proc.stderr

    want = f'{{"count": {supersat_bound(6, 2, 3)}}}\n'.encode()
    assert count(serialize_family(build_extremal_family(6, 2, 3)).encode()) == (0, want, b"")
    assert count(b"n=3\n# caf\xe9\n1 2\n") == (5, b"", b"error: /dev/stdin: not UTF-8 text ('utf-8' codec"
                                                     b" can't decode byte 0xe9 in position 9: invalid continuation byte)\n")
    # 0xff at offset 100,000, far past the first read
    late = b" can't decode byte 0xff in position 100000: invalid start byte)\n"
    assert count((family_dir / "late.bad").read_bytes()) == (5, b"", b"error: /dev/stdin: not UTF-8 text ('utf-8' codec" + late)


def test_big_integers_serialized_as_strings(capsys):
    # k = n + 1 leaves room for a single extra set: 2^20 - sigma(20, 20) = 1
    payload = run_json(capsys, "bound", "--n", "20", "--k", "21", "--x", "1")
    # 20! exceeds the 53-bit float-safe range
    assert payload["bound"] == str(supersat_bound(20, 21, 1))
