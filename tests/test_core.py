import random
from functools import partial
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import LAYOUTS, traced_peak
from supersat import core
from supersat.bounds import build_extremal_family
from supersat.core import (
    _line_word,
    DuplicateSubset,
    ElementOutOfRange,
    Family,
    FamilyFormatError,
    MalformedLine,
    MissingHeader,
    binom,
    build_b_family,
    check_ground_set,
    elements_of_word,
    family_text_blocks,
    format_word,
    level_words,
    middle_levels,
    parse_family,
    read_family,
    serialize_family,
    sigma,
)


def pascal_triangle(rows):
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


def test_binom_small_values():
    assert binom(4, 2) == 6
    assert binom(5, 0) == 1
    assert binom(0, 0) == 1


def test_binom_against_pascal_triangle():
    tri = pascal_triangle(12)
    for n in range(13):
        for j in range(n + 1):
            assert binom(n, j) == tri[n][j]
    assert binom(10, 3) == tri[10][3] == 120


def test_binom_out_of_range_is_zero():
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_row_sums_are_powers_of_two():
    for n in range(1, 13):
        assert sum(binom(n, j) for j in range(n + 1)) == 2**n


def test_sigma_by_enumeration():
    # sigma(4,1): all 2-subsets of [4]
    assert sigma(4, 1) == len(list(combinations(range(4), 2))) == 6
    assert sigma(4, 2) == 6 + 4 == 10
    assert sigma(3, 4) == 8
    assert sigma(5, 0) == 0
    assert sigma(5, 6) == 32


def test_sigma_range_errors():
    with pytest.raises(ValueError):
        sigma(4, -1)
    with pytest.raises(ValueError):
        sigma(4, 6)


def test_sigma_increments_match_added_level():
    for n in range(1, 13):
        for k in range(1, n + 2):
            for variant in ("floor", "ceil"):
                hi_interval = middle_levels(n, k, variant)
                new_levels = set(range(hi_interval.lo, hi_interval.hi + 1))
                if k > 1:
                    lo_interval = middle_levels(n, k - 1, variant)
                    new_levels -= set(range(lo_interval.lo, lo_interval.hi + 1))
                (added,) = new_levels
                assert sigma(n, k) - sigma(n, k - 1) == binom(n, added)


def test_middle_levels_both_variants():
    assert tuple(middle_levels(4, 2, "floor")) == (1, 2)
    assert tuple(middle_levels(4, 2, "ceil")) == (2, 3)
    assert tuple(middle_levels(4, 1, "floor")) == (2, 2)
    for n in range(1, 13):
        for k in range(1, n + 2):
            fl = middle_levels(n, k, "floor")
            ce = middle_levels(n, k, "ceil")
            assert fl.width == ce.width == k
            # one family when n-k is odd, two when it is even
            assert (fl == ce) == ((n - k) % 2 == 1)
    with pytest.raises(ValueError):
        middle_levels(4, 0)
    with pytest.raises(ValueError):
        middle_levels(4, 6)
    with pytest.raises(ValueError):
        middle_levels(4, 2, "round")


def test_build_b_family_small_cases():
    two_sets = {(1 << a) | (1 << b) for a, b in combinations(range(4), 2)}
    assert set(build_b_family(4, 1).words()) == two_sets
    assert set(build_b_family(2, 3).words()) == {0, 1, 2, 3}
    assert build_b_family(5, 2).size() == binom(5, 2) + binom(5, 3) == 20


def test_build_b_family_size_matches_sigma():
    for n in range(1, 13):
        for k in range(1, n + 2):
            for variant in ("floor", "ceil"):
                assert build_b_family(n, k, variant).size() == sigma(n, k)


def test_build_b_family_matches_a_level_words_reference():
    for n in range(1, 13):
        for k in range(1, n + 2):
            for variant in ("floor", "ceil"):
                lo, hi = middle_levels(n, k, variant)
                mask = bytearray(1 << n)
                for lvl in range(lo, hi + 1):
                    for w in level_words(n, lvl):
                        mask[w] = 1
                assert build_b_family(n, k, variant).mask == bytes(mask), (n, k, variant)


def test_level_words_are_colex_sorted_and_complete():
    for n in range(1, 13):
        for lvl in range(-1, n + 2):
            subsets = combinations(range(n), lvl) if lvl >= 0 else ()
            want = sorted(sum(1 << e for e in subset) for subset in subsets)
            assert list(level_words(n, lvl)) == want, (n, lvl)
            assert len(want) == binom(n, lvl)


def test_level_words_prefix_is_lazy():
    # the first words of the middle row at the cap, as Gosper's hack steps them
    want, v = [], (1 << 10) - 1
    for _ in range(5):
        want.append(v)
        c = v & -v
        r = v + c
        v = (((v ^ r) >> 2) // c) | r
    setup = """
        from itertools import islice
        from supersat.core import level_words
        """
    peak, got = traced_peak(setup, "got = list(islice(level_words(20, 10), 5))", "got")
    assert got == want
    # the whole row would be 184,756 ints, over 5 MiB; the half-word tables are about 0.1 MiB
    assert peak < 1 << 20, peak


def test_level_words_up_to_the_cap_are_complete():
    # past n = 12 the half-word split is checked without listing the subsets:
    # C(n, lvl) strictly ascending words, each of popcount lvl, are the whole row
    for n in range(13, 21):
        for lvl in range(-1, n + 2):
            words = list(level_words(n, lvl))
            assert len(words) == binom(n, lvl), (n, lvl)
            assert all(map(int.__lt__, words, words[1:])), (n, lvl)
            assert all(w.bit_count() == lvl for w in words), (n, lvl)


def test_colex_word_unranks_level_words():
    for n in range(1, 13):
        for lvl in range(n + 1):
            words = list(level_words(n, lvl))
            assert [core._colex_word(n, lvl, r) for r in range(len(words))] == words, (n, lvl)


def test_family_validation():
    with pytest.raises(ValueError):
        Family(0, b"\x00")
    with pytest.raises(ValueError):
        Family(21, bytes(1 << 21))
    with pytest.raises(ValueError):
        Family.from_bits(2, 1 << 4)  # bit for a fifth subset of a 4-subset lattice
    with pytest.raises(ValueError):
        Family.from_bits(2, -1)
    with pytest.raises(ValueError):
        Family.from_words(2, [4])
    fam = Family.from_words(3, [0, 0b011])
    assert fam.size() == 2
    assert 0 in fam and 0b011 in fam and 0b111 not in fam


def test_mask_round_trips_through_from_bits():
    rng = random.Random(5)
    for n in range(1, 11):
        for bits in (0, (1 << (1 << n)) - 1, rng.getrandbits(1 << n)):
            fam = Family.from_bits(n, bits)
            assert type(fam.mask) is bytes and len(fam.mask) == 1 << n
            assert all(fam.mask[w] == (bits >> w) & 1 for w in range(1 << n))
            assert fam.size() == bits.bit_count()
            assert Family(n, fam.mask) == fam
        assert Family.from_bits(n, 0) == Family.empty(n)
        assert Family.from_bits(n, (1 << (1 << n)) - 1) == Family.full(n)


def test_constructor_rejects_a_bad_mask():
    for n, mask in ((3, bytes(7)), (3, bytes(9)), (1, b""), (2, b"\x00\x02\x00\x00"), (2, b"0101")):
        with pytest.raises(ValueError, match="mask"):
            Family(n, mask)
    for mask in (bytearray(4), memoryview(bytes(4)), [0, 0, 0, 0], "\0\0\0\0"):
        with pytest.raises(TypeError, match="mask must be bytes"):
            Family(2, mask)
    with pytest.raises(ValueError):
        Family(0, b"\x01")


def test_mask_check_allocates_no_copy_of_the_mask():
    setup = """
        from supersat.core import Family
        mask = bytes(range(2)) * (1 << 15)
        """
    peak, size = traced_peak(setup, "fam = Family(16, mask)", "fam.size()")
    assert size == 1 << 15
    assert peak < 1024, peak


def test_ground_set_is_checked_before_any_allocation():
    # every builder checks n before it allocates: n = 64 would ask for 2^64
    # bytes if the mask came first, and 2^32 words of half-word rows for a
    # level.  n = True is refused though it equals 1, whose two levels, read
    # first, come out whole
    assert [list(level_words(1, lvl)) for lvl in (0, 1)] == [[0], [1]]
    rows = (lambda n: level_words(n, 0), lambda n: level_words(n, 1))
    for n in (0, 21, 64, True, -1):
        for build in (Family.empty, Family.full, lambda n: Family.from_bits(n, 0), *rows):
            with pytest.raises(ValueError, match="ground-set size"):
                build(n)


def test_family_keeps_its_own_copy():
    # the constructor takes only bytes, so growing a family copies its mask
    fam = Family.empty(2)
    grown = fam.with_words([1])
    assert 1 in grown and grown.size() == 1
    assert 1 not in fam and fam.mask == bytes(4) and fam.size() == 0


def test_equal_families_hash_alike_across_builders():
    rng = random.Random(8)
    for n in range(1, 9):
        for k in range(1, n + 2):
            built = build_b_family(n, k)
            words = list(built.words())
            bits = sum(1 << w for w in words)
            same = (
                built,
                Family.from_words(n, reversed(words)),
                Family.from_bits(n, bits),
                parse_family(serialize_family(built)),
            )
            assert len(set(same)) == 1 and len({hash(f) for f in same}) == 1
            other = Family.from_bits(n, bits ^ (1 << rng.randrange(1 << n)))
            assert other != built and other not in set(same)
    assert Family.from_bits(2, 0b0001) != Family.from_bits(3, 0b0001)


def test_repr_is_short_and_names_n():
    assert repr(Family.full(20)) == "Family(n=20)"


def test_words_ascend_and_rebuild_the_members():
    rng = random.Random(6)
    for n in range(1, 11):
        bits = rng.getrandbits(1 << n)
        fam = Family.from_bits(n, bits)
        words = list(fam.words())
        assert words == sorted(set(words))
        assert sum(1 << w for w in words) == bits
        assert all(w in fam for w in words)


def test_contains_is_false_outside_the_lattice():
    for n in range(1, 6):
        full = Family.full(n)
        assert 0 in full and (1 << n) - 1 in full
        for word in (-1, -(1 << n), 1 << n, (1 << n) + 1):
            assert word not in full


def test_ground_set_rejects_bool():
    check_ground_set(1)
    for flag in (True, False):
        with pytest.raises(ValueError, match="ground-set size"):
            check_ground_set(flag)
    with pytest.raises(ValueError):
        Family(True, b"\x00\x01")


def test_parse_family_basic():
    fam = parse_family("n=3\n1 2\n-\n")
    assert fam.n == 3
    assert set(fam.words()) == {0, 0b011}


def test_parse_family_comments_and_order():
    text = "# header comment\nn=4\n2 1  # a pair\n\n4 3 1\n"
    fam = parse_family(text)
    assert set(fam.words()) == {0b0011, 0b1101}


def test_parse_family_errors():
    with pytest.raises(ElementOutOfRange):
        parse_family("n=3\n4\n")
    with pytest.raises(MissingHeader):
        parse_family("1 2\n")
    with pytest.raises(MissingHeader):
        parse_family("")
    with pytest.raises(DuplicateSubset):
        parse_family("n=3\n1 2\n2 1\n")
    with pytest.raises(MalformedLine):
        parse_family("n=3\n1 x\n")
    with pytest.raises(MalformedLine):
        parse_family("n=3\n1 1\n")
    with pytest.raises(MalformedLine):
        parse_family("n=99\n")
    # int() would read these; the format allows ASCII decimal digits only
    for text in (
        "n=12\n1_0\n",
        "n=4\n+3 \u0662\n",
        "n=4\n\u0662\n",
        "n=4\n\u00b2\n",
        "n=4\n3 -1\n",
    ):
        with pytest.raises(MalformedLine):
            parse_family(text)
    for text in ("n=1_2\n1\n", "n=+4\n", "n=\u0664\n", "n= 4\n"):
        with pytest.raises(MissingHeader):
            parse_family(text)


# body lines of an n = 5 file: the token table misses or sees a repeated
# bit in each, so the line goes to `_line_word`
FALLBACK_LINES = [
    ("03", None, None),
    ("3 03", MalformedLine, "repeated element 3"),
    ("1_0", MalformedLine, "'1_0' is not an element"),
    ("+3", MalformedLine, "'+3' is not an element"),
    ("\u0662", MalformedLine, "'\u0662' is not an element"),
    ("\u00b2", MalformedLine, "'\u00b2' is not an element"),
    ("-1", MalformedLine, "'-1' is not an element"),
    ("0", ElementOutOfRange, "element 0 outside [1, 5]"),
    ("6", ElementOutOfRange, "element 6 outside [1, 5]"),
    ("1 1", MalformedLine, "repeated element 1"),
]


@pytest.mark.parametrize("line, error, detail", FALLBACK_LINES)
def test_token_table_and_fallback_agree(line, error, detail):
    # as the first body line, and after a line the token table reads
    for lineno, text in ((2, f"n=5\n{line}\n"), (3, f"n=5\n1 2\n{line}\n")):
        if error is None:
            assert _line_word(line.split(), lineno, 5) == 0b100
            assert 0b100 in parse_family(text)
            continue
        with pytest.raises(FamilyFormatError) as by_fallback:
            _line_word(line.split(), lineno, 5)
        with pytest.raises(FamilyFormatError) as by_parser:
            parse_family(text)
        assert type(by_parser.value) is type(by_fallback.value) is error
        assert str(by_parser.value) == str(by_fallback.value) == f"line {lineno}: {detail}"


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))),
    st.randoms(use_true_random=False),
)
def test_parse_reads_shuffled_zero_padded_lines(case, rng):
    fam = Family.from_bits(*case)
    header, *body = serialize_family(fam).splitlines()
    lines = [header]
    for line in body:
        parts = line.split()
        rng.shuffle(parts)
        lines.append(" ".join(p if p == "-" else "0" * rng.randint(0, 2) + p for p in parts))
    assert parse_family("\n".join(lines) + "\n") == fam


# every line break `str.splitlines` knows; "\r\n" is one break
SEPARATORS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _outcome(text):
    try:
        return parse_family(text)
    except FamilyFormatError as exc:
        return type(exc), str(exc)


def _assert_slices_split_like_the_whole_text(text, monkeypatch, slice_chars):
    """The slices split into the lines of `text.splitlines()`, and the parse
    gives the family, or the error text with its line number, that one slice
    holding the whole text gives."""
    monkeypatch.setattr(core, "_SLICE_CHARS", len(text) + 1)
    assert list(core._text_slices([text])) == ([text] if text else [])
    whole = _outcome(text)
    monkeypatch.setattr(core, "_SLICE_CHARS", slice_chars)
    slices = list(core._text_slices([text]))
    assert "".join(slices) == text
    assert all(piece.endswith("\n") for piece in slices[:-1])
    assert list(chain.from_iterable(map(str.splitlines, slices))) == text.splitlines()
    assert _outcome(text) == whole
    return slices, whole


def test_sliced_parse_with_every_separator_around_every_cut(monkeypatch):
    # with one-character slices every "\n" ends a slice, and each one here
    # has every pair of separators (or none) just before and just after it
    words = iter(range(1, 1 << 8))
    pieces = ["n=8\n"]
    for before in ["", *SEPARATORS]:
        for after in ["", *SEPARATORS]:
            pieces.append(format_word(next(words)) + before + "\n" + after)
    text = "".join(pieces)
    for slice_chars in (1, 2, 3, 5, 8, 13):
        slices, whole = _assert_slices_split_like_the_whole_text(text, monkeypatch, slice_chars)
        assert isinstance(whole, Family) and whole.size() == len(pieces) - 1
        if slice_chars == 1:
            assert all(piece.count("\n") <= 1 for piece in slices)
    # the same text with an error on its last line: same error, same line number
    for bad, error in (("1 1", MalformedLine), ("9", ElementOutOfRange), ("8 7 6", DuplicateSubset)):
        broken = text + "6 7 8\x85\r\n" + bad + "\n"
        for slice_chars in (1, 4, 7):
            _, whole = _assert_slices_split_like_the_whole_text(broken, monkeypatch, slice_chars)
            kind, message = whole
            assert kind is error and message.startswith(f"line {len(broken.splitlines())}: ")


def test_sliced_parse_matches_the_whole_text_on_random_texts(monkeypatch):
    rng = random.Random(2026)
    # a space twice, so that tokens often stand apart
    tokens = ["1", "2", "3", "4", "01", "9", "-", "x", "#", " ", " ", "n=4", *SEPARATORS]
    outcomes = set()
    for _ in range(3000):
        body = "".join(rng.choice(tokens) for _ in range(rng.randint(0, 30)))
        text = rng.choice(["n=4\n", "n=4\r\n", "#\u2028n=4\x85", ""]) + body
        _, whole = _assert_slices_split_like_the_whole_text(text, monkeypatch, rng.randint(1, 12))
        outcomes.add(whole[0] if isinstance(whole, tuple) else Family)
    assert outcomes == {Family, MissingHeader, MalformedLine, ElementOutOfRange, DuplicateSubset}


def test_sliced_parse_of_a_file_longer_than_one_slice():
    fam = build_b_family(14, 3)
    text = serialize_family(fam)
    lines = text.splitlines()
    # the same lines ended by every separator in turn, and with CRLF
    mixed = "".join(line + SEPARATORS[i % len(SEPARATORS)] for i, line in enumerate(lines))
    for variant in (text, text.replace("\n", "\r\n"), mixed):
        slices = list(core._text_slices([variant]))
        assert len(slices) > 2 and all(len(piece) >= core._SLICE_CHARS for piece in slices[:-1])
        assert list(chain.from_iterable(map(str.splitlines, slices))) == lines
        assert parse_family(variant) == fam


@pytest.mark.parametrize("name", LAYOUTS)
def test_streamed_parse_matches_the_whole_text(family_dir, monkeypatch, name):
    path = family_dir / name
    text = path.read_bytes().decode("utf-8-sig")
    want = parse_family(text)
    assert want == build_extremal_family(14, 4, 5)
    # chunks of 7 and 1,000 characters cut lines and (with newline="") "\r\n" pairs
    for chars in (7, 1000, core._SLICE_CHARS):
        monkeypatch.setattr(core, "_SLICE_CHARS", chars)
        for newline in (None, ""):
            with open(path, encoding="utf-8-sig", newline=newline) as handle:
                assert parse_family(handle) == want, (chars, newline)
            with open(path, encoding="utf-8-sig", newline=newline) as handle:
                slices = list(core._text_slices(iter(partial(handle.read, chars), "")))
            assert all(len(piece) >= chars and piece.endswith("\n") for piece in slices[:-1])
            assert list(chain.from_iterable(map(str.splitlines, slices))) == text.splitlines()


@pytest.mark.parametrize("name", LAYOUTS)
def test_read_family_matches_parse_family_on_the_decoded_text(family_dir, name):
    # the file's bytes, byte-order mark dropped, decode to the text that parse_family reads
    path = family_dir / name
    assert read_family(str(path)) == parse_family(path.read_bytes().decode("utf-8-sig"))


def test_head_tables_invert_the_serialized_lines():
    # exhaustive for n <= 10: every word w against the table of every block j
    for n in range(1, 11):
        h, hi, tables = core._head_tables(n)
        low = (1 << h) - 1
        assert len(hi) == 1 << (n - h)
        # each key, hi[j] appended, is the line of its word, and nothing else is a key
        for j in range(len(hi)):
            words = {(j << h) | i for i in tables[j > 0].values()}
            assert words == set(range(j << h, (j + 1) << h)) - ({j << h} if j else set())
            for key, i in tables[j > 0].items():
                assert key + hi[j] == format_word((j << h) | i)
        # so a line less a suffix it lacks is a key only if it ends in a space
        assert all(key.endswith(" ") for key in tables[1])
        for w in range(1 << n):
            name = format_word(w)
            for j in range(len(hi)):
                i = tables[j > 0].get(name.removesuffix(hi[j]))
                if j == w >> h and (j == 0 or w & low):
                    assert i == w & low, (n, w, j)
                else:
                    assert i is None, (n, w, j)


def _reference_parse(text):
    """The family file read one line at a time, independently of the
    whole-line lookup: comments stripped, tokens split and read by
    `_line_word`, duplicates checked."""
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            break
    else:
        raise MissingHeader("missing `n=<int>` header")
    n = core._header_size(line, lineno)
    mask = bytearray(1 << n)
    for lineno, raw in enumerate(lines[lineno:], start=lineno + 1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            word = _line_word(parts, lineno, n)
            if mask[word]:
                raise DuplicateSubset(f"line {lineno}: duplicate subset {format_word(word)!r}")
            mask[word] = 1
    return Family(n, bytes(mask))


def _reference_outcome(text):
    try:
        return _reference_parse(text)
    except FamilyFormatError as exc:
        return type(exc), str(exc)


# whitespace that `str.split` and `str.rstrip` treat as a space, and that
# holds no line break
SPACES = [" ", "\t", "\xa0", "\u3000"]
JUNK = ["x", "+1", "1_0", "\u0663", "1.0", "--", "n=3"]


def _perturb(rng, n, body):
    """Edit the body lines of a serialized family in place."""
    for _ in range(rng.choice([0, 1, 1, 2, 3, 6])):
        op = rng.randrange(15)
        at = rng.randrange(len(body) + 1)
        line = body[min(at, len(body) - 1)] if body else "-"
        if op == 0:  # a duplicate, often next to the line it repeats
            body.insert(rng.choice([at, at + 1, rng.randrange(len(body) + 1)]), line)
        elif op == 1 and body:  # two lines swapped, often adjacent ones
            a, b = at % len(body), rng.choice([at + 1, rng.randrange(len(body))]) % len(body)
            body[a], body[b] = body[b], body[a]
        elif op == 2:  # a range of lines reversed, or the whole body
            stop = at + rng.choice([rng.randint(2, 40), len(body)])
            body[at:stop] = body[at:stop][::-1]
        elif op == 3:
            body.insert(at, rng.choice(["#", "# note", "  # 1 2", "1 # 2"]))
        elif op == 4 and body:
            body[at % len(body)] = line + rng.choice(["#", " # x", "\t#-"])
        elif op == 5:
            body.insert(at, "".join(rng.choices(SPACES, k=rng.randint(0, 2))))
        elif op == 6:
            body.insert(at, rng.choice(["-", " - ", "-\t"]))
        elif op in (7, 8) and body:  # tokens shuffled or zero-padded
            parts = line.split()
            rng.shuffle(parts)
            if op == 8:
                parts = [p if p == "-" else "0" * rng.randint(0, 2) + p for p in parts]
            body[at % len(body)] = " ".join(parts)
        elif op == 9 and body:  # whitespace after or before a line
            pad = "".join(rng.choices(SPACES, k=rng.randint(1, 2)))
            body[at % len(body)] = line + pad if rng.random() < 0.7 else pad + line
        elif op == 10 and body:  # an element out of range
            body[at % len(body)] = line + " " + str(rng.choice([0, n + 1, n + rng.randint(2, 30)]))
        elif op == 11 and body:  # a junk token
            parts = line.split()
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(JUNK))
            body[at % len(body)] = " ".join(parts)
        elif op == 12 and body:  # a repeated element
            body[at % len(body)] = line + " " + (line.split() or ["1"])[0]
        elif op == 13:  # a run of one block's lines, from another block
            body[at:at] = body[rng.randrange(len(body) + 1) :][: rng.randint(1, 30)]
        elif op == 14 and n > 1:
            # a line of high half 0 and a trailing space: less any hi[j] it is
            # still a key of the tables of the blocks j >= 1
            body.insert(at, format_word(rng.randrange(1, 1 << (n // 2))) + " ")


def test_whole_line_lookup_matches_a_per_line_parse(monkeypatch):
    rng = random.Random(1515)
    outcomes = set()
    for case in range(3000):
        n = rng.choice([9, 10]) if case % 100 == 0 else rng.randint(1, 8)
        # families of density 1/4, 1/2 and 3/4, and every fifth case the built middle rows
        bits = rng.getrandbits(1 << n)
        if case % 3 == 1:
            bits &= rng.getrandbits(1 << n)
        elif case % 3 == 2:
            bits |= rng.getrandbits(1 << n)
        fam = build_b_family(n, rng.randint(1, n + 1)) if case % 5 == 0 else Family.from_bits(n, bits)
        header, *body = serialize_family(fam).splitlines()
        _perturb(rng, n, body)
        if case % 50 == 1:
            header = rng.choice(["n=0", "n=21", "n=x", "1 2"])
        elif case % 50 == 2:
            header = rng.choice(["# c", "", "# n=2"]) + "\n" + header
        lines = "\n".join([header, *body]).split("\n")
        want = _reference_outcome("\n".join(lines) + "\n")
        outcomes.add(want[0] if isinstance(want, tuple) else Family)
        for sep in SEPARATORS:
            text = sep.join(lines) + sep
            assert text.splitlines() == lines
            # with "\n" between the lines, slices of 1..40 characters cut the runs
            for chars in (1 << 16, 1 + case % 40) if sep == "\n" else (1 << 16,):
                monkeypatch.setattr(core, "_SLICE_CHARS", chars)
                assert _outcome(text) == want, (case, sep, chars)
    assert outcomes == {Family, MissingHeader, MalformedLine, ElementOutOfRange, DuplicateSubset}


def test_serialize_round_trip_on_built_family():
    fam = build_b_family(4, 2)
    assert parse_family(serialize_family(fam)) == fam


def test_serialize_round_trip_random_families():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(1, 10)
        fam = Family.from_bits(n, rng.getrandbits(1 << n))
        assert parse_family(serialize_family(fam)) == fam


def test_serialize_matches_the_per_word_reference():
    # n = 1..14 covers even and odd splits of the name tables, h = 0 at n = 1
    rng = random.Random(11)
    for n in range(1, 15):
        top = (1 << n) - 1
        families = [Family.from_bits(n, rng.getrandbits(1 << n)) for _ in range(3)]
        families += [Family.from_bits(n, rng.getrandbits(1 << n) & rng.getrandbits(1 << n))]
        families += [Family.empty(n), Family.full(n), Family.from_words(n, [0]), Family.from_words(n, [top])]
        for fam in families:
            want = f"n={n}\n" + "".join(format_word(w) + "\n" for w in fam.words())
            assert serialize_family(fam) == want, n


def test_family_text_blocks_join_into_the_per_word_lines():
    from supersat.bounds import build_extremal_family, tight_x_max

    for n in range(1, 13):
        h = n // 2
        top = (1 << n) - 1
        families = [
            build_extremal_family(n, k, x)
            for k in range(2, min(6, n + 2))
            for x in sorted({0, 1, tight_x_max(n, k)})
        ]
        # only the first and the last block hold members, every block between is empty
        families += [Family.from_words(n, [0, top]), Family.empty(n)]
        for fam in families:
            pieces = list(family_text_blocks(fam))
            want = f"n={n}\n" + "".join(format_word(w) + "\n" for w in fam.words())
            assert "".join(pieces) == want == serialize_family(fam), n
            # the header, block 0, then one piece per nonempty block j >= 1
            nonempty = {w >> h for w in fam.words()} - {0}
            assert pieces[0] == f"n={n}\n"
            assert len(pieces) == 2 + len(nonempty), n
            assert all(piece.endswith("\n") for piece in pieces[2:])


def test_word_element_round_trip():
    assert elements_of_word(0b00101) == [1, 3]
    assert elements_of_word(0) == []
    for word in range(1 << 5):
        assert sum(1 << (e - 1) for e in elements_of_word(word)) == word


def test_parse_family_never_crashes_on_garbage():
    rng = random.Random(99)
    alphabet = "0123456789 -#n=\txyz,."
    for _ in range(500):
        lines = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            for _ in range(rng.randint(0, 6))
        ]
        try:
            parse_family("\n".join(lines))
        except FamilyFormatError:
            pass
