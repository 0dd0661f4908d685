"""Subset-lattice basics: subsets as bit words, families of subsets,
binomials, middle-level families, and the family file format, from a
file's bytes (`read_family`) through its text (`parse_family`) to a
`Family` and back (`serialize_family`).

A subset of [n] = {1, ..., n} is an n-bit integer word with bit i-1 set
iff element i is in the subset.  A family is its membership mask, one 0/1
byte per subset word; `Family.from_bits` is the one adapter from a 2^n-bit
membership int.
"""

from __future__ import annotations

import math
from codecs import BOM_UTF8, getincrementaldecoder
from functools import partial
from io import IncrementalNewlineDecoder
from itertools import chain, compress, count
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

# The chain-count kernel holds each DP level as blocks of up to 2^12 packed
# fields of W = bitlen(max(k, 2)^n) bits rounded up to bytes, sums the total
# in slots of 2W bytes, and makes O(k * n) big-int operations on each block;
# at n = 20 (a million subsets) a count takes a few tenths of a second.
MAX_N = 20

VARIANTS = ("floor", "ceil")


class FamilyFormatError(ValueError):
    """Malformed family file."""


class MissingHeader(FamilyFormatError):
    pass


class MalformedLine(FamilyFormatError):
    pass


class ElementOutOfRange(FamilyFormatError):
    pass


class DuplicateSubset(FamilyFormatError):
    pass


def check_ground_set(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_N:
        raise ValueError(f"ground-set size must be an integer in [1, {MAX_N}], got {n!r}")


def check_word(word: int, n: int) -> None:
    if word < 0 or word >> n:
        raise ValueError(f"subset word {word} has bits outside [1, {n}]")


def binom(n: int, j: int) -> int:
    """C(n, j) as an exact integer; 0 whenever j < 0 or j > n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if j < 0 or j > n:
        return 0
    return math.comb(n, j)


def elements_of_word(word: int) -> list[int]:
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length())
        word ^= low
    return out


def level_words(n: int, lvl: int) -> Iterator[int]:
    """All subsets of [n] of size `lvl`, ascending as integers (colex order).

    A word is (j << h) | i with high half j and low half i of h = n - n // 2
    bits.  rows[b] holds the low halves of popcount b, ascending, built per
    call and kept by no cache.  For each high half j in ascending order
    the row holds rows[lvl - popcount(j)], so the row is a chain of one
    C-level `map` of (j << h).__or__ over each such list, with no Python
    step per word; off the lattice no high half leaves a popcount in 0..h
    and the row is empty.  n is checked when called.  The chain is lazy:
    the first x words of the row cost O(x + 2^(n // 2)).
    """
    check_ground_set(n)
    h = n - n // 2
    rows: list[list[int]] = [[] for _ in range(h + 1)]
    for i, b in enumerate(_popcounts(h)):
        rows[b].append(i)
    return chain.from_iterable(
        map((j << h).__or__, rows[lvl - b]) for j, b in enumerate(_popcounts(n - h)) if 0 <= lvl - b <= h
    )


def _colex_word(n: int, lvl: int, rank: int) -> int:
    """The word at index `rank` of `level_words(n, lvl)`, 0 <= rank <
    C(n, lvl), in n `comb` steps: rank is the sum of C(c_i, i) over the
    bits c_1 < ... < c_lvl of the word (the combinatorial number system),
    so each bit, from the top, is the highest c left with C(c, i) <= rank."""
    word = 0
    for c in reversed(range(n)):
        if math.comb(c, lvl) <= rank:
            word |= 1 << c
            rank -= math.comb(c, lvl)
            lvl -= 1
    return word


class LevelInterval(NamedTuple):
    """Contiguous range of levels [lo, hi] in the subset lattice."""

    lo: int
    hi: int

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


class _Value:
    """The dunders shared by the validated value classes (`Family`,
    `scd.Permutation`, `scd.Decomposition`).

    A subclass names its fields in `_fields` and sets them once, through
    `_set`, in `__init__`; after that assignment and deletion raise
    `AttributeError`.  An instance equals only an instance of its own class
    with equal fields, hashes on its fields, and pickles and copies back
    through `__init__`, so the copy is validated again.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Family(_Value):
    """Set family over [n]: byte s of `mask` is 1 iff the subset with word s
    belongs to the family, and 0 otherwise.  The mask is the family's
    identity, so equal families compare and hash alike.  Immutable and safe
    to share across threads.
    """

    _fields = ("n", "mask")
    n: int
    mask: bytes

    def __init__(self, n: int, mask: bytes):
        check_ground_set(n)
        # a bytearray would leave the family mutable through an alias
        if type(mask) is not bytes:
            raise TypeError(f"mask must be bytes, got {type(mask).__name__}")
        # two counts allocate nothing, so the check holds no second 2^n-byte buffer
        if len(mask) != 1 << n or mask.count(0) + mask.count(1) != len(mask):
            raise ValueError(f"mask must hold one 0/1 byte for each of the {1 << n} subsets")
        self._set(n, mask)

    def __repr__(self) -> str:
        return f"Family(n={self.n})"  # the mask is 2^n bytes

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "Family":
        """The family whose subset word w is a member iff bit w of `bits` is set."""
        check_ground_set(n)
        if bits < 0 or bits.bit_length() > 1 << n:
            raise ValueError("membership bitset does not fit the 2^n subsets")
        digits = bin(bits)[:1:-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
        return cls(n, digits + bytes((1 << n) - len(digits)))

    @classmethod
    def from_words(cls, n: int, words: Iterable[int]) -> "Family":
        return cls.empty(n).with_words(words)

    @classmethod
    def empty(cls, n: int) -> "Family":
        return cls.from_bits(n, 0)

    @classmethod
    def full(cls, n: int) -> "Family":
        check_ground_set(n)
        return cls(n, b"\1" * (1 << n))

    def size(self) -> int:
        return self.mask.count(1)

    def __contains__(self, word: int) -> bool:
        return 0 <= word < (1 << self.n) and self.mask[word] == 1

    def words(self) -> Iterator[int]:
        """Member subset words in ascending order."""
        return compress(range(1 << self.n), self.mask)

    def with_words(self, words: Iterable[int]) -> "Family":
        mask = bytearray(self.mask)
        for w in words:
            check_word(w, self.n)
            mask[w] = 1
        return Family(self.n, bytes(mask))


def middle_levels(n: int, k: int, variant: str = "floor") -> LevelInterval:
    """The k middle levels of the lattice on [n], floor or ceil flavour.

    The two flavours coincide exactly when n - k is odd.
    """
    check_ground_set(n)
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must be in [1, {n + 1}], got {k}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "floor":
        return LevelInterval((n - k + 1) // 2, (n + k - 1) // 2)
    return LevelInterval((n - k + 2) // 2, (n + k) // 2)


def sigma(n: int, k: int) -> int:
    """Sum of the k largest binomial coefficients C(n, .)."""
    check_ground_set(n)
    if not 0 <= k <= n + 1:
        raise ValueError(f"k must be in [0, {n + 1}], got {k}")
    if k == 0:
        return 0
    lo, hi = middle_levels(n, k, "floor")
    return sum(binom(n, lvl) for lvl in range(lo, hi + 1))


_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _popcounts(n: int) -> bytes:
    """Byte w is the popcount of word w, for the 2^n words of n bits.

    Built by doubling: the words with the next bit set are the ones before
    them plus one element, so `pc += pc.translate(_PLUS_ONE)`."""
    pc = b"\0"
    for _ in range(n):
        pc += pc.translate(_PLUS_ONE)
    return pc


def _rows_family(n: int, rows: LevelInterval, words: Iterable[int] | None = None, row: int = 0, x: int = 0) -> Family:
    """Every subset whose size lies in rows.lo..rows.hi (none for the empty
    interval lo = hi + 1), plus x subsets of [n] of size `row`: `words`, or
    by default the x colex-smallest ones, x <= C(n, row).

    The sets are marked in a copy of the popcount table, where a word's
    byte is its size, by turning their bytes to 255.  The colex-smallest x
    are the row's words up to its x-th, `_colex_word(n, row, x - 1)`, so
    a translate turns every byte `row` up to that word to 255, 4 KiB slice
    by slice: n `comb` steps and one step per slice, whatever x is.
    `words` are marked one index per word: the byte must be `row`, or 255
    for a repeat.  `w >> n` is nonzero for every word outside [n],
    negative words included, so no index wraps.  A bad word raises as it
    arrives, before the next one is drawn; too few or too many words, or a
    repeat, raise once the words run out.  One translate then maps the
    rows' levels and 255 to 1 and every other byte to 0, which is the
    mask, so at most two 2^n-byte buffers are alive at once."""
    marked = bytearray(_popcounts(n))
    if words is None:
        end = x and _colex_word(n, row, x - 1) + 1
        mark = bytearray(range(256))
        mark[row] = 255
        # 4 KiB at a time: the whole prefix and its translation would be two more buffers
        for i in range(0, end, 4096):
            j = min(i + 4096, end)
            marked[i:j] = marked[i:j].translate(mark)
    else:
        taken = repeats = 0
        for w in words:
            if w >> n or marked[w] != row:
                check_word(w, n)
                if marked[w] != 255:
                    raise ValueError(f"selector returned a set of size {w.bit_count()}, expected {row}")
                repeats += 1
            marked[w] = 255
            taken += 1
        if taken != x or repeats:
            raise ValueError(f"selector must yield {x} distinct sets")
    band = bytes(rows.lo) + b"\1" * rows.width + bytes(255 - rows.lo - rows.width) + b"\1"
    mask = marked.translate(band)
    del marked  # before the copy to bytes, which `Family` takes
    return Family(n, bytes(mask))


def build_b_family(n: int, k: int, variant: str = "floor") -> Family:
    """Family of all subsets whose size falls in the k middle levels."""
    return _rows_family(n, middle_levels(n, k, variant))


def format_word(word: int) -> str:
    """One subset in the family file syntax: `-` or space-separated elements."""
    if word == 0:
        return "-"
    return " ".join(str(e) for e in elements_of_word(word))


def _word_formatter(n: int) -> Callable[[int], str]:
    """`format_word` for the words of [n], by lookups in `_line_heads`."""
    h, first, heads, hi = _line_heads(n)
    low = (1 << h) - 1
    return lambda word: heads[word & low] + hi[word >> h] if word >> h else first[word]


def _line_heads(n: int) -> tuple[int, list[str], list[str], list[str]]:
    """(h, first, heads, hi) with h = n // 2: the family file line of word
    w = (j << h) | i is first[i] when j = 0 and heads[i] + hi[j] when j >= 1.

    Name a subset by its ascending, space-separated elements.  hi[j] names
    the subset of elements h+1..n with word j ("" for j = 0); heads[i] is
    the name of the subset of elements 1..h with word i followed by a
    space ("" for i = 0), and first[i] is that name without the space
    ("-" for i = 0, the empty set)."""
    h = n // 2
    heads, hi = [""], [""]
    for names, elements in ((heads, range(1, h + 1)), (hi, range(h + 1, n + 1))):
        for e in elements:
            # the words with this bit set are the earlier ones plus e, the largest element yet
            names += [f"{name}{e} " for name in names]
    return h, ["-", *(name[:-1] for name in heads[1:])], heads, [name[:-1] for name in hi]


def _head_tables(n: int) -> tuple[int, list[str], tuple[dict[str, int], dict[str, int]]]:
    """(h, hi, tables): tables[j > 0] maps the line of word w = (j << h) | i
    with the suffix hi[j] removed to i, the inverse of `_line_heads` on
    block j.

    Word j << h with j >= 1 has no key: its line less hi[j] is "", which a
    blank line would hit too.  Every key of tables[1] ends with a space, so
    a line that does not end in hi[j] and has no trailing whitespace is
    never a key of it."""
    h, first, heads, hi = _line_heads(n)
    return h, hi, (dict(zip(first, count())), dict(zip(heads[1:], count(1))))


def family_text_blocks(family: Family) -> Iterator[str]:
    """The family file text in pieces: the header, block 0, then each
    nonempty block j >= 1, so a writer holds one block of text at a time.

    The words w = (j << h) | i with one high half j form a block of 2^h
    words, and a member's line is built from `_line_heads`.  So for j >= 1
    one block is one C-level join of the heads picked by the block's mask
    bytes, separated by hi[j] + newline; block 0 is one join of first[i] +
    newline.  The pieces join into the per-word `format_word` lines byte
    for byte.
    """
    n, mask = family.n, family.mask
    h, first, heads, hi = _line_heads(n)
    yield f"n={n}\n"
    yield "".join(compress([name + "\n" for name in first], mask[: 1 << h]))
    for j in range(1, len(hi)):
        block = mask[j << h : (j + 1) << h]
        if 1 in block:  # the join of no names would still emit one sep
            sep = hi[j] + "\n"
            yield sep.join(compress(heads, block)) + sep


def serialize_family(family: Family) -> str:
    """The family file text: the header, then one line per member in
    ascending word order; the join of `family_text_blocks`."""
    return "".join(family_text_blocks(family))


def _decimal(token: str) -> int:
    """ASCII digits as an int, refusing the signs, `_` and non-ASCII digits int() takes."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(token)
    return int(token)


# characters per slice of the family text that `parse_family` splits at once,
# and per chunk that it reads from a stream
_SLICE_CHARS = 1 << 16


def _text_slices(chunks: Iterable[str]) -> Iterator[str]:
    """The text of `chunks` in slices of at least `_SLICE_CHARS` characters,
    each ending just after a "\\n", then the rest of the text.  What follows
    the last "\\n" of a chunk is carried into the next, so a chunk may end
    anywhere.  Every line break that holds a "\\n" ends with it ("\\r\\n" is
    one break), so no break spans a cut and the slices split into exactly
    the lines of the whole text's `splitlines()`."""
    tail = ""
    for chunk in chunks:
        text, start = tail + chunk, 0
        while cut := text.find("\n", start + _SLICE_CHARS - 1) + 1:
            yield text[start:cut]
            start = cut
        tail = text[start:]
    if tail:
        yield tail


def parse_family(source: str | TextIO) -> Family:
    """Parse the family file format from a string or a text stream.  A
    file is read by `read_family`, which decodes its bytes by the format's
    rules and hands the text to this function.

    First non-comment line is `n=<decimal>`; each later line is one subset
    as space-separated decimal elements of [1, n] (any order) or `-` for
    the empty set.  `#` starts a comment.  Duplicate subsets are rejected.

    A string is one chunk of text; a stream is read in chunks of
    `_SLICE_CHARS` characters, so its text is never held whole.  The lines
    are one numbered stream: the slices of `_text_slices`, each split into
    lines only when `chain` has used up the one before, so the lines of
    only one slice are alive at once.  The header search reads the
    stream up to the header, and one loop reads the rest of it as body
    lines.  Each line, trailing whitespace stripped and the suffix hi[j]
    removed, is first looked up whole in the table of block j from
    `_head_tables`, where j is the high half of the last word read per
    line (0 before any).  A hit i is the word (j << h) | i: the stripped
    line has no trailing whitespace, so if it does not end in hi[j] it
    stays whole and is no key of tables[1], every key of which ends in a
    space.  A hit is thus a line that `serialize_family` writes for that
    word, trailing whitespace aside, and the per-line read takes it as
    that word too.  A miss is read per line: each token is looked up in a
    table of the n strings "1".."n", and a line with any other token or a
    repeated element goes through `_line_word`, which reads leading zeros
    and raises every format error.  Its word sets the block of the next
    lookups.  Every word, hit or not, gets the one duplicate check, so each
    error names the line it is on.

    A file in `serialize_family`'s order is so read with about one
    per-line read per block and a lookup for every other line; in a file
    whose neighbouring lines seldom share a block nearly every line pays a
    failed lookup on top of its per-line read.
    """
    chunks = (source,) if isinstance(source, str) else iter(partial(source.read, _SLICE_CHARS), "")
    numbered = enumerate(chain.from_iterable(map(str.splitlines, _text_slices(chunks))), start=1)
    for lineno, raw in numbered:
        line = raw.split("#", 1)[0].strip()
        if line:
            n = _header_size(line, lineno)
            break
    else:
        raise MissingHeader("missing `n=<int>` header")
    bit_of = {str(e): 1 << (e - 1) for e in range(1, n + 1)}.__getitem__
    h, hi, tables = _head_tables(n)
    table, suffix, base = tables[0], "", 0
    mask = bytearray(1 << n)
    for lineno, raw in numbered:
        i = table.get(raw.rstrip().removesuffix(suffix))
        if i is not None:
            word = base | i
        else:
            parts = raw.split("#", 1)[0].split() if "#" in raw else raw.split()
            if not parts:
                continue
            try:
                word = sum(map(bit_of, parts))
            except KeyError:
                word = _line_word(parts, lineno, n)
            else:
                # distinct bits add without carries, so a repeat loses a bit
                if word.bit_count() != len(parts):
                    word = _line_word(parts, lineno, n)
            j = word >> h
            table, suffix, base = tables[j > 0], hi[j], j << h
        if mask[word]:
            raise DuplicateSubset(f"line {lineno}: duplicate subset {format_word(word)!r}")
        mask[word] = 1
    return Family(n, bytes(mask))


def _header_size(line: str, lineno: int) -> int:
    """The ground-set size of the header line `n=<decimal>`, comment stripped."""
    if not line.startswith("n="):
        raise MissingHeader(f"line {lineno}: expected `n=<int>` header, got {line!r}")
    try:
        n = _decimal(line[2:])
    except ValueError:
        raise MissingHeader(f"line {lineno}: bad ground-set size {line[2:]!r}") from None
    try:
        check_ground_set(n)
    except ValueError as exc:
        raise MalformedLine(f"line {lineno}: {exc}") from None
    return n


def _line_word(parts: list[str], lineno: int, n: int) -> int:
    """The subset word of one body line's tokens, reading each as a decimal
    element; raises on the first bad, out-of-range or repeated element."""
    if parts == ["-"]:
        return 0
    word = 0
    for part in parts:
        try:
            e = _decimal(part)
        except ValueError:
            raise MalformedLine(f"line {lineno}: {part!r} is not an element") from None
        if not 1 <= e <= n:
            raise ElementOutOfRange(f"line {lineno}: element {e} outside [1, {n}]")
        bit = 1 << (e - 1)
        if word & bit:
            raise MalformedLine(f"line {lineno}: repeated element {e}")
        word |= bit
    return word


class _Utf8Text:
    """A binary file read as UTF-8 text, one `read(size)` chunk at a time,
    for `parse_family`.  A leading byte-order mark is dropped (one anywhere
    else stays a format error), and newlines are universal, as in text
    mode, so a lone-"\\r" file still streams in slices.  `fed` counts the
    bytes given to the decoder, which turns the position of a decode error
    in the bytes of its last call into one in the file."""

    def __init__(self, raw) -> None:
        self.raw, self.head, self.fed = raw, raw.read(3).removeprefix(BOM_UTF8), 0
        self.decode = IncrementalNewlineDecoder(getincrementaldecoder("utf-8")(), True).decode

    def read(self, size: int) -> str:
        data, self.head = self.head + self.raw.read(size), b""
        self.fed += len(data)
        # a short read is the end of the file, where no byte may be held back
        return self.decode(data, len(data) < size)


def read_family(path: str) -> Family:
    """The family in the family file at `path`, read in binary and parsed
    by `parse_family` one chunk at a time, so the file's text is never held
    whole.  The file is UTF-8: a leading byte-order mark is dropped, and a
    byte that is not UTF-8 raises a `FamilyFormatError` that names its
    offset in the file, as a decode of the whole file does, even after an
    earlier format error; nothing is read twice, so a pipe reports the same
    offset.  An `OSError` from opening or reading the file propagates."""
    with open(path, "rb") as handle:
        text = _Utf8Text(handle)
        try:
            try:
                return parse_family(text)
            except FamilyFormatError:
                while text.read(_SLICE_CHARS):  # a bad byte anywhere in the file wins
                    pass
                raise
        except UnicodeDecodeError as exc:
            # exc.object is the bytes of the failing call, the few held back from the call before included
            at, span = text.fed - len(exc.object) + exc.start, exc.end - exc.start
            what = (f"byte 0x{exc.object[exc.start]:02x} in position {at}" if span == 1
                    else f"bytes in position {at}-{at + span - 1}")
            raise FamilyFormatError(f"{path}: not UTF-8 text ('utf-8' codec can't decode {what}: {exc.reason})") from None
