"""Symmetric chain decompositions of the subset lattice: one bracket
matcher that builds the decomposition in output order and the chain
through any one word, validation, and the permutation action on
decompositions."""

from __future__ import annotations

from collections import deque
from itertools import accumulate, compress, count, groupby, repeat
from operator import and_, contains, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from supersat.core import _Value, binom, check_ground_set, check_word

# A chain is a strictly inclusion-increasing tuple of subset words.
Chain = tuple[int, ...]


def _chain_order(ch: Chain) -> tuple[int, int]:
    """Canonical chain order: lowest level on the chain, then smallest word."""
    return min(map(int.bit_count, ch)), min(ch)


def _in_ground_set(ch: Chain, n: int) -> bool:
    """Whether the chain is nonempty and every word on it is a subset of
    [n]: two C-level calls, its least and greatest word."""
    return bool(ch) and min(ch) >= 0 and not max(ch) >> n


class Permutation(_Value):
    """Bijection of [n]; image[i] is where element i+1 goes."""

    _fields = ("image",)
    image: tuple[int, ...]

    def __init__(self, image: Iterable[int]):
        # a tuple of plain ints, so that no alias can change it and it hashes
        image = tuple(image)
        n = len(image)
        check_ground_set(n)
        # a float or bool image would pass the sort but not `apply_to_word`
        ints = all(isinstance(i, int) and not isinstance(i, bool) for i in image)
        if not ints or sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of [1, {n}]: {image}")
        self._set(image)

    @property
    def n(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    def apply_to_word(self, word: int) -> int:
        out = 0
        for i, target in enumerate(self.image):
            if (word >> i) & 1:
                out |= 1 << (target - 1)
        return out

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("permutation size mismatch")
        return Permutation([self.image[i - 1] for i in other.image])

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, target in enumerate(self.image):
            inv[target - 1] = i + 1
        return Permutation(inv)


class Decomposition(_Value):
    """Chains covering the subset lattice: `n` and `chains`, nothing else.

    `__init__` checks `n` and stores the chains, from any iterable of
    iterables of words, as a tuple of tuples, so no alias of the caller's
    can change them and the decomposition hashes.  Chains given as tuples
    are kept, not copied, and a list or tuple of them becomes one tuple
    made at its size, not grown and then shrunk.  `from_chains`
    also checks the words and canonicalizes chain order.  Neither requires
    the chains to form a valid SCD; `validate_scd` reports that, so
    deliberately broken decompositions can be represented in tests.  A word
    is looked up by reading the chains (`chain_through`).  The `scd`
    command builds none: each of its modes reads the chains of
    `_scd_chains` once, as they are made.
    """

    _fields = ("n", "chains")
    n: int
    chains: tuple[Chain, ...]

    def __init__(self, n: int, chains: Iterable[Iterable[int]]):
        check_ground_set(n)
        chains = tuple(chains)
        if {*map(type, chains)} - {tuple}:
            chains = tuple([*map(tuple, chains)])
        self._set(n, chains)

    @classmethod
    def from_chains(cls, n: int, chains: Iterable[Sequence[int]]) -> "Decomposition":
        """The checked constructor: every chain nonempty and every word a
        subset of [n] (`_in_ground_set`), chains sorted by `_chain_order`.

        `scd_inductive` calls the class directly: `_scd_chains` makes words
        of [n] only, on ascending chains, already in `_chain_order`.
        `permute_decomposition` sorts the images of `_images` (which checks
        each chain before mapping it) by the same key, and `_permuted` puts
        them in the same order one level at a time.  The tests pin both
        against this constructor.
        """
        check_ground_set(n)
        canon = [tuple(ch) for ch in chains]
        for idx, ch in enumerate(canon):
            if not _in_ground_set(ch, n):
                raise ValueError(f"chain {idx} is empty or holds a word outside [{n}]")
        canon.sort(key=_chain_order)
        return cls(n, canon)


def _brackets(word: int, bits: int) -> tuple[list[int], list[int]]:
    """(closers, openers): the bits of the unmatched ')' and of the
    unmatched '(' among the low `bits` positions of `word`, each ascending.

    Position i reads ')' when bit i is set and '(' when it is clear, and
    brackets match the usual nested way, so the unmatched positions read
    ")..)(..(" left to right.
    """
    closers: list[int] = []
    openers: list[int] = []
    for bit in map((1).__lshift__, range(bits)):
        if not word & bit:
            openers.append(bit)
        elif openers:
            openers.pop()
        else:
            closers.append(bit)
    return closers, openers


def _scd_chains(n: int) -> Iterator[Chain]:
    """The chains of the bracket-matching decomposition of [n], one at a
    time and already in `_chain_order`.

    A chain starts at its one word with no unmatched ')'.  Split a word as
    (hi << h) | lo with h = ceil(n / 2), as `_images` does,
    and match each half once.  The c unmatched ')' of hi match the last c
    unmatched '(' of lo, and lo has h - 2|lo| of those when it has no
    unmatched ')' itself.  So the word starts a chain iff lo has no
    unmatched ')' and c <= h - 2|lo|; the chain then sets, one a step, the
    first h - 2|lo| - c unmatched '(' of lo and then those of hi.  The
    starts of one level, hi ascending and then lo ascending, ascend as
    words, so the chains come by level and then by least word, unsorted.
    Each chain is a list made a tuple at its size: `tuple` of an iterator
    grows its tuple as it goes, which raises the peak of `scd --n 20`.

    Like `core.level_words`, it checks n when called, not when the chains
    are first read.
    """
    check_ground_set(n)
    h = (n + 1) // 2
    # lows[a]: (lo, its unmatched '(') for the lo of popcount a with no unmatched ')', ascending
    lows: list[list[tuple[int, list[int]]]] = [[] for _ in range(h + 1)]
    for lo, (closers, openers) in enumerate(map(_brackets, range(1 << h), repeat(h))):
        if not closers:
            lows[lo.bit_count()].append((lo, openers))
    highs = [(hi.bit_count(), hi << h, len(closers), [bit << h for bit in openers])
             for hi, (closers, openers) in enumerate(map(_brackets, range(1 << (n - h)), repeat(n - h)))]
    # a start at level v <= n/2 has a = v - b bits in lo and keeps all but c of its h - 2a '('
    return (tuple([*accumulate(lo_open[:len(lo_open) - c] + hi_open, or_, initial=head | lo)])
            for v in range(n // 2 + 1) for b, head, c, hi_open in highs
            if b <= v and 2 * (v - b) + c <= h for lo, lo_open in lows[v - b])


def scd_inductive(n: int) -> Decomposition:
    """Symmetric chain decomposition of de Bruijn, van Ebbenhorst Tengbergen
    and Kruyswijk (1951), which adds one element at a time: each chain
    (S_m, ..., S_t) over [n - 1] becomes (S_m, ..., S_t, S_t + n) and, when
    it has at least two sets, (S_m + n, ..., S_{t-1} + n).

    The bracket-matching rule of Greene and Kleitman (1976) gives the same
    chains, so they are made by `_scd_chains`, in order.

    Why the rules agree, by induction on n.  Read element i as ')' when
    present and '(' when absent, and add element m as the rightmost bracket
    to a word S whose bracket chain over [m-1] is (S_0, ..., S_t).  If m is
    absent, its '(' is unmatched, so the chain through S gains S_t + m: the
    first inductive child.  If m is present, its ')' matches the last
    unmatched '(' of S when there is one, so the chain becomes (S_0 + m, ...,
    S_{t-1} + m): the second child.  Otherwise S = S_t, the ')' stays
    unmatched and S + m = S_t + m lies on the first child.  At n = 1 both
    rules give the chain (empty, {1}).  `bracketing_chain_of` applies the
    rule word by word; the tests keep the doubling rule as the oracle that
    shares no code with either.
    """
    return Decomposition(n, _scd_chains(n))


def bracketing_chain_of(n: int, word: int) -> Chain:
    """The full chain through `word` in the bracket-matching decomposition.

    Match the brackets of `word` (`_brackets`); the chain keeps the matched
    positions as they are and, starting from the word with every unmatched
    position clear, sets the unmatched positions one a step in ascending
    order.  It reads one word, and is the per-word oracle for the chains
    `_scd_chains` makes.
    """
    check_ground_set(n)
    check_word(word, n)
    closers, openers = _brackets(word, n)
    return tuple(accumulate(closers + openers, or_, initial=word - sum(closers)))


class ScdValidation(NamedTuple):
    """Per-property outcome of validating a decomposition as an SCD."""

    partition: bool
    skipless: bool
    symmetric: bool
    chain_count: bool
    locator: bool
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(self[:5])


def validate_scd(dec: Decomposition) -> ScdValidation:
    """The report of `_validate_chains` on the decomposition's chains."""
    return _validate_chains(dec.n, dec.chains)[0]


def _validate_chains(n: int, chains: Iterable[Chain]) -> tuple[ScdValidation, int]:
    """Check partition of the lattice, skipless chains, symmetric chains,
    the chain-count identity, and that `chain_through` finds every word at
    the place it sits on its chain; return the report and the number of
    chains.  Empty chains and words outside [n] are reported as partition
    problems.

    It reads the chains once, as they come, and holds one flag per word of
    [n], so `scd --validate` checks the chains of `_scd_chains` as they
    are made.  `chain_through` finds first occurrences, so it errs at the
    first repeat: a word that an earlier chain holds, which C-level
    lookups in the flags find before the chain is marked, or one that its
    own chain holds twice, which only a chain that is not skipless can.
    Only such a chain is walked in Python, for the repeat's position.
    """
    partition, skipless, symmetric, locator = [], [], [], []
    # one flag per word of [n]: 1 MiB at n = 20, where a set added about 45 MiB
    seen = bytearray(1 << n)
    mark, ones = seen.__setitem__, repeat(1)  # shared: repeat(1) never runs out
    placed = 0
    idx = -1  # the index of the last chain read
    for idx, ch in enumerate(chains):
        inside = ch
        if not _in_ground_set(ch, n):
            if not ch:
                partition.append(f"chain {idx} is empty")
            partition += [f"chain {idx} holds {w}, which is not a subset of [{n}]"
                          for w in ch if w >> n]
            inside = [w for w in ch if not w >> n]  # w >> n is -1 for w < 0
        # a skipless chain climbs one level a step, so its ends are its
        # extremes; an empty chain spans [n, 0], skipless and symmetric
        levels = list(map(int.bit_count, ch))
        lo, hi = (levels[0], levels[-1]) if ch else (n, 0)
        climbs = levels == list(range(lo, hi + 1)) and list(map(and_, ch, ch[1:])) == list(ch[:-1])
        if not climbs:
            skipless.append(f"chain {idx} is not a skipless chain")
            lo, hi = min(levels), max(levels)
        if lo + hi != n:
            symmetric.append(f"chain {idx} spans levels [{lo}, {hi}], not symmetric")
        if not locator and (not climbs or any(map(seen.__getitem__, inside))):
            for pos, w in enumerate(ch):
                if not w >> n:
                    if seen[w]:
                        locator.append(f"locator disagrees with chain {idx} at position {pos}")
                        break
                    seen[w] = 1
        deque(map(mark, inside, ones), 0)
        placed += len(inside)
    covered = (1 << n) - seen.count(0)
    if placed > covered:
        partition.append(f"{placed - covered} subsets appear on more than one chain")
    if covered != 1 << n:
        partition.append(f"chains cover {covered} of {1 << n} subsets")
    expected = binom(n, n // 2)
    chain_count = []
    if idx + 1 != expected:
        chain_count.append(f"{idx + 1} chains, expected C(n, n//2) = {expected}")
    found = (partition, skipless, symmetric, chain_count, locator)
    return ScdValidation(*[not problems for problems in found], tuple(sum(found, []))), idx + 1


def permute_decomposition(dec: Decomposition, perm: Permutation) -> Decomposition:
    """Apply the permutation to every set of every chain: the images of
    `_images`, which rejects a chain that is empty or leaves [n] before it
    maps it, sorted stably into `_chain_order` whatever order the chains
    come in, as `Decomposition.from_chains` sorts them.  A permutation of
    another ground set raises `ValueError`."""
    if perm.n != dec.n:
        raise ValueError(f"permutation acts on [{perm.n}] but decomposition is over [{dec.n}]")
    return Decomposition(dec.n, sorted(_images(dec.chains, perm), key=_chain_order))


def _permuted(chains: Iterable[Chain], perm: Permutation) -> Iterator[Chain]:
    """The images of chains that come as `_scd_chains` yields them, level by
    level and each ascending, in `_chain_order`, one level held at a time.

    A permutation keeps every word's level, so the images of one level's
    chains are the chains of that level, and `scd --permute` sorts only
    the largest level's 48,450 images at n = 20 instead of all 184,756.
    A symmetric chain from level v has n + 1 - 2v words, so the levels are
    the runs of one length.  Within a level the images' first words are
    their least words and distinct, so a plain sort of the tuples is
    `_chain_order`.
    """
    for _, level in groupby(_images(chains, perm), len):
        yield from sorted(level)


def _images(chains: Iterable[Chain], perm: Permutation) -> Iterator[Chain]:
    """The image of each chain under the permutation, as the chains come.

    It reads the chains once, so `scd --permute` maps the chains of
    `_scd_chains` without holding them.  A word w maps to
    lo[w & (2^h - 1)] | hi[w >> h] with h = ceil(n / 2): lo holds the
    images of the 2^h words of elements 1..h and hi those of elements
    h+1..n, each table grown by doubling as in `core._line_heads`.  Two
    half tables take 2^h + 2^(n-h) ints where one of all 2^n words would
    raise the peak memory at n = 20.  `Permutation.apply_to_word` is the
    per-word reference the tests compare against.  A chain that is empty
    or holds a word outside [n] raises `ValueError` before it is mapped,
    since a negative word would wrap through hi[-1] to a valid image.
    """
    n = perm.n
    h = (n + 1) // 2
    tables = []
    for elements in (range(h), range(h, n)):
        images = [0]
        for i in elements:
            # the words with this element are the earlier ones plus its image
            bit = 1 << (perm.image[i] - 1)
            images += [w | bit for w in images]
        tables.append(images)
    lo, hi = tables
    low = (1 << h) - 1
    for idx, ch in enumerate(chains):
        if not _in_ground_set(ch, n):
            raise ValueError(f"chain {idx} is empty or holds a word outside [{n}]")
        yield tuple([lo[w & low] | hi[w >> h] for w in ch])


def chain_through(dec: Decomposition, word: int) -> tuple[int, int]:
    """(chain index, position) of the first occurrence of `word`: the first
    chain that holds it, then its first position there.  Total whenever
    `dec` is a partition; a word on no chain raises `KeyError`.

    The scan tests each chain with `operator.contains` at C level and
    allocates nothing of size 2^n."""
    check_word(word, dec.n)
    for idx in compress(count(), map(contains, dec.chains, repeat(word))):
        return idx, dec.chains[idx].index(word)
    raise KeyError(word)


def _first_chains(dec: Decomposition) -> dict[int, int]:
    """Word -> index of the first chain that holds it: `chain_through`'s
    chain index for every word at once, built from the chains in one pass.
    The later chains are read first, so the first chain's entry is the one
    kept.  A word on no chain has no key."""
    return {w: idx for idx, ch in reversed(tuple(enumerate(dec.chains))) for w in ch}
