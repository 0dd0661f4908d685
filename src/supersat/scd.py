"""Symmetric chain decompositions of the subset lattice: the inductive
construction (which the bracket-matching rule reproduces), the per-word
bracket-matching chain, validation, and the permutation action on
decompositions."""

from __future__ import annotations

from collections import deque
from itertools import compress, count, repeat
from operator import and_, contains
from typing import Iterable, NamedTuple, Sequence

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

    def __init__(self, image: tuple[int, ...]):
        n = len(image)
        check_ground_set(n)
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of [1, {n}]: {image}")
        self._set(image)

    @property
    def n(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

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
        return Permutation(tuple(self.image[other.image[i] - 1] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, target in enumerate(self.image):
            inv[target - 1] = i + 1
        return Permutation(tuple(inv))


class Decomposition(_Value):
    """Chains covering the subset lattice: `n` and `chains`, nothing else.

    `__init__` checks `n` and stores the chains as given; `from_chains` also
    checks the words and canonicalizes chain order.  Neither requires the
    chains to form a valid SCD; `validate_scd` reports that, so deliberately
    broken decompositions can be represented in tests.  A word is looked up
    by reading the chains (`chain_through`).
    """

    _fields = ("n", "chains")
    n: int
    chains: tuple[Chain, ...]

    def __init__(self, n: int, chains: tuple[Chain, ...]):
        check_ground_set(n)
        self._set(n, chains)

    @classmethod
    def from_chains(cls, n: int, chains: Iterable[Sequence[int]]) -> "Decomposition":
        """The checked constructor: every chain nonempty and every word a
        subset of [n] (`_in_ground_set`), chains sorted by `_chain_order`.

        `scd_inductive` calls the class directly: its chains add bits below
        n to words of [n - 1], and sorting them by first word gives the same
        key on its ascending chains.  `permute_decomposition` applies the
        same test to each chain it maps, and sorts by `_chain_order` itself.
        The tests pin both against this constructor.
        """
        check_ground_set(n)
        canon = [tuple(ch) for ch in chains]
        for idx, ch in enumerate(canon):
            if not _in_ground_set(ch, n):
                raise ValueError(f"chain {idx} is empty or holds a word outside [{n}]")
        canon.sort(key=_chain_order)
        return cls(n, tuple(canon))


def scd_inductive(n: int) -> Decomposition:
    """Symmetric chain decomposition built by adding one element at a time.

    Each chain (S_m, ..., S_t) of the smaller decomposition becomes
    (S_m, ..., S_t, S_t + new) and, when it has at least two sets,
    (S_m + new, ..., S_{t-1} + new).
    """
    check_ground_set(n)
    chains: list[Chain] = [(0, 1)]
    for m in range(2, n + 1):
        bit = 1 << (m - 1)
        grown: list[Chain] = []
        for ch in chains:
            grown.append(ch + (ch[-1] | bit,))
            if len(ch) >= 2:
                grown.append(tuple(w | bit for w in ch[:-1]))
        chains = grown
    # every chain ascends, so its first word holds both parts of `_chain_order`
    chains.sort(key=lambda ch: (ch[0].bit_count(), ch[0]))
    return Decomposition(n, tuple(chains))


def bracketing_chain_of(n: int, word: int) -> Chain:
    """The full chain through `word` in the bracket-matching decomposition.

    Read position i as ')' when i is in the subset and '(' otherwise, match
    brackets the usual nested way, then sweep the unmatched positions (which
    always read ")..)(..(" left to right) through every ")^j (^(u-j)"
    pattern while matched positions stay fixed.
    """
    check_ground_set(n)
    check_word(word, n)
    stack: list[int] = []
    closers: list[int] = []
    for i in range(n):
        if (word >> i) & 1:
            if stack:
                stack.pop()
            else:
                closers.append(i)
        else:
            stack.append(i)
    base = word
    for pos in closers:
        base &= ~(1 << pos)
    chain = [base]
    w = base
    for pos in closers + stack:  # unmatched positions in ascending order
        w |= 1 << pos
        chain.append(w)
    return tuple(chain)


def scd_bracketing(n: int) -> Decomposition:
    """Symmetric chain decomposition from the bracket-matching rule; it is
    the decomposition `scd_inductive` builds, so it is built that way.

    Why the rules agree, by induction on n.  Read element i as ')' when
    present and '(' when absent, and add element m as the rightmost bracket
    to a word S whose bracket chain over [m-1] is (S_0, ..., S_t).  If m is
    absent, its '(' is unmatched, so the chain through S gains S_t + m: the
    first inductive child.  If m is present, its ')' matches the last
    unmatched '(' of S when there is one, so the chain becomes (S_0 + m, ...,
    S_{t-1} + m): the second child.  Otherwise S = S_t, the ')' stays
    unmatched and S + m = S_t + m lies on the first child.  At n = 1 both
    rules give the chain (empty, {1}).  `bracketing_chain_of` applies the
    rule word by word and is the oracle this is checked against.
    """
    return scd_inductive(n)


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
        return (
            self.partition
            and self.skipless
            and self.symmetric
            and self.chain_count
            and self.locator
        )


def validate_scd(dec: Decomposition) -> ScdValidation:
    """Check partition of the lattice, skipless chains, symmetric chains,
    the chain-count identity, and that `chain_through` finds every word at
    the place it sits on its chain.  Empty chains and words outside [n] are
    reported as partition problems."""
    n = dec.n
    partition, skipless, symmetric = [], [], []
    # one flag per word of [n]: 1 MiB at n = 20, where a set added about 45 MiB
    seen = bytearray(1 << n)
    mark, ones = seen.__setitem__, repeat(1)  # shared: repeat(1) never runs out
    placed = 0
    for idx, ch in enumerate(dec.chains):
        inside = ch
        if not _in_ground_set(ch, n):
            if not ch:
                partition.append(f"chain {idx} is empty")
            partition += [f"chain {idx} holds {w}, which is not a subset of [{n}]"
                          for w in ch if w >> n]
            inside = [w for w in ch if not w >> n]  # w >> n is -1 for w < 0
        deque(map(mark, inside, ones), 0)
        placed += len(inside)
        # a skipless chain climbs one level a step, so its ends are its
        # extremes; an empty chain spans [n, 0], skipless and symmetric
        levels = list(map(int.bit_count, ch))
        lo, hi = (levels[0], levels[-1]) if ch else (n, 0)
        if levels != list(range(lo, hi + 1)) or list(map(and_, ch, ch[1:])) != list(ch[:-1]):
            skipless.append(f"chain {idx} is not a skipless chain")
            lo, hi = min(levels), max(levels)
        if lo + hi != n:
            symmetric.append(f"chain {idx} spans levels [{lo}, {hi}], not symmetric")
    covered = (1 << n) - seen.count(0)
    duplicates = placed - covered
    if duplicates:
        partition.append(f"{duplicates} subsets appear on more than one chain")
    if covered != 1 << n:
        partition.append(f"chains cover {covered} of {1 << n} subsets")
    expected = binom(n, n // 2)
    chain_count = []
    if len(dec.chains) != expected:
        chain_count.append(f"{len(dec.chains)} chains, expected C(n, n//2) = {expected}")
    locator = []
    if duplicates:  # `chain_through` finds first occurrences, so it errs at the first repeat
        locator.append("locator disagrees with chain %d at position %d" % _first_repeat(dec))
    found = (partition, skipless, symmetric, chain_count, locator)
    return ScdValidation(*[not problems for problems in found], tuple(sum(found, [])))


def _first_repeat(dec: Decomposition) -> tuple[int, int] | None:
    """(chain index, position) of the first word of [n] that an earlier
    chain or position already holds, or None.  It walks every word in
    Python, so `validate_scd` calls it only once it has counted a repeat."""
    seen = bytearray(1 << dec.n)
    for idx, ch in enumerate(dec.chains):
        for pos, w in enumerate(ch):
            if not w >> dec.n:
                if seen[w]:
                    return idx, pos
                seen[w] = 1
    return None


def permute_decomposition(dec: Decomposition, perm: Permutation) -> Decomposition:
    """Apply the permutation to every set of every chain.

    A word w maps to lo[w & (2^h - 1)] | hi[w >> h] with h = ceil(n / 2):
    lo holds the images of the 2^h words of elements 1..h and hi those of
    elements h+1..n, each table grown by doubling as in `core._line_heads`.
    Two half tables take 2^h + 2^(n-h) ints where one of all 2^n words
    would raise the peak memory at n = 20.  `Permutation.apply_to_word`
    is the per-word reference the tests compare against.  A chain that is
    empty or holds a word outside [n] raises `ValueError`, since a negative
    word would wrap through hi[-1] to a valid image.
    """
    n = dec.n
    if perm.n != n:
        raise ValueError(f"permutation acts on [{perm.n}] but decomposition is over [{n}]")
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
    chains = []
    for idx, ch in enumerate(dec.chains):
        if not _in_ground_set(ch, n):
            raise ValueError(f"chain {idx} is empty or holds a word outside [{n}]")
        chains.append(tuple([lo[w & low] | hi[w >> h] for w in ch]))
    chains.sort(key=_chain_order)
    return Decomposition(n, tuple(chains))


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
