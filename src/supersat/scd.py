"""Symmetric chain decompositions of the subset lattice: the inductive
construction (which the bracket-matching rule reproduces), the per-word
bracket-matching chain, validation, and the permutation action on
decompositions."""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import contains
from typing import Iterable, NamedTuple, Sequence

from supersat.core import _Value, binom, check_ground_set, check_word, level

# A chain is a strictly inclusion-increasing tuple of subset words.
Chain = tuple[int, ...]


def _chain_order(ch: Chain) -> tuple[int, int]:
    """Canonical chain order: lowest level on the chain, then smallest word."""
    return min(map(int.bit_count, ch)), min(ch)


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
        subset of [n], chains sorted by `_chain_order`.

        `scd_inductive` and `permute_decomposition` call the class
        directly and skip the word checks, since their words are subsets of
        [n] by construction: the inductive chains add bits below n to words
        of [n - 1], and a permutation of [n] maps the words of a checked
        decomposition to words of [n].  `permute_decomposition` sorts by
        `_chain_order` itself; `scd_inductive` sorts by each chain's first
        word, which gives the same key on its ascending chains.  The tests
        pin both against this constructor.
        """
        check_ground_set(n)
        canon = []
        for ch in chains:
            ch = tuple(ch)
            if not ch:
                raise ValueError("empty chain")
            for w in ch:
                check_word(w, n)
            canon.append(ch)
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
    problems: list[str] = []

    # one seen flag per word of [n]: 1 MiB at n = 20, where a set of the
    # words raised the peak by about 45 MiB
    seen = bytearray(1 << n)
    duplicates = 0
    first_repeat: tuple[int, int] | None = None
    for idx, ch in enumerate(dec.chains):
        if not ch:
            problems.append(f"chain {idx} is empty")
        for pos, w in enumerate(ch):
            if w >> n:  # also for w < 0, which shifts to -1
                problems.append(f"chain {idx} holds {w}, which is not a subset of [{n}]")
                continue
            if seen[w]:
                duplicates += 1
                if first_repeat is None:
                    first_repeat = (idx, pos)
            seen[w] = 1
    covered = (1 << n) - seen.count(0)
    # every problem so far is an empty chain or a word outside [n]
    partition = not problems and duplicates == 0 and covered == 1 << n
    if duplicates:
        problems.append(f"{duplicates} subsets appear on more than one chain")
    if covered != 1 << n:
        problems.append(f"chains cover {covered} of {1 << n} subsets")

    skipless = True
    for idx, ch in enumerate(dec.chains):
        for a, b in zip(ch, ch[1:]):
            if (a & b) != a or level(b) != level(a) + 1:
                skipless = False
                problems.append(f"chain {idx} is not a skipless chain")
                break

    symmetric = True
    for idx, ch in enumerate(dec.chains):
        # an empty chain, reported above, spans [n, 0] here
        lo = min(map(level, ch), default=n)
        hi = max(map(level, ch), default=0)
        if lo + hi != n:
            symmetric = False
            problems.append(f"chain {idx} spans levels [{lo}, {hi}], not symmetric")

    expected = binom(n, n // 2)
    chain_count = len(dec.chains) == expected
    if not chain_count:
        problems.append(f"{len(dec.chains)} chains, expected C(n, n//2) = {expected}")

    # `chain_through` finds each word's first occurrence, so it disagrees
    # with the chains exactly at the first repeated word
    locator = first_repeat is None
    if first_repeat is not None:
        idx, pos = first_repeat
        problems.append(f"locator disagrees with chain {idx} at position {pos}")

    return ScdValidation(partition, skipless, symmetric, chain_count, locator, tuple(problems))


def permute_decomposition(dec: Decomposition, perm: Permutation) -> Decomposition:
    """Apply the permutation to every set of every chain.

    A word w maps to lo[w & (2^h - 1)] | hi[w >> h] with h = ceil(n / 2):
    lo holds the images of the 2^h words of elements 1..h and hi those of
    elements h+1..n, each table grown by doubling as in `core._line_heads`.
    Two half tables take 2^h + 2^(n-h) ints where one of all 2^n words
    would raise the peak memory at n = 20.  `Permutation.apply_to_word`
    is the per-word reference the tests compare against.
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
    chains = [tuple([lo[w & low] | hi[w >> h] for w in ch]) for ch in dec.chains]
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
