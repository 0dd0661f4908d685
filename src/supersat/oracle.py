"""Brute-force ground truth at small n: exact chain-count minima over all
families of a given size, largest chain-free families, an annealing search
for larger n, and the size-by-size comparison table against the centered
construction.

The exact minima come from one subset-zeta transform over the lattice of all
2^(2^n) families (n <= 4), with the k-chains of the full lattice as its
input, so every family's chain count is read off a single table, and each
size's witness is the family at the minimum's index in `level_words` order.
The centered construction is built and counted in one place
(`_centered_start`), once per size, and the annealer walks from it in one
place (`_anneal`), which the heuristic and the comparison table share."""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from supersat.core import Family, _colex_word, _rows_family, binom, check_ground_set, sigma
from supersat.bounds import added_row_level, middle_rows
from supersat.counting import _check_k, _count, _pass_masks, _zeta, count_k_chains

EXACT_N_MAX = 4
HEURISTIC_N_MAX = 10


class OracleResult(NamedTuple):
    """Minimum (or best-found) k-chain count over families of a given size."""

    n: int
    k: int
    family_size: int
    min_count: int
    witness: Family
    exact: bool


def _check_exact_n(n: int) -> None:
    check_ground_set(n)
    if n > EXACT_N_MAX:
        raise ValueError(f"exact sweep supports n <= {EXACT_N_MAX}, got {n}")


def _check_size(n: int, m: int) -> None:
    if not 0 <= m <= 1 << n:
        raise ValueError(f"family size must be in [0, {1 << n}], got {m}")


@lru_cache(maxsize=None)
def _exact_table(n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exhaustive k-chain minima over every family of every size, n <= 4.

    A k-chain lies in a family iff the 2^n-bit set of its words is a subset
    of the family's membership bitset.  So marking each k-chain of the full
    lattice at the index of its word set, in a table over all 2^(2^n)
    families, and running the subset-zeta transform on that table leaves
    every family's k-chain count at its own index.  Returns (mins,
    witnesses) indexed by family size m; the witness is the smallest
    membership bitset attaining the minimum.  No chain of [n] has more than
    n + 1 sets, so the k = n + 2 table, whose chain list runs out on its
    last step, answers every k > n + 1, and a k > n + 2 returns that
    table's own cached objects.

    The minima are read without a Python loop over the families.  Family
    f = (r << h) | c sits in row r, column c of the table, h = 2^n // 2.
    Transposing the table with its columns taken in popcount order (one
    stable sort of the 2^h columns by popcount), then transposing back,
    regroups every row's columns by popcount, ascending within one
    popcount.  The families of size m are then, row after row, one run of
    columns of popcount m - |r| each, which is `level_words(2^n, m)` order,
    so in their joined bytes the first `bytes.find` hit of the least count
    present is the minimum, and the word at the hit's place in that order
    its smallest witness.
    """
    if k > n + 2:
        return _exact_table(n, n + 2)
    size = 1 << n
    # (top word, word bitset) of every j-chain, grown by one strict superset at a time
    chains = [(w, 1 << w) for w in range(size)]
    for _ in range(k - 1):
        chains = [
            (s, bits | 1 << s)
            for top, bits in chains
            for s in range(top + 1, size)
            if s & top == top
        ]
    marks = bytearray(1 << size)
    for _, bits in chains:
        marks[bits] = 1
    # B_4 holds at most 110 k-chains (k = 3), and every field of the
    # transform counts some of them, so one-byte fields never carry; its 16
    # masks of 64 KiB are made as the passes read them, not cached
    counts = _zeta(int.from_bytes(marks, "little"), _pass_masks(size, 1)).to_bytes(1 << size, "little")
    h = size >> 1
    ncols, nrows = 1 << h, 1 << (size - h)
    # the columns of popcount b are at starts[b]:starts[b + 1] of each row
    starts = [0, *accumulate(math.comb(h, b) for b in range(h + 1))]
    by_column = b"".join(counts[c::ncols] for c in sorted(range(ncols), key=int.bit_count))
    table = b"".join(by_column[r::nrows] for r in range(nrows))
    runs: list[list[bytes]] = [[] for _ in range(size + 1)]
    for r in range(nrows):
        a, base = r.bit_count(), r << h
        for b in range(h + 1):
            runs[a + b].append(table[base + starts[b] : base + starts[b + 1]])
    mins, wits = [], []
    cnt = 0
    for m, run in enumerate(runs):
        group = b"".join(run)
        # the minimum never falls as m grows: dropping a set from a family
        # of size m adds no chain, so the search resumes at the last minimum
        while (hit := group.find(cnt)) < 0:
            cnt += 1
        mins.append(cnt)
        wits.append(_colex_word(size, m, hit))
    return tuple(mins), tuple(wits)


def min_chain_count_exact(n: int, k: int, m: int) -> OracleResult:
    """Exact minimum of the k-chain count over every size-m family, with the
    smallest-bitset witness; full 2^(2^n) sweep, so n <= 4."""
    _check_exact_n(n)
    _check_k(k)
    _check_size(n, m)
    mins, wits = _exact_table(n, k)
    return OracleResult(n, k, m, mins[m], Family.from_bits(n, wits[m]), True)


def max_free_family(n: int, k: int) -> tuple[int, Family]:
    """Largest size at which some family avoids k-chains entirely, with a
    witness family."""
    _check_exact_n(n)
    _check_k(k)
    mins, wits = _exact_table(n, k)
    # the minima never fall as the size grows, so the chain-free sizes come first
    best = mins.count(0) - 1
    return best, Family.from_bits(n, wits[best])


def centered_family(n: int, m: int, mirror_partial: bool = False) -> Family:
    """Size-m family filling whole levels middle-out, partial level in colex
    order.

    The full levels are the largest block `middle_rows(n, j)` with
    sigma(n, j) <= m, and the other x = m - sigma(n, j) sets are the
    colex-smallest ones on the next row of the middle-out order.  With
    `mirror_partial` they sit on the row at the other end of the block
    instead (n - n//2 when the block is empty), unless that row does not
    exist or holds fewer than x sets.  Either side is marked as the row's
    words up to its x-th (`core._rows_family`), with no step per set.
    """
    check_ground_set(n)
    _check_size(n, m)
    j = 0
    while j <= n and sigma(n, j + 1) <= m:
        j += 1
    block = middle_rows(n, j)
    x = m - sigma(n, j)
    if not x:
        return _rows_family(n, block)
    if j:
        row = added_row_level(n, j + 1)
        other = block.lo - 1 if row > block.hi else block.hi + 1
    else:
        row, other = n // 2, n - n // 2
    # binom is 0 off the lattice, so a missing row holds too few sets
    if mirror_partial and binom(n, other) >= x:
        row = other
    return _rows_family(n, block, None, row, x)


def _centered_start(n: int, k: int, m: int) -> tuple[int, Family]:
    """The centered construction of size m with its k-chain count: the
    partial-level side that counts lower, and on a tie the one whose
    membership bitset is smaller (reversed masks compare as the bitsets
    do).  The set drops a side equal to the other before any comparison,
    so each side is built and counted once and two families are never
    compared."""
    sides = {centered_family(n, m), centered_family(n, m, mirror_partial=True)}
    count, _, start = min((count_k_chains(fam, k), fam.mask[::-1], fam) for fam in sides)
    return count, start


def min_chain_count_heuristic(
    n: int, k: int, m: int, seed: int = 0, iterations: int = 2000
) -> OracleResult:
    """Annealed single-swap search for a low-count size-m family.

    The count reported is exact for the returned family, but the minimum is
    only an upper bound; results are deterministic for a fixed seed.
    """
    check_ground_set(n)
    if n > HEURISTIC_N_MAX:
        raise ValueError(f"heuristic search supports n <= {HEURISTIC_N_MAX}, got {n}")
    _check_k(k)
    _check_size(n, m)
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")

    # seed the walk at the centered construction (the conjectured optimum)
    count, start = _centered_start(n, k, m)
    best_count, best = _anneal(k, start, count, seed, iterations)
    return OracleResult(n, k, m, best_count, best, False)


def _anneal(k: int, start: Family, count: int, seed: int, iterations: int) -> tuple[int, Family]:
    """Annealed single-swap walk from `start`, whose k-chain count is
    `count`: the lowest count met and a family that has it.  An empty, full
    or chain-free start, or no iterations, returns the start before the
    random stream is drawn from."""
    space = len(start.mask)
    m = start.size()
    if m == 0 or m == space or iterations == 0 or count == 0:
        return count, start

    # one working mask, swapped in place and swapped back on reject
    rng = random.Random(seed)
    mask = bytearray(start.mask)
    best_count = current = count
    best_mask = start.mask
    inside = list(start.words())
    outside = [w for w in range(space) if not start.mask[w]]
    t_start = max(1.0, best_count / 4)
    t_end = 0.01
    cooling = (t_end / t_start) ** (1.0 / max(1, iterations - 1))
    temperature = t_start
    for _ in range(iterations):
        i = rng.randrange(len(inside))
        j = rng.randrange(len(outside))
        mask[inside[i]], mask[outside[j]] = 0, 1
        candidate = _count(mask, k)
        delta = candidate - current
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current = candidate
            inside[i], outside[j] = outside[j], inside[i]
            if current < best_count:
                best_count, best_mask = current, bytes(mask)
                if best_count == 0:
                    break
        else:
            mask[inside[i]], mask[outside[j]] = 1, 0
        temperature *= cooling
    return best_count, Family(start.n, best_mask)


class KleitmanRow(NamedTuple):
    """One family size compared against the centered construction."""

    size: int
    min_count: int
    exact: bool
    construction_count: int
    equal: bool


def construction_count(n: int, k: int, m: int) -> int:
    """Chain count of the centered construction, taking the better of the two
    partial-level sides when the block leaves a choice."""
    return _centered_start(n, k, m)[0]


def kleitman_report(
    n: int, k: int, seed: int = 0, iterations: int = 500
) -> list[KleitmanRow]:
    """Minimum k-chain count versus the centered construction for every size.

    Exact minima for n <= 4, read from one exhaustive table; annealing upper
    bounds (exact = False) for 5 <= n <= 10, each walked from the size's
    construction, which is built and counted once.  Rows where the
    construction already reaches zero skip the search, since no family can
    do better.
    """
    check_ground_set(n)
    _check_k(k)
    if n > HEURISTIC_N_MAX:
        raise ValueError(f"report supports n <= {HEURISTIC_N_MAX}, got {n}")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    rows = []
    exact = n <= EXACT_N_MAX
    mins = _exact_table(n, k)[0] if exact else None
    for m in range((1 << n) + 1):
        built, start = _centered_start(n, k, m)
        # the walk starts at the construction and only records lower counts
        found = mins[m] if exact else _anneal(k, start, built, seed, iterations)[0]
        rows.append(KleitmanRow(m, found, exact, built, found == built))
    return rows
