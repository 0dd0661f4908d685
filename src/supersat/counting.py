"""Exact k-chain counting: chains inside a family, chains confined to one
decomposition chain, and endpoint-pinned counts.

Every count of chains inside a family comes from one kernel, `_chains_by_top`:
a subset-zeta dynamic program over the 2^n subset words in plain Python
ints, so counts are exact with no overflow to detect.  Its transform `_zeta`
also serves the exhaustive n <= 4 sweep in `supersat.oracle`, run once over
the lattice of all families.
"""

from __future__ import annotations

import operator

from supersat.core import Family, binom, level
from supersat.scd import Decomposition


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"chain length k must be >= 1, got {k}")


def _zeta(values: list[int] | bytearray) -> None:
    """In-place subset-sum transform: values[B] becomes the sum of values[A]
    over every A contained in B.  One pass per bit; each pass adds the lower
    half of every block of width 2*bit onto its upper half, by strided slices
    while there are more blocks than offsets and by contiguous blocks after.
    A bytearray works too, and raises ValueError rather than wrap if a sum
    exceeds 255."""
    add = operator.add
    size = len(values)
    bit = 1
    while bit < size:
        step = bit << 1
        if bit < size // step:
            for lo in range(bit):
                values[lo + bit :: step] = map(add, values[lo + bit :: step], values[lo::step])
        else:
            for start in range(0, size, step):
                mid = start + bit
                values[mid : mid + bit] = map(add, values[mid : mid + bit], values[start:mid])
        bit = step


def _chains_by_top(mask: bytes, k: int) -> list[int]:
    """Per subset word B, the number of strict k-chains of the family whose
    largest set is B (0 when B is not a member).

    Level j holds f_j(B) = sum of f_{j-1}(A) over members A strictly inside B,
    computed as the subset-zeta transform of f_{j-1} minus f_{j-1}, masked to
    the family: O(k * n * 2^n) additions on exact ints.
    """
    tops = list(mask)
    for _ in range(k - 1):
        below = tops[:]
        _zeta(below)
        tops = [a - b if member else 0 for a, b, member in zip(below, tops, mask)]
        del below  # free it before the next level copies tops, to bound peak memory
    return tops


def count_k_chains(family: Family, k: int) -> int:
    """Number of strict chains A_1 < ... < A_k with every set in the family.

    Subset-zeta dynamic program in pure Python, O(k * n * 2^n) additions;
    the counts are exact Python ints.
    """
    _check_k(k)
    if k > family.n + 1:
        return 0
    return sum(_chains_by_top(family.mask, k))


def count_k_chains_naive(family: Family, k: int) -> int:
    """Chain count by direct nested enumeration over member tuples.

    Independent oracle for `count_k_chains`; exponential, keep to n <= 8.
    """
    _check_k(k)
    if k > family.n + 1:
        return 0
    members = sorted(family.words(), key=lambda w: (level(w), w))

    def grow(top: int, depth: int) -> int:
        if depth == k:
            return 1
        total = 0
        for w in members:
            if w != top and (top & w) == top:
                total += grow(w, depth + 1)
        return total

    return sum(grow(w, 1) for w in members)


def count_included_chains(family: Family, dec: Decomposition, k: int) -> int:
    """k-chains of the family whose sets all lie on one chain of `dec`.

    On a single chain, inclusion agrees with chain order, so each chain
    contributes C(#members on it, k).
    """
    if family.n != dec.n:
        raise ValueError(f"family over [{family.n}] but decomposition over [{dec.n}]")
    _check_k(k)
    total = 0
    for ch in dec.chains:
        inside = sum(1 for w in ch if w in family)
        total += binom(inside, k)
    return total


def count_chains_with_min_endpoint(family: Family, k: int, word: int) -> int:
    """k-chains of the family whose smallest set is `word`.

    Complementing every set reverses inclusion and sends word w to index
    2^n - 1 - w, so these are the top counts of the reversed mask.
    """
    _check_endpoint(family, k, word)
    if k > family.n + 1:
        return 0
    reversed_tops = _chains_by_top(family.mask[::-1], k)
    return reversed_tops[(1 << family.n) - 1 - word]


def count_chains_with_max_endpoint(family: Family, k: int, word: int) -> int:
    """k-chains of the family whose largest set is `word`."""
    _check_endpoint(family, k, word)
    if k > family.n + 1:
        return 0
    return _chains_by_top(family.mask, k)[word]


def _check_endpoint(family: Family, k: int, word: int) -> None:
    if word not in family:
        raise ValueError(f"endpoint {word} is not in the family")
    _check_k(k)
