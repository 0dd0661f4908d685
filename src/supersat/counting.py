"""Exact k-chain counting: chains inside a family, chains confined to one
decomposition chain, and endpoint-pinned counts.

Every count of chains inside a family comes from one kernel, `_chains_by_top`:
a subset-zeta dynamic program over the 2^n subset words, each DP level held
as a list of blocks, packed Python ints of 2^b fields each with
b = min(`_BLOCK_BITS`, n), one field per word.  Every level of a count runs
at one field width W, from an a-priori bound on every value the DP reaches
(see `_chains_by_top`), and the total is summed at 2W (see `_count`), so
counts are exact with no overflow to detect and no field is ever widened.
Its in-block transform `_zeta` also serves the
exhaustive n <= 4 sweep in `supersat.oracle`, run once over the lattice of
all families.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from supersat.core import Family, binom

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    from supersat.scd import Decomposition

# Every DP level is held as blocks of 2^_BLOCK_BITS fields, 4 KiB per byte of
# field width (24 KiB at the 6-byte width of n = 20, k = 5), so
# the ints a block's passes make stay in cache; at n = 20, counts ran fastest
# with 10 to 13 block bits.  At n <= _BLOCK_BITS the table is one block.
_BLOCK_BITS = 12


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"chain length k must be >= 1, got {k}")


@lru_cache(maxsize=None)
def _width(n: int, k: int) -> int:
    """W of a k-chain count over [n]: bitlen(max(k, 2)^n) rounded up to
    whole bytes.  Every DP level of the count runs at W bytes per field
    (`_chains_by_top` proves it fits), and W holds 2^n, so 8 W > n and
    `_count` sums the total at 2W."""
    return (max(k, 2) ** n).bit_length() + 7 >> 3


def _members(mask: bytes | bytearray, width: int) -> int:
    """Packed int of `width`-byte fields, field B equal to mask[B]."""
    packed = bytearray(len(mask) * width)
    packed[::width] = mask
    return int.from_bytes(packed, "little")


def _pass_masks(bits: int, width: int) -> Iterator[tuple[int, int]]:
    """(mask, shift) of each `_zeta` pass over 2^bits `width`-byte fields,
    top bit first, made one at a time.  Bit b's partner is
    `shift = 8 * width * 2^b` bits up, and its mask is runs of `shift` ones
    alternating with `shift` zeros from bit 0.  Halving `shift` and setting
    `mask ^= mask << shift` splits every run in two: the next bit's mask in
    two big-int operations."""
    shift = (width << 3) << bits >> 1
    mask = (1 << shift) - 1
    for _ in range(bits):
        yield mask, shift
        shift >>= 1
        mask ^= mask << shift


@lru_cache(maxsize=None)
def _block_passes(bits: int, width: int) -> tuple[tuple[int, int], ...]:
    """`_pass_masks(bits, width)`, built once for every block at that width.
    The kernel asks for bits <= `_BLOCK_BITS` and one width per (n, k), at
    most 11 bytes (n <= 20), so the cache stays small: 0.3 MiB for the
    6-byte width of n = 20, k = 4 or 5, and 0.5 MiB for 11 bytes."""
    return tuple(_pass_masks(bits, width))


def _zeta(table: int, passes: Iterable[tuple[int, int]]) -> int:
    """Subset-sum transform of a packed table of 2^bits `width`-byte
    fields, field i at bits [8*width*i, 8*width*(i+1)), by its `passes`,
    `_pass_masks(bits, width)`: field B becomes the sum of fields A over
    every A contained in B.  Each pass adds the fields whose index has its
    bit clear onto their partners: one mask, one shift and one addition.
    Passes over different bits commute, since each adds along its own
    coordinate of the index cube.  The caller guarantees every sum fits its
    field: a carry would spill into the next field."""
    for mask, shift in passes:
        table += (table & mask) << shift
    return table


def _fold(table: int, bits: int, width: int) -> int:
    """The sum of the 2^bits `width`-byte fields of a packed table: its
    upper half is added onto its lower half until one field is left.  The
    caller guarantees every sum fits its field."""
    size = (width << 3) << bits
    for _ in range(bits):
        size >>= 1
        table = (table & ((1 << size) - 1)) + (table >> size)
    return table


def _field(table: int, width: int, index: int) -> int:
    """Field `index` of a packed table of `width`-byte fields."""
    return table >> ((width << 3) * index) & ((1 << (width << 3)) - 1)


def _chains_by_top(mask: bytes | bytearray, k: int) -> list[int]:
    """Per subset word B, the number of strict k-chains of the family whose
    largest set is B (0 when B is not a member), as blocks of 2^b fields,
    b = min(`_BLOCK_BITS`, n): word i * 2^b + r is field r of block i.
    Every field is W = `_width(n, k)` bytes wide.

    Level j holds f_j(B) = sum of f_{j-1}(A) over members A strictly inside B,
    computed as `(zeta(f_{j-1}) - f_{j-1}) & fam`, where `fam` has all-ones
    fields at the members.  The zeta's passes over the high n - b bits run
    first, on a copy of the level, each adding block i ^ step onto every
    block i with that bit set; then `_zeta` runs the low b bits' passes in
    each block with the masks all blocks share.  That is O(k * n) operations
    on each block.  Every level runs at the one width, so the member blocks,
    `fam` and the pass masks are built once.  At most three tables of
    blocks are alive: the level, its zeta and `fam`.

    Why no field ever carries or borrows:
    - A j-chain A_1 < ... < A_j inside B is fixed by sending each element
      of B to the first i with the element in A_i, or to j + 1 if none.  So
      B holds at most (j + 1)^|B| <= (j + 1)^n j-chains.
    - The zeta over f_j, j < k, sums at B the j-chains whose top lies
      inside B, and after any of its passes, in a block or across blocks,
      a field holds a partial sum of them: at most (j + 1)^n <= k^n.
    - f_j(B), j <= k, counts j-chains with top B, each fixed by sending
      every element of B to the first chain set that holds it, so it is at
      most j^|B| <= k^n.
    - k^n < 2^(8 W), so no addition carries, and no step between levels
      changes the width.
    - zeta(f_j) - f_j is nonnegative in every field, since the zeta sum at
      B includes the term A = B, so no subtraction borrows.
    - `_count` sums f_k at 2W, which holds any sum of 2^n fields of W
      bytes, so the total needs no bound on f_k beyond its width.
    - Whole-byte widths let the blocks be built by byte slicing.
    """
    bits = (len(mask) - 1).bit_length()
    # min(_BLOCK_BITS, bits), at a tenth of the builtin's call cost
    low = bits if bits < _BLOCK_BITS else _BLOCK_BITS
    nblocks = len(mask) >> low
    blocks = range(nblocks)
    width = _width(bits, k)
    tops = [_members(mask[i << low : i + 1 << low], width) for i in blocks]
    ones = (1 << (width << 3)) - 1
    fam = [t * ones for t in tops]
    passes = _block_passes(low, width)
    for _ in range(k - 1):
        zeta = tops.copy()
        step = 1
        while step < nblocks:
            for i in blocks:
                if i & step:
                    zeta[i] += zeta[i ^ step]
            step <<= 1
        for i in blocks:
            tops[i] = (_zeta(zeta[i], passes) - tops[i]) & fam[i]
        del zeta
    return tops


def _count(mask: bytes | bytearray, k: int) -> int:
    """Total number of strict k-chains of the family with membership `mask`.

    The total is summed in slots of 2W bytes, W = `_width(n, k)`: each
    block's odd fields are added onto its even ones with the mask and
    shift of `_zeta`'s last pass, the blocks are summed, and the slots of
    the one left are folded.  Every partial sum on the way sums at most
    2^n fields below 2^(8 W), so it is below 2^(8 W + n) <= 2^(16 W), since
    W holds 2^n and so 8 W > n: no slot carries, whatever the values of f_k.
    """
    bits = (len(mask) - 1).bit_length()
    low = bits if bits < _BLOCK_BITS else _BLOCK_BITS
    width = _width(bits, k)
    even, shift = _block_passes(low, width)[-1]
    pairs = ((t & even) + (t >> shift & even) for t in _chains_by_top(mask, k))
    return _fold(sum(pairs), low - 1, 2 * width)


def count_k_chains(family: Family, k: int) -> int:
    """Number of strict chains A_1 < ... < A_k with every set in the family.

    Packed subset-zeta dynamic program in pure Python, O(k * n) operations
    on each block of 2^min(`_BLOCK_BITS`, n) fields; every level's fields
    are about n * log2(k) bits wide, and the final sum's twice that.
    The count is exact.
    """
    _check_k(k)
    if k > family.n + 1:
        return 0
    return _count(family.mask, k)


def count_k_chains_naive(family: Family, k: int) -> int:
    """Chain count by direct nested enumeration over member tuples.

    Independent oracle for `count_k_chains`: it shares no code with the
    packed zeta kernel and uses no zeta transform, packing or memo.
    `above[w]` lists the members strictly containing w, found once per pair
    of members by a subset test.  Every (k-1)-chain is walked one by one
    through those lists, and each adds `len(above[top])` for its k-th set
    without visiting it: every set on that list already passed the subset
    test against `top`, so counting the list is counting the chains that
    end in it.  No count is derived from another.  Exponential; keep to
    n <= 8.
    """
    _check_k(k)
    if k > family.n + 1:
        return 0
    # ordered by level, every strict superset of a member comes after it
    members = sorted(family.words(), key=lambda w: (w.bit_count(), w))
    if k == 1:
        return len(members)
    above = {w: [v for v in members[i + 1 :] if (w & v) == w] for i, w in enumerate(members)}

    def grow(top: int, depth: int) -> int:
        """Chains of length k that extend a depth-long chain ending at top."""
        if depth == k - 1:
            return len(above[top])
        total = 0
        for w in above[top]:
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
    return _top_field(family.mask[::-1], k, (1 << family.n) - 1 - word)


def count_chains_with_max_endpoint(family: Family, k: int, word: int) -> int:
    """k-chains of the family whose largest set is `word`."""
    _check_endpoint(family, k, word)
    if k > family.n + 1:
        return 0
    return _top_field(family.mask, k, word)


def _top_field(mask: bytes | bytearray, k: int, word: int) -> int:
    """f_k(word) of `_chains_by_top`, read from the one block that holds
    it; at n <= `_BLOCK_BITS` that is field `word` of block 0."""
    width = _width((len(mask) - 1).bit_length(), k)
    block, field = divmod(word, 1 << _BLOCK_BITS)
    return _field(_chains_by_top(mask, k)[block], width, field)


def _check_endpoint(family: Family, k: int, word: int) -> None:
    if word not in family:
        raise ValueError(f"endpoint {word} is not in the family")
    _check_k(k)
