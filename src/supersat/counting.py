"""Exact k-chain counting: chains inside a family, chains confined to one
decomposition chain, and endpoint-pinned counts.

Every count of chains inside a family comes from one kernel, `_chains_by_top`:
a subset-zeta dynamic program over the 2^n subset words, each DP level held
as one packed Python int with a fixed-width field per word.  The field width
comes from an a-priori bound on every value the DP reaches (see
`_chains_by_top`), so counts are exact with no overflow to detect.  Its
transform `_zeta` also serves the exhaustive n <= 4 sweep in
`supersat.oracle`, run once over the lattice of all families.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from supersat.core import Family, binom, level

if TYPE_CHECKING:
    from supersat.scd import Decomposition


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"chain length k must be >= 1, got {k}")


def _field_bytes(n: int, k: int) -> int:
    """Bytes per field of the packed k-chain DP over [n]: bitlen((k+1)^n),
    rounded up to whole bytes.  `_chains_by_top` proves it is enough."""
    return ((k + 1) ** n).bit_length() + 7 >> 3


def _zeta(table: int, bits: int, width: int) -> int:
    """Subset-sum transform of a packed table of 2^bits fields, `width`
    bytes each, field i at bits [8*width*i, 8*width*(i+1)): field B becomes
    the sum of fields A over every index A contained in B.

    The pass for bit b adds each field whose index has bit b clear onto its
    partner with bit b set: one mask, one shift and one addition on the
    whole int.  The passes run from the top bit down.  The mask of bit b is
    runs of `shift` one bits alternating with `shift` zero bits from bit 0,
    where `shift = 8 * width * 2^b` is the distance to the partner; the top
    bit's is the low half of the table, `(1 << shift) - 1`.  Halving `shift`
    and setting `mask ^= mask << shift` turns every run of 2 * shift ones or
    zeros into shift ones then shift zeros, the mask of the next bit down:
    two big-int operations per mask instead of building it from bytes.
    Passes over different bits commute, since each adds along its own
    coordinate of the index cube, so any order gives the same fields.
    The mask is one more table-sized int alive during the passes.  The caller
    guarantees every sum fits its field: a carry would spill into the next
    field.
    """
    shift = (width << 3) << bits >> 1
    mask = (1 << shift) - 1
    for _ in range(bits):
        table += (table & mask) << shift
        shift >>= 1
        mask ^= mask << shift
    return table


def _fold(table: int, bits: int, width: int) -> int:
    """Sum of the 2^bits fields of a packed table, by adding its upper half
    onto its lower half until one field is left.  The caller guarantees the
    sum fits one field."""
    size = (width << 3) << bits
    for _ in range(bits):
        size >>= 1
        table = (table & ((1 << size) - 1)) + (table >> size)
    return table


def _field(table: int, width: int, index: int) -> int:
    """Field `index` of a packed table of `width`-byte fields."""
    return table >> ((width << 3) * index) & ((1 << (width << 3)) - 1)


def _chains_by_top(mask: bytes | bytearray, k: int) -> tuple[int, int]:
    """Per subset word B, the number of strict k-chains of the family whose
    largest set is B (0 when B is not a member), packed as field B of one int;
    returns the table and its field width in bytes, `_field_bytes(n, k)`.

    Level j holds f_j(B) = sum of f_{j-1}(A) over members A strictly inside B,
    computed as `(_zeta(f_{j-1}) - f_{j-1}) & fam`, where `fam` has all-ones
    fields at the members: O(k * n) operations on ints of 2^n fields.

    Why no field ever carries or borrows:
    - A j-chain A_1 < ... < A_j inside B is fixed by sending each element
      of B to the first i with the element in A_i, or to j + 1 if none.  So
      B holds at most (j + 1)^|B| <= (k + 1)^n j-chains.
    - Every f_j(B) counts some of the j-chains with top B, and after any
      zeta pass a field holds a partial sum of the (j-1)-chains inside B.
      Both are at most (k + 1)^n, so no addition carries.
    - zeta(f_{j-1}) - f_{j-1} is nonnegative in every field, since the
      zeta sum at B includes the term A = B, so no subtraction borrows.
    - The folded total, and every partial sum on the way, counts distinct
      k-chains of the lattice, so it is at most (k + 1)^n as well.
    - (k + 1)^n < 2^W for W = bitlen((k + 1)^n), so W-bit fields hold every
      value; whole bytes let the table be built by byte slicing.
    """
    bits = (len(mask) - 1).bit_length()
    width = _field_bytes(bits, k)
    packed = bytearray(len(mask) * width)
    packed[::width] = mask
    tops = int.from_bytes(packed, "little")
    del packed
    fam = tops * ((1 << (width << 3)) - 1)
    for _ in range(k - 1):
        tops = (_zeta(tops, bits, width) - tops) & fam
    return tops, width


def _count(mask: bytes | bytearray, k: int) -> int:
    """Total number of strict k-chains of the family with membership `mask`."""
    tops, width = _chains_by_top(mask, k)
    return _fold(tops, (len(mask) - 1).bit_length(), width)


def count_k_chains(family: Family, k: int) -> int:
    """Number of strict chains A_1 < ... < A_k with every set in the family.

    Packed subset-zeta dynamic program in pure Python, O(k * n) operations
    on ints of 2^n fields of about n * log2(k + 1) bits; the count is exact.
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
    members = sorted(family.words(), key=lambda w: (level(w), w))
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
    return _field(*_chains_by_top(family.mask[::-1], k), (1 << family.n) - 1 - word)


def count_chains_with_max_endpoint(family: Family, k: int, word: int) -> int:
    """k-chains of the family whose largest set is `word`."""
    _check_endpoint(family, k, word)
    if k > family.n + 1:
        return 0
    return _field(*_chains_by_top(family.mask, k), word)


def _check_endpoint(family: Family, k: int, word: int) -> None:
    if word not in family:
        raise ValueError(f"endpoint {word} is not in the family")
    _check_k(k)
