"""Exact k-chain counting: chains inside a family, chains confined to one
decomposition chain, and endpoint-pinned counts.

Every count of chains inside a family comes from one kernel, `_chains_by_top`:
a subset-zeta dynamic program over the 2^n subset words, each DP level held
as one packed Python int with one field per word.  Each level's field width
comes from an a-priori bound on every value that level reaches (see
`_chains_by_top`), so counts are exact with no overflow to detect; the table
is widened between levels as the bound grows.  Its transform `_zeta` also
serves the exhaustive n <= 4 sweep in `supersat.oracle`, run once over the
lattice of all families.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from supersat.core import Family, binom, level

if TYPE_CHECKING:
    from supersat.scd import Decomposition


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"chain length k must be >= 1, got {k}")


def _field_bytes(n: int, j: int) -> int:
    """Width of level j of the packed chain DP over [n], in bytes:
    bitlen((j+1)^n), rounded up to whole bytes.  Every j-chain count the DP
    sums at level j fits it; `_chains_by_top` proves it."""
    return ((j + 1) ** n).bit_length() + 7 >> 3


def _members(mask: bytes | bytearray, width: int) -> int:
    """Packed int of `width`-byte fields, field B equal to mask[B]."""
    packed = bytearray(len(mask) * width)
    packed[::width] = mask
    return int.from_bytes(packed, "little")


def _widen(table: int, width: int, wide: int, bits: int) -> int:
    """The packed table of 2^bits `width`-byte fields, as `wide`-byte fields
    (wide >= width) holding the same values: byte i of every field moves by
    one strided slice."""
    data = table.to_bytes(width << bits, "little")
    out = bytearray(wide << bits)
    for i in range(width):
        out[i::wide] = data[i::width]
    del data
    return int.from_bytes(out, "little")


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


def _fold(table: int, bits: int, width: int, keep: int = 0) -> int:
    """The packed table of 2^bits fields with its upper half added onto its
    lower half until 2^keep fields are left; at keep = 0 the one field left
    is the sum of all fields.  The caller guarantees every sum fits its
    field."""
    size = (width << 3) << bits
    for _ in range(bits - keep):
        size >>= 1
        table = (table & ((1 << size) - 1)) + (table >> size)
    return table


def _field(table: int, width: int, index: int) -> int:
    """Field `index` of a packed table of `width`-byte fields."""
    return table >> ((width << 3) * index) & ((1 << (width << 3)) - 1)


def _chains_by_top(mask: bytes | bytearray, k: int) -> tuple[int, int]:
    """Per subset word B, the number of strict k-chains of the family whose
    largest set is B (0 when B is not a member), packed as field B of one int;
    returns the table and its field width in bytes, `_field_bytes(n, k - 1)`
    (`_field_bytes(n, 1)` at k = 1).

    Level j holds f_j(B) = sum of f_{j-1}(A) over members A strictly inside B,
    computed as `(_zeta(f_{j-1}) - f_{j-1}) & fam`, where `fam` has all-ones
    fields at the members: O(k * n) operations on ints of 2^n fields.  The
    zeta over f_j runs at W_j = `_field_bytes(n, j)` bytes per field; the
    table is widened to W_{j+1} before the next zeta, and `fam` is rebuilt at
    the new width.

    Why no field ever carries or borrows:
    - A j-chain A_1 < ... < A_j inside B is fixed by sending each element
      of B to the first i with the element in A_i, or to j + 1 if none.  So
      B holds at most (j + 1)^|B| <= (j + 1)^n j-chains.
    - f_{j+1}(B) counts some of the j-chains inside B, those of the family
      strictly inside B (each topped by B), so it is at most (j + 1)^n.
    - The zeta over f_j sums, at B, the j-chains whose top lies inside B,
      and after any of its passes a field holds a partial sum of them.  So
      every value at level j, before and after widening, is at most
      (j + 1)^n < 2^(8 W_j), and no addition carries.
    - zeta(f_j) - f_j is nonnegative in every field, since the zeta sum at
      B includes the term A = B, so no subtraction borrows.
    - Widening moves whole fields into wider ones and changes no value.
    - `_count` folds f_k.  The folded total, and every partial sum on the
      way, counts distinct k-chains of the lattice, so it is at most
      (k + 1)^n < 2^(8 W_k) for W_k = `_field_bytes(n, k)`; `_count` shows
      when the narrower width of f_k holds them too.
    - Whole-byte widths let the table be built and widened by byte slicing.
    """
    bits = (len(mask) - 1).bit_length()
    width = _field_bytes(bits, 1)
    tops = _members(mask, width)
    fam = tops * ((1 << (width << 3)) - 1)
    for j in range(2, k + 1):
        tops = (_zeta(tops, bits, width) - tops) & fam
        if j < k and (wide := _field_bytes(bits, j)) != width:
            del fam
            tops = _widen(tops, width, wide, bits)
            width = wide
            fam = _members(mask, width) * ((1 << (width << 3)) - 1)
    return tops, width


def _count(mask: bytes | bytearray, k: int) -> int:
    """Total number of strict k-chains of the family with membership `mask`.

    The fold of f_k starts at the width `_chains_by_top` returns and ends at
    W_k = `_field_bytes(n, k)`.  Folded down to 2^keep fields, field i sums
    f_k(B) over the tops B that agree with i on the low `keep` bits.  A
    k-chain with top B sends each element of B to the first chain set that
    holds it, so there are at most k^|B| of them, and the sum is at most
    k^keep * (k + 1)^(n - keep).  So the fold runs at the narrow width while
    that bound fits it, and the table left is widened to W_k, which holds
    every partial sum from there on (see `_chains_by_top`).
    """
    bits = (len(mask) - 1).bit_length()
    tops, width = _chains_by_top(mask, k)
    wide = _field_bytes(bits, k)
    if wide == width:
        return _fold(tops, bits, width)
    keep = bits
    while keep and (k ** (keep - 1) * (k + 1) ** (bits - keep + 1)).bit_length() <= width << 3:
        keep -= 1
    tops = _widen(_fold(tops, bits, width, keep), width, wide, keep)
    return _fold(tops, keep, wide)


def count_k_chains(family: Family, k: int) -> int:
    """Number of strict chains A_1 < ... < A_k with every set in the family.

    Packed subset-zeta dynamic program in pure Python, O(k * n) operations
    on ints of 2^n fields; level j's fields are about n * log2(j + 1) bits
    wide, and the final sum's n * log2(k + 1).  The count is exact.
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
