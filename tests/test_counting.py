import random
from collections import Counter
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from supersat.core import Family, binom, build_b_family, sigma
from supersat import counting
from supersat.bounds import build_extremal_family, supersat_bound
from supersat.counting import (
    _field,
    _fold,
    _pass_masks,
    _zeta,
    count_chains_with_max_endpoint,
    count_chains_with_min_endpoint,
    count_included_chains,
    count_k_chains,
    count_k_chains_naive,
)
from supersat.scd import scd_inductive


def random_family(rng, n, size=None):
    if size is None:
        return Family.from_bits(n, rng.getrandbits(1 << n))
    return Family.from_words(n, rng.sample(range(1 << n), size))


def enumerate_chains(fam, k):
    """Every strict k-chain of the family as a tuple, smallest set first."""
    members = list(fam.words())
    chains = [(w,) for w in members]
    for _ in range(k - 1):
        chains = [c + (w,) for c in chains for w in members if w != c[-1] and w & c[-1] == c[-1]]
    return chains


def relabel(word, perm):
    """Image of a subset word under the element permutation i -> perm[i]."""
    return sum(1 << image for i, image in enumerate(perm) if word >> i & 1)


def test_middle_family_plus_cover_set():
    fam = build_b_family(4, 1).with_words([0b0111])
    # {1,2,3} contains three of the six 2-subsets
    assert count_k_chains_naive(fam, 2) == 3
    assert count_k_chains(fam, 2) == 3


def test_antichain_has_no_pairs():
    for n in (2, 4, 6):
        fam = build_b_family(n, 1)
        assert count_k_chains(fam, 2) == 0


def test_triples_in_the_two_element_lattice():
    full = Family.full(2)
    by_oracle = count_k_chains_naive(full, 3)
    assert by_oracle == 2  # empty < {1} < {1,2} and empty < {2} < {1,2}
    assert count_k_chains(full, 3) == by_oracle


def test_naive_trivial_cases():
    rng = random.Random(11)
    fam = random_family(rng, 5)
    assert count_k_chains_naive(fam, 1) == fam.size()
    assert count_k_chains(fam, 1) == fam.size()
    empty = Family.empty(4)
    for k in (1, 2, 3):
        assert count_k_chains_naive(empty, k) == 0
        assert count_k_chains(empty, k) == 0


def test_naive_edge_cases_match_direct_enumeration():
    # k = 1 and k = n + 1 are the two ends of the superset-list walk: no
    # list is read at k = 1, and at k = n + 1 only full-length chains count
    rng = random.Random(17)
    for n in range(1, 6):
        families = [Family.empty(n), Family.full(n), random_family(rng, n), random_family(rng, n)]
        for fam in families:
            for k in (1, 2, n + 1):
                assert count_k_chains_naive(fam, k) == len(enumerate_chains(fam, k)), (n, k)
        assert count_k_chains_naive(Family.empty(n), 1) == 0
        assert count_k_chains_naive(Family.empty(n), n + 1) == 0
        assert count_k_chains_naive(Family.full(n), 1) == 1 << n
        assert count_k_chains_naive(Family.full(n), n + 1) == factorial(n)
        assert count_k_chains_naive(Family.full(n), n + 2) == 0


def test_k_beyond_longest_chain_counts_zero():
    fam = Family.full(3)
    assert count_k_chains(fam, 5) == 0
    assert count_k_chains_naive(fam, 5) == 0
    with pytest.raises(ValueError):
        count_k_chains(fam, 0)
    with pytest.raises(ValueError):
        count_k_chains_naive(fam, -1)


def test_dp_matches_naive_on_random_families():
    rng = random.Random(101)
    for _ in range(40):
        fam = random_family(rng, 6)
        for k in (2, 3, 4):
            assert count_k_chains(fam, k) == count_k_chains_naive(fam, k)


def test_dp_matches_naive_across_ground_sets():
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randint(1, 6)
        fam = random_family(rng, n)
        for k in range(1, 5):
            assert count_k_chains(fam, k) == count_k_chains_naive(fam, k)


def level_formula(n, k, top_level=None):
    """k-chains of the full lattice on [n], summed over level tuples; only
    those whose largest set has size `top_level` when it is given."""
    total = 0
    for levels in combinations(range(n + 1), k):
        if top_level is not None and levels[-1] != top_level:
            continue
        ways = binom(n, levels[0])
        for a, b in zip(levels, levels[1:]):
            ways *= binom(n - a, b - a)
        total += ways
    return total


def test_full_lattice_count_matches_level_formula():
    # every width the kernel runs at below n = 13, and twice it for the total
    for n in range(1, 13):
        full = Family.full(n)
        for k in range(1, n + 2):
            by_levels = level_formula(n, k)
            assert count_k_chains(full, k) == by_levels, (n, k)
            if n <= 6:
                assert count_k_chains_naive(full, k) == by_levels, (n, k)


def test_packed_zeta_matches_submask_sums_at_each_width():
    rng = random.Random(5)
    for width in (1, 2, 3, 5):
        for n in range(7):
            # largest value whose 2^n-term sums still fit one field
            top = (1 << (8 * width - n)) - 1
            values = [rng.randint(0, top) for _ in range(1 << n)]
            expected = [sum(v for a, v in enumerate(values) if a & b == a) for b in range(1 << n)]
            packed = int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")
            table = _zeta(packed, _pass_masks(n, width))
            assert _zeta(packed, counting._block_passes(n, width)) == table
            assert [_field(table, width, b) for b in range(1 << n)] == expected
            assert table.bit_length() <= 8 * width << n
            assert _fold(packed, n, width) == sum(values)


def test_one_width_per_count(monkeypatch):
    # every member block and every pass of a count, or of an endpoint count,
    # is at the count's one width W, which holds 2^n; the total is summed at
    # 2W from W's own last pass, with no other width
    widths = set()

    def members(mask, width):
        widths.add(width)
        return members_of(mask, width)

    def block_passes(bits, width):
        widths.add(width)
        return passes_of(bits, width)

    members_of, passes_of = counting._members, counting._block_passes
    monkeypatch.setattr(counting, "_members", members)
    monkeypatch.setattr(counting, "_block_passes", block_passes)
    for n in range(1, 13):
        full, top = Family.full(n), (1 << n) - 1
        for k in range(1, n + 2):
            width = counting._width(n, k)
            assert n < 8 * width, (n, k)
            counts = (count_chains_with_max_endpoint, (top,)), (count_chains_with_min_endpoint, (0,)), (count_k_chains, ())
            for count, word in counts:
                count(full, k, *word)
                assert widths == {width}, (n, k, count.__name__, widths)
                widths.clear()


def test_total_holds_every_field_at_its_largest(monkeypatch):
    # the total is summed in 2W-byte slots whatever f_k holds: with every
    # field of every block at 2^(8W) - 1, the count is 2^n of them
    def saturated(mask, k):
        bits = (len(mask) - 1).bit_length()
        low = min(bits, counting._BLOCK_BITS)
        block = (1 << (8 * counting._width(bits, k) << low)) - 1
        return [block] * (len(mask) >> low)

    monkeypatch.setattr(counting, "_chains_by_top", saturated)
    for n in range(1, 21):
        mask = bytes(1 << n)
        for k in sorted({1, 2, 3, (n + 1) // 2, n + 1}):
            largest = (1 << 8 * counting._width(n, k)) - 1
            assert counting._count(mask, k) == largest << n, (n, k)


# levels 1..12 are each tight at some n <= 20 and no level above 12 is; each
# pair's k is one level, at an n where the width `_width(n, k + 1)` is tight
@pytest.mark.parametrize(
    "n, k",
    [(8, 1), (8, 2), (6, 3), (9, 4), (12, 5), (14, 6), (10, 7), (10, 8), (12, 9), (16, 10), (17, 11), (17, 12)],
)
def test_field_width_holds_full_lattice_counts_that_need_its_top_byte(n, k):
    # The zeta over level k of the full lattice sums, at [n], every k-chain
    # of B_n: level_formula(n, k).  Of those, f_k([n]) end at [n]; the rest,
    # with [n] put on top, are the (k+1)-chains ending at [n].  The count
    # needs the top byte of `_width(n, k + 1)`, the one width of every
    # level of the (k+1)-chain count, so one byte less carries mid-DP; the
    # k-chain total, summed at twice its own levels' width, is the same count.
    width = counting._width(n, k + 1)
    chains = level_formula(n, k)
    assert 8 * (width - 1) < chains.bit_length() <= 8 * width
    full, top = Family.full(n), (1 << n) - 1
    ending = count_chains_with_max_endpoint(full, k, top)
    assert ending == level_formula(n, k, top_level=n)
    assert ending + count_chains_with_max_endpoint(full, k + 1, top) == chains
    assert count_k_chains(full, k) == chains


def block_size_counts(cases):
    return [
        (count_k_chains(fam, k), count_chains_with_min_endpoint(fam, k, w), count_chains_with_max_endpoint(fam, k, w))
        for fam, k, w in cases
    ]


@pytest.fixture(scope="module")
def one_block_counts():
    """(family, k, word) for every n <= 12 and k <= n + 1, on a sparse, a
    half-full or a dense random family and on the full lattice, whose counts
    fill the most bytes of the one width, each with one of its
    members as the endpoint; and the counts at the default block size, one
    block there."""
    rng = random.Random(31)
    cases = []
    for n in range(1, 13):
        density = (0.2, 0.5, 0.9)[n % 3]
        for fam in Family.from_words(n, (w for w in range(1 << n) if w == 0 or rng.random() < density)), Family.full(n):
            cases.extend((fam, k, rng.choice(list(fam.words()))) for k in range(1, n + 2))
    return cases, block_size_counts(cases)


@pytest.mark.parametrize("block_bits", [1, 2, 5])
def test_every_block_size_gives_the_same_counts(monkeypatch, one_block_counts, block_bits):
    # a smaller block splits the table, so the passes across blocks, the
    # blockwise sum and the endpoint's block lookup all run, at every width
    # of n <= 12
    cases, whole = one_block_counts
    monkeypatch.setattr(counting, "_BLOCK_BITS", block_bits)
    for (fam, k, w), got, want in zip(cases, block_size_counts(cases), whole):
        assert got == want, (fam.n, k, block_bits)
        if fam.n <= 6:
            assert got[0] == count_k_chains_naive(fam, k), (fam.n, k, block_bits)


def test_no_kernel_call_sees_more_than_one_block(monkeypatch):
    # at n = 14 the table is four blocks of 2^12 fields: every int the kernel
    # builds, transforms or folds holds one block or less
    seen = []

    def members(mask, width):
        seen.append(len(mask))
        return members_of(mask, width)

    def zeta(table, passes):
        passes = tuple(passes)
        seen.append(1 << len(passes))
        assert table.bit_length() <= 2 * passes[0][1]
        return zeta_of(table, passes)

    def fold(table, bits, width):
        seen.append(1 << bits)
        return fold_of(table, bits, width)

    members_of, zeta_of, fold_of = counting._members, counting._zeta, counting._fold
    monkeypatch.setattr(counting, "_members", members)
    monkeypatch.setattr(counting, "_zeta", zeta)
    monkeypatch.setattr(counting, "_fold", fold)
    for k, x in ((3, 100), (4, 5)):
        fam = build_extremal_family(14, k, x)
        assert count_k_chains(fam, k) == supersat_bound(14, k, x)
    assert seen and max(seen) == 1 << 12


def test_included_chains_basics():
    for n in (2, 3, 4):
        dec = scd_inductive(n)
        assert count_included_chains(Family.full(n), dec, 1) == 1 << n
        assert count_included_chains(build_b_family(n, 1), dec, 2) == 0
    assert count_included_chains(Family.full(2), scd_inductive(2), 2) == 3


def test_included_chains_size_mismatch():
    with pytest.raises(ValueError):
        count_included_chains(Family.full(3), scd_inductive(4), 2)


def test_included_never_exceeds_total():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 8)
        k = rng.randint(1, min(4, n + 1))
        fam = random_family(rng, n)
        assert count_included_chains(fam, scd_inductive(n), k) <= count_k_chains(fam, k)


def test_pigeonhole_forces_surplus_onto_chains():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(2, 10)
        k = rng.randint(2, min(4, n + 1))
        x = rng.randint(0, (1 << n) - sigma(n, k - 1))
        fam = random_family(rng, n, sigma(n, k - 1) + x)
        assert count_included_chains(fam, scd_inductive(n), k) >= x


def test_min_endpoint_examples():
    fam = build_b_family(4, 2, "ceil").with_words([0b0001])
    assert count_chains_with_min_endpoint(fam, 3, 0b0001) == 6
    fam2 = build_b_family(4, 1).with_words([0b0111])
    assert count_chains_with_max_endpoint(fam2, 2, 0b0111) == 3
    assert count_chains_with_min_endpoint(fam2, 1, 0b0111) == 1
    with pytest.raises(ValueError):
        count_chains_with_min_endpoint(fam2, 2, 0b1111)


def test_endpoint_sums_recover_total():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(2, 6)
        k = rng.randint(1, 4)
        fam = random_family(rng, n)
        total = count_k_chains(fam, k)
        assert sum(count_chains_with_min_endpoint(fam, k, w) for w in fam.words()) == total
        assert sum(count_chains_with_max_endpoint(fam, k, w) for w in fam.words()) == total


def test_endpoint_counts_match_enumeration():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 6)
        fam = random_family(rng, n)
        for k in range(1, n + 3):
            chains = enumerate_chains(fam, k)
            lows = Counter(chain[0] for chain in chains)
            highs = Counter(chain[-1] for chain in chains)
            for w in fam.words():
                assert count_chains_with_min_endpoint(fam, k, w) == lows[w]
                assert count_chains_with_max_endpoint(fam, k, w) == highs[w]


@st.composite
def family_cases(draw):
    n = draw(st.integers(1, 6))
    fam = Family.from_bits(n, draw(st.integers(0, (1 << (1 << n)) - 1)))
    return fam, draw(st.integers(1, n + 2)), draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(family_cases())
def test_count_invariant_under_complement_and_permutation(case):
    fam, k, perm = case
    full = (1 << fam.n) - 1
    complemented = Family.from_words(fam.n, (full ^ w for w in fam.words()))
    permuted = Family.from_words(fam.n, (relabel(w, perm) for w in fam.words()))
    count = count_k_chains(fam, k)
    assert count == count_k_chains_naive(fam, k)
    assert count_k_chains(complemented, k) == count
    assert count_k_chains(permuted, k) == count
