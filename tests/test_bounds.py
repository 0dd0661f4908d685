import math
import random
from itertools import combinations, permutations

import pytest

from conftest import traced_peak
from supersat.core import Family, LevelInterval, binom, build_b_family, level_words, middle_levels, sigma
from supersat.counting import count_k_chains
from supersat.scd import Permutation, chain_through, permute_decomposition, scd_inductive
from supersat.bounds import (
    added_row_level,
    binomial_identity_holds,
    bound_report,
    build_extremal_family,
    middle_rows,
    min_max_yz,
    min_max_yz_minimizer,
    min_max_yz_verification,
    n_permutations_enumerate,
    n_permutations_factorial,
    n_permutations_ratio,
    supersat_bound,
    tight_x_max,
    yz,
)


def random_chain(rng, n, k):
    levels = sorted(rng.sample(range(n + 1), k))
    pool = list(range(n))
    rng.shuffle(pool)
    word = 0
    taken = 0
    chain = []
    for lvl in levels:
        while taken < lvl:
            word |= 1 << pool[taken]
            taken += 1
        chain.append(word)
    return tuple(chain)


def test_supersat_bound_values():
    assert supersat_bound(4, 2, 1) == 3
    assert supersat_bound(4, 3, 2) == 12
    for n in range(2, 9):
        for k in range(2, n + 2):
            assert supersat_bound(n, k, 0) == 0
    # the bound stays a valid statement past the tightness range
    assert supersat_bound(4, 2, 100) == 300


def test_supersat_bound_validation():
    with pytest.raises(ValueError):
        supersat_bound(4, 1, 1)
    with pytest.raises(ValueError):
        supersat_bound(4, 6, 1)
    with pytest.raises(ValueError):
        supersat_bound(4, 2, -1)


def test_tight_x_max_values():
    assert tight_x_max(4, 2) == binom(4, 3) == 4
    assert tight_x_max(4, 3) == binom(4, 1) == 4
    assert tight_x_max(5, 2) == binom(5, 3) == 10


def test_added_row_alternates_around_middle():
    assert [added_row_level(8, k) for k in (2, 3, 4, 5)] == [5, 3, 6, 2]
    assert [added_row_level(7, k) for k in (2, 3, 4)] == [4, 2, 5]


def test_middle_rows_grow_by_the_added_row():
    # the first k rows of the middle-out order: a middle-levels block, and
    # the k-th row extends the first k - 1 rows on one side
    for n in range(1, 21):
        assert middle_rows(n, 0).width == 0
        for k in range(1, n + 2):
            block = middle_rows(n, k)
            assert block in (middle_levels(n, k, "floor"), middle_levels(n, k, "ceil")), (n, k)
            if k >= 2:
                base, row = middle_rows(n, k - 1), added_row_level(n, k)
                assert row in (base.lo - 1, base.hi + 1), (n, k)
                assert block == LevelInterval(min(base.lo, row), max(base.hi, row)), (n, k)
    assert tuple(middle_rows(4, 1)) == (2, 2)
    assert [tuple(middle_rows(5, k)) for k in (2, 3, 4)] == [(2, 3), (1, 3), (1, 4)]
    for j in (-1, 6):
        with pytest.raises(ValueError):
            middle_rows(4, j)


def test_factorial_form_by_exhaustive_permutation_count():
    dec = scd_inductive(4)
    assert n_permutations_enumerate(dec, (0b0001, 0b0011)) == 8
    assert n_permutations_factorial(4, (1, 2)) == 8
    assert n_permutations_ratio(4, (1, 2)) == math.factorial(4) // max(2, 3) == 8


def test_three_level_chain_in_two_element_lattice():
    # brute force over both permutations of [2]: only the identity keeps
    # (empty, {1}, {1,2}) on one chain
    value = n_permutations_enumerate(scd_inductive(2), (0b00, 0b01, 0b11))
    assert value == 1
    assert n_permutations_factorial(2, (0, 1, 2)) == 1
    assert n_permutations_ratio(2, (0, 1, 2)) == 1


def test_single_set_chain_counts_every_permutation():
    for n in (2, 3, 4):
        dec = scd_inductive(n)
        assert n_permutations_enumerate(dec, (0,)) == math.factorial(n)
        assert n_permutations_factorial(n, (0,)) == math.factorial(n)


def test_full_span_chain():
    assert n_permutations_ratio(3, (0, 3)) == 6
    assert n_permutations_factorial(3, (0, 3)) == 6
    assert n_permutations_enumerate(scd_inductive(3), (0, 0b111)) == 6


def test_symmetric_tuple_has_equal_products():
    y, z = yz(6, (2, 3, 4))
    assert y == z == 12
    assert n_permutations_ratio(6, (2, 3, 4)) == math.factorial(6) // 12 == 60
    assert n_permutations_factorial(6, (2, 3, 4)) == 60


def test_enumerate_rejects_non_chains():
    with pytest.raises(ValueError):
        n_permutations_enumerate(scd_inductive(4), (0b0001, 0b0010))
    with pytest.raises(ValueError):
        n_permutations_enumerate(scd_inductive(3), ())
    with pytest.raises(ValueError):
        n_permutations_enumerate(scd_inductive(8), (0b1, 0b11))


def test_ratio_equals_factorial_everywhere():
    for n in range(1, 10):
        for k in range(1, min(6, n + 2)):
            for levels in combinations(range(n + 1), k):
                assert n_permutations_factorial(n, levels) == n_permutations_ratio(n, levels)


def test_closed_forms_match_enumeration_on_random_chains():
    rng = random.Random(23)
    for n, samples in ((4, 40), (5, 40), (7, 12)):
        dec = scd_inductive(n)
        for k in range(1, 5):
            for _ in range(samples):
                chain = random_chain(rng, n, k)
                levels = tuple(w.bit_count() for w in chain)
                values = {n_permutations_enumerate(dec, chain)}
                values.add(n_permutations_factorial(n, levels))
                values.add(n_permutations_ratio(n, levels))
                assert len(values) == 1, (n, chain, values)


def test_enumeration_matches_the_per_bit_mapping_on_every_chain():
    # reference: every relabeling maps every word through
    # `Permutation.apply_to_word`; the permuted decomposition puts the words on other chains
    for n in range(1, 6):
        perms = [Permutation(tuple(i + 1 for i in image)) for image in permutations(range(n))]
        images = [[p.apply_to_word(w) for w in range(1 << n)] for p in perms]
        base = scd_inductive(n)
        for dec in (base, permute_decomposition(base, perms[len(perms) // 2])):
            chains = [(w,) for w in range(1 << n)]
            while chains:
                for chain in chains:
                    want = sum(len({chain_through(dec, img[w])[0] for w in chain}) == 1 for img in images)
                    assert n_permutations_enumerate(dec, chain) == want, (n, chain)
                chains = [
                    ch + (s,) for ch in chains for s in range(ch[-1] + 1, 1 << n) if s & ch[-1] == ch[-1]
                ]


def test_yz_products():
    assert yz(4, (1, 2)) == (2, 3)
    assert yz(6, (1, 2, 4)) == yz(6, (1, 3, 4)) == (12, 30)
    for n in (3, 5, 8):
        assert yz(n, (0, n)) == (1, 1)


@pytest.mark.parametrize("form", [yz, n_permutations_factorial, n_permutations_ratio])
@pytest.mark.parametrize(
    "levels, message",
    [
        ((), "at least one level is required"),
        ((-1, 2), "levels must lie in [0, 4]: (-1, 2)"),
        ((1, 5), "levels must lie in [0, 4]: (1, 5)"),
        ((2, 2), "levels must be strictly increasing: (2, 2)"),
    ],
)
def test_level_forms_reject_bad_levels(form, levels, message):
    # each form checks its levels through `_check_levels`, and a list is read as a tuple
    with pytest.raises(ValueError) as info:
        form(4, list(levels))
    assert str(info.value) == message


def test_yz_depends_only_on_base_and_difference_multiset():
    for n in range(2, 9):
        groups = {}
        for k in range(2, 5):
            for levels in combinations(range(n + 1), k):
                diffs = tuple(sorted(b - a for a, b in zip(levels, levels[1:])))
                key = (levels[0], diffs)
                assert groups.setdefault(key, yz(n, levels)) == yz(n, levels)


def test_binomial_identity():
    assert binomial_identity_holds(1, 1, 2)
    assert binomial_identity_holds(0, 0, 0)
    assert all(
        binomial_identity_holds(a, i, j)
        for a in range(21)
        for i in range(21 - a)
        for j in range(21 - a - i)
    )
    with pytest.raises(ValueError):
        binomial_identity_holds(-1, 0, 0)


def test_min_max_yz_closed_form():
    assert min_max_yz(4, 2) == 3
    assert min_max_yz_minimizer(4, 2) == (2, 3)
    assert max(yz(4, (2, 3))) == 3
    assert min_max_yz(5, 3) == 12
    assert min_max_yz_minimizer(5, 3) == (2, 3, 4)
    assert max(yz(5, (2, 3, 4))) == 12
    for n in range(1, 13):
        for k in range(2, n + 2):
            assert supersat_bound(n, k, 1) == min_max_yz(n, k)


def test_closed_form_is_sharp_off_full_span_tuples():
    # the closed form is the minimum of max{y,z} over every tuple avoiding
    # the full 0..n span and is attained at the predicted minimizer; tuples
    # containing both 0 and n can drop below it
    for n in range(1, 13):
        for k in range(2, min(5, n + 2)):
            report = min_max_yz_verification(n, k)
            assert report.predicted_attains, (n, k)
            assert report.span_free_confirmed, (n, k)
            assert all(t[0] == 0 and t[-1] == n for t in report.below_closed_form), (n, k)


def test_verification_report_agrees_with_exhaustive_minimum():
    # the least value, and on a tie the lexicographically smallest tuple
    for n in range(1, 10):
        for k in range(2, n + 2):
            want = min((max(yz(n, t)), t) for t in combinations(range(n + 1), k))
            report = min_max_yz_verification(n, k)
            assert (report.exhaustive_min, report.exhaustive_argmin) == want, (n, k)


def test_full_span_pair_dips_below_closed_form():
    report = min_max_yz_verification(4, 2)
    assert (report.exhaustive_min, report.exhaustive_argmin) == (1, (0, 4))
    assert not report.confirmed
    assert report.below_closed_form == ((0, 4),)


def test_reduction_of_a_large_difference_strictly_decreases():
    for n in range(2, 11):
        for k in range(2, 5):
            for levels in combinations(range(n + 1), k):
                diffs = sorted(b - a for a, b in zip(levels, levels[1:]))
                if diffs[-1] < 2:
                    continue
                last_big = [levels[0]]
                for d in diffs:
                    last_big.append(last_big[-1] + d)
                assert yz(n, last_big) == yz(n, levels)
                if last_big[-2] > 0:
                    reduced = tuple(last_big[:-1]) + (last_big[-2] + 1,)
                    assert yz(n, reduced)[0] < yz(n, last_big)[0]
                first_big = [levels[0]]
                for d in reversed(diffs):
                    first_big.append(first_big[-1] + d)
                assert yz(n, first_big) == yz(n, levels)
                if first_big[1] < n:
                    raised = (first_big[1] - 1,) + tuple(first_big[1:])
                    assert yz(n, raised)[1] < yz(n, first_big)[1]


def test_extremal_family_small_cases():
    fam = build_extremal_family(4, 2, 1)
    assert set(fam.words()) == set(build_b_family(4, 1).words()) | {0b0111}
    assert count_k_chains(fam, 2) == supersat_bound(4, 2, 1) == 3

    fam = build_extremal_family(4, 3, 1)
    levels = sorted(w.bit_count() for w in fam.words())
    assert fam.size() == 11 and levels.count(1) == 1
    assert set(levels) == {1, 2, 3}
    assert count_k_chains(fam, 3) == 6


def test_extremal_family_x_zero_recovers_middle_rows():
    for n in range(2, 10):
        for k in range(2, min(5, n + 2)):
            fam = build_extremal_family(n, k, 0)
            assert fam.size() == sigma(n, k - 1)
            assert count_k_chains(fam, k) == 0


def test_extremal_family_rejects_oversized_surplus():
    with pytest.raises(ValueError):
        build_extremal_family(4, 2, 5)
    with pytest.raises(ValueError):
        build_extremal_family(4, 2, -1)


def test_extremal_family_attains_bound():
    for n in range(1, 9):
        for k in range(2, min(5, n + 2)):
            for x in {0, 1, tight_x_max(n, k)}:
                fam = build_extremal_family(n, k, x)
                assert fam.size() == sigma(n, k - 1) + x
                assert count_k_chains(fam, k) == supersat_bound(n, k, x)


def test_extremal_count_is_selector_invariant():
    rng = random.Random(31)

    def scattered(n, lvl, count):
        return rng.sample(list(level_words(n, lvl)), count)

    for n, k in ((5, 2), (6, 3), (7, 4)):
        x = min(2, tight_x_max(n, k))
        a = count_k_chains(build_extremal_family(n, k, x), k)
        b = count_k_chains(build_extremal_family(n, k, x, selector=scattered), k)
        assert a == b


def test_extremal_family_selector_validation():
    with pytest.raises(ValueError):
        build_extremal_family(4, 2, 2, selector=lambda n, lvl, c: [0b0111])
    with pytest.raises(ValueError):
        build_extremal_family(4, 2, 1, selector=lambda n, lvl, c: [0b0011])


# n = 4, k = 2: the block is row 2 and the added row is row 3
@pytest.mark.parametrize(
    "x, words, message",
    [
        (2, [0b0111, 0b0111], "selector must yield 2 distinct sets"),
        (2, [0b0111], "selector must yield 2 distinct sets"),
        (1, [0b0111, 0b1011], "selector must yield 1 distinct sets"),
        (1, [0b0111, 0b0111], "selector must yield 1 distinct sets"),
        (0, [0b0111], "selector must yield 0 distinct sets"),
        (1, [0b0011], "selector returned a set of size 2, expected 3"),
        (1, [0b10011], "subset word 19 has bits outside [1, 4]"),
        (1, [-3], "subset word -3 has bits outside [1, 4]"),
    ],
)
def test_extremal_family_rejects_each_bad_selection(x, words, message):
    for wrap in (list, iter):
        with pytest.raises(ValueError) as info:
            build_extremal_family(4, 2, x, selector=lambda n, lvl, c: wrap(words))
        assert str(info.value) == message


def test_extremal_family_checks_each_word_as_it_arrives():
    def selector(n, lvl, count):
        yield 0b0111
        yield 0b0011  # on the wrong row, and one word too many for x = 1
        raise AssertionError("drawn past a bad word")

    # of the two faults, the bad word is reported, before the count is known
    with pytest.raises(ValueError, match="set of size 2, expected 3"):
        build_extremal_family(4, 2, 1, selector=selector)


def test_extremal_family_default_selection_is_the_colex_prefix():
    # colex order is ascending order of the words: each row sorted from combinations
    def colex_prefix(n, lvl, count):
        return sorted(sum(1 << e for e in pick) for pick in combinations(range(n), lvl))[:count]

    # every x up to n = 8, where the default cut falls on each word of the row
    for n in range(1, 11):
        for k in range(2, n + 2 if n <= 8 else min(6, n + 2)):
            t = tight_x_max(n, k)
            for x in range(t + 1) if n <= 8 else sorted({0, 1, t // 2, t}):
                want = build_extremal_family(n, k, x, selector=colex_prefix)
                assert build_extremal_family(n, k, x) == want, (n, k, x)


def _reference_extremal_family(n, k, x, selector):
    """build_extremal_family by the per-word rules: each selected word is
    checked as it arrives, first for bits outside [n], then for its size;
    then the number of words and the family's size are checked."""
    row = added_row_level(n, k)
    block = middle_rows(n, k - 1)
    mask = bytearray(block.lo <= w.bit_count() <= block.hi for w in range(1 << n))
    taken = 0
    for w in selector(n, row, x):
        if w < 0 or w >> n:
            raise ValueError(f"subset word {w} has bits outside [1, {n}]")
        if w.bit_count() != row:
            raise ValueError(f"selector returned a set of size {w.bit_count()}, expected {row}")
        taken += 1
        mask[w] = 1
    if taken != x or mask.count(1) != sigma(n, k - 1) + x:
        raise ValueError(f"selector must yield {x} distinct sets")
    return Family(n, bytes(mask))


def _random_selection(rng, n, k, x):
    """x words of the added row, some of them perturbed: repeated, off the
    row, negative, too wide, dropped or one too many."""
    row = added_row_level(n, k)
    on_row = [w for w in range(1 << n) if w.bit_count() == row]
    words = rng.sample(on_row, x)
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        fault = rng.randrange(6)
        at = rng.randint(0, len(words))
        if fault == 0 and words:
            words.insert(at, rng.choice(words))
        elif fault == 1:
            off = [w for w in range(1 << n) if w.bit_count() != row]
            words.insert(at, rng.choice(off))
        elif fault == 2:
            words.insert(at, rng.randint(-(1 << (n + 1)), -1))
        elif fault == 3:
            words.insert(at, rng.randint(1 << n, 1 << (n + 2)))
        elif fault == 4 and words:
            del words[rng.randrange(len(words))]
        else:
            words.insert(at, rng.choice(on_row))
    return words


def test_extremal_family_matches_the_per_word_rules_on_random_selections():
    rng = random.Random(20)
    outcomes = set()
    for _ in range(3000):
        n = rng.randint(1, 8)
        k = rng.randint(2, n + 1)
        x = rng.randint(0, tight_x_max(n, k))
        words = _random_selection(rng, n, k, x)
        results = []
        for build in (_reference_extremal_family, build_extremal_family):
            drawn = []

            def selector(gs, lvl, count):
                for w in words:
                    drawn.append(w)
                    yield w

            try:
                got = build(n, k, x, selector)
            except ValueError as exc:
                got = str(exc)
            results.append((got, len(drawn)))
        # the same family or the same message, with the selector drawn as far
        assert results[0] == results[1], (n, k, x, words)
        got = results[0][0]
        outcomes.add(" ".join(got.split()[:2]) if isinstance(got, str) else "family")
    # every outcome was seen: a family, and each of the three messages
    assert outcomes == {"family", "subset word", "selector returned", "selector must"}, outcomes


def test_extremal_family_at_the_cap_holds_two_masks_at_most():
    setup = """
        from supersat.bounds import build_extremal_family, tight_x_max
        from supersat.core import sigma
        from supersat.oracle import centered_family
        """
    # whole added rows, whose cut lies near the table's end, one set, and a
    # centered family whose 80,000 sets cut row 11 mid-way; each in a fresh interpreter
    for build, size in [
        ("build_extremal_family(20, 2, tight_x_max(20, 2))", 352716),
        ("build_extremal_family(20, 4, 125970)", sigma(20, 3) + 125970),
        ("build_extremal_family(20, 3, 1)", sigma(20, 2) + 1),
        ("centered_family(20, sigma(20, 1) + 80000)", sigma(20, 1) + 80000),
    ]:
        peak, got = traced_peak(setup, f"fam = {build}", "fam.size()")
        assert got == size, build
        assert peak <= 2 * (1 << 20) + 256 * 1024, (size, peak)


def test_bound_report_payload():
    report = bound_report(4, 2, 1)
    assert report.to_payload() == {
        "n": 4,
        "k": 2,
        "x": 1,
        "sigma": 6,
        "bound": 3,
        "tight_x_max": 4,
    }
