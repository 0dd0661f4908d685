import random
from collections import deque
from itertools import permutations

import pytest

from conftest import traced_peak
from supersat.core import binom
from supersat.scd import (
    Decomposition,
    Permutation,
    ScdValidation,
    _first_chains,
    _permuted,
    _scd_chains,
    _validate_chains,
    bracketing_chain_of,
    chain_through,
    permute_decomposition,
    scd_inductive,
    validate_scd,
)


def doubling_scd(n):
    """The inductive SCD by doubling: over [m], each chain (S_0, ..., S_t)
    of [m - 1] becomes (S_0, ..., S_t, S_t + m) and, when t >= 1, (S_0 + m,
    ..., S_{t-1} + m).  The chains ascend, so sorting them by first word is
    `_chain_order`."""
    chains = [(0, 1)]
    for bit in (1 << m for m in range(1, n)):
        grown = []
        for ch in chains:
            grown.append(ch + (ch[-1] | bit,))
            if len(ch) >= 2:
                grown.append(tuple(w | bit for w in ch[:-1]))
        chains = grown
    return tuple(sorted(chains, key=lambda ch: (ch[0].bit_count(), ch[0])))


def test_inductive_base_case():
    assert scd_inductive(1).chains == ((0, 1),)


def test_inductive_n2_hand_expansion():
    # the (empty, {1}) chain grows to (empty, {1}, {1,2}) plus the chain ({2})
    assert scd_inductive(2).chains == ((0, 1, 3), (2,))


def test_inductive_chain_counts():
    assert len(scd_inductive(6).chains) == binom(6, 3) == 20
    assert validate_scd(scd_inductive(6)).ok


def test_inductive_valid_through_n10():
    for n in range(1, 11):
        report = validate_scd(scd_inductive(n))
        assert report.ok, (n, report.problems)


def test_scd_inductive_equals_the_doubling_rule():
    # the bracket stream against an oracle that shares no code with it
    for n in range(1, 15):
        assert scd_inductive(n).chains == doubling_scd(n), n


def test_scd_chains_checks_n_when_called():
    # before any chain is read, as `level_words` does
    for n in (0, 21, True):
        with pytest.raises(ValueError, match="ground-set size must be an integer"):
            _scd_chains(n)


def test_bracketing_chain_of_singleton():
    # in {2} for n=2, position 1 is '(' and position 2 is ')': a matched pair
    assert bracketing_chain_of(2, 0b10) == (0b10,)


def test_bracketing_chain_of_empty_set_is_full_chain():
    for n in (1, 3, 5):
        expected = tuple((1 << j) - 1 for j in range(n + 1))
        assert bracketing_chain_of(n, 0) == expected


def test_bracketing_chain_counts_and_validity():
    assert len(scd_inductive(8).chains) == binom(8, 4) == 70
    for n in range(1, 11):
        report = validate_scd(scd_inductive(n))
        assert report.ok, (n, report.problems)


def test_bracketing_chain_of_agrees_with_decomposition():
    for n in range(1, 13):
        dec = scd_inductive(n)
        for word in range(1 << n):
            idx, pos = chain_through(dec, word)
            chain = bracketing_chain_of(n, word)
            assert dec.chains[idx] == chain
            assert chain[pos] == word


def test_validate_rejects_skip():
    dec = Decomposition.from_chains(2, [(0, 3), (1,), (2,)])
    report = validate_scd(dec)
    assert not report.skipless
    assert report.partition


def test_validate_rejects_missing_subset():
    dec = Decomposition.from_chains(2, [(0, 1, 3)])
    report = validate_scd(dec)
    assert not report.partition
    assert not report.chain_count


def test_validate_rejects_a_word_on_two_chains():
    # word 1 sits on chain 0 and again as chain 1; `chain_through` finds the first
    dec = Decomposition.from_chains(2, [(0, 1, 3), (1,), (2,)])
    assert dec.chains == ((0, 1, 3), (1,), (2,))
    assert chain_through(dec, 1) == (0, 1)
    report = validate_scd(dec)
    assert not report.partition and not report.locator
    assert report.skipless and not report.ok
    assert "locator disagrees with chain 1 at position 0" in report.problems


def test_locator_is_built_only_when_read(monkeypatch):
    # `chain_through` and `validate_scd` read the chains; neither builds the
    # first-chain table nor leaves anything on the value
    import supersat.scd

    def refuse(dec):
        raise AssertionError("first-chain table built")

    monkeypatch.setattr(supersat.scd, "_first_chains", refuse)
    dec = scd_inductive(12)
    assert len(dec.chains) == binom(12, 6)
    assert chain_through(dec, 0) == (0, 0)
    assert chain_through(dec, (1 << 12) - 1) == (0, 12)
    assert validate_scd(dec).locator
    assert set(vars(dec)) == {"n", "chains"}
    assert dec == scd_inductive(12)


def test_validate_rejects_asymmetric_chain():
    dec = Decomposition.from_chains(2, [(0, 1), (2, 3)])
    report = validate_scd(dec)
    assert not report.symmetric
    assert report.partition and report.skipless


def test_permutation_validation_and_action():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    swap = Permutation((2, 1, 3))
    assert swap.apply_to_word(0b001) == 0b010
    assert swap.apply_to_word(0b011) == 0b011
    assert tuple(swap.apply_to_word(w) for w in (0, 1, 3)) == (0, 2, 3)


def test_permutation_rejects_float_images():
    # (1.0, 2.0) sorts like (1, 2), but `apply_to_word` cannot shift by a float
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation((1.0, 2.0))


def test_permutation_rejects_bool_images():
    # True sorts as 1, so (2, True) would pass for (2, 1)
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation((2, True))


def test_permutation_keeps_its_own_tuple():
    # a list image is copied: no alias changes the value, and it hashes
    image = [2, 1]
    perm = Permutation(image)
    image[0] = 1
    assert perm.image == (2, 1) and perm == Permutation((2, 1))
    assert hash(perm) == hash(Permutation((2, 1)))


def test_permute_identity_returns_equal_decomposition():
    for n in (1, 2, 3, 4):
        dec = scd_inductive(n)
        assert permute_decomposition(dec, Permutation.identity(n)) == dec


def test_permute_size_mismatch():
    with pytest.raises(ValueError):
        permute_decomposition(scd_inductive(3), Permutation.identity(4))


def test_compose_size_mismatch():
    with pytest.raises(ValueError, match="^permutation size mismatch$"):
        Permutation.identity(3).compose(Permutation.identity(4))


def test_all_permuted_images_distinct_n3():
    dec = scd_inductive(3)
    images = [
        permute_decomposition(dec, Permutation(p)).chains for p in permutations((1, 2, 3))
    ]
    assert len(set(images)) == 6


def test_permutation_action_is_group_action():
    for n in (1, 2, 3, 4):
        dec = scd_inductive(n)
        perms = [Permutation(p) for p in permutations(range(1, n + 1))]
        for p in perms:
            for t in perms:
                lhs = permute_decomposition(permute_decomposition(dec, p), t)
                assert lhs == permute_decomposition(dec, t.compose(p))


def test_permuted_decompositions_stay_valid():
    import random

    rng = random.Random(43)
    for n in (4, 6):
        dec = scd_inductive(n)
        for _ in range(5):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            permuted = permute_decomposition(dec, Permutation(tuple(image)))
            assert validate_scd(permuted).ok


def test_validate_reports_empty_chains_and_words_outside_the_ground_set():
    # each as a partition problem, not an exception; -1 is not read as word 3
    cases = [
        (((0, 8),), "chain 0 holds 8, which is not a subset of [2]", "chains cover 1 of 4 subsets"),
        (((0,), (1, -1)), "chain 1 holds -1, which is not a subset of [2]", "chains cover 2 of 4 subsets"),
        (((),), "chain 0 is empty", "chains cover 0 of 4 subsets"),
        # the lattice is covered once, but the extra chain is no part of a partition
        (((0, 1, 3), (2,), (4,)), "chain 2 holds 4, which is not a subset of [2]", None),
        (((0, 1, 3), (2,), ()), "chain 2 is empty", None),
    ]
    for chains, problem, coverage in cases:
        report = validate_scd(Decomposition(2, chains))
        assert not report.partition and not report.ok, chains
        assert problem in report.problems, report.problems
        assert coverage is None or coverage in report.problems, report.problems
    # an empty chain is no partition block, and no other property's failure
    report = validate_scd(Decomposition(2, ((0, 1, 3), (2,), ())))
    assert report.skipless and report.symmetric and report.locator


def test_compose_and_inverse():
    p = Permutation((2, 3, 1))
    assert p.compose(p.inverse()) == Permutation.identity(3)
    assert p.inverse().compose(p) == Permutation.identity(3)


def test_chain_through_positions():
    dec = scd_inductive(2)
    idx, pos = chain_through(dec, 0b10)
    assert dec.chains[idx] == (0b10,)
    assert pos == 0
    for n in (3, 5):
        dec = scd_inductive(n)
        full = (1 << n) - 1
        idx, pos = chain_through(dec, 0)
        assert pos == 0 and len(dec.chains[idx]) == n + 1
        idx2, pos2 = chain_through(dec, full)
        assert idx2 == idx and pos2 == n
        for word in range(1 << n):
            i, p = chain_through(dec, word)
            assert dec.chains[i][p] == word


def test_chain_through_raises_key_error_for_a_word_on_no_chain():
    dec = Decomposition.from_chains(3, [(0, 1, 3, 7), (2, 6, 2)])
    assert chain_through(dec, 6) == (1, 1)
    assert chain_through(dec, 2) == (1, 0)  # the first position on the chain
    for word in (4, 5):
        with pytest.raises(KeyError):
            chain_through(dec, word)
    with pytest.raises(ValueError):
        chain_through(dec, 8)


def test_first_chain_table_agrees_with_chain_through():
    # the table `nperm --enumerate` and `verify` read: first chain wins, no key off the chains
    decs = [
        Decomposition(2, ((0, 1, 3), (1,), (2,))),
        Decomposition(3, ((0, 1, 3, 7), (2, 6), (6, 2))),
        Decomposition(2, ((0, 8), (1, -1), ())),
        permute_decomposition(scd_inductive(6), Permutation((3, 1, 6, 2, 5, 4))),
    ]
    for dec in decs:
        want = {}
        for word in range(1 << dec.n):
            try:
                want[word] = chain_through(dec, word)[0]
            except KeyError:
                pass
        assert {w: i for w, i in _first_chains(dec).items() if 0 <= w < 1 << dec.n} == want


def test_min_level_census():
    for n in range(1, 15):
        census: dict[int, int] = {}
        for ch in scd_inductive(n).chains:
            m = min(w.bit_count() for w in ch)
            census[m] = census.get(m, 0) + 1
        for m, count in census.items():
            assert count == binom(n, m) - binom(n, m - 1)


def test_level_pair_chain_coverage():
    # chains meeting both level a and level b number min(C(n,a), C(n,b))
    for n in range(1, 13):
        spans = [
            (min(w.bit_count() for w in ch), max(w.bit_count() for w in ch))
            for ch in scd_inductive(n).chains
        ]
        for a in range(n + 1):
            for b in range(a, n - a + 1):
                hits = sum(1 for lo, hi in spans if lo <= a and b <= hi)
                assert hits == min(binom(n, a), binom(n, b))


def test_decompositions_allow_comparison_between_constructions():
    # the bracket rule applied to every word, independently of any
    # construction, yields exactly the inductive chains
    for n in range(1, 15):
        inductive = scd_inductive(n)
        assert set(inductive.chains) == {bracketing_chain_of(n, w) for w in range(1 << n)}, n


def test_canonical_chain_order():
    dec = scd_inductive(5)
    keys = [(min(w.bit_count() for w in ch), min(ch)) for ch in dec.chains]
    assert keys == sorted(keys)


def per_word_image(dec, perm):
    """`permute_decomposition` by the per-word reference and the checked constructor."""
    return Decomposition.from_chains(
        dec.n, [[perm.apply_to_word(w) for w in ch] for ch in dec.chains]
    )


def test_permute_matches_the_per_word_reference():
    # every permutation for n <= 4; seeded ones at n = 9..12 cover both
    # splits of the half-word tables (equal halves and a longer low half)
    for n in range(1, 5):
        dec = scd_inductive(n)
        for image in permutations(range(1, n + 1)):
            perm = Permutation(image)
            assert permute_decomposition(dec, perm) == per_word_image(dec, perm), (n, image)
    rng = random.Random(12)
    for n in (9, 10, 11, 12):
        dec = scd_inductive(n)
        for _ in range(3):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            perm = Permutation(tuple(image))
            assert permute_decomposition(dec, perm) == per_word_image(dec, perm), (n, image)


def test_the_mapper_reads_a_one_shot_chain_stream():
    # `scd --permute` maps the chains as `_scd_chains` makes them, so the
    # mapper must read each chain once; every permutation for n <= 4, and
    # both rotations at n = 9 and 10, whose half tables split 5 + 4 and 5 + 5
    cases = [(n, image) for n in range(1, 5) for image in permutations(range(1, n + 1))]
    for n in (9, 10):
        cases += [(n, (*range(2, n + 1), 1)), (n, (n, *range(1, n)))]
    for n, image in cases:
        dec, perm = scd_inductive(n), Permutation(image)
        mapped = tuple(_permuted(iter(dec.chains), perm))
        assert mapped == permute_decomposition(dec, perm).chains, (n, image)
        assert mapped == per_word_image(dec, perm).chains, (n, image)


def test_permute_sorts_chains_that_come_out_of_level_order():
    # `_permuted` sorts one level at a time and needs the chains by level;
    # a raw decomposition may list them in any order, and its image must
    # still be the checked constructor's, in `_chain_order`
    rng = random.Random(31)
    cases = [(4, image) for image in permutations(range(1, 5))]
    cases += [(n, rng.sample(range(1, n + 1), n)) for n in (6, 9) for _ in range(3)]
    for n, image in cases:
        chains, perm = scd_inductive(n).chains, Permutation(image)
        for order in (chains[::-1], rng.sample(chains, len(chains))):
            dec = Decomposition(n, order)
            permuted = permute_decomposition(dec, perm)
            assert permuted == per_word_image(dec, perm), (n, image)
            assert permuted == permute_decomposition(scd_inductive(n), perm), (n, image)


def test_permute_keeps_the_checked_order_on_non_ascending_chains():
    # chains listed out of inclusion order, a repeated word and words on
    # no chain: the order must still be `from_chains`' order
    dec = Decomposition.from_chains(4, [(7, 3, 1), (15, 0), (2, 6, 2), (12, 4, 5), (8,)])
    assert dec.chains == ((15, 0), (7, 3, 1), (2, 6, 2), (12, 4, 5), (8,))
    for image in permutations(range(1, 5)):
        perm = Permutation(image)
        permuted = permute_decomposition(dec, perm)
        assert permuted == per_word_image(dec, perm), image
        keys = [(min(w.bit_count() for w in ch), min(ch)) for ch in permuted.chains]
        assert keys == sorted(keys), image


def test_scd_inductive_equals_the_checked_constructor():
    for n in range(1, 13):
        dec = scd_inductive(n)
        assert dec == Decomposition.from_chains(n, dec.chains), n


def test_from_chains_rejects_words_outside_the_ground_set():
    with pytest.raises(ValueError):
        Decomposition.from_chains(2, [(0, 1, 3), (4,)])
    with pytest.raises(ValueError):
        Decomposition.from_chains(2, [(0, 1, 3), (-1,)])
    with pytest.raises(ValueError):
        Decomposition.from_chains(2, [(0, 1, 3), ()])


def test_validate_counts_repeats_and_coverage():
    dec = Decomposition.from_chains(2, [(0, 1), (1,), (1, 3)])
    report = validate_scd(dec)
    assert report.problems[:2] == (
        "2 subsets appear on more than one chain",
        "chains cover 3 of 4 subsets",
    )
    assert "locator disagrees with chain 1 at position 0" in report.problems


# Whole reports: every flag, and every problem in the order `validate_scd`
# lists them (partition, skipless, symmetric, chain count, locator; chain by
# chain within each).
VALIDATION_CASES = [
    # a valid decomposition
    (2, ((0, 1, 3), (2,)), (True, True, True, True, True), ()),
    # a skipped level
    (2, ((0, 3), (1,), (2,)), (True, False, True, False, True), (
        "chain 0 is not a skipless chain",
        "3 chains, expected C(n, n//2) = 2",
    )),
    # missing subset
    (2, ((0, 1, 3),), (False, True, True, False, True), (
        "chains cover 3 of 4 subsets",
        "1 chains, expected C(n, n//2) = 2",
    )),
    # repeat on two chains
    (2, ((0, 1, 3), (1,), (2,)), (False, True, True, False, False), (
        "1 subsets appear on more than one chain",
        "3 chains, expected C(n, n//2) = 2",
        "locator disagrees with chain 1 at position 0",
    )),
    # asymmetric
    (2, ((0, 1), (2, 3)), (True, True, False, True, True), (
        "chain 0 spans levels [0, 1], not symmetric",
        "chain 1 spans levels [1, 2], not symmetric",
    )),
    # repeated words and a missing subset
    (2, ((0, 1), (1,), (1, 3)), (False, True, False, False, False), (
        "2 subsets appear on more than one chain",
        "chains cover 3 of 4 subsets",
        "chain 0 spans levels [0, 1], not symmetric",
        "chain 2 spans levels [1, 2], not symmetric",
        "3 chains, expected C(n, n//2) = 2",
        "locator disagrees with chain 1 at position 0",
    )),
    # word >= 2^n
    (2, ((0, 8),), (False, True, False, False, True), (
        "chain 0 holds 8, which is not a subset of [2]",
        "chains cover 1 of 4 subsets",
        "chain 0 spans levels [0, 1], not symmetric",
        "1 chains, expected C(n, n//2) = 2",
    )),
    # negative word
    (2, ((0,), (1, -1)), (False, False, False, True, True), (
        "chain 1 holds -1, which is not a subset of [2]",
        "chains cover 2 of 4 subsets",
        "chain 1 is not a skipless chain",
        "chain 0 spans levels [0, 0], not symmetric",
    )),
    # empty chain only
    (2, ((),), (False, True, True, False, True), (
        "chain 0 is empty",
        "chains cover 0 of 4 subsets",
        "1 chains, expected C(n, n//2) = 2",
    )),
    # extra empty chain
    (2, ((0, 1, 3), (2,), ()), (False, True, True, False, True), (
        "chain 2 is empty",
        "3 chains, expected C(n, n//2) = 2",
    )),
    # descending
    (2, ((3, 1, 0), (2,)), (True, False, True, True, True), (
        "chain 0 is not a skipless chain",
    )),
    # duplicated chain
    (3, ((0, 1, 3, 7), (2, 6), (4, 5), (4, 5)), (False, True, True, False, False), (
        "2 subsets appear on more than one chain",
        "4 chains, expected C(n, n//2) = 3",
        "locator disagrees with chain 3 at position 0",
    )),
    # word repeated within a chain
    (3, ((0, 1, 1, 3, 7), (2, 6), (4, 5)), (False, False, True, True, False), (
        "1 subsets appear on more than one chain",
        "chain 0 is not a skipless chain",
        "locator disagrees with chain 0 at position 2",
    )),
    # words outside [n] on either side, and an empty chain
    (3, ((0, 1, 3, 7), (2, 6, -6, 9), (4, 5), (), (-1,)), (False, False, False, False, True), (
        "chain 1 holds -6, which is not a subset of [3]",
        "chain 1 holds 9, which is not a subset of [3]",
        "chain 3 is empty",
        "chain 4 holds -1, which is not a subset of [3]",
        "chain 1 is not a skipless chain",
        "chain 4 spans levels [1, 1], not symmetric",
        "5 chains, expected C(n, n//2) = 3",
    )),
    # reversed chains and a repeat
    (3, ((7, 3, 1, 0), (6, 2), (5, 4), (0, 2)), (False, False, False, False, False), (
        "2 subsets appear on more than one chain",
        "chain 0 is not a skipless chain",
        "chain 1 is not a skipless chain",
        "chain 2 is not a skipless chain",
        "chain 3 spans levels [0, 1], not symmetric",
        "4 chains, expected C(n, n//2) = 3",
        "locator disagrees with chain 3 at position 0",
    )),
    # ends symmetric, extremes not
    (3, ((1, 0, 3), (2, 6), (4, 5), (7,)), (True, False, False, False, True), (
        "chain 0 is not a skipless chain",
        "chain 0 spans levels [0, 2], not symmetric",
        "chain 3 spans levels [3, 3], not symmetric",
        "4 chains, expected C(n, n//2) = 3",
    )),
    # negative words in inclusion order
    (2, ((-4, -3), (0, 1, 3), (2,)), (False, True, False, False, True), (
        "chain 0 holds -4, which is not a subset of [2]",
        "chain 0 holds -3, which is not a subset of [2]",
        "chain 0 spans levels [1, 2], not symmetric",
        "3 chains, expected C(n, n//2) = 2",
    )),
    # one level a step, but 1 is no subset of 6
    (3, ((0, 1, 6, 7), (2, 3), (4, 5)), (True, False, True, True, True), (
        "chain 0 is not a skipless chain",
    )),
    # a word outside [n] between two that are inside
    (2, ((0, 5, 1, 3), (2,)), (False, False, True, True, True), (
        "chain 0 holds 5, which is not a subset of [2]",
        "chain 0 is not a skipless chain",
    )),
    # a negative word, then a repeat
    (2, ((0, 1, 3), (-1,), (2, 2)), (False, False, True, False, False), (
        "chain 1 holds -1, which is not a subset of [2]",
        "1 subsets appear on more than one chain",
        "chain 2 is not a skipless chain",
        "3 chains, expected C(n, n//2) = 2",
        "locator disagrees with chain 2 at position 1",
    )),
]


def test_validate_pins_the_whole_report():
    for n, chains, flags, problems in VALIDATION_CASES:
        report = validate_scd(Decomposition(n, chains))
        assert report == ScdValidation(*flags, problems), chains


def test_validate_reads_a_one_shot_chain_stream():
    # `scd --validate` checks the chains as `_scd_chains` makes them, so the
    # validator must read each chain once and count the chains it reads
    for n, chains, flags, problems in VALIDATION_CASES:
        report, read = _validate_chains(n, iter(chains))
        assert report == ScdValidation(*flags, problems), chains
        assert read == len(chains), chains
    report, read = _validate_chains(2, iter(()))
    assert read == 0
    assert report.problems == ("chains cover 0 of 4 subsets", "0 chains, expected C(n, n//2) = 2")


# Fill CPython's free lists of small tuples, 2000 of each size below 20, so
# that the chain tuples a stream makes and frees are reused from them, not
# left on them and traced as if they were held.  It follows the imports,
# whose compile would take tuples off the lists.
FILL_TUPLE_FREE_LISTS = "[tuple(range(size)) for size in range(1, 20) for _ in range(2000)]"


def test_stream_validation_peaks_at_the_seen_flags():
    setup = f"""
        from supersat.scd import _scd_chains, _validate_chains
        {FILL_TUPLE_FREE_LISTS}
        chains = _scd_chains(16)  # its half tables are made here, before tracing
        """
    peak, (ok, read) = traced_peak(setup, "report, read = _validate_chains(16, chains)", "(report.ok, read)")
    assert ok and read == binom(16, 8)
    # the bound of `test_validate_peaks_at_the_seen_flags`: no chain is kept
    assert peak <= (1 << 16) + 16 * 1024, peak


def test_permute_holds_one_level_of_images():
    import sys

    n = 16
    # the images of the largest level: per chain a tuple, its words and a
    # list slot; level 6 has 3,640 chains of 5 words, 0.83 MB, and the
    # whole image of 12,870 chains about 4 MB
    sizes = [(binom(n, v) - binom(n, v - 1), n + 1 - 2 * v) for v in range(n // 2 + 1)]
    word = sys.getsizeof(1 << 15)
    level = max(count * (sys.getsizeof((0,) * size) + size * word + 8) for count, size in sizes)
    setup = f"""
        from collections import deque
        from supersat.scd import Permutation, _permuted, _scd_chains
        rotation = Permutation((*range(2, {n} + 1), 1))
        {FILL_TUPLE_FREE_LISTS}
        chains = _scd_chains({n})
        """
    peak, _ = traced_peak(setup, "deque(_permuted(chains, rotation), 0)")
    # a quarter more for the sort list's growth and the half tables; two
    # adjacent levels held together would not pass, nor would the whole image
    assert peak <= level * 5 // 4, (peak, level)


def test_validate_peaks_at_the_seen_flags():
    setup = """
        from supersat.scd import scd_inductive, validate_scd
        dec = scd_inductive(16)
        """
    peak, ok = traced_peak(setup, "report = validate_scd(dec)", "report.ok")
    assert ok
    # one flag byte per word; no per-word list, set or flattened copy
    assert peak <= (1 << 16) + 16 * 1024, peak


def test_permute_rejects_chains_it_cannot_map():
    swap = Permutation((2, 1))
    # a negative word would wrap through the image table to a valid word
    cases = [
        (((0, 1, 3), (-2,)), 1),
        (((0, -1, 3), (2,)), 0),
        (((0, 1, 3), (2, 4)), 1),
        (((), (0, 1, 3), (2,)), 0),
    ]
    for chains, idx in cases:
        with pytest.raises(ValueError, match=f"chain {idx} is empty or holds a word outside \\[2\\]"):
            permute_decomposition(Decomposition(2, chains), swap)
        # the stream mapper checks each chain before it maps it or reads its length
        with pytest.raises(ValueError, match=f"chain {idx} is empty or holds a word outside \\[2\\]"):
            deque(_permuted(iter(chains), swap), 0)
