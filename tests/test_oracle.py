from itertools import combinations, islice

import pytest

from supersat import oracle
from supersat.core import Family, _rows_family, binom, level_words, sigma
from supersat.counting import _pass_masks, _zeta, count_k_chains, count_k_chains_naive
from supersat.bounds import middle_rows, supersat_bound, tight_x_max, build_extremal_family
from supersat.oracle import (
    _anneal,
    _exact_table,
    centered_family,
    construction_count,
    kleitman_report,
    max_free_family,
    min_chain_count_exact,
    min_chain_count_heuristic,
)


def test_exact_minimum_just_past_sperner_threshold():
    result = min_chain_count_exact(4, 2, 7)
    assert result.min_count == 3 == supersat_bound(4, 2, 1)
    assert result.exact
    assert result.witness.size() == 7
    assert count_k_chains(result.witness, 2) == 3


def test_exact_minimum_at_sperner_threshold_is_zero():
    result = min_chain_count_exact(4, 2, 6)
    assert result.min_count == 0
    assert count_k_chains(result.witness, 2) == 0


def test_exact_minimum_past_erdos_threshold():
    assert min_chain_count_exact(4, 3, 11).min_count == 6 == supersat_bound(4, 3, 1)


def test_exact_witnesses_recount_to_min():
    for n in (2, 3, 4):
        for k in (2, 3):
            for m in range((1 << n) + 1):
                result = min_chain_count_exact(n, k, m)
                assert result.witness.size() == m
                assert count_k_chains(result.witness, k) == result.min_count


def test_result_repr_is_short_and_names_n():
    text = repr(min_chain_count_exact(4, 2, 7))
    assert len(text) < 200
    assert text.startswith("OracleResult(n=4, k=2, family_size=7,") and "witness=Family(n=4)" in text


def test_heuristic_start_breaks_ties_by_membership_bitset():
    # with no iterations the walk returns its start: the lower-count centered
    # family, and on a tie the one whose membership bitset is smaller
    def bitset(fam):
        return sum(1 << w for w in fam.words())

    for n in range(3, 7):
        for k in (1, 2, 3):
            for m in range(1 << n):
                sides = (centered_family(n, m), centered_family(n, m, mirror_partial=True))
                want = min(sides, key=lambda fam: (count_k_chains(fam, k), bitset(fam)))
                assert min_chain_count_heuristic(n, k, m, iterations=0).witness == want, (n, k, m)


def test_exact_sweep_matches_naive_enumeration():
    # independent of the zeta kernel: every family of [n], n <= 3, recounted
    # by nested enumeration; the first family of each size attaining the
    # minimum in bitset order is the documented witness
    for n in range(1, 4):
        for k in range(1, n + 3):
            best = {}
            for members in range(1 << (1 << n)):
                family = Family.from_bits(n, members)
                count = count_k_chains_naive(family, k)
                m = family.size()
                if m not in best or count < best[m][0]:
                    best[m] = (count, family)
            for m, (count, family) in best.items():
                result = min_chain_count_exact(n, k, m)
                assert (result.min_count, result.witness) == (count, family), (n, k, m)
            free = max(m for m, (count, _) in best.items() if count == 0)
            assert max_free_family(n, k) == (free, best[free][1]), (n, k)


def test_exact_table_minima_match_a_loop_over_every_family():
    # the popcount-regrouped bytes.find scan against a plain pass over the same counts,
    # keeping the first family of each size that attains the minimum
    for n in range(5):
        size = 1 << n
        for k in range(1, 7):
            marks = bytearray(1 << size)
            for chain in combinations(range(size), k):
                if all(a & b == a for a, b in zip(chain, chain[1:])):
                    marks[sum(1 << w for w in chain)] = 1
            counts = _zeta(int.from_bytes(marks, "little"), _pass_masks(size, 1)).to_bytes(1 << size, "little")
            mins, wits = [None] * (size + 1), [0] * (size + 1)
            for fam, cnt in enumerate(counts):
                m = fam.bit_count()
                if mins[m] is None or cnt < mins[m]:
                    mins[m], wits[m] = cnt, fam
            assert _exact_table(n, k) == (tuple(mins), tuple(wits)), (n, k)


def test_exact_results_past_the_longest_chain_read_the_k_n_plus_2_table():
    import time

    # no chain of [4] has more than 5 sets, so k = 10^9 is answered as k = 6,
    # without growing an empty chain list 10^9 - 1 times
    start = time.perf_counter()
    for m in range(17):
        huge, six = min_chain_count_exact(4, 10**9, m), min_chain_count_exact(4, 6, m)
        assert (huge.min_count, huge.witness) == (six.min_count, six.witness) == (0, six.witness)
    assert max_free_family(4, 10**9) == max_free_family(4, 6) == (16, Family.full(4))
    assert all(row.equal and row.min_count == 0 for row in kleitman_report(4, 10**9))
    assert time.perf_counter() - start < 0.5
    # every such k returns the one k = n + 2 table, built once
    oracle._exact_table.cache_clear()
    assert oracle._exact_table(4, 10**9) is oracle._exact_table(4, 6)


def test_exact_minimum_is_monotone_in_size():
    for k in (2, 3, 4):
        values = [min_chain_count_exact(4, k, m).min_count for m in range(17)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_exact_minimum_dominates_bound():
    for k in (2, 3, 4):
        threshold = sigma(4, k - 1)
        for m in range(17):
            lower = supersat_bound(4, k, max(0, m - threshold))
            assert min_chain_count_exact(4, k, m).min_count >= lower


def test_exact_minimum_meets_bound_over_the_full_surplus_range():
    for n in range(1, 5):
        for k in range(2, n + 2):
            threshold = sigma(n, k - 1)
            for x in range((1 << n) - threshold + 1):
                found = min_chain_count_exact(n, k, threshold + x).min_count
                bound = supersat_bound(n, k, x)
                assert found >= bound, (n, k, x)
                if x <= tight_x_max(n, k):
                    assert found == bound, (n, k, x)


def test_exact_mode_rejects_large_n():
    with pytest.raises(ValueError):
        min_chain_count_exact(5, 2, 3)
    with pytest.raises(ValueError):
        min_chain_count_exact(4, 0, 3)
    with pytest.raises(ValueError):
        min_chain_count_exact(4, 2, 17)


def test_max_free_family_recovers_thresholds():
    assert max_free_family(4, 2)[0] == sigma(4, 1) == 6
    assert max_free_family(4, 3)[0] == sigma(4, 2) == 10
    assert max_free_family(2, 2)[0] == 2
    size, witness = max_free_family(4, 4)
    assert size == sigma(4, 3)
    assert count_k_chains(witness, 4) == 0


def test_centered_family_matches_extremal_construction():
    for n in range(1, 11):
        for k in range(2, n + 2):
            for x in range(tight_x_max(n, k) + 1):
                fam = centered_family(n, sigma(n, k - 1) + x)
                assert fam == build_extremal_family(n, k, x), (n, k, x)


def _middle_out(n):
    """Levels n//2, n//2 + 1, n//2 - 1, n//2 + 2, ..., listed independently
    of the library's block and row formulas."""
    return sorted(range(n + 1), key=lambda lvl: (abs(lvl - n // 2), lvl < n // 2))


def test_centered_family_shape_on_both_sides():
    # full rows: a prefix of the middle-out order; partial row: a colex
    # prefix on the next row, or with mirror_partial on the row past the
    # other end of the prefix (n - n//2 for an empty prefix) when it has room
    assert _middle_out(4) == [2, 3, 1, 4, 0]
    assert _middle_out(5) == [2, 3, 1, 4, 0, 5]
    for n in range(1, 9):
        order = _middle_out(n)
        for m in range((1 << n) + 1):
            for mirror in (False, True):
                fam = centered_family(n, m, mirror_partial=mirror)
                assert fam.size() == m
                by_level = [[] for _ in range(n + 1)]
                for w in fam.words():
                    by_level[w.bit_count()].append(w)
                filled = [sum(binom(n, lvl) for lvl in order[:j]) for j in range(n + 2)]
                j = max(j for j in range(n + 2) if filled[j] <= m)
                x = m - filled[j]
                full = order[:j]
                assert all(len(by_level[lvl]) == binom(n, lvl) for lvl in full), (n, m, mirror)
                rest = {lvl: ws for lvl, ws in enumerate(by_level) if ws and lvl not in full}
                if not x:
                    assert not rest, (n, m, mirror)
                    continue
                want = order[j]
                if mirror:
                    if not full:
                        other = n - want
                    elif want > max(full):
                        other = min(full) - 1
                    else:
                        other = max(full) + 1
                    if 0 <= other <= n and binom(n, other) >= x:
                        want = other
                assert rest == {want: list(level_words(n, want))[:x]}, (n, m, mirror)
                # the default row is marked up to one cut word; the per-word
                # path, fed the row's first x words, gives the same family
                words = islice(level_words(n, want), x)
                assert fam == _rows_family(n, middle_rows(n, j), words, want, x), (n, m, mirror)


def test_centered_family_sizes_and_extremes():
    for n in (3, 5, 8):
        assert centered_family(n, 0).size() == 0
        assert centered_family(n, 1 << n) == Family.full(n)
        for m in (1, 5, (1 << n) - 3):
            assert centered_family(n, m).size() == m


def test_mirror_partial_side():
    standard = centered_family(5, sigma(5, 1) + 2)
    mirrored = centered_family(5, sigma(5, 1) + 2, mirror_partial=True)
    levels_std = {w.bit_count() for w in standard.words()}
    levels_mir = {w.bit_count() for w in mirrored.words()}
    assert levels_std == {2, 3}
    assert levels_mir == {1, 2}
    assert standard.size() == mirrored.size()


def test_heuristic_trivial_sizes():
    empty = min_chain_count_heuristic(5, 2, 0, seed=3)
    assert empty.min_count == 0 and empty.witness.size() == 0
    full = min_chain_count_heuristic(4, 2, 16, seed=3)
    assert full.min_count == count_k_chains(Family.full(4), 2)
    assert not full.exact


def test_heuristic_threshold_plus_one_attains_bound():
    result = min_chain_count_heuristic(5, 2, sigma(5, 1) + 1, seed=1, iterations=10_000)
    assert result.min_count == supersat_bound(5, 2, 1) == 3
    assert result.witness.size() == sigma(5, 1) + 1
    assert count_k_chains(result.witness, 2) == result.min_count
    assert not result.exact


def test_heuristic_is_deterministic_per_seed():
    a = min_chain_count_heuristic(5, 3, 18, seed=9, iterations=400)
    b = min_chain_count_heuristic(5, 3, 18, seed=9, iterations=400)
    assert a == b


def test_heuristic_never_beats_exact():
    for k in (2, 3):
        for m in (5, 7, 10, 13):
            exact = min_chain_count_exact(4, k, m).min_count
            found = min_chain_count_heuristic(4, k, m, seed=5, iterations=300).min_count
            assert found >= exact


def test_heuristic_witness_recounts_and_never_beats_exact():
    for n in range(1, 5):
        for k in range(1, n + 3):
            for m in range((1 << n) + 1):
                result = min_chain_count_heuristic(n, k, m, seed=m, iterations=100)
                assert result.witness.size() == m, (n, k, m)
                assert result.min_count == count_k_chains_naive(result.witness, k), (n, k, m)
                assert result.min_count >= min_chain_count_exact(n, k, m).min_count, (n, k, m)


def test_heuristic_rejects_large_n():
    with pytest.raises(ValueError):
        min_chain_count_heuristic(11, 2, 10)


def test_searches_reject_negative_iterations():
    with pytest.raises(ValueError, match="^iterations must be nonnegative$"):
        min_chain_count_heuristic(4, 2, 7, iterations=-1)
    with pytest.raises(ValueError, match="^iterations must be nonnegative$"):
        kleitman_report(4, 2, iterations=-1)


def _level_ordered(n, m):
    """The first m subsets of [n] by size, then by word: the lowest rows filled first."""
    return Family.from_words(n, sorted(range(1 << n), key=lambda w: (w.bit_count(), w))[:m])


def test_anneal_improves_a_level_ordered_start(monkeypatch):
    # the other tests start every walk at the construction, which it never
    # beats; the rows 0..2 of [6] hold 51 two-chains, and 22 sets can hold as few as 8
    start = _level_ordered(6, 22)
    assert count_k_chains(start, 2) == 51
    count, fam = _anneal(2, start, 51, seed=0, iterations=2000)
    assert count == supersat_bound(6, 2, 2) == 8
    assert count == count_k_chains(fam, 2) and fam.size() == 22
    # 20 sets fit in an antichain, so the walk can reach 0 and stops there
    calls = []
    counter = oracle._count
    monkeypatch.setattr(oracle, "_count", lambda mask, k: calls.append(k) or counter(mask, k))
    start = _level_ordered(6, 20)
    assert count_k_chains(start, 2) == 45
    count, fam = _anneal(2, start, 45, seed=0, iterations=2000)
    assert count == 0 == count_k_chains(fam, 2) and fam.size() == 20
    assert 0 < len(calls) < 2000


def test_kleitman_report_pairs_all_sizes_equal():
    rows = kleitman_report(4, 2)
    assert len(rows) == 17
    assert all(row.equal for row in rows)
    assert all(row.exact for row in rows)


def test_kleitman_report_triples_within_verified_range():
    rows = kleitman_report(4, 3)
    threshold = sigma(4, 2)
    for row in rows:
        if row.size <= sigma(4, 3):
            assert row.min_count >= supersat_bound(4, 3, max(0, row.size - threshold))
            assert row.equal
        if threshold <= row.size <= sigma(4, 3):
            assert row.min_count == supersat_bound(4, 3, row.size - threshold)


def test_kleitman_report_below_threshold_is_zero():
    for k in (2, 3, 4):
        for row in kleitman_report(4, k):
            if row.size <= sigma(4, k - 1):
                assert row.min_count == 0


def test_kleitman_report_heuristic_rows():
    rows = kleitman_report(5, 2, seed=2, iterations=200)
    assert len(rows) == 33
    assert not any(row.exact for row in rows)
    threshold = sigma(5, 1)
    for row in rows:
        assert row.min_count <= row.construction_count
        if row.size <= sigma(5, 2):
            assert row.min_count >= supersat_bound(5, 2, max(0, row.size - threshold))
            assert row.equal


def test_kleitman_rows_never_beat_the_construction():
    # the centered construction is optimal at every size (Kleitman 1968 for
    # k = 2, Samotij 2019 in full), so a row below it is a bug in the counts
    # or in the construction; exact rows for n <= 4, annealed rows above
    for n in range(1, 5):
        for k in range(1, n + 3):
            assert all(row.equal for row in kleitman_report(n, k)), (n, k)
    for n in (5, 6):
        for k in (2, 3, 4):
            rows = kleitman_report(n, k, seed=7, iterations=100)
            assert not any(row.exact for row in rows)
            assert all(row.equal for row in rows), (n, k)


def test_kleitman_rows_match_the_public_functions():
    # each row reads the same construction and the same walk as the public
    # functions: annealed rows for n = 5, 6, exact rows for n <= 4
    for n in (5, 6):
        for k in (2, 3):
            for row in kleitman_report(n, k, seed=3, iterations=60):
                built = construction_count(n, k, row.size)
                found = min_chain_count_heuristic(n, k, row.size, seed=3, iterations=60).min_count
                assert row.construction_count == built, (n, k, row.size)
                assert row.min_count == (found if built else 0), (n, k, row.size)
                assert row.equal == (row.min_count == built), (n, k, row.size)
    for n in range(1, 5):
        for k in range(1, n + 3):
            for row in kleitman_report(n, k):
                assert row.min_count == min_chain_count_exact(n, k, row.size).min_count, (n, k, row.size)
                assert row.construction_count == construction_count(n, k, row.size), (n, k, row.size)


def test_construction_count_prefers_better_side():
    # the better side's count is always the default side's: the mirrored side
    # never counts lower.  A chain holds at most one set of the partial row,
    # so a side on row r counts N_k(block) + x * D(r), where D(r) counts the
    # (k - 1)-chains of the block that lie inside one set of row r, or that
    # contain it.  That is the count in the j levels just below the top of a
    # cube: of dimension hi + 1 for the row above the block, and n - lo + 1
    # for the row below, and it grows with the dimension.  The middle-out row
    # is always on the side with the smaller dimension, and a symmetric block
    # makes the two equal
    for n in range(1, 9):
        for k in range(1, 6):
            for m in range((1 << n) + 1):
                default = count_k_chains(centered_family(n, m), k)
                assert construction_count(n, k, m) == default, (n, k, m)
