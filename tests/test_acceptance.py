"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated runtime budget.

Criterion 7 checks the sharp form of the y/z minimization: the closed-form
product is attained at the predicted minimizer, and every level tuple whose
max{y, z} falls below it contains both level 0 and level n.  The closed form
is not a lower bound over EVERY tuple: such full-span tuples escape both
single-step reductions, and already max{y, z} = 1 at (0, n).  A second
criterion-7 test checks that the bound still holds, exhaustively at n <= 4,
on the families that hold both the empty set and [n], where the proof's
averaging step falls short.
"""

import random
import time
from itertools import combinations

from supersat.core import Family, binom, sigma
from supersat.scd import scd_inductive, validate_scd
from supersat.counting import _pass_masks, _zeta, count_included_chains, count_k_chains, count_k_chains_naive
from supersat.bounds import (
    min_max_yz,
    min_max_yz_minimizer,
    n_permutations_enumerate,
    n_permutations_factorial,
    n_permutations_ratio,
    supersat_bound,
    tight_x_max,
    yz,
    binomial_identity_holds,
    build_extremal_family,
)
from supersat.oracle import kleitman_report, max_free_family, min_chain_count_exact


def announce(number: int, ok: bool, text: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} {text} ({elapsed:.1f}s)")


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


def test_criterion_01_tightness_pairs():
    start = time.monotonic()
    results = {x: min_chain_count_exact(4, 2, 6 + x).min_count for x in (1, 2, 3, 4)}
    ok = all(results[x] == supersat_bound(4, 2, x) == 3 * x for x in results)
    elapsed = time.monotonic() - start
    announce(1, ok and elapsed < 60, f"n=4 k=2 exact minima equal 3x for x=1..4: {results}", elapsed)
    assert ok, results
    assert elapsed < 60


def test_criterion_02_tightness_triples():
    start = time.monotonic()
    results = {x: min_chain_count_exact(4, 3, 10 + x).min_count for x in (1, 2, 3, 4)}
    ok = all(results[x] == supersat_bound(4, 3, x) == 6 * x for x in results)
    elapsed = time.monotonic() - start
    announce(2, ok and elapsed < 60, f"n=4 k=3 exact minima equal 6x for x=1..4: {results}", elapsed)
    assert ok, results
    assert elapsed < 60


def test_criterion_03_sperner_erdos_recovery():
    start = time.monotonic()
    sizes = {k: max_free_family(4, k)[0] for k in (2, 3, 4)}
    ok = all(sizes[k] == sigma(4, k - 1) for k in sizes)
    elapsed = time.monotonic() - start
    announce(3, ok, f"largest chain-free sizes at n=4: {sizes}", elapsed)
    assert ok, sizes


def test_criterion_04_permutation_count_triple_agreement():
    start = time.monotonic()
    rng = random.Random(404)
    mismatches = []
    for n in (4, 5, 6):
        dec = scd_inductive(n)
        for k in (1, 2, 3, 4):
            for _ in range(200):
                chain = random_chain(rng, n, k)
                levels = tuple(w.bit_count() for w in chain)
                values = {n_permutations_enumerate(dec, chain)}
                values.add(n_permutations_factorial(n, levels))
                values.add(n_permutations_ratio(n, levels))
                if len(values) != 1:
                    mismatches.append((n, chain, values))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 300
    announce(4, ok, "closed forms match brute force on 200 chains per (n, k)", elapsed)
    assert not mismatches, mismatches[:5]
    assert elapsed < 300


def test_criterion_05_scd_validity_through_n14():
    start = time.monotonic()
    failures = []
    for n in range(1, 15):
        dec = scd_inductive(n)
        report = validate_scd(dec)
        if not report.ok or len(dec.chains) != binom(n, n // 2):
            failures.append((n, report.problems))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30
    announce(5, ok, "the SCD passes every check for n <= 14", elapsed)
    assert not failures, failures
    assert elapsed < 30


def test_criterion_06_counting_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(606)
    mismatches = 0
    for _ in range(100):
        fam = Family.from_bits(6, rng.getrandbits(64))
        for k in (2, 3, 4):
            if count_k_chains(fam, k) != count_k_chains_naive(fam, k):
                mismatches += 1
    elapsed = time.monotonic() - start
    announce(6, mismatches == 0, "DP equals direct enumeration on 100 random families at n=6", elapsed)
    assert mismatches == 0


def test_criterion_07_yz_minimization_over_all_tuples():
    start = time.monotonic()
    misses = []
    off_span_dips = []
    full_span_dips = 0
    for n in range(1, 13):
        for k in range(2, min(5, n + 2)):
            target = min_max_yz(n, k)
            predicted = min_max_yz_minimizer(n, k)
            # the minimizer must attain the closed form, and off the single
            # full tuple of k = n + 1 it must avoid the 0..n span itself
            if max(yz(n, predicted)) != target or (
                k <= n and predicted[0] == 0 and predicted[-1] == n
            ):
                misses.append((n, k, predicted))
            for levels in combinations(range(n + 1), k):
                if max(yz(n, levels)) < target:
                    if levels[0] == 0 and levels[-1] == n:
                        full_span_dips += 1
                    else:
                        off_span_dips.append((n, k, levels))
    elapsed = time.monotonic() - start
    ok = not misses and not off_span_dips
    announce(
        7,
        ok,
        f"closed form is min max(y,z) over tuples avoiding the 0..n span, n <= 12, "
        f"k <= 4: {full_span_dips} dips below it span levels 0..n, "
        f"{len(off_span_dips)} do not",
        elapsed,
    )
    assert not misses, f"predicted minimizer misses the closed form: {misses[:8]}"
    assert not off_span_dips, (
        "tuples not containing both level 0 and level n fall below the closed "
        f"form: {off_span_dips[:8]} ..."
    )


def test_theorem_holds_on_families_holding_both_ends():
    # the averaging step proves less than x * Pi for a family with a k-chain
    # through both the empty set and [n], the full-span tuples of criterion
    # 07; over every family of B_n, n <= 4, that holds both, the least
    # count of each size sigma(n, k - 1) + x still meets the bound, with
    # equality only at k = n + 1, where the one full chain has Pi = n!
    start = time.monotonic()
    failures, least = [], {}
    for n in range(1, 5):
        size = 1 << n
        both = 1 | 1 << (size - 1)
        families = [f for f in range(1 << size) if f & both == both]
        for k in range(2, n + 2):
            # every family's k-chain count by one subset-zeta transform over
            # the word sets of the k-chains of B_n; none has over 255 of them
            marks = bytearray(1 << size)
            for chain in combinations(range(size), k):
                if all(a & b == a for a, b in zip(chain, chain[1:])):
                    marks[sum(1 << w for w in chain)] = 1
            counts = _zeta(int.from_bytes(marks, "little"), _pass_masks(size, 1)).to_bytes(1 << size, "little")
            threshold = sigma(n, k - 1)
            for f in families:
                x = f.bit_count() - threshold
                if 1 <= x <= tight_x_max(n, k):
                    least[n, k, x] = min(least.get((n, k, x), counts[f]), counts[f])
            for x in range(1, tight_x_max(n, k) + 1):
                bound = supersat_bound(n, k, x)
                if least[n, k, x] < bound or (least[n, k, x] == bound) != (k == n + 1):
                    failures.append((n, k, x, least[n, k, x], bound))
    elapsed = time.monotonic() - start
    announce(7, not failures, "bound holds on families holding both ends, n <= 4", elapsed)
    assert not failures, failures
    rows = {k: [least[4, k, x] for x in range(1, tight_x_max(4, k) + 1)] for k in range(2, 6)}
    assert rows == {2: [11, 13, 18, 23], 3: [27, 34, 53, 72], 4: [66], 5: [24]}


def test_criterion_08_binomial_identity_exhaustive():
    start = time.monotonic()
    ok = all(
        binomial_identity_holds(a, i, j)
        for a in range(21)
        for i in range(21 - a)
        for j in range(21 - a - i)
    )
    elapsed = time.monotonic() - start
    announce(8, ok, "binomial identity holds for all a+i+j <= 20", elapsed)
    assert ok


def test_criterion_09_extremal_construction_achieves_bound():
    start = time.monotonic()
    failures = []
    for n in range(1, 13):
        for k in range(2, min(5, n + 2)):
            for x in {0, 1, tight_x_max(n, k)}:
                fam = build_extremal_family(n, k, x)
                got = count_k_chains(fam, k)
                want = supersat_bound(n, k, x)
                if got != want or fam.size() != sigma(n, k - 1) + x:
                    failures.append((n, k, x, got, want))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    announce(9, ok, "extremal families attain the bound for n <= 12, k <= 4", elapsed)
    assert not failures, failures
    assert elapsed < 120


def test_criterion_10_kleitman_pairs_table():
    start = time.monotonic()
    rows = kleitman_report(4, 2)
    ok = len(rows) == 17 and all(row.equal for row in rows)
    elapsed = time.monotonic() - start
    announce(10, ok, "minimum equals centered construction in all 17 rows at n=4, k=2", elapsed)
    assert ok, [(row.size, row.min_count, row.construction_count) for row in rows]


def test_criterion_11_pigeonhole_inequality():
    start = time.monotonic()
    rng = random.Random(1111)
    violations = []
    decs = {n: scd_inductive(n) for n in range(2, 11)}
    for _ in range(500):
        n = rng.randint(2, 10)
        k = rng.randint(2, min(4, n + 1))
        threshold = sigma(n, k - 1)
        x = rng.randint(0, (1 << n) - threshold)
        fam = Family.from_words(n, rng.sample(range(1 << n), threshold + x))
        if count_included_chains(fam, decs[n], k) < x:
            violations.append((n, k, x))
    elapsed = time.monotonic() - start
    announce(11, not violations, "500 random families force x chains onto the SCD", elapsed)
    assert not violations, violations
