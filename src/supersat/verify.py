"""Self-check suites behind the `verify` CLI subcommand.  Each suite runs a
batch of module properties at desk scale and reports one Check per property."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations
from typing import NamedTuple

from supersat.core import Family, binom, sigma
from supersat.scd import (
    Permutation,
    _first_chains,
    bracketing_chain_of,
    permute_decomposition,
    scd_inductive,
    validate_scd,
)
from supersat.counting import (
    count_chains_with_min_endpoint,
    count_included_chains,
    count_k_chains,
    count_k_chains_naive,
)
from supersat.bounds import (
    binomial_identity_holds,
    build_extremal_family,
    min_max_yz_verification,
    n_permutations_enumerate,
    n_permutations_factorial,
    n_permutations_ratio,
    supersat_bound,
    tight_x_max,
    yz,
)


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _random_family(rng: random.Random, n: int, size: int | None = None) -> Family:
    space = 1 << n
    if size is None:
        return Family.from_bits(n, rng.getrandbits(space))
    return Family.from_words(n, rng.sample(range(space), size))


def _random_chain(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    levels = sorted(rng.sample(range(n + 1), k))
    word = 0
    pool = list(range(n))
    rng.shuffle(pool)
    taken = 0
    chain = []
    for lvl in levels:
        while taken < lvl:
            word |= 1 << pool[taken]
            taken += 1
        chain.append(word)
    return tuple(chain)


def scd_suite() -> list[Check]:
    """Deterministic: it draws nothing at random, so it takes no seed.
    There is one SCD, `scd_inductive`; `constructions_comparison` checks
    it against the bracket rule applied word by word.  Each decomposition
    is built once, and for n <= 4 mapped once by each permutation: the
    group action compares the image of an image with the image of the
    composite."""
    checks = []
    decs = {n: scd_inductive(n) for n in range(1, 9)}
    images = {
        p: permute_decomposition(decs[n], p)
        for n in range(1, 5)
        for p in map(Permutation, permutations(range(1, n + 1)))
    }

    bad = []
    for n, dec in decs.items():
        report = validate_scd(dec)
        if not report.ok:
            bad.append((n, report.problems))
    checks.append(
        Check(
            "inductive_valid_through_n8",
            not bad,
            f"failures: {bad}" if bad else "all n <= 8 pass every SCD property",
        )
    )

    census_ok = True
    detail = ""
    for n, dec in decs.items():
        seen = Counter(min(w.bit_count() for w in ch) for ch in dec.chains)
        for lvl, count in seen.items():
            if count != binom(n, lvl) - binom(n, lvl - 1):
                census_ok = False
                detail = f"n={n}, min level {lvl}: {count} chains"
    checks.append(Check("min_level_census", census_ok, detail))

    pair_ok = True
    detail = ""
    for n, dec in decs.items():
        for a in range(n + 1):
            for b in range(a, n - a + 1):
                hits = sum(
                    1
                    for ch in dec.chains
                    if any(w.bit_count() == a for w in ch) and any(w.bit_count() == b for w in ch)
                )
                want = min(binom(n, a), binom(n, b))
                if hits != want:
                    pair_ok = False
                    detail = f"n={n}, levels ({a},{b}): {hits} chains, expected {want}"
    checks.append(Check("level_pair_coverage", pair_ok, detail))

    action_ok = all(
        permute_decomposition(image, t) == images[t.compose(p)]
        for p, image in images.items()
        for t in images
        if t.n == p.n
    )
    checks.append(Check("permutation_group_action_n_le_4", action_ok))

    distinct_ok = True
    for n in (3, 4):
        chains = [image.chains for p, image in images.items() if p.n == n]
        if len(set(chains)) != len(chains):
            distinct_ok = False
    checks.append(Check("permuted_images_pairwise_distinct", distinct_ok))

    # the one construction against the bracket rule applied word by word
    compare_ok = True
    detail = "inductive and bracketing chains coincide for n in [1, 2, 3, 4, 5, 6, 7, 8]"
    for n, dec in decs.items():
        first = _first_chains(dec)
        for w in range(1 << n):
            want = bracketing_chain_of(n, w)
            if compare_ok and (w not in first or dec.chains[first[w]] != want):
                compare_ok, detail = False, f"n={n}, word {w}: not on its bracket chain {want}"
    checks.append(Check("constructions_comparison", compare_ok, detail))
    return checks


def counting_suite(seed: int = 2024) -> list[Check]:
    checks = []
    rng = random.Random(seed)

    mismatches = 0
    for _ in range(100):
        fam = _random_family(rng, 6)
        for k in (2, 3, 4):
            if count_k_chains(fam, k) != count_k_chains_naive(fam, k):
                mismatches += 1
    checks.append(
        Check(
            "dp_matches_naive_n6",
            mismatches == 0,
            f"{mismatches} mismatches over 100 random families, k in 2..4",
        )
    )

    included_ok = True
    pigeonhole_ok = True
    for _ in range(50):
        n = rng.randint(2, 8)
        k = rng.randint(1, min(4, n + 1))
        dec = scd_inductive(n)
        for _ in range(2):  # two random families per decomposition
            fam = _random_family(rng, n)
            if count_included_chains(fam, dec, k) > count_k_chains(fam, k):
                included_ok = False
            if k >= 2:
                x = rng.randint(0, (1 << n) - sigma(n, k - 1))
                sized = _random_family(rng, n, sigma(n, k - 1) + x)
                if count_included_chains(sized, dec, k) < x:
                    pigeonhole_ok = False
    checks.append(Check("included_chains_bounded_by_total", included_ok))
    checks.append(Check("pigeonhole_surplus_forced_onto_chains", pigeonhole_ok))

    endpoint_ok = True
    for _ in range(20):
        n = rng.randint(2, 6)
        k = rng.randint(1, 4)
        fam = _random_family(rng, n)
        total = sum(count_chains_with_min_endpoint(fam, k, w) for w in fam.words())
        if total != count_k_chains(fam, k):
            endpoint_ok = False
    checks.append(Check("min_endpoint_counts_sum_to_total", endpoint_ok))

    full_ok = True
    for n in range(1, 6):
        full = Family.full(n)
        for k in range(1, min(5, n + 2)):
            by_levels = 0
            for levels in combinations(range(n + 1), k):
                ways = binom(n, levels[0])
                for a, b in zip(levels, levels[1:]):
                    ways *= binom(n - a, b - a)
                by_levels += ways
            if not count_k_chains(full, k) == count_k_chains_naive(full, k) == by_levels:
                full_ok = False
    checks.append(Check("full_lattice_count_matches_level_formula", full_ok))
    return checks


def theorem_suite(seed: int = 2024) -> list[Check]:
    checks = []
    rng = random.Random(seed)

    agree_ok = True
    detail = ""
    for n in (4, 5):
        dec = scd_inductive(n)
        for k in range(1, 5):
            for _ in range(50):
                chain = _random_chain(rng, n, k)
                levels = tuple(w.bit_count() for w in chain)
                enumerated = {n_permutations_enumerate(dec, chain)}
                closed = {n_permutations_factorial(n, levels), n_permutations_ratio(n, levels)}
                if len(enumerated | closed) != 1:
                    agree_ok = False
                    detail = f"n={n}, chain {chain}: enumerated {enumerated}, closed {closed}"
    checks.append(Check("permutation_count_forms_agree", agree_ok, detail))

    ident_ok = all(
        binomial_identity_holds(a, i, j)
        for a in range(21)
        for i in range(21 - a)
        for j in range(21 - a - i)
    )
    checks.append(Check("binomial_identity_exhaustive_to_20", ident_ok))

    invar_ok = True
    for n in range(2, 9):
        groups: dict[tuple, tuple[int, int]] = {}
        for k in range(2, 5):
            for levels in combinations(range(n + 1), k):
                diffs = tuple(sorted(b - a for a, b in zip(levels, levels[1:])))
                key = (levels[0], diffs)
                value = yz(n, levels)
                if groups.setdefault(key, value) != value:
                    invar_ok = False
    checks.append(Check("yz_invariant_under_difference_reordering", invar_ok))

    minmax_ok = True
    detail = (
        "closed form is the minimum over tuples avoiding the full 0..n span, "
        "attained at the predicted minimizer; only full-span tuples dip below"
    )
    for n in range(1, 11):
        for k in range(2, min(5, n + 2)):
            report = min_max_yz_verification(n, k)
            sharp = report.predicted_attains and report.span_free_confirmed
            sharp = sharp and all(
                t[0] == 0 and t[-1] == n for t in report.below_closed_form
            )
            if not sharp:
                minmax_ok = False
                detail = f"n={n}, k={k}: {report}"
    checks.append(Check("min_max_yz_closed_form_sharp_off_full_span", minmax_ok, detail))

    reduce_ok = True
    for n in range(2, 9):
        for k in range(2, 5):
            for levels in combinations(range(n + 1), k):
                diffs = sorted(b - a for a, b in zip(levels, levels[1:]))
                if diffs[-1] < 2:
                    continue
                last_big = [levels[0]]
                for d in diffs:
                    last_big.append(last_big[-1] + d)
                if last_big[-2] > 0:
                    reduced = tuple(last_big[:-1]) + (last_big[-2] + 1,)
                    if yz(n, reduced)[0] >= yz(n, last_big)[0]:
                        reduce_ok = False
                first_big = [levels[0]]
                for d in reversed(diffs):
                    first_big.append(first_big[-1] + d)
                if first_big[1] < n:
                    raised = (first_big[1] - 1,) + tuple(first_big[1:])
                    if yz(n, raised)[1] >= yz(n, first_big)[1]:
                        reduce_ok = False
    checks.append(Check("large_difference_reduction_strictly_decreases", reduce_ok))

    extremal_ok = True
    detail = ""
    for n in range(1, 11):
        for k in range(2, min(5, n + 2)):
            for x in {0, 1, tight_x_max(n, k)}:
                fam = build_extremal_family(n, k, x)
                want = supersat_bound(n, k, x)
                if fam.size() != sigma(n, k - 1) + x or count_k_chains(fam, k) != want:
                    extremal_ok = False
                    detail = f"n={n}, k={k}, x={x}"
    checks.append(Check("extremal_family_attains_bound", extremal_ok, detail))

    selector_ok = True
    for n, k in ((6, 2), (7, 3), (8, 4)):
        x = min(3, tight_x_max(n, k))

        def scattered(gs: int, lvl: int, count: int, _rng=rng):
            from supersat.core import level_words

            words = list(level_words(gs, lvl))
            return _rng.sample(words, count)

        default = count_k_chains(build_extremal_family(n, k, x), k)
        chosen = count_k_chains(build_extremal_family(n, k, x, selector=scattered), k)
        if default != chosen:
            selector_ok = False
    checks.append(Check("extremal_count_independent_of_selector", selector_ok))
    return checks


SUITES = {
    "scd": lambda seed: scd_suite(),
    "counting": counting_suite,
    "theorem": theorem_suite,
}


def run_suite(name: str, seed: int = 2024) -> list[Check]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed=seed)
