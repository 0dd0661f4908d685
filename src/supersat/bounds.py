"""Closed-form supersaturation machinery: the forced-chain lower bound, its
tightness range, the permutation-count formulas N(n, a_1..a_k) in both
factorial and ratio form, the y/z products with their minimization, and the
extremal family construction that attains the bound."""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

from supersat.core import (
    Family,
    LevelInterval,
    _rows_family,
    binom,
    check_ground_set,
    check_word,
    sigma,
)

if TYPE_CHECKING:
    from supersat.scd import Decomposition

# selector(n, level, count) -> `count` distinct subset words on that level
Selector = Callable[[int, int, int], Iterable[int]]

# n! relabelings at most 7! = 5040
ENUMERATE_N_MAX = 7


def _check_nk(n: int, k: int) -> None:
    check_ground_set(n)
    if not 2 <= k <= n + 1:
        raise ValueError(f"k must be in [2, {n + 1}], got {k}")


def _check_levels(n: int, levels: Sequence[int]) -> tuple[int, ...]:
    check_ground_set(n)
    levels = tuple(levels)
    if not levels:
        raise ValueError("at least one level is required")
    if any(not 0 <= a <= n for a in levels):
        raise ValueError(f"levels must lie in [0, {n}]: {levels}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"levels must be strictly increasing: {levels}")
    return levels


def supersat_bound(n: int, k: int, x: int) -> int:
    """Least number of k-chains forced into a family whose size exceeds the
    largest k-chain-free size by x."""
    _check_nk(n, k)
    if x < 0:
        raise ValueError(f"surplus x must be nonnegative, got {x}")
    return x * min_max_yz(n, k)


def middle_rows(n: int, j: int) -> LevelInterval:
    """The first j rows of the middle-out order n//2, n//2 + 1, n//2 - 1,
    n//2 + 2, ...: one of the two `middle_levels` blocks of j rows, and the
    empty interval (lo = hi + 1) for j = 0.  `added_row_level(n, j + 1)`
    is the row that extends it to j + 1 rows."""
    check_ground_set(n)
    if not 0 <= j <= n + 1:
        raise ValueError(f"row count must be in [0, {n + 1}], got {j}")
    return LevelInterval(n // 2 - (j - 1) // 2, n // 2 + j // 2)


def added_row_level(n: int, k: int) -> int:
    """Level of the k-th middle row, the row the extremal construction fills:
    n//2 + k//2 for even k, n//2 - k//2 for odd k."""
    _check_nk(n, k)
    return n // 2 + (k // 2 if k % 2 == 0 else -(k // 2))


def tight_x_max(n: int, k: int) -> int:
    """Largest surplus for which the bound is attained: the size of the k-th
    middle row."""
    return binom(n, added_row_level(n, k))


def yz(n: int, levels: Sequence[int]) -> tuple[int, int]:
    """The two consecutive-binomial products for a level tuple.

    y multiplies C(a_{i+1}, a_i) and z multiplies C(n - a_i, n - a_{i+1});
    both depend only on the endpoints and the multiset of consecutive
    differences.
    """
    levels = _check_levels(n, levels)
    y = math.prod(binom(b, a) for a, b in zip(levels, levels[1:]))
    z = math.prod(binom(n - a, n - b) for a, b in zip(levels, levels[1:]))
    return y, z


def n_permutations_factorial(n: int, levels: Sequence[int]) -> int:
    """Permutations carrying some chain with these set sizes onto a single
    decomposition chain: the factorial product times the min-binomial factor."""
    levels = _check_levels(n, levels)
    value = math.factorial(levels[0]) * math.factorial(n - levels[-1])
    for a, b in zip(levels, levels[1:]):
        value *= math.factorial(b - a)
    return value * min(binom(n, levels[0]), binom(n, levels[-1]))


def n_permutations_ratio(n: int, levels: Sequence[int]) -> int:
    """Same count as n! / max{y, z}; agrees with the factorial form on every
    tuple."""
    levels = _check_levels(n, levels)
    y, z = yz(n, levels)
    quotient, remainder = divmod(math.factorial(n), max(y, z))
    if remainder:
        raise ArithmeticError(f"n!/max(y,z) is not integral for {levels}")
    return quotient


def check_enumerable(n: int) -> None:
    if n > ENUMERATE_N_MAX:
        raise ValueError(f"factorial enumeration is capped at n = {ENUMERATE_N_MAX}")


def n_permutations_enumerate(dec: Decomposition, chain: Sequence[int]) -> int:
    """Brute-force permutation count over all n! relabelings; n <= 7.

    Relabeling the chain instead of the decomposition visits the same
    permutation count, so one word -> first-chain table serves all n! checks.  A
    relabeling is the tuple of the n element bits' images, and each chain
    set's image is the image of the set below it plus the images of the
    elements it adds, so one relabeling costs one OR per element of the top
    set.  `Permutation.apply_to_word` is the per-word reference the tests
    compare against.
    """
    n = dec.n
    check_enumerable(n)
    chain = tuple(chain)
    if not chain:
        raise ValueError("empty chain")
    for w in chain:
        check_word(w, n)
    for a, b in zip(chain, chain[1:]):
        if a == b or (a & b) != a:
            raise ValueError("input sets must strictly increase under inclusion")
    added = [[i for i in range(n) if (w ^ below) >> i & 1] for below, w in zip((0,) + chain, chain)]
    from supersat.scd import _first_chains

    first = _first_chains(dec)
    count = 0
    for image in permutations([1 << i for i in range(n)]):
        out = 0
        target = None
        for elements in added:
            for i in elements:
                out |= image[i]
            idx = first[out]
            if target is None:
                target = idx
            elif idx != target:
                break
        else:
            count += 1
    return count


def binomial_identity_holds(a: int, i: int, j: int) -> bool:
    """C(a+i+j, a+i) * C(a+i, a) == C(a+i+j, a+j) * C(a+j, a)."""
    if min(a, i, j) < 0:
        raise ValueError("arguments must be nonnegative")
    return binom(a + i + j, a + i) * binom(a + i, a) == binom(a + i + j, a + j) * binom(a + j, a)


def min_max_yz(n: int, k: int) -> int:
    """Closed-form minimum of max{y, z} over every k-level tuple that does not
    contain both level 0 and level n: the falling product from (n+k)//2 of
    length k-1.  Tuples spanning the full 0..n range can dip below it, e.g.
    max{y, z} = 1 at (0, n)."""
    _check_nk(n, k)
    top = (n + k) // 2
    return math.prod(range(top - k + 2, top + 1))


def min_max_yz_minimizer(n: int, k: int) -> tuple[int, ...]:
    """The unit-difference tuple ending at (n+k)//2 that attains the minimum."""
    _check_nk(n, k)
    top = (n + k) // 2
    return tuple(range(top - k + 1, top + 1))


class MinMaxYZReport(NamedTuple):
    """Exhaustive audit of the max{y, z} minimization for one (n, k).

    The closed-form product is the minimum over every tuple avoiding the
    full 0..n span, attained at the unit-difference tuple ending at
    (n+k)//2; tuples containing both level 0 and level n can dip below it
    (both single-step reductions are blocked there), and `below_closed_form`
    lists every such dip.
    """

    n: int
    k: int
    closed_form: int
    predicted_minimizer: tuple[int, ...]
    predicted_attains: bool
    exhaustive_min: int
    exhaustive_argmin: tuple[int, ...]
    confirmed: bool
    span_free_min: Optional[int]
    span_free_confirmed: bool
    below_closed_form: tuple[tuple[int, ...], ...]


def min_max_yz_verification(n: int, k: int) -> MinMaxYZReport:
    """Exhaustively minimize max{y, z} and compare against the closed form."""
    _check_nk(n, k)
    closed = min_max_yz(n, k)
    predicted = min_max_yz_minimizer(n, k)
    exhaustive_min: Optional[int] = None
    exhaustive_argmin: tuple[int, ...] = ()
    span_free: Optional[int] = None
    below = []
    for levels in combinations(range(n + 1), k):
        value = max(yz(n, levels))
        if exhaustive_min is None or value < exhaustive_min:
            exhaustive_min, exhaustive_argmin = value, levels
        if levels[0] > 0 or levels[-1] < n:
            span_free = value if span_free is None else min(span_free, value)
        if value < closed:
            below.append(levels)
    assert exhaustive_min is not None
    # only k = n+1 leaves no span-free tuple, and there the single tuple matches
    return MinMaxYZReport(
        n=n,
        k=k,
        closed_form=closed,
        predicted_minimizer=predicted,
        predicted_attains=max(yz(n, predicted)) == closed,
        exhaustive_min=exhaustive_min,
        exhaustive_argmin=exhaustive_argmin,
        confirmed=exhaustive_min == closed,
        span_free_min=span_free,
        span_free_confirmed=span_free is None or span_free == closed,
        below_closed_form=tuple(below),
    )


def build_extremal_family(
    n: int, k: int, x: int, selector: Optional[Selector] = None
) -> Family:
    """The k-chain-free maximum family plus x sets on the adjacent middle row.

    The base is the first k-1 rows of the middle-out order (`middle_rows`)
    and the added row is the k-th, so the filled levels lie in one block of
    k middle rows.  `selector` picks the x sets on the added row (default:
    colexicographically smallest); any choice yields the same chain count.

    The row mask (`core._rows_family`) marks the default sets, the row's
    words up to its x-th, with no step per set.  It checks a selector's
    words one by one as they go into it and keeps none of them: a bad word
    raises as it arrives, and too few, too many or repeated words once the
    selector runs out.
    """
    _check_nk(n, k)
    limit = tight_x_max(n, k)
    if not 0 <= x <= limit:
        raise ValueError(f"x must be in [0, {limit}] for a tight construction, got {x}")
    row = added_row_level(n, k)
    words = selector(n, row, x) if selector is not None else None
    return _rows_family(n, middle_rows(n, k - 1), words, row, x)


class BoundReport(NamedTuple):
    """Everything the bound says about one (n, k, x) instance."""

    n: int
    k: int
    x: int
    sigma_threshold: int
    bound_value: int
    tight_x_max: int

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "x": self.x,
            "sigma": self.sigma_threshold,
            "bound": self.bound_value,
            "tight_x_max": self.tight_x_max,
        }


def bound_report(n: int, k: int, x: int) -> BoundReport:
    """The bound for a family of sigma(n, k-1) + x sets, which must fit in the
    2^n subsets of [n]."""
    _check_nk(n, k)
    threshold = sigma(n, k - 1)
    if x > (1 << n) - threshold:
        raise ValueError(f"x must be in [0, {(1 << n) - threshold}], got {x}")
    return BoundReport(
        n=n,
        k=k,
        x=x,
        sigma_threshold=threshold,
        bound_value=supersat_bound(n, k, x),
        tight_x_max=tight_x_max(n, k),
    )
