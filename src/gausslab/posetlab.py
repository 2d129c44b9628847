"""Classical ranked posets and their exact verifications.

Covers the subset lattice (with exhaustive antichain search and the exact
LYM sum), the weak order on permutations ranked by inversions, set partitions
with Stirling counts, and Eulerian polynomials from the descent statistic.
Everything is enumerated exactly; results are immutable and freely shareable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .polycore import IntPoly

SetPartition = tuple[tuple[int, ...], ...]


# -- the subset lattice ---------------------------------------------------------


def _comparable(s: int, t: int) -> bool:
    return s & t == s or s & t == t


def iter_antichains(n: int) -> Iterator[tuple[int, ...]]:
    """Every antichain of subsets of {1..n} (as mask tuples), empty one included:
    7,581 at n = 5, 7,828,354 at n = 6."""
    masks = list(range(1 << n))

    def rec(start: int, chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        yield chosen
        for idx in range(start, len(masks)):
            m = masks[idx]
            if all(not _comparable(m, c) for c in chosen):
                yield from rec(idx + 1, chosen + (m,))

    yield from rec(0, ())


@dataclass(frozen=True)
class SpernerSearch:
    """Result of the exhaustive antichain search on the subset lattice."""

    n: int
    max_size: int
    num_maximum: int
    total_antichains: int
    bound: int

    @property
    def bound_holds(self) -> bool:
        return self.max_size <= self.bound


def sperner_bound(n: int) -> int:
    """C(n, ceil(n/2)): the size of a middle layer of the subsets of {1..n}."""
    return math.comb(n, (n + 1) // 2)


def max_antichain(n: int) -> SpernerSearch:
    """Exhaustively verify the antichain bound C(n, ceil(n/2)) and count winners."""
    best = 0
    winners = 0
    total = 0
    for chain in iter_antichains(n):
        total += 1
        size = len(chain)
        if size > best:
            best, winners = size, 1
        elif size == best:
            winners += 1
    return SpernerSearch(n, best, winners, total, sperner_bound(n))


def lym_sum(antichain: Iterable[Iterable[int]], n: int) -> Fraction:
    """Exact sum of 1 / C(n, |A|) over a verified antichain of distinct subsets of {1..n}."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    subsets = [tuple(subset) for subset in antichain]
    outside = next((x for subset in subsets for x in subset if not 1 <= x <= n), None)
    if outside is not None:
        raise ValueError(f"element {outside} outside 1..{n}")
    repeated = next((subset for subset in subsets if len(set(subset)) < len(subset)), None)
    if repeated is not None:
        raise ValueError(f"subset {repeated} repeats an element")
    # Colex order, largest elements compared first, is the order of the subsets'
    # bitmasks; in it no subset comes after a proper subset of itself, and a
    # subset listed twice is the comparable pair A <= A.
    ordered = sorted(map(frozenset, subsets), key=lambda s: sorted(s, reverse=True))
    for s, t in itertools.combinations(ordered, 2):
        if s <= t:
            raise ValueError(f"comparable pair: {tuple(sorted(s))} <= {tuple(sorted(t))}")
    return sum((Fraction(1, math.comb(n, len(s))) for s in ordered), Fraction(0))


def full_layer(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-element subsets of {1..n} as sorted tuples."""
    return [tuple(c) for c in itertools.combinations(range(1, n + 1), k)]


# -- permutations and the weak order --------------------------------------------


def inv(word: Sequence[int]) -> int:
    """Number of out-of-order pairs i < j with word[i] > word[j], in any word."""
    return sum(
        1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j]
    )


def des(word: Sequence[int]) -> int:
    """Number of positions i (1 <= i <= n-1) with word[i] > word[i+1] in any word of length n."""
    return sum(1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def weak_order_covers(n: int) -> int:
    """Cover relations of the weak order on permutations of 1..n, n >= 1: one per
    adjacent ascent, and there are n! (n - 1) / 2 of them.  Complementing each
    entry (w_i -> n + 1 - w_i) is a bijection on permutations that swaps the
    ascents at each position with the descents, so each of the n - 1 positions is
    an ascent in exactly half of the n! permutations."""
    return math.factorial(n) * (n - 1) // 2


def inversion_polynomial(n: int) -> IntPoly:
    """Generating polynomial of inv over all permutations of 1..n."""
    if n < 1:
        raise ValueError("need n >= 1")
    counts = [0] * (n * (n - 1) // 2 + 1)
    for w in itertools.permutations(range(1, n + 1)):
        counts[inv(w)] += 1
    return IntPoly(counts)


# -- set partitions and Stirling numbers ----------------------------------------


def stirling_row(n: int) -> IntPoly:
    """sum_k S(n, k + 1) X^k, the row S(n, 1), ..., S(n, n) lowest first, by the
    recurrence S(m,k) = k S(m-1,k) + S(m-1,k-1), one row of the triangle at a time."""
    if n < 1:
        raise ValueError("need n >= 1")
    row = [1]  # S(1, 1)
    for m in range(2, n + 1):
        row = [
            (j + 1) * (row[j] if j < len(row) else 0) + (row[j - 1] if j >= 1 else 0)
            for j in range(m)
        ]
    return IntPoly(row)


def set_partitions(n: int) -> Iterator[SetPartition]:
    """Every partition of {1..n} in canonical form (blocks sorted by minimum),
    generated one at a time."""
    if n < 1:
        raise ValueError("need n >= 1")
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[SetPartition]:
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    return rec(1)


# -- Eulerian polynomials --------------------------------------------------------


def eulerian(n: int) -> IntPoly:
    """Generating polynomial of the descent statistic over permutations of 1..n,
    by the recurrence A(n, k) = (k + 1) A(n-1, k) + (n - k) A(n-1, k-1), row by row.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    row = [1]
    for m in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0)
            + (m - k) * (row[k - 1] if 1 <= k else 0)
            for k in range(m)
        ]
    return IntPoly(row)
