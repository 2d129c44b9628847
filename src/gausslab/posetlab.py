"""Classical ranked posets and their exact verifications.

Covers the subset lattice (with exhaustive antichain search and the exact
LYM sum), the weak order on permutations ranked by inversions, set partitions
with Stirling counts, and Eulerian polynomials from the descent statistic.
Everything is enumerated exactly; completed posets are immutable and freely
shareable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import EnumerationBudgetExceeded, NotAnAntichain
from .polycore import IntPoly

Permutation = tuple[int, ...]
SetPartition = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RankedPoset:
    """Finite poset given by its cover relation plus a rank labelling.

    ``covers`` holds index pairs (i, j) meaning elements[j] covers
    elements[i]; the rank rises by exactly 1 across every cover.
    """

    elements: tuple
    covers: tuple[tuple[int, int], ...]
    ranks: tuple[int, ...]

    def rank_histogram(self) -> list[int]:
        """Element counts per rank value, from the minimum rank upward."""
        lo, hi = min(self.ranks), max(self.ranks)
        hist = [0] * (hi - lo + 1)
        for r in self.ranks:
            hist[r - lo] += 1
        return hist


# -- the subset lattice ---------------------------------------------------------


def mask_of(subset: Iterable[int], n: int) -> int:
    mask = 0
    for x in subset:
        if not 1 <= x <= n:
            raise ValueError(f"element {x} outside 1..{n}")
        mask |= 1 << (x - 1)
    return mask


def _comparable(s: int, t: int) -> bool:
    return s & t == s or s & t == t


# n = 5 has 7,581 antichains (0.06 s); n = 6 has 7,828,354 (122 s in CPython
# 3.11 on one x86-64 machine) and n = 7 about 2.4e12, so the search stops at 5.
ANTICHAIN_MAX_N = 5


def iter_antichains(n: int) -> Iterator[tuple[int, ...]]:
    """Every antichain of subsets of {1..n} (as mask tuples), empty one included.

    The count is Dedekind-sized, hence ``ANTICHAIN_MAX_N``.
    """
    if n > ANTICHAIN_MAX_N:
        raise EnumerationBudgetExceeded(
            f"antichain families for n = {n} exceed the cap {ANTICHAIN_MAX_N}"
        )
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
    """Exact sum of 1 / C(n, |A|) over a verified antichain of subsets of {1..n}."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    masks = sorted({mask_of(a, n) for a in antichain})
    for s, t in itertools.combinations(masks, 2):
        if _comparable(s, t):
            raise NotAnAntichain((_mask_set(s), _mask_set(t)))
    return sum(
        (Fraction(1, math.comb(n, m.bit_count())) for m in masks), Fraction(0)
    )


def _mask_set(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def full_layer(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-element subsets of {1..n} as sorted tuples."""
    return [tuple(c) for c in itertools.combinations(range(1, n + 1), k)]


# -- permutations and the weak order --------------------------------------------


def check_permutation(word: Sequence[int]) -> Permutation:
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {word}")
    return tuple(word)


def inv(word: Sequence[int]) -> int:
    """Number of out-of-order pairs i < j with word[i] > word[j]."""
    w = check_permutation(word)
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )


def des(word: Sequence[int]) -> int:
    """Number of positions i (1 <= i <= n-1) with word[i] > word[i+1]."""
    w = check_permutation(word)
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def weak_bruhat(n: int) -> RankedPoset:
    """All permutations of 1..n; covers swap an adjacent ascent; rank = inv."""
    if not 1 <= n <= 8:
        raise ValueError("need 1 <= n <= 8")
    elements = tuple(sorted(itertools.permutations(range(1, n + 1))))
    index = {w: i for i, w in enumerate(elements)}
    covers = []
    for i, w in enumerate(elements):
        for pos in range(n - 1):
            if w[pos] < w[pos + 1]:
                swapped = w[:pos] + (w[pos + 1], w[pos]) + w[pos + 2:]
                covers.append((i, index[swapped]))
    ranks = tuple(inv(w) for w in elements)
    return RankedPoset(elements, tuple(covers), ranks)


def inversion_polynomial(n: int) -> IntPoly:
    """Generating polynomial of inv over all permutations of 1..n."""
    if not 1 <= n <= 8:
        raise ValueError("need 1 <= n <= 8")
    counts = [0] * (n * (n - 1) // 2 + 1)
    for w in itertools.permutations(range(1, n + 1)):
        total = sum(
            1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j]
        )
        counts[total] += 1
    return IntPoly(counts)


# -- set partitions and Stirling numbers ----------------------------------------


def stirling_row(n: int) -> list[int]:
    """(S(n, 1), ..., S(n, n)) by the recurrence S(m,k) = k S(m-1,k) + S(m-1,k-1),
    one row of the triangle at a time."""
    if n < 1:
        raise ValueError("need n >= 1")
    row = [1]  # S(1, 1)
    for m in range(2, n + 1):
        row = [
            (j + 1) * (row[j] if j < len(row) else 0) + (row[j - 1] if j >= 1 else 0)
            for j in range(m)
        ]
    return row


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
