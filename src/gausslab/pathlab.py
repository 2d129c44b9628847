"""Lattice paths with unit steps and exact reflection across a diagonal line.

The level-raising injection on monotone paths reflects across one line,
x - y = c, the perpendicular bisector of two points that differ by (1, -1).
Its reflection (x, y) -> (y + c, x - c) maps integer points to integer points.
Reflection of a path keeps the prefix through the last touch of the line and
reflects the strict suffix.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

from .polycore import IntPoly

Point = tuple[int, int]
LatticePath = tuple[Point, ...]

def reflect_path(c: int, path: LatticePath) -> LatticePath:
    """Keep the prefix through the last vertex on x - y = c; send each later
    (x, y) to (y + c, x - c), its mirror image across that line.

    >>> reflect_path(0, ((0, 0), (1, 0), (2, 0)))
    ((0, 0), (0, 1), (0, 2))
    """
    last = max((i for i, (x, y) in enumerate(path) if x - y == c), default=None)
    if last is None:
        raise ValueError(f"path never touches the line x - y = {c}")
    return path[: last + 1] + tuple((y + c, x - c) for x, y in path[last + 1 :])


# -- monotone paths and the level-raising reflection ------------------------------


def monotone_paths(n: int, k: int) -> list[LatticePath]:
    """All north/east paths of length n from (0, 0) to (k, n - k)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    out = []
    for east_positions in combinations(range(n), k):
        east = set(east_positions)
        x = y = 0
        vertices = [(0, 0)]
        for step in range(n):
            if step in east:
                x += 1
            else:
                y += 1
            vertices.append((x, y))
        out.append(tuple(vertices))
    return out


@dataclass(frozen=True)
class MonotoneInjection:
    """Reflection map from level k to level k+1 with its verification data."""

    n: int
    k: int
    offset: int  # c of the reflection line x - y = c
    source_count: int
    image_count: int
    images_in_target: bool
    mapping: tuple[tuple[LatticePath, LatticePath], ...]

    @property
    def injective(self) -> bool:
        return self.image_count == self.source_count


def monotone_injection(n: int, k: int) -> MonotoneInjection:
    """Reflect every path to (k, n-k) across the bisector toward (k+1, n-k-1).

    Injectivity is verified by recomputing the image set and comparing
    cardinalities rather than assumed, so the certificate is meaningful even
    if the line choice were wrong.

    Defined for k up to (n-1)//2: that is every k below the middle, plus the
    symmetric middle pair when n is odd (where the map is a bijection).
    """
    if not 0 <= k <= (n - 1) // 2:
        raise ValueError("need 0 <= k <= (n-1)//2")
    # The mean of x - y over the endpoints (k, n-k) and (k+1, n-k-1).
    c = 2 * k - n + 1
    sources = monotone_paths(n, k)
    target = set(monotone_paths(n, k + 1))
    mapping = tuple((path, reflect_path(c, path)) for path in sources)
    images = {img for _, img in mapping}
    return MonotoneInjection(
        n,
        k,
        c,
        len(sources),
        len(images),
        all(img in target for img in images),
        mapping,
    )


# -- free four-step walks -----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _endpoint_counts(n: int) -> dict[Point, int]:
    dist: dict[Point, int] = {(0, 0): 1}
    for _ in range(n):
        nxt: dict[Point, int] = defaultdict(int)
        for (x, y), c in dist.items():
            nxt[(x + 1, y)] += c
            nxt[(x - 1, y)] += c
            nxt[(x, y + 1)] += c
            nxt[(x, y - 1)] += c
        dist = dict(nxt)
    return dist


def count_free(a: int, b: int, n: int) -> int:
    """Walks of exactly n unit steps (all four directions) from (0,0) to (a,b)."""
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    if n < 1:
        raise ValueError("need n >= 1")
    if (n - a - b) % 2:
        raise ValueError(f"n = {n} has the wrong parity for endpoint ({a},{b})")
    return _endpoint_counts(n).get((a, b), 0)


def count_free_closed_form(a: int, b: int, n: int) -> int:
    """C(n, (n+a-b)/2) * C(n, (n-a-b)/2), with C(n, m) = 0 outside 0 <= m <= n."""
    if (n - a - b) % 2:
        raise ValueError(f"n = {n} has the wrong parity for endpoint ({a},{b})")

    def safe_comb(n_: int, m: int) -> int:
        return math.comb(n_, m) if 0 <= m <= n_ else 0

    return safe_comb(n, (n + a - b) // 2) * safe_comb(n, (n - a - b) // 2)


# -- the unimodal binomial-product sequence -------------------------------------------


def sagan_sequence(n: int, k: int) -> IntPoly:
    """sum_j C(n, j) C(n, k - j) X^j over j = 0..k; unimodal for all 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return IntPoly(math.comb(n, j) * math.comb(n, k - j) for j in range(k + 1))
