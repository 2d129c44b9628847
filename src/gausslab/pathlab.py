"""Lattice paths with unit steps and exact reflection across grid-invariant lines.

The reflectable lines are the four orientations whose orthogonal reflection
maps integer points to integer points: horizontal, vertical, and the two
diagonal slopes.  Reflection of a path keeps the prefix through the last
touch of the line and reflects the strict suffix.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from .errors import ParityViolation, PathMissesLine

Point = tuple[int, int]
LatticePath = tuple[Point, ...]


class LineOrientation(enum.Enum):
    HORIZONTAL = "horizontal"  # y = offset
    VERTICAL = "vertical"  # x = offset
    DIAG_UP = "diag-up"  # x - y = offset
    DIAG_DOWN = "diag-down"  # x + y = offset


@dataclass(frozen=True)
class GridLine:
    """One of the four grid-invariant line orientations with an integer offset."""

    orientation: LineOrientation
    offset: int

    def contains(self, v: Point) -> bool:
        x, y = v
        return {
            LineOrientation.HORIZONTAL: y == self.offset,
            LineOrientation.VERTICAL: x == self.offset,
            LineOrientation.DIAG_UP: x - y == self.offset,
            LineOrientation.DIAG_DOWN: x + y == self.offset,
        }[self.orientation]


def reflect_point(line: GridLine, v: Point) -> Point:
    """Orthogonal reflection; an involution fixing the line pointwise."""
    x, y = v
    c = line.offset
    if line.orientation is LineOrientation.HORIZONTAL:
        return (x, 2 * c - y)
    if line.orientation is LineOrientation.VERTICAL:
        return (2 * c - x, y)
    if line.orientation is LineOrientation.DIAG_UP:
        return (y + c, x - c)
    return (c - y, c - x)


def reflect_through_point(center: Point, v: Point) -> Point:
    """Central (180-degree) reflection through a point: 2 * center - v.

    This is a point symmetry, not a line reflection; it is exposed separately
    so both transforms can be compared on the record.
    """
    return (2 * center[0] - v[0], 2 * center[1] - v[1])


def reflect_path(line: GridLine, path: LatticePath) -> LatticePath:
    """Keep the prefix through the last touch of the line; reflect the rest."""
    touches = [k for k, v in enumerate(path) if line.contains(v)]
    if not touches:
        raise PathMissesLine(f"path never touches {line}")
    k0 = touches[-1]
    return path[: k0 + 1] + tuple(reflect_point(line, v) for v in path[k0 + 1 :])


def swap_bisector(p: Point, q: Point) -> GridLine:
    """Perpendicular bisector of pq for points differing by (1, -1) or (-1, 1).

    The line x - y = c runs through the midpoint of pq, so c is the mean of
    the endpoints' x - y; the two values differ by 2, so c is an integer.
    """
    dx, dy = q[0] - p[0], q[1] - p[1]
    if (dx, dy) not in ((1, -1), (-1, 1)):
        raise ValueError(f"endpoints must differ by (1, -1) or (-1, 1), got {(dx, dy)}")
    return GridLine(LineOrientation.DIAG_UP, (p[0] - p[1] + q[0] - q[1]) // 2)


# -- monotone paths and the level-raising reflection ------------------------------


def monotone_paths(n: int, k: int) -> list[LatticePath]:
    """All north/east paths of length n from (0, 0) to (k, n - k)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n > 14:
        raise ValueError("explicit enumeration is capped at n = 14")
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
    line: GridLine
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
    line = swap_bisector((k, n - k), (k + 1, n - k - 1))
    sources = monotone_paths(n, k)
    target = set(monotone_paths(n, k + 1))
    mapping = tuple((path, reflect_path(line, path)) for path in sources)
    images = {img for _, img in mapping}
    return MonotoneInjection(
        n,
        k,
        line,
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
    if n < 1 or n > 18:
        raise ValueError("need 1 <= n <= 18 for the dynamic-programming route")
    if (n - a - b) % 2:
        raise ParityViolation(f"n = {n} has the wrong parity for endpoint ({a},{b})")
    return _endpoint_counts(n).get((a, b), 0)


def count_free_closed_form(a: int, b: int, n: int) -> int:
    """C(n, (n+a-b)/2) * C(n, (n-a-b)/2), with C(n, m) = 0 outside 0 <= m <= n."""
    if (n - a - b) % 2:
        raise ParityViolation(f"n = {n} has the wrong parity for endpoint ({a},{b})")

    def safe_comb(n_: int, m: int) -> int:
        return math.comb(n_, m) if 0 <= m <= n_ else 0

    return safe_comb(n, (n + a - b) // 2) * safe_comb(n, (n - a - b) // 2)


# -- the unimodal binomial-product sequence -------------------------------------------


def sagan_sequence(n: int, k: int) -> list[int]:
    """(C(n, j) * C(n, k - j)) for j = 0..k; unimodal for all 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return [math.comb(n, j) * math.comb(n, k - j) for j in range(k + 1)]
