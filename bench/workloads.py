"""Seeded inputs for the three workloads.

Every op is a gausslab command line plus the facts its checker needs.  The
same seed gives the same op list.  The lists are stratified: each seed draws
the boxes and polynomials of a round around fixed centres, in antithetic
pairs (centre + d and centre - d), so that the cost of a round barely depends
on the seed while the inputs themselves do.
"""

from __future__ import annotations

import json
import math
import random

REPORT_ARGV = ["report", "--amax", "8", "--bmax", "8"]

# (method, centre a, centre b, jitter in a, jitter in b, pairs): that many
# antithetic pairs of boxes each.  The cheap strata get two pairs, so that
# the ops around the median cost are many and close together; enumeration
# grows like C(a+b, a), so its boxes move along b only.
GAUSS_STRATA = (
    ("quotient", 35, 34, 1, 1, 1),
    ("quotient", 30, 29, 1, 1, 1),
    ("quotient", 25, 24, 1, 1, 1),
    ("quotient", 21, 20, 1, 1, 1),
    ("quotient", 17, 16, 1, 1, 2),
    ("quotient", 13, 12, 1, 1, 2),
    ("quotient", 9, 9, 1, 1, 2),
    ("quotient", 6, 6, 1, 1, 2),
    ("pascal", 36, 35, 2, 2, 1),
    ("pascal", 31, 30, 2, 2, 1),
    ("pascal", 26, 25, 2, 2, 1),
    ("pascal", 21, 20, 1, 1, 2),
    ("pascal", 16, 15, 1, 1, 2),
    ("pascal", 11, 10, 1, 1, 2),
    ("pascal", 7, 7, 1, 1, 2),
    ("koh", 5, 6, 1, 1, 2),
    ("koh", 7, 8, 1, 1, 2),
    ("koh", 9, 9, 1, 1, 2),
    ("koh", 10, 11, 1, 1, 2),
    ("koh", 12, 12, 1, 1, 2),
    ("enum", 3, 10, 0, 1, 2),
    ("enum", 4, 7, 0, 1, 2),
    ("enum", 5, 6, 0, 1, 2),
    ("enum", 6, 6, 0, 1, 2),
    ("enum", 6, 7, 0, 1, 2),
)
# The largest q-Pascal box comes once per round, so the memo ends every round
# at the same size whatever the seed.
PASCAL_ANCHOR = (40, 40)
# Methods whose queries are repeated once per round, after their original.
REPEATED_METHODS = ("pascal", "koh", "enum")

# (family, centre degree, jitter): one antithetic pair each, so a round
# holds many cheap ops of nearby cost around its median.  The Sturm count on
# Eulerian polynomials costs about 1.4 times more per extra degree near 20,
# so their jitter is the smallest.
CERTIFY_PAIRS = (
    *(("eulerian_cmd", d, 1) for d in (11, 14, 17, 20)),
    *(("eulerian_list", d, 1) for d in (10, 13, 16, 19)),
    *(("linear", d, 1) for d in (10, 13, 16, 19, 22, 24)),
    *(("linear_quadratic", d, 1) for d in (10, 13, 16, 19, 22, 24)),
    *(("gaussian", d, 1) for d in (10, 13, 16, 19, 22, 24)),
)


def _pair(rng: random.Random, centre: int, jitter: int) -> tuple[int, int]:
    d = rng.randint(-jitter, jitter)
    return centre + d, centre - d


def _merge(rng: random.Random, first: list, second: list) -> list:
    """A seeded interleaving of two lists that keeps the order within each."""
    slots = set(rng.sample(range(len(first) + len(second)), len(second)))
    a, b = iter(first), iter(second)
    return [next(b) if i in slots else next(a) for i in range(len(first) + len(second))]


def _repeat(rng: random.Random, ops: list[dict], methods) -> list[dict]:
    """For each method named, ask one of its queries again later in the list."""
    for method in methods:
        index = rng.choice([i for i, op in enumerate(ops) if op["method"] == method])
        position = rng.randint(index + 1, len(ops))
        ops.insert(position, dict(ops[index]))
    return ops


def gauss_ops(seed: int) -> list[dict]:
    """Seeded gauss queries; the q-Pascal memo grows in the first half, is hit in the second.

    One box of each pascal pair goes before the (40, 40) anchor, in
    ascending area, so each of them extends the memo; the other goes after
    it and is served from the memo.  Where the anchor sits is fixed, so the
    share of pascal work that is filling rather than reading does not depend
    on the seed.  The other routes are shuffled freely around them.
    """
    rng = random.Random(seed)
    others, grow, hit = [], [], []
    for method, ca, cb, ja, jb, pairs in GAUSS_STRATA:
        for _ in range(pairs):
            da, db = rng.randint(-ja, ja), rng.randint(-jb, jb)
            # Both boxes of a pair share one orientation: the routes' costs
            # are not symmetric in (a, b), and the pair must cancel to first
            # order.
            flip = rng.random() < 0.5
            pair = [
                {"method": method, "a": b if flip else a, "b": a if flip else b}
                for a, b in ((ca + da, cb + db), (ca - da, cb - db))
            ]
            if method != "pascal":
                others += pair
                continue
            rng.shuffle(pair)
            grow.append(pair[0])
            hit.append(pair[1])
    grow.sort(key=lambda op: op["a"] * op["b"])
    rng.shuffle(others)
    rng.shuffle(hit)
    half = len(others) // 2
    anchor = {"method": "pascal", "a": PASCAL_ANCHOR[0], "b": PASCAL_ANCHOR[1]}
    ops = _merge(rng, others[:half], grow) + [anchor] + _merge(rng, others[half:], hit)
    ops = _repeat(rng, ops, REPEATED_METHODS)
    for op in ops:
        op["kind"] = "gauss"
        op["argv"] = ["gauss", str(op["a"]), str(op["b"]), "--method", op["method"]]
    return ops


def pascal_memo_hit_share(ops: list[dict]) -> float:
    """Share of pascal-route queries whose box an earlier pascal query covered.

    The q-Pascal memo fills every (a', b') <= (a, b), so a query hits when an
    earlier pascal query had both sides at least as large.  Fills made by the
    koh route are not counted, so this is a lower bound on the hits.
    """
    seen: list[tuple[int, int]] = []
    hits = total = 0
    for op in ops:
        if op["method"] != "pascal":
            continue
        total += 1
        a, b = op["a"], op["b"]
        hits += any(a <= x and b <= y for x, y in seen)
        seen.append((a, b))
    return hits / total


# -- certify inputs -------------------------------------------------------------


def eulerian_row(n: int) -> list[int]:
    """A(n, k) by the closed form sum_j (-1)^j C(n+1, j) (k+1-j)^n."""
    return [
        sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 2))
        for k in range(n)
    ]


def poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        for j, d in enumerate(g):
            out[i + j] += c * d
    return out


def gaussian_coeffs(a: int, b: int) -> list[int]:
    """G(a, b) = prod_{i<=b} (1 - X^(a+i)) / (1 - X^i) with sparse steps.

    Multiplying by 1 - X^m subtracts a shifted copy; dividing by 1 - X^m is a
    running sum with stride m.  Every intermediate value is a polynomial.
    """
    f = [1] + [0] * (a * b + b)
    deg = 0
    for i in range(1, b + 1):
        m = a + i
        for k in range(deg + m, m - 1, -1):
            f[k] -= f[k - m]
        deg += a
        for k in range(i, deg + i + 1):
            f[k] += f[k - i]
    if any(f[a * b + 1:]):
        raise ArithmeticError(f"inexact division building G({a}, {b})")
    return f[: a * b + 1]


def _linear_roots(rng: random.Random, degree: int) -> list[tuple[int, int]]:
    """Distinct roots -r (r in 1..24) with multiplicities summing to degree.

    About two thirds of the degree goes to simple roots and the rest to
    repeats, so the square-free reduction has work to do.
    """
    distinct = max(2, (2 * degree) // 3)
    roots = rng.sample(range(1, 25), distinct)
    mult = [1] * distinct
    for _ in range(degree - distinct):
        mult[rng.randrange(distinct)] += 1
    return list(zip(roots, mult))


def _linear_product(roots: list[tuple[int, int]]) -> list[int]:
    f = [1]
    for r, m in roots:
        for _ in range(m):
            f = poly_mul(f, [r, 1])
    return f


def _gaussian_box(rng: random.Random, area: int) -> tuple[int, int]:
    """A box with both sides >= 2 and area close to ``area``, in either orientation."""
    shapes = sorted(
        {(a, max(a, round(area / a))) for a in range(2, math.isqrt(area) + 1)}
    )
    a, b = rng.choice(shapes)
    return (a, b) if rng.random() < 0.5 else (b, a)


def certify_ops(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for family, centre, jitter in CERTIFY_PAIRS:
        for degree in _pair(rng, centre, jitter):
            if family == "eulerian_cmd":
                n = degree + 1
                ops.append({"kind": "eulerian", "n": n, "argv": ["eulerian", str(n)]})
                continue
            if family == "eulerian_list":
                coeffs, real_rooted = eulerian_row(degree + 1), True
            elif family == "linear":
                coeffs, real_rooted = _linear_product(_linear_roots(rng, degree)), True
            elif family == "linear_quadratic":
                linear = _linear_product(_linear_roots(rng, degree - 2))
                p = rng.randint(0, 4)
                q = rng.randint(p * p // 4 + 1, p * p // 4 + 6)
                # p^2 < 4q: the quadratic factor has no real root.
                coeffs, real_rooted = poly_mul(linear, [q, p, 1]), False
            else:
                # Roots of G(a, b) are roots of unity other than 1, and a box
                # of area >= 2 has one that is not -1 either.
                coeffs, real_rooted = gaussian_coeffs(*_gaussian_box(rng, degree)), False
            argv = ["check", json.dumps([str(c) for c in coeffs])]
            ops.append({"kind": "check", "family": family, "real_rooted": real_rooted,
                        "coeffs": coeffs, "argv": argv})
    rng.shuffle(ops)
    return ops


def report_ops(seed: int) -> list[dict]:
    """The report is the same certificate for every seed."""
    return [{"kind": "report", "argv": list(REPORT_ARGV)}]


OPS = {"report": report_ops, "gauss": gauss_ops, "certify": certify_ops}
