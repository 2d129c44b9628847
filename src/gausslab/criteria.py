"""The acceptance checks that ``report`` also certifies, each written once.

Each function returns the verdict, so the acceptance suite and ``gausslab
report`` run the same check.  A check that both run over a range takes the
range as a parameter; a check with fixed inputs (the 6x6 calibration range,
the weight families) owns them.  ``shape_checks`` reads the one table of shape
tests for ``check`` and ``eulerian``, and ``holds`` is every verdict over fields.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from . import pathlab, polycore, posetlab, qgauss
from .injectlab import AuditReport, WitnessCheck
from .polycore import IntPoly


def holds(fields: Mapping) -> bool:
    """True when no value is False, tested by identity: a mode of 0 decides nothing."""
    return not any(value is False for value in fields.values())


def _gamma_fields(f: IntPoly) -> dict:
    gammas = polycore.gamma_decompose(f)
    return {
        "gamma": None if gammas is None else [str(g) for g in gammas],
        "gamma_nonnegative": gammas is not None and min(gammas) >= 0,
    }


# Each shape test of a nonzero polynomial, by the name of its ``check`` flag, and
# the JSON fields it decides.  The polycore tests are looked up at call time.
SHAPE_TESTS = {
    "unimodal": lambda f: {"unimodal": polycore.is_unimodal(f), "mode": polycore.mode(f)},
    "log_concave": lambda f: {"log_concave": polycore.is_log_concave(f)},
    "palindromic": lambda f: {"palindromic": polycore.is_palindromic(f)},
    "gamma": _gamma_fields,
    "real_rooted": lambda f: {"real_rooted": polycore.is_real_rooted(f)},
}


def shape_checks(f: IntPoly, names: Iterable[str]) -> dict:
    """The fields of the ``SHAPE_TESTS`` entries ``names`` on f."""
    return {key: value for name in names for key, value in SHAPE_TESTS[name](f).items()}


def g22_shape_holds() -> bool:
    """G(2, 2) = 1 + X + 2X^2 + X^3 + X^4 is unimodal and palindromic but not
    log-concave, so unimodality cannot be had from log-concavity alone."""
    g = qgauss.gaussian_quotient(2, 2)
    shape = shape_checks(g, ("unimodal", "log_concave", "palindromic"))
    want = {"unimodal": True, "mode": 2, "log_concave": False, "palindromic": True}
    return g.coeffs == (1, 1, 2, 1, 1) and shape == want


def shift_identity_holds(f: IntPoly) -> bool:
    """The Boros-Moll shift test on f of degree n with nonnegative nondecreasing
    coefficients a_k: the weights w_k = a_k - a_(k-1) are nonnegative,
    X f(X+1) = sum_k w_k P_(n,k)(X) exactly, and f(X+1) is unimodal.

    False, not an error, when the coefficients are negative or decrease.
    """
    weights = polycore.decompose_shift(f)
    if weights is None:
        return False
    shifted = polycore.shift_by_one(f)
    total = IntPoly.zero()
    for k, w in enumerate(weights):
        total = total + polycore.boros_moll_P(f.degree, k) * w
    return shifted.shift(1) == total and polycore.is_unimodal(shifted)


# The weights w(j, m) of four families that are nonnegative and nondecreasing
# in j <= m: 3^j, j^4, j^j (0^0 = 1) and C(3m, j) C(5m, j)^2.
WEIGHT_FAMILIES = (
    lambda j, m: 3**j,
    lambda j, m: j**4,
    lambda j, m: j**j,
    lambda j, m: math.comb(3 * m, j) * math.comb(5 * m, j) ** 2,
)


def weight_families_shift_hold(mmax: int) -> bool:
    """``shift_identity_holds`` for f = sum_(j<=m) w(j, m) X^j of each of the
    ``WEIGHT_FAMILIES`` at m = 1..mmax."""
    return all(
        shift_identity_holds(IntPoly(w(j, m) for j in range(m + 1)))
        for m in range(1, mmax + 1)
        for w in WEIGHT_FAMILIES
    )


def gaussian_grid(amax: int, bmax: int) -> list[dict]:
    """One cell per box 1 <= a <= amax, 1 <= b <= bmax, row by row: route
    agreement and shape."""
    grid = []
    for a in range(1, amax + 1):
        for b in range(1, bmax + 1):
            quotient = qgauss.gaussian_quotient(a, b)
            pascal = qgauss.gaussian_pascal(a, b)
            enum_counts = qgauss.level_counts(a, b)
            koh_cal, _ = qgauss.koh_sum(a, b, qgauss.KOH_RULES["calibrated"])
            koh_stated, _ = qgauss.koh_sum(a, b, qgauss.KOH_RULES["stated"])
            grid.append(
                {
                    "a": a,
                    "b": b,
                    "four_way_agreement": quotient == pascal == enum_counts == koh_cal,
                    "stated_rule_agrees": koh_stated == quotient,
                    "unimodal": polycore.is_unimodal(quotient),
                    "darga": polycore.darga(quotient),
                    "darga_palindromic": polycore.is_palindromic(quotient),
                }
            )
    return grid


def gaussian_grid_holds(grid: list[dict]) -> bool:
    """All four routes agree, G(a,b) is unimodal and symmetric about its darga ab,
    and the printed argument rule reproduces G(a,b) exactly on the diagonal a == b."""
    return all(
        cell["four_way_agreement"]
        and cell["unimodal"]
        and cell["darga"] == cell["a"] * cell["b"]
        and cell["darga_palindromic"]
        and cell["stated_rule_agrees"] == (cell["a"] == cell["b"])
        for cell in grid
    )


def calibration_holds() -> bool:
    """On every box up to 6x6, the ``calibrated`` KOH rule reproduces the
    enumeration and the minimal edit of the printed rule does not (it fails
    somewhere)."""
    oracle = {(a, b): qgauss.level_counts(a, b) for a in range(1, 7) for b in range(1, 7)}

    def matches(formula: qgauss.ArgumentFormula) -> bool:
        return all(
            qgauss.koh_sum(a, b, formula)[0] == level_counts
            for (a, b), level_counts in oracle.items()
        )

    return not matches(qgauss.minimal_edit_argument) and matches(qgauss.KOH_RULES["calibrated"])


def _expected_verdict(rule: str, a: int, b: int) -> str:
    both_sides_two = a >= 2 and b >= 2
    middle = (a * b) // 2
    if rule == "MaxWt":
        if both_sides_two:
            return "Confirmed"
        # With a side of 1 the claimed input has one candidate, so the rule is
        # defined there; the claim at k = 1 applies only below the middle.
        return "NotAFailure" if 1 < middle else "NotApplicable"
    if rule == "MinBaseValue":
        # The documented pair maps to distinct images: not a failure.
        applicable, verdict = a >= 3 and b >= 2 and b < middle, "NotAFailure"
    else:
        # The fill rules' pair collides at 2b-2 (2a-2 for the transpose).
        side = b if rule == "ColumnFill" else a
        applicable, verdict = both_sides_two and 2 * side - 2 < middle, "Confirmed"
    return verdict if applicable else "NotApplicable"


def injections_hold(audits: list[AuditReport], claims: list[WitnessCheck]) -> bool:
    """The max-statistic rule ties at k = 1 on (1, 0, ..., 0) in every box with
    both sides >= 2, and every documented claim gets its expected verdict."""
    ties = all(
        (r.outcome, r.k, r.witnesses) == ("Undefined", 1, ((1,) + (0,) * (r.a - 1),))
        for r in audits
        if r.rule == "MaxWt" and min(r.a, r.b) >= 2
    )
    return ties and all(c.verdict == _expected_verdict(c.rule, c.a, c.b) for c in claims)


def sperner_holds(search: posetlab.SpernerSearch) -> bool:
    """The largest antichain of subsets of {1..n} has C(n, ceil(n/2)) members and
    is unique for even n (the middle layer); odd n has two middle layers."""
    middle_layers = 1 if search.n % 2 == 0 else 2
    return search.max_size == search.bound and search.num_maximum == middle_layers


def lym_holds(n: int) -> bool:
    """Every antichain of subsets of {1..n} has LYM sum <= 1, with equality exactly
    on the full layers, the middle one included."""
    layers = {frozenset(posetlab.full_layer(n, k)) for k in range(n + 1)}
    middle = frozenset(posetlab.full_layer(n, n // 2))
    seen_middle_tight = False
    for masks in posetlab.iter_antichains(n):
        family = [tuple(i + 1 for i in range(n) if m >> i & 1) for m in masks]
        total = posetlab.lym_sum(family, n)
        as_sets = frozenset(family)
        if total > 1 or (total == 1) != (as_sets in layers):
            return False
        seen_middle_tight = seen_middle_tight or as_sets == middle
    return seen_middle_tight


def inversions_hold(nmax: int) -> bool:
    """The inversion generating function of S_n is the q-factorial, n = 1..nmax."""
    return all(
        posetlab.inversion_polynomial(n) == qgauss.q_factorial(n) for n in range(1, nmax + 1)
    )


def stirling_rows_hold(nmax: int) -> bool:
    """Each row S(n, 1..n), n = 1..nmax, is unimodal and counts the set partitions
    of {1..n} by their number of blocks."""
    for n in range(1, nmax + 1):
        row = posetlab.stirling_row(n)
        counts = [0] * n
        for p in posetlab.set_partitions(n):
            counts[len(p) - 1] += 1
        if not polycore.is_unimodal(row) or row.coeffs != tuple(counts):
            return False
    return True


def eulerian_checks(poly: IntPoly) -> dict:
    """Every ``shape_checks`` field of A_n, the row of degree n - 1, and whether
    its coefficients sum to n!."""
    return {
        **shape_checks(poly, SHAPE_TESTS),
        "coefficient_sum_is_factorial": poly.evaluate(1) == math.factorial(poly.degree + 1),
    }


def eulerian_suite_holds(nmax: int) -> bool:
    """Every certificate of ``eulerian_checks`` holds for A_n, n = 1..nmax."""
    return all(holds(eulerian_checks(posetlab.eulerian(n))) for n in range(1, nmax + 1))


def free_walk_counts(a: int, b: int, steps: int) -> tuple[int, int]:
    """The walk count to (a, b) in ``steps`` steps by the DP and by the closed form."""
    return pathlab.count_free(a, b, steps), pathlab.count_free_closed_form(a, b, steps)


def free_walks_hold(side: int, nmax: int) -> bool:
    """The two walk counts agree for endpoints 1 <= a, b <= side and every step
    count 1..nmax of the endpoint's parity."""
    counts = (
        free_walk_counts(a, b, steps)
        for a in range(1, side + 1)
        for b in range(1, side + 1)
        for steps in range(1, nmax + 1)
        if (steps - a - b) % 2 == 0
    )
    return all(dp == closed for dp, closed in counts)


def monotone_injection_holds(cert: pathlab.MonotoneInjection) -> bool:
    """The reflection maps all C(n, k) paths of level k injectively into level k+1."""
    return (
        cert.injective
        and cert.images_in_target
        and cert.source_count == math.comb(cert.n, cert.k)
    )


def monotone_injections_hold(nmax: int) -> bool:
    """``monotone_injection_holds`` for n = 2..nmax and each level k below the middle."""
    return all(
        monotone_injection_holds(pathlab.monotone_injection(n, k))
        for n in range(2, nmax + 1)
        for k in range(n // 2)
    )


def sagan_sequences_hold(nmax: int) -> bool:
    """(C(n, j) C(n, k-j))_j is unimodal for 0 <= k <= n <= nmax, and for k = 2j it
    rises from C(n, j-1) C(n, j+1) to C(n, j)^2 at its centre."""
    for n in range(nmax + 1):
        if not all(polycore.is_unimodal(pathlab.sagan_sequence(n, k)) for k in range(n + 1)):
            return False
        for j in range(1, n // 2 + 1):
            seq = pathlab.sagan_sequence(n, 2 * j).coeffs
            if not (
                seq[j] == math.comb(n, j) ** 2
                and seq[j - 1] == math.comb(n, j - 1) * math.comb(n, j + 1)
                and seq[j] >= seq[j - 1]
            ):
                return False
    return True
