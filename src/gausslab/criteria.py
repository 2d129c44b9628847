"""The acceptance checks that ``report`` also certifies, each written once.

Each function returns the verdict, so the acceptance suite and ``gausslab
report`` run the same check.  A check that both run over a range takes the
range as a parameter; a check with fixed inputs (the 6x6 calibration range,
the weight families) owns them.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from . import pathlab, polycore, posetlab, qgauss
from .injectlab import AuditOutcome, AuditReport, ClaimVerdict, InjectionRule, WitnessCheck
from .polycore import IntPoly


def g22_shape_holds() -> bool:
    """G(2, 2) = 1 + X + 2X^2 + X^3 + X^4 is unimodal and palindromic but not
    log-concave, so unimodality cannot be had from log-concavity alone."""
    g = qgauss.gaussian_quotient(2, 2)
    return (
        g.coeffs == (1, 1, 2, 1, 1)
        and polycore.is_unimodal(g)
        and polycore.is_palindromic(g, 4)
        and not polycore.is_log_concave(g)
    )


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


def box_level_counts(
    amax: int, bmax: int, budget: Optional[int]
) -> dict[tuple[int, int], list[int]]:
    """``qgauss.level_counts`` of every box 1 <= a <= amax, 1 <= b <= bmax, keyed by
    (a, b): the one enumeration of each box that the grid and the calibration share."""
    return {
        (a, b): qgauss.level_counts(a, b, budget)
        for a in range(1, amax + 1)
        for b in range(1, bmax + 1)
    }


def gaussian_grid(counts: Mapping[tuple[int, int], list[int]]) -> list[dict]:
    """One cell per box of ``counts`` (see ``box_level_counts``), in its order:
    route agreement and shape."""
    grid = []
    for (a, b), level_counts in counts.items():
        quotient = qgauss.gaussian_quotient(a, b)
        pascal = qgauss.gaussian_pascal(a, b)
        enum_counts = IntPoly(level_counts)
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
                "darga_palindromic": polycore.is_darga_palindromic(quotient),
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


def calibration_holds(counts: Mapping[tuple[int, int], list[int]]) -> bool:
    """On every box up to 6x6, the ``calibrated`` KOH rule reproduces the
    enumeration and the minimal edit of the printed rule does not (it fails
    somewhere).  Boxes in ``counts`` (see ``box_level_counts``) are not
    enumerated again."""
    oracle = {
        (a, b): counts[a, b] if (a, b) in counts else qgauss.level_counts(a, b)
        for a in range(1, 7)
        for b in range(1, 7)
    }

    def matches(formula: qgauss.ArgumentFormula) -> bool:
        return all(
            list(qgauss.koh_sum(a, b, formula)[0].coeffs) == level_counts
            for (a, b), level_counts in oracle.items()
        )

    return not matches(qgauss.minimal_edit_argument) and matches(qgauss.KOH_RULES["calibrated"])


def _expected_verdict(rule: InjectionRule, a: int, b: int) -> ClaimVerdict:
    both_sides_two = a >= 2 and b >= 2
    middle = (a * b) // 2
    if rule is InjectionRule.MAX_WT:
        if both_sides_two:
            return ClaimVerdict.CONFIRMED
        # With a side of 1 the claimed input has one candidate, so the rule is
        # defined there; the claim at k = 1 applies only below the middle.
        return ClaimVerdict.NOT_A_FAILURE if 1 < middle else ClaimVerdict.NOT_APPLICABLE
    if rule is InjectionRule.MIN_BASE_VALUE:
        # The documented pair maps to distinct images: not a failure.
        applicable, verdict = a >= 3 and b >= 2 and b < middle, ClaimVerdict.NOT_A_FAILURE
    else:
        # The fill rules' pair collides at 2b-2 (2a-2 for the transpose).
        side = b if rule is InjectionRule.COLUMN_FILL else a
        applicable, verdict = both_sides_two and 2 * side - 2 < middle, ClaimVerdict.CONFIRMED
    return verdict if applicable else ClaimVerdict.NOT_APPLICABLE


def injections_hold(audits: list[AuditReport], claims: list[WitnessCheck]) -> bool:
    """The max-statistic rule ties at k = 1 on (1, 0, ..., 0) in every box with
    both sides >= 2, and every documented claim gets its expected verdict."""
    ties = all(
        (r.outcome, r.level, r.witnesses)
        == (AuditOutcome.UNDEFINED, 1, ((1,) + (0,) * (r.box[0] - 1),))
        for r in audits
        if r.rule is InjectionRule.MAX_WT and min(r.box) >= 2
    )
    return ties and all(c.verdict is _expected_verdict(c.rule, *c.box) for c in claims)


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
        if not polycore.is_unimodal(IntPoly(row)) or counts != row:
            return False
    return True


def eulerian_checks(poly: IntPoly, n: int) -> dict[str, bool]:
    """The certificates of A_n: palindromic, unimodal, real-rooted, coefficients
    summing to n!, and gamma-nonnegative (false unless palindromic)."""
    gammas = polycore.gamma_decompose(poly, n - 1)
    return {
        "palindromic": gammas is not None,
        "unimodal": polycore.is_unimodal(poly),
        "real_rooted": polycore.is_real_rooted(poly),
        "coefficient_sum_is_factorial": poly.evaluate(1) == math.factorial(n),
        "gamma_nonnegative": gammas is not None and min(gammas) >= 0,
    }


def eulerian_suite_holds(nmax: int) -> bool:
    """Every certificate of ``eulerian_checks`` holds for A_n, n = 1..nmax."""
    return all(
        all(eulerian_checks(posetlab.eulerian(n), n).values()) for n in range(1, nmax + 1)
    )


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
        if not all(
            polycore.is_unimodal(IntPoly(pathlab.sagan_sequence(n, k))) for k in range(n + 1)
        ):
            return False
        for j in range(1, n // 2 + 1):
            seq = pathlab.sagan_sequence(n, 2 * j)
            if not (
                seq[j] == math.comb(n, j) ** 2
                and seq[j - 1] == math.comb(n, j - 1) * math.comb(n, j + 1)
                and seq[j] >= seq[j - 1]
            ):
                return False
    return True
