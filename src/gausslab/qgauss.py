"""q-integers, q-factorials, and Gaussian polynomials by four independent routes.

The routes are: an exact polynomial quotient, the q-Pascal recurrence, direct
enumeration of box partitions by weight, and a sum over multiplicity vectors
that rebuilds the polynomial from smaller Gaussian factors.  Cross-validating
all four is the point of this module.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Optional

from .polycore import (
    IntPoly,
    darga,
    div_exact_xm_minus_one,
    mul_xm_minus_one,
    slot_bytes,
    unpack,
)


def q_int(k: int) -> IntPoly:
    """1 + X + ... + X^(k-1); the zero polynomial for k = 0.

    >>> q_int(3)
    IntPoly((1, 1, 1))
    """
    if k < 0:
        raise ValueError("q_int needs k >= 0")
    return IntPoly([1] * k)


def q_factorial(k: int) -> IntPoly:
    """Product of q_int(m) for m = 1..k, with q_factorial(0) = 1.

    The product runs through m = k (not k - 1), the convention under which
    the quotient definition of the Gaussian polynomial specializes to the
    binomial coefficients at X = 1.
    """
    if k < 0:
        raise ValueError("q_factorial needs k >= 0")
    out = IntPoly.one()
    for m in range(1, k + 1):
        out = out * q_int(m)
    return out


def gaussian_quotient(a: int, b: int) -> IntPoly:
    """prod_{i=1..b} (X^(a+i) - 1) / prod_{j=1..b} (X^j - 1), divided exactly.

    The division is performed incrementally, so every intermediate value is
    itself a Gaussian polynomial; a nonzero remainder anywhere would be an
    implementation bug and surfaces as a hard error.  Both factors are
    binomials, so each step runs in time linear in the degree.
    """
    if a < 0 or b < 0:
        raise ValueError("need a, b >= 0")
    out = IntPoly.one()
    for i in range(1, b + 1):
        out = div_exact_xm_minus_one(mul_xm_minus_one(out, a + i), i)
    return out


def _pascal_packed(a: int, b: int, nb: int) -> int:
    """G(a, b) at X = 2^(8 nb), by the q-Pascal recurrence on one rolling row.

    After pass b' the row holds G(a', b') for a' = 0..a, each packed with
    ``nb`` bytes per coefficient, so G(a', b') = G(a'-1, b') + X^a' G(a', b'-1)
    is one shift-add per cell.  The caller picks ``nb`` and checks the
    unpacked coefficients, which are exact only if none outgrew its slot.
    """
    row = [1] * (a + 1)
    shifts = [8 * nb * k for k in range(a + 1)]
    for _ in range(b):
        for k in range(1, a + 1):
            row[k] = row[k - 1] + (row[k] << shifts[k])
    return row[a]


def _unpack_checked(n: int, nb: int, total: int, what: str) -> list[int]:
    """Unpack ``n`` and require its coefficients to sum to ``total``.

    Every coefficient of a correct result is at most ``total``, and a
    coefficient that outgrew its slot lowers the sum of the unpacked slots,
    so slots too narrow for the result cannot pass.
    """
    coeffs = unpack(n, nb)
    if sum(coeffs) != total:
        raise OverflowError(
            f"{what}: packed coefficients sum to {sum(coeffs)}, not {total}, "
            f"at {nb} bytes a slot"
        )
    return coeffs


def gaussian_pascal(a: int, b: int) -> IntPoly:
    """Same polynomial via the recurrence G(a,b) = G(a-1,b) + X^a G(a,b-1).

    The recurrence runs on packed integers (see :func:`_pascal_packed`) with
    slots wide enough for C(a+b, a), which bounds every coefficient of every
    G(a', b') it passes through, and the result is unpacked once.  It keeps
    no state between calls.  Raises OverflowError if the coefficients do not
    sum to C(a+b, a).
    """
    if a < 0 or b < 0:
        raise ValueError("need a, b >= 0")
    total = math.comb(a + b, a)
    nb = slot_bytes(total)
    return IntPoly(_unpack_checked(_pascal_packed(a, b, nb), nb, total, f"G({a},{b})"))


def level_counts(a: int, b: int) -> IntPoly:
    """sum_k c_k X^k, with c_k the partitions of weight k in the (a, b) box.

    Computed by direct enumeration; equals gaussian_quotient(a, b) and is
    palindromic.  A partition in the box is a multiset of a parts from 0..b,
    so ``combinations_with_replacement`` walks the box on one reused tuple and
    ``Counter`` tallies the weights, both at C level; the tally needs no order.
    """
    if a < 0 or b < 0:
        raise ValueError("need a, b >= 0")
    weights = Counter(map(sum, combinations_with_replacement(range(b + 1), a)))
    return IntPoly(weights[k] for k in range(a * b + 1))


# -- multiplicity vectors and term assembly -------------------------------------


def koh_multiplicity_vectors(b: int) -> tuple[tuple[int, ...], ...]:
    """All (d_1, ..., d_b) with sum i*d_i = b, sorted; one per integer partition of b."""
    if b < 0:
        raise ValueError("need b >= 0")
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, acc: list[int]) -> None:
        if i == 0:
            if remaining == 0:
                out.append(tuple(acc[::-1]))
            return
        for cnt in range(remaining // i + 1):
            acc.append(cnt)
            rec(i - 1, remaining - cnt * i, acc)
            acc.pop()

    rec(b, b, [])
    return tuple(sorted(out))


# (a, b, i, tail) -> a_i, the width of factor i, where tail is
# sum_{j<i} 2 (i - j) d_{b-j}; koh_terms carries it as a running sum.
ArgumentFormula = Callable[[int, int, int, int], int]


def stated_argument(a: int, b: int, i: int, tail: int) -> int:
    """Printed width formula: (b - i) * b - 2i + tail."""
    return (b - i) * b - 2 * i + tail


def minimal_edit_argument(a: int, b: int, i: int, tail: int) -> int:
    """Minimal edit of the printed formula: a - 2i + tail (a for the leading term).

    The calibration check requires it to fail against the enumeration.
    """
    return a - 2 * i + tail


def calibrated_argument(a: int, b: int, i: int, tail: int) -> int:
    """Calibrated formula: (b - i) * a - 2i + tail (b -> a in the leading product).

    It reproduces the enumeration on every box the calibration check covers;
    every term it builds is darga-palindromic with darga a*b, as the inductive
    argument requires.
    """
    return (b - i) * a - 2 * i + tail


# The KOH width formulas by name: as printed in the source identity, and as calibrated.
KOH_RULES = {"stated": stated_argument, "calibrated": calibrated_argument}


def koh_exponent(d: tuple[int, ...]) -> int:
    """b * (sum d_i) - b - sum_{i<j} (j - i) d_i d_j, with b = len(d); the
    monomial prefactor power.

    It equals 2 * sum_{k<m} min(l_k, l_m) over the pairs of parts of the
    partition l of b with d_i parts equal to i, a sum of positive terms, so it
    is never negative.  The cross sum is one pass: with S and T the running
    sums of d_i and i d_i over i < j, the pairs ending at j add d_j (j S - T).
    """
    b = len(d)
    cross = s = t = 0
    for j, d_j in enumerate(d):
        cross += d_j * (j * s - t)
        s += d_j
        t += j * d_j
    return b * s - b - cross


@dataclass(frozen=True)
class KohTerm:
    """One assembled summand: X^exponent times a product of Gaussian factors.

    ``factors`` records the raw (a_i, b_i) pairs produced by the argument
    rule, including any negative a_i.  A factor with b_i = 0 contributes 1;
    a factor with b_i > 0 and a_i < 0 is the zero polynomial (no partitions
    fit a negative-width box), which makes the whole term vanish.  Vanishing
    terms stay in the breakdown with their offending indices recorded; they
    are never silently dropped.
    """

    multiplicities: tuple[int, ...]
    exponent: int
    factors: tuple[tuple[int, int], ...]
    poly: IntPoly
    darga: Optional[int]
    negative_factor_indexes: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "multiplicities": list(self.multiplicities),
            "exponent": self.exponent,
            "factors": [list(f) for f in self.factors],
            "darga": self.darga,
            "coefficients": self.poly.to_json(),
            "negative_factor_indexes": list(self.negative_factor_indexes),
        }


def koh_terms(a: int, b: int, argument: ArgumentFormula = calibrated_argument) -> list[KohTerm]:
    """Assemble one term per multiplicity vector (see :class:`KohTerm`).

    The exponent and the b argument widths of a vector take O(b) arithmetic
    operations, each from one pass of running sums.

    A term's live factors (b_i > 0) come from the q-Pascal recurrence as
    packed integers at one slot width, bounded by the product of their
    C(a_i + b_i, a_i), and are multiplied while packed; the product is
    unpacked once.  Raises OverflowError if its coefficients do not sum to
    that product.
    """
    if a < 0 or b < 0:
        raise ValueError("need a, b >= 0")
    terms = []
    for d in koh_multiplicity_vectors(b):
        exponent = koh_exponent(d)
        pairs = []
        negatives = []
        # tail(i) = sum_{j<i} 2 (i - j) d_{b-j} = 2 (i S - T), with S and T the
        # running sums of b_j and j b_j over the factors j < i.
        s = t = 0
        for i in range(b):
            a_i = argument(a, b, i, 2 * (i * s - t))
            b_i = d[b - 1 - i]
            pairs.append((a_i, b_i))
            if b_i > 0 and a_i < 0:
                negatives.append(i)
            s += b_i
            t += i * b_i
        if negatives:
            poly = IntPoly.zero()
        else:
            live = [(a_i, b_i) for a_i, b_i in pairs if b_i > 0]
            total = math.prod(math.comb(a_i + b_i, a_i) for a_i, b_i in live)
            nb = slot_bytes(total)
            packed = 1
            for a_i, b_i in live:
                packed *= _pascal_packed(a_i, b_i, nb)
            coeffs = _unpack_checked(packed, nb, total, f"term {d} of box ({a},{b})")
            poly = IntPoly([0] * exponent + coeffs)
        terms.append(
            KohTerm(
                d,
                exponent,
                tuple(pairs),
                poly,
                None if poly.is_zero else darga(poly),
                tuple(negatives),
            )
        )
    return terms


def koh_sum(
    a: int, b: int, argument: ArgumentFormula = calibrated_argument
) -> tuple[IntPoly, list[KohTerm]]:
    """The assembled sum plus its per-term breakdown.

    Off the diagonal only the calibrated formula, the default, gives G(a, b):

    >>> koh_sum(4, 2, KOH_RULES["stated"])[0] == gaussian_quotient(4, 2)
    False
    >>> koh_sum(4, 2)[0] == gaussian_quotient(4, 2)
    True
    """
    terms = koh_terms(a, b, argument)
    total = IntPoly.zero()
    for term in terms:
        total = total + term.poly
    return total, terms

