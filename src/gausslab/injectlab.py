"""Partitions in an a-by-b box, candidate level-raising rules, and failure audits.

A partition here is a weakly decreasing tuple of a entries in [0, b]; the
weight-k level collects the partitions of weight k.  Four candidate rules map
level k into level k+1; each is audited exhaustively for its first collision
or undefined input below the middle level.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import EnumerationBudgetExceeded, NoSuccessor

DEFAULT_ENUMERATION_BUDGET = 10**7


@dataclass(frozen=True)
class BoxedPartition:
    """Weakly decreasing tuple ``parts`` of length a with entries in [0, b]."""

    parts: tuple[int, ...]
    box: tuple[int, int]

    def __post_init__(self) -> None:
        a, b = self.box
        if a < 1 or b < 1:
            raise ValueError(f"box sides must be positive, got {self.box}")
        if len(self.parts) != a:
            raise ValueError(f"expected {a} parts, got {len(self.parts)}")
        prev = b
        for p in self.parts:
            if not 0 <= p <= prev:
                raise ValueError(f"not weakly decreasing within [0, {b}]: {self.parts}")
            prev = p

    @property
    def a(self) -> int:
        return self.box[0]

    @property
    def b(self) -> int:
        return self.box[1]

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def replace_part(self, i: int, value: int) -> "BoxedPartition":
        parts = list(self.parts)
        parts[i] = value
        return BoxedPartition(tuple(parts), self.box)


def _check_budget(a: int, b: int, budget: Optional[int]) -> None:
    """None is no limit; a negative budget is a usage error, not one every box exceeds."""
    if budget is not None and budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    if budget is not None and math.comb(a + b, a) > budget:
        raise EnumerationBudgetExceeded(
            f"box ({a},{b}) holds C({a + b},{a}) = {math.comb(a + b, a)} partitions"
            f" > budget {budget}"
        )


def iter_box(a: int, b: int) -> Iterator[tuple[int, ...]]:
    """All part tuples for the (a, b) box in ascending lexicographic order.

    Only the ordered levels of the audits (``enumerate_box``, ``levels``) use
    it; ``qgauss.level_counts`` enumerates the box on its own, in no order.
    """

    def rec(prefix: list[int], bound: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for v in range(bound + 1):
            prefix.append(v)
            yield from rec(prefix, v, remaining - 1)
            prefix.pop()

    yield from rec([], b, a)


def enumerate_box(
    a: int, b: int, budget: Optional[int] = DEFAULT_ENUMERATION_BUDGET
) -> list[BoxedPartition]:
    """Complete, duplicate-free, lexicographically ordered box contents."""
    if a < 1 or b < 1:
        raise ValueError("box sides must be positive")
    _check_budget(a, b, budget)
    box = (a, b)
    return [BoxedPartition(parts, box) for parts in iter_box(a, b)]


def levels(
    a: int, b: int, budget: Optional[int] = DEFAULT_ENUMERATION_BUDGET
) -> list[list[BoxedPartition]]:
    """All levels at once (one box enumeration, bucketed by weight)."""
    buckets: list[list[BoxedPartition]] = [[] for _ in range(a * b + 1)]
    for p in enumerate_box(a, b, budget):
        buckets[p.weight].append(p)
    return buckets


# -- conjugation ----------------------------------------------------------------


def conjugate(p: BoxedPartition) -> BoxedPartition:
    """The unique partition in the (b, a) box whose diagram is the transpose of p's.

    Row i of p's a-by-b 0/1 diagram holds parts[i] leading ones.
    """
    a, b = p.box
    parts = tuple(sum(1 for x in p.parts if x >= j) for j in range(1, b + 1))
    return BoxedPartition(parts, (b, a))


# -- selection statistics ------------------------------------------------------


def base_value(p: BoxedPartition) -> int:
    """Base-(b+1) digit value of the parts; injective on the whole box."""
    radix = p.b + 1
    value = 0
    for x in p.parts:
        value = value * radix + x
    return value


def wt(p: BoxedPartition) -> int:
    """max over positions i (1-based) of i * parts[i]."""
    return max((i + 1) * x for i, x in enumerate(p.parts))


def increment_candidates(p: BoxedPartition) -> list[BoxedPartition]:
    """All valid partitions obtained by adding 1 to a single part.

    These are exactly the partitions of weight+1 dominating p componentwise;
    the tests cross-check this against a brute-force level scan.
    """
    a, b = p.box
    out = []
    for i in range(a):
        cap = b if i == 0 else p.parts[i - 1]
        if p.parts[i] < cap:
            out.append(p.replace_part(i, p.parts[i] + 1))
    return out


# -- the four candidate rules ---------------------------------------------------


class InjectionRule(enum.Enum):
    COLUMN_FILL = "ColumnFill"
    ROW_FILL_TRANSPOSE = "RowFillTranspose"
    MIN_BASE_VALUE = "MinBaseValue"
    MAX_WT = "MaxWt"


RULE_BY_NUMBER = {
    1: InjectionRule.COLUMN_FILL,
    2: InjectionRule.ROW_FILL_TRANSPOSE,
    3: InjectionRule.MIN_BASE_VALUE,
    4: InjectionRule.MAX_WT,
}
NUMBER_BY_RULE = {rule: num for num, rule in RULE_BY_NUMBER.items()}


def _column_fill(p: BoxedPartition) -> BoxedPartition:
    # Increment the part right after the maximal prefix of full rows.
    j = 0
    while j < p.a and p.parts[j] == p.b:
        j += 1
    return p.replace_part(j, p.parts[j] + 1)


def apply_rule(rule: InjectionRule, p: BoxedPartition) -> Optional[BoxedPartition]:
    """Apply a rule; None means the rule's selection is undefined (a tie).

    Raises NoSuccessor when the partition already fills its box.
    """
    a, b = p.box
    if p.weight == a * b:
        raise NoSuccessor(f"{p.parts} fills its box")
    if rule is InjectionRule.COLUMN_FILL:
        return _column_fill(p)
    if rule is InjectionRule.ROW_FILL_TRANSPOSE:
        return conjugate(_column_fill(conjugate(p)))
    candidates = increment_candidates(p)
    if rule is InjectionRule.MIN_BASE_VALUE:
        values = [base_value(c) for c in candidates]
        assert len(set(values)) == len(values), "base values are injective"
        return candidates[values.index(min(values))]
    if rule is InjectionRule.MAX_WT:
        weights = [wt(c) for c in candidates]
        top = max(weights)
        if weights.count(top) > 1:
            return None
        return candidates[weights.index(top)]
    raise ValueError(f"unknown rule {rule!r}")


# -- audit engine ---------------------------------------------------------------


class AuditOutcome(enum.Enum):
    INJECTIVE_UP_TO_MIDDLE = "InjectiveUpToMiddle"
    COLLISION = "Collision"
    UNDEFINED = "Undefined"


@dataclass(frozen=True)
class AuditReport:
    """First failure of a rule on a box, or a clean bill of health.

    For a collision the two witnesses are distinct, sit on the same level,
    and map to the recorded common image.  For an undefined input the witness
    admits no unique choice (a tie in the selection statistic); the tied
    candidate set is recorded.
    """

    rule: InjectionRule
    box: tuple[int, int]
    outcome: AuditOutcome
    level: Optional[int] = None
    witnesses: tuple[tuple[int, ...], ...] = ()
    image: Optional[tuple[int, ...]] = None
    candidates: tuple[tuple[int, ...], ...] = ()
    levels_checked: int = 0

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule.value,
            "a": self.box[0],
            "b": self.box[1],
            "outcome": self.outcome.value,
            "k": self.level,
            "witnesses": [list(w) for w in self.witnesses],
            "image": list(self.image) if self.image is not None else None,
            "candidates": [list(c) for c in self.candidates],
            "levels_checked": self.levels_checked,
        }


def audit(
    rule: InjectionRule,
    a: int,
    b: int,
    budget: Optional[int] = DEFAULT_ENUMERATION_BUDGET,
) -> AuditReport:
    """Scan levels 0 .. floor(ab/2)-1 in order; report the first failure.

    Within a level, partitions are visited in lexicographic order, so the
    report is deterministic.
    """
    box = (a, b)
    middle = (a * b) // 2
    by_level = levels(a, b, budget)
    for k in range(middle):
        seen: dict[tuple[int, ...], BoxedPartition] = {}
        for p in by_level[k]:
            image = apply_rule(rule, p)
            if image is None:
                cands = increment_candidates(p)
                return AuditReport(
                    rule,
                    box,
                    AuditOutcome.UNDEFINED,
                    level=k,
                    witnesses=(p.parts,),
                    candidates=tuple(c.parts for c in cands),
                    levels_checked=k + 1,
                )
            if image.parts in seen:
                return AuditReport(
                    rule,
                    box,
                    AuditOutcome.COLLISION,
                    level=k,
                    witnesses=(seen[image.parts].parts, p.parts),
                    image=image.parts,
                    levels_checked=k + 1,
                )
            seen[image.parts] = p
    return AuditReport(
        rule, box, AuditOutcome.INJECTIVE_UP_TO_MIDDLE, levels_checked=middle
    )


def audit_all(
    max_a: int = 6,
    max_b: int = 6,
    rules: tuple[InjectionRule, ...] = tuple(InjectionRule),
    budget: Optional[int] = DEFAULT_ENUMERATION_BUDGET,
) -> list[AuditReport]:
    return [
        audit(rule, a, b, budget)
        for rule in rules
        for a in range(1, max_a + 1)
        for b in range(1, max_b + 1)
    ]


# -- verification of the documented witness claims ------------------------------
#
# Each rule comes with a documented first-failure claim: a level and either a
# colliding pair or a single input on which the selection is claimed to tie.
# The checker replays each claim against the rule as defined and against the
# first failure that the rule's audit of the box found, and reports the
# claim's status without patching anything.


class ClaimVerdict(enum.Enum):
    CONFIRMED = "Confirmed"
    NOT_A_FAILURE = "NotAFailure"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class WitnessCheck:
    rule: InjectionRule
    box: tuple[int, int]
    claimed_level: int
    claimed_witnesses: tuple[tuple[int, ...], ...]
    verdict: ClaimVerdict
    detail: str
    first_failure: AuditReport
    first_failure_at_claimed_level: Optional[bool] = None

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule.value,
            "a": self.box[0],
            "b": self.box[1],
            "claimed_k": self.claimed_level,
            "claimed_witnesses": [list(w) for w in self.claimed_witnesses],
            "verdict": self.verdict.value,
            "detail": self.detail,
            "first_failure": self.first_failure.to_json_dict(),
            "first_failure_at_claimed_level": self.first_failure_at_claimed_level,
        }


def _try_partition(parts: list[int], box: tuple[int, int]) -> Optional[BoxedPartition]:
    try:
        return BoxedPartition(tuple(parts), box)
    except ValueError:
        return None


def _claimed_witnesses(rule: InjectionRule, a: int, b: int):
    """(claimed level, list of claimed partitions or None, kind) for a rule and box."""
    pad = [0] * (a - 2) if a >= 2 else None
    if rule is InjectionRule.COLUMN_FILL:
        if pad is None:
            return 2 * b - 2, None, "collision"
        lam = _try_partition([b, b - 2] + pad, (a, b))
        dell = _try_partition([b - 1, b - 1] + pad, (a, b))
        return 2 * b - 2, [lam, dell], "collision"
    if rule is InjectionRule.ROW_FILL_TRANSPOSE:
        # The documented pair lives in the transposed box; carry it back.
        if b < 2:
            return 2 * a - 2, None, "collision"
        tpad = [0] * (b - 2)
        lam_t = _try_partition([a, a - 2] + tpad, (b, a))
        del_t = _try_partition([a - 1, a - 1] + tpad, (b, a))
        lam = conjugate(lam_t) if lam_t is not None else None
        dell = conjugate(del_t) if del_t is not None else None
        return 2 * a - 2, [lam, dell], "collision"
    if rule is InjectionRule.MIN_BASE_VALUE:
        if pad is None:
            return b, None, "collision"
        lam = _try_partition([b] + [0] * (a - 1), (a, b))
        dell = _try_partition([b - 1, 1] + pad, (a, b))
        return b, [lam, dell], "collision"
    if rule is InjectionRule.MAX_WT:
        lam = _try_partition([1] + [0] * (a - 1), (a, b))
        return 1, [lam], "undefined"
    raise ValueError(f"unknown rule {rule!r}")


def check_claim(first: AuditReport) -> WitnessCheck:
    """Judge the documented claim for the rule and box that ``first`` audited.

    ``first`` is recorded as the claim's first failure; no box is enumerated.
    """
    rule = first.rule
    a, b = first.box
    claimed_k, witnesses, kind = _claimed_witnesses(rule, a, b)
    middle = (a * b) // 2

    def finish(verdict: ClaimVerdict, detail: str) -> WitnessCheck:
        return WitnessCheck(
            rule,
            (a, b),
            claimed_k,
            tuple(w.parts for w in witnesses) if witnesses and all(witnesses) else (),
            verdict,
            detail,
            first,
            None
            if verdict is ClaimVerdict.NOT_APPLICABLE
            else first.level == claimed_k,
        )

    if witnesses is None or any(w is None for w in witnesses):
        return finish(ClaimVerdict.NOT_APPLICABLE, "claimed witnesses invalid in this box")
    if not all(w.weight == claimed_k for w in witnesses):
        return finish(ClaimVerdict.NOT_APPLICABLE, "claimed witnesses miss the claimed level")
    if claimed_k >= middle:
        return finish(
            ClaimVerdict.NOT_APPLICABLE,
            f"claimed level {claimed_k} is not below the middle {middle}",
        )
    if kind == "undefined":
        image = apply_rule(rule, witnesses[0])
        if image is None:
            return finish(ClaimVerdict.CONFIRMED, "selection ties as claimed")
        return finish(
            ClaimVerdict.NOT_A_FAILURE, f"rule is defined, image {image.parts}"
        )
    lam, dell = witnesses
    if lam.parts == dell.parts:
        return finish(ClaimVerdict.NOT_APPLICABLE, "claimed witnesses coincide")
    img_l, img_d = apply_rule(rule, lam), apply_rule(rule, dell)
    if img_l is None or img_d is None:
        return finish(ClaimVerdict.NOT_A_FAILURE, "rule undefined on a claimed witness")
    if img_l.parts == img_d.parts:
        return finish(
            ClaimVerdict.CONFIRMED, f"witnesses collide on image {img_l.parts}"
        )
    return finish(
        ClaimVerdict.NOT_A_FAILURE,
        f"distinct images {img_l.parts} and {img_d.parts}",
    )
