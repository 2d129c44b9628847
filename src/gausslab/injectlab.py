"""Partitions in an a-by-b box, candidate level-raising rules, and failure audits.

A partition here is a weakly decreasing tuple of a entries in [0, b]; the
weight-k level collects the partitions of weight k.  Four candidate rules map
level k into level k+1, each by picking from one list, ``increment_candidates``;
each is audited exhaustively for its first collision or undefined input below
the middle level.  RowFillTranspose and MinBaseValue pick the same candidate, so
their audits agree apart from the rule name; their documented claims differ.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional


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
    def weight(self) -> int:
        return sum(self.parts)

    def replace_part(self, i: int, value: int) -> "BoxedPartition":
        parts = list(self.parts)
        parts[i] = value
        return BoxedPartition(tuple(parts), self.box)


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


def enumerate_box(a: int, b: int) -> list[BoxedPartition]:
    """Complete, duplicate-free, lexicographically ordered box contents."""
    if a < 1 or b < 1:
        raise ValueError("box sides must be positive")
    box = (a, b)
    return [BoxedPartition(parts, box) for parts in iter_box(a, b)]


def levels(a: int, b: int) -> list[list[BoxedPartition]]:
    """All levels at once (one box enumeration, bucketed by weight)."""
    buckets: list[list[BoxedPartition]] = [[] for _ in range(a * b + 1)]
    for p in enumerate_box(a, b):
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


def wt(p: BoxedPartition) -> int:
    """max over positions i (1-based) of i * parts[i]."""
    return max((i + 1) * x for i, x in enumerate(p.parts))


def increment_candidates(p: BoxedPartition) -> list[BoxedPartition]:
    """All valid partitions obtained by adding 1 to a single part, in row order.

    These are exactly the partitions of weight+1 dominating p componentwise;
    the tests cross-check this against a brute-force level scan.  Every rule
    of ``apply_rule`` picks from this list; it is empty when p fills its box.
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


def apply_rule(rule: InjectionRule, p: BoxedPartition) -> Optional[BoxedPartition]:
    """Apply a rule; None means the rule's selection is undefined (a tie).

    Every rule picks from ``increment_candidates(p)``: ColumnFill the first
    candidate, RowFillTranspose and MinBaseValue the last, MaxWt the unique one
    of largest ``wt``.  Raises ValueError when the partition already fills its box.

    Lemma: row i can grow iff it is the first row of a block of equal parts
    below b, since its cap is b for i = 0 and parts[i-1] otherwise.

    - ColumnFill grows the row after the prefix of full rows.  That prefix ends
      just before the first row below b, which starts its block: the first
      candidate.
    - MinBaseValue takes the least base-(b+1) value sum parts[i] (b+1)^(a-1-i).
      Growing row i adds (b+1)^(a-1-i), which is least at the last candidate.
    - RowFillTranspose is ColumnFill on the conjugate.  Its first non-full row is
      column m+1 of p, where m is the least part; the new cell lands in row
      #{i : parts[i] > m}, the first row of the last block: the last candidate.
    """
    candidates = increment_candidates(p)
    if not candidates:
        raise ValueError(f"{p.parts} fills its box")
    if rule is InjectionRule.COLUMN_FILL:
        return candidates[0]
    if rule in (InjectionRule.ROW_FILL_TRANSPOSE, InjectionRule.MIN_BASE_VALUE):
        return candidates[-1]
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


def audit(rule: InjectionRule, a: int, b: int) -> AuditReport:
    """Scan levels 0 .. floor(ab/2)-1 in order; report the first failure.

    Within a level, partitions are visited in lexicographic order, so the
    report is deterministic.
    """
    box = (a, b)
    middle = (a * b) // 2
    by_level = levels(a, b)
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


def audit_all(max_a: int, max_b: int, rules: tuple[InjectionRule, ...]) -> list[AuditReport]:
    return [
        audit(rule, a, b)
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


def _claimed_witnesses(rule: InjectionRule, a: int, b: int):
    """(claimed level, claimed partitions) for a rule and box.

    The partitions are None when any of them does not fit the box.  One
    witness claims a tie in the selection, two claim a collision.
    """
    if rule is InjectionRule.ROW_FILL_TRANSPOSE:
        # ColumnFill's claim on the transposed box, carried back.
        k, witnesses = _claimed_witnesses(InjectionRule.COLUMN_FILL, b, a)
        return k, None if witnesses is None else [conjugate(w) for w in witnesses]
    pad = [0] * (a - 2)
    if rule is InjectionRule.COLUMN_FILL:
        k, claimed = 2 * b - 2, [[b, b - 2] + pad, [b - 1, b - 1] + pad]
    elif rule is InjectionRule.MIN_BASE_VALUE:
        k, claimed = b, [[b] + [0] * (a - 1), [b - 1, 1] + pad]
    elif rule is InjectionRule.MAX_WT:
        k, claimed = 1, [[1] + [0] * (a - 1)]
    else:
        raise ValueError(f"unknown rule {rule!r}")
    try:
        return k, [BoxedPartition(tuple(parts), (a, b)) for parts in claimed]
    except ValueError:
        return k, None


def check_claim(first: AuditReport) -> WitnessCheck:
    """Judge the documented claim for the rule and box that ``first`` audited.

    ``first`` is recorded as the claim's first failure; no box is enumerated.
    """
    rule = first.rule
    a, b = first.box
    claimed_k, witnesses = _claimed_witnesses(rule, a, b)
    middle = (a * b) // 2
    verdict = ClaimVerdict.NOT_APPLICABLE
    if witnesses is None:
        detail = "claimed witnesses invalid in this box"
    elif claimed_k >= middle:
        detail = f"claimed level {claimed_k} is not below the middle {middle}"
    else:
        images = [apply_rule(rule, w) for w in witnesses]
        if len(images) == 1:
            (image,) = images
            held = image is None
            detail = "selection ties as claimed"
            if not held:
                detail = f"rule is defined, image {image.parts}"
        else:
            first_image, second_image = (image.parts for image in images)
            held = first_image == second_image
            detail = f"witnesses collide on image {first_image}"
            if not held:
                detail = f"distinct images {first_image} and {second_image}"
        verdict = ClaimVerdict.CONFIRMED if held else ClaimVerdict.NOT_A_FAILURE
    claimed = tuple(w.parts for w in witnesses or ())
    at_level = None if verdict is ClaimVerdict.NOT_APPLICABLE else first.level == claimed_k
    return WitnessCheck(rule, (a, b), claimed_k, claimed, verdict, detail, first, at_level)
