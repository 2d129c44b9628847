import itertools
import math

import pytest

from gausslab import criteria, injectlab
from gausslab.cli import main
from gausslab.injectlab import (
    AuditOutcome,
    BoxedPartition,
    ClaimVerdict,
    InjectionRule,
    RULE_BY_NUMBER,
    _claimed_witnesses,
    apply_rule,
    audit,
    audit_all,
    check_claim,
    conjugate,
    enumerate_box,
    increment_candidates,
    levels,
    wt,
)


class TestBoxedPartition:
    def test_valid(self):
        p = BoxedPartition((2, 1), (2, 3))
        assert p.weight == 3 and p.box == (2, 3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            BoxedPartition((1, 2), (2, 3))  # not weakly decreasing
        with pytest.raises(ValueError):
            BoxedPartition((4, 1), (2, 3))  # exceeds box height
        with pytest.raises(ValueError):
            BoxedPartition((1, -1), (2, 3))
        with pytest.raises(ValueError):
            BoxedPartition((1, 1, 1), (2, 3))  # wrong length


class TestEnumeration:
    def test_box_2_2(self):
        parts = [p.parts for p in enumerate_box(2, 2)]
        assert parts == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]

    def test_counts(self):
        for a in range(1, 6):
            for b in range(1, 6):
                assert len(enumerate_box(a, b)) == math.comb(a + b, a)

    def test_lex_sorted_and_unique(self):
        parts = [p.parts for p in enumerate_box(3, 3)]
        assert parts == sorted(set(parts))

    def test_level(self):
        assert [p.parts for p in levels(2, 2)[2]] == [(1, 1), (2, 0)]
        assert [p.parts for p in levels(3, 4)[0]] == [(0, 0, 0)]

    def test_levels_match_a_brute_force_scan(self):
        # Level k in ascending lexicographic order is the order the audits
        # visit it in; a lazy level engine must keep it.
        for a in range(1, 7):
            for b in range(1, 7):
                brute = [[] for _ in range(a * b + 1)]
                for parts in sorted(itertools.product(range(b + 1), repeat=a)):
                    if all(x >= y for x, y in zip(parts, parts[1:])):
                        brute[sum(parts)].append(parts)
                assert [[p.parts for p in lv] for lv in levels(a, b)] == brute, (a, b)

    def test_budget(self, capsys, monkeypatch):
        # The limit is the command line's: a range past it is refused before
        # any box is enumerated, and the library takes no budget.
        def refuse(a, b):
            raise AssertionError("enumerated a box past the budget")

        monkeypatch.setattr(injectlab, "enumerate_box", refuse)
        for amax, bmax in [(12, 13), (13, 13), (1000, 1)]:
            assert main(["injection-audit", "--amax", str(amax), "--bmax", str(bmax)]) == 3
            assert capsys.readouterr().err.startswith("budget exceeded: ")

    def test_audit_refuses_a_box_before_building_any_partition(self, capsys, monkeypatch):
        built = []

        class Spy(BoxedPartition):
            def __post_init__(self):
                built.append(self.parts)
                super().__post_init__()

        monkeypatch.setattr(injectlab, "BoxedPartition", Spy)
        # The range up to 12x13 is past the limit, so nothing is built.
        assert main(["injection-audit", "--rule", "4", "--amax", "12", "--bmax", "13"]) == 3
        assert built == []
        assert main(["injection-audit", "--rule", "4", "--amax", "2", "--bmax", "2"]) == 0
        assert built
        capsys.readouterr()

    def test_negative_budget_is_a_usage_error(self, capsys):
        # As is any --budget: the limit is fixed.
        with pytest.raises(SystemExit) as err:
            main(["injection-audit", "--amax", "3", "--bmax", "3", "--budget", "-1"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_level_symmetry_under_conjugation(self):
        for a in range(1, 5):
            for b in range(1, 5):
                ours = [len(lv) for lv in levels(a, b)]
                theirs = [len(lv) for lv in levels(b, a)]
                assert ours == theirs


def _matrix(p):
    """0/1 matrix with a rows of width b; row i carries parts[i] leading ones."""
    return tuple(tuple(int(j < part) for j in range(p.box[1])) for part in p.parts)


class TestMatrixConjugate:
    def test_example(self):
        p = BoxedPartition((2, 1), (2, 3))
        theta = conjugate(p)
        assert theta.parts == (2, 1, 0) and theta.box == (3, 2)

    def test_full_box(self):
        p = BoxedPartition((3, 3), (2, 3))
        assert conjugate(p).parts == (2, 2, 2)

    def test_transpose_correspondence(self):
        for p in enumerate_box(3, 4):
            assert tuple(zip(*_matrix(p))) == _matrix(conjugate(p))

    def test_involution_and_weight(self):
        for a in range(1, 6):
            for b in range(1, 6):
                for p in enumerate_box(a, b):
                    back = conjugate(conjugate(p))
                    assert back == p
                    assert conjugate(p).weight == p.weight


def _base_value(p):
    """Base-(b+1) digit value of the parts, first part most significant."""
    value = 0
    for x in p.parts:
        value = value * (p.box[1] + 1) + x
    return value


# The paper's three definitions, written out as references for apply_rule.


def _column_fill(p):
    """Grow the row right after the maximal prefix of full rows."""
    j = 0
    while p.parts[j] == p.box[1]:
        j += 1
    return p.replace_part(j, p.parts[j] + 1)


def _row_fill_transpose(p):
    """ColumnFill on the transposed box, carried back."""
    return conjugate(_column_fill(conjugate(p)))


def _min_base_value(p):
    """The candidate of least base value."""
    return min(increment_candidates(p), key=_base_value)


class TestSelectionStatistics:
    def test_base_value(self):
        # digits in base b+1: (1,1) -> 4 and (2,0) -> 6 when b = 2
        assert _base_value(BoxedPartition((1, 1), (2, 2))) == 4
        assert _base_value(BoxedPartition((2, 0), (2, 2))) == 6

    def test_base_value_injective(self):
        # _min_base_value takes min(candidates, key=_base_value) unchecked: the
        # candidates share a box, so their least base value is unique.
        for a in range(1, 7):
            for b in range(1, 7):
                values = [_base_value(p) for p in enumerate_box(a, b)]
                assert len(set(values)) == len(values)

    def test_wt(self):
        assert wt(BoxedPartition((2, 0), (2, 2))) == 2
        assert wt(BoxedPartition((1, 1), (2, 2))) == 2
        assert wt(BoxedPartition((0, 0), (2, 2))) == 0

    def test_increment_candidates_match_brute_force(self):
        # Candidates are exactly the next-level partitions dominating p.
        for a in range(1, 5):
            for b in range(1, 5):
                by_level = levels(a, b)
                for p in enumerate_box(a, b):
                    if p.weight == a * b:
                        assert increment_candidates(p) == []
                        continue
                    fast = {c.parts for c in increment_candidates(p)}
                    brute = {
                        q.parts
                        for q in by_level[p.weight + 1]
                        if all(x <= y for x, y in zip(p.parts, q.parts))
                    }
                    assert fast == brute


class TestApplyRule:
    def test_column_fill_collision_pair(self):
        box = (4, 4)
        lam = BoxedPartition((4, 2, 0, 0), box)
        dell = BoxedPartition((3, 3, 0, 0), box)
        assert apply_rule(InjectionRule.COLUMN_FILL, lam).parts == (4, 3, 0, 0)
        assert apply_rule(InjectionRule.COLUMN_FILL, dell).parts == (4, 3, 0, 0)

    def test_max_wt_tie(self):
        p = BoxedPartition((1, 0), (2, 2))
        assert apply_rule(InjectionRule.MAX_WT, p) is None
        cands = {c.parts for c in increment_candidates(p)}
        assert cands == {(2, 0), (1, 1)}
        assert {wt(c) for c in increment_candidates(p)} == {2}

    def test_min_base_value(self):
        p = BoxedPartition((1, 0), (2, 2))
        assert apply_rule(InjectionRule.MIN_BASE_VALUE, p).parts == (1, 1)

    def test_row_fill_transpose(self):
        # Transposed filling adds the new cell to the leftmost incomplete column.
        p = BoxedPartition((2, 1, 0), (3, 3))
        image = apply_rule(InjectionRule.ROW_FILL_TRANSPOSE, p)
        assert image.parts == (2, 1, 1)

    def test_no_successor(self):
        with pytest.raises(ValueError, match=r"^\(2, 2\) fills its box$"):
            apply_rule(InjectionRule.COLUMN_FILL, BoxedPartition((2, 2), (2, 2)))

    def test_picks_match_the_definitions(self):
        # Each picking rule equals its definition on every non-full partition
        # of every box up to 8x8.
        references = {
            InjectionRule.COLUMN_FILL: _column_fill,
            InjectionRule.ROW_FILL_TRANSPOSE: _row_fill_transpose,
            InjectionRule.MIN_BASE_VALUE: _min_base_value,
        }
        checked = 0
        for a in range(1, 9):
            for b in range(1, 9):
                for p in enumerate_box(a, b):
                    if p.weight == a * b:
                        continue
                    checked += 1
                    for rule, reference in references.items():
                        assert apply_rule(rule, p) == reference(p), (rule, p.parts)
        assert checked == 48538

    def test_weight_increase_and_validity(self):
        for a in range(1, 5):
            for b in range(1, 5):
                for p in enumerate_box(a, b):
                    if p.weight == a * b:
                        continue
                    for rule in InjectionRule:
                        image = apply_rule(rule, p)
                        if image is None:
                            continue
                        assert image.weight == p.weight + 1
                        assert image.box == p.box

    def test_domination_for_candidate_rules(self):
        for rule in (InjectionRule.MIN_BASE_VALUE, InjectionRule.MAX_WT):
            for p in enumerate_box(3, 3):
                if p.weight == 9:
                    continue
                image = apply_rule(rule, p)
                if image is not None:
                    assert all(x <= y for x, y in zip(p.parts, image.parts))


class TestAudit:
    def test_max_wt_2_2(self):
        report = audit(InjectionRule.MAX_WT, 2, 2)
        assert report.outcome is AuditOutcome.UNDEFINED
        assert report.level == 1
        assert report.witnesses == ((1, 0),)
        assert set(report.candidates) == {(2, 0), (1, 1)}

    def test_column_fill_2_2(self):
        report = audit(InjectionRule.COLUMN_FILL, 2, 2)
        assert report.outcome is AuditOutcome.INJECTIVE_UP_TO_MIDDLE
        assert report.levels_checked == 2

    def test_column_fill_4_4_first_failure(self):
        # The first collision sits at k = b: (b-1,1,0,..) and (b,0,..) share
        # the image (b,1,0,..).  That is below the documented level 2b-2.
        report = audit(InjectionRule.COLUMN_FILL, 4, 4)
        assert report.outcome is AuditOutcome.COLLISION
        assert report.level == 4
        assert set(report.witnesses) == {(3, 1, 0, 0), (4, 0, 0, 0)}
        assert report.image == (4, 1, 0, 0)

    def test_column_fill_first_failure_at_b_generally(self):
        for a in range(3, 7):
            for b in range(2, 7):
                if b >= (a * b) // 2:
                    continue
                report = audit(InjectionRule.COLUMN_FILL, a, b)
                assert report.outcome is AuditOutcome.COLLISION
                assert report.level == b

    def test_min_base_value_3_3(self):
        report = audit(InjectionRule.MIN_BASE_VALUE, 3, 3)
        assert report.outcome is AuditOutcome.COLLISION
        assert report.level == 3
        assert set(report.witnesses) == {(1, 1, 1), (2, 1, 0)}
        assert report.image == (2, 1, 1)

    def test_every_rule_fails_somewhere(self):
        for rule in InjectionRule:
            outcomes = {
                audit(rule, a, b).outcome
                for a in range(1, 7)
                for b in range(1, 7)
            }
            assert outcomes - {AuditOutcome.INJECTIVE_UP_TO_MIDDLE}

    def test_deterministic(self):
        first = audit(InjectionRule.MIN_BASE_VALUE, 4, 4)
        second = audit(InjectionRule.MIN_BASE_VALUE, 4, 4)
        assert first == second

    def test_json_shape(self):
        doc = audit(InjectionRule.MAX_WT, 2, 2).to_json_dict()
        assert doc["rule"] == "MaxWt"
        assert doc["a"] == 2 and doc["b"] == 2
        assert doc["outcome"] == "Undefined"
        assert doc["k"] == 1
        assert doc["witnesses"] == [[1, 0]]


def _row_fill_claim_as_printed(a, b):
    """RowFillTranspose's documented pair, written out: ([a, a-2, 0, ...],
    [a-1, a-1, 0, ...]) in the (b, a) box at level 2a - 2, conjugated back;
    None when either does not fit."""
    if b < 2:
        return 2 * a - 2, None
    pad = (0,) * (b - 2)
    try:
        pair = [BoxedPartition(head + pad, (b, a)) for head in [(a, a - 2), (a - 1, a - 1)]]
    except ValueError:
        return 2 * a - 2, None
    return 2 * a - 2, [conjugate(w) for w in pair]


class TestClaims:
    def test_rule_numbers(self):
        assert RULE_BY_NUMBER[1] is InjectionRule.COLUMN_FILL
        assert RULE_BY_NUMBER[4] is InjectionRule.MAX_WT

    def test_column_fill_claim_confirmed_but_not_first(self):
        c = check_claim(audit(InjectionRule.COLUMN_FILL, 4, 4))
        assert c.verdict is ClaimVerdict.CONFIRMED
        assert c.claimed_level == 6
        assert c.first_failure.level == 4
        assert c.first_failure_at_claimed_level is False

    def test_max_wt_claim(self):
        c = check_claim(audit(InjectionRule.MAX_WT, 3, 3))
        assert c.verdict is ClaimVerdict.CONFIRMED
        assert c.claimed_witnesses == ((1, 0, 0),)

    def test_min_base_value_claim_not_a_failure(self):
        c = check_claim(audit(InjectionRule.MIN_BASE_VALUE, 4, 4))
        assert c.verdict is ClaimVerdict.NOT_A_FAILURE
        assert c.claimed_witnesses == ((4, 0, 0, 0), (3, 1, 0, 0))

    def test_row_fill_claim_witnesses_live_in_original_box(self):
        c = check_claim(audit(InjectionRule.ROW_FILL_TRANSPOSE, 4, 4))
        assert c.verdict is ClaimVerdict.CONFIRMED
        for w in c.claimed_witnesses:
            assert sum(w) == c.claimed_level == 6
            BoxedPartition(w, (4, 4))  # must validate

    @pytest.mark.parametrize("rule", list(InjectionRule))
    def test_claimed_witnesses_are_what_check_claim_assumes(self, rule):
        # check_claim does not re-check these: the witnesses sit on the
        # claimed level and are distinct, only MaxWt's claim is a one-witness
        # tie (and fits every box), a collision rule maps both witnesses, and
        # ColumnFill claims 2b - 2.
        for a in range(1, 9):
            for b in range(1, 9):
                k, witnesses = _claimed_witnesses(rule, a, b)
                if rule is InjectionRule.COLUMN_FILL:
                    assert k == 2 * b - 2
                if witnesses is None:
                    assert rule is not InjectionRule.MAX_WT
                    continue
                assert all(w.box == (a, b) and w.weight == k for w in witnesses), (a, b)
                assert len({w.parts for w in witnesses}) == len(witnesses), (a, b)
                assert len(witnesses) == (1 if rule is InjectionRule.MAX_WT else 2)
                if len(witnesses) == 2:
                    assert all(apply_rule(rule, w) is not None for w in witnesses), (a, b)

    def test_row_fill_claim_is_the_printed_transposed_pair(self):
        for a in range(1, 9):
            for b in range(1, 9):
                claim = _claimed_witnesses(InjectionRule.ROW_FILL_TRANSPOSE, a, b)
                assert claim == _row_fill_claim_as_printed(a, b), (a, b)

    def test_max_wt_claim_with_a_side_of_one(self):
        # The claimed input (1, 0, ..., 0) has one candidate, so the rule is
        # defined on it; the claim at k = 1 is below the middle max(a, b) // 2
        # only from 4x1 and 1x4 on.
        audits = [
            audit(InjectionRule.MAX_WT, a, b)
            for a in range(1, 11)
            for b in range(1, 11)
            if min(a, b) == 1
        ]
        claims = [check_claim(r) for r in audits]
        for c in claims:
            expected = (
                ClaimVerdict.NOT_A_FAILURE if max(c.box) >= 4 else ClaimVerdict.NOT_APPLICABLE
            )
            assert c.verdict is expected, c.box
        assert criteria.injections_hold(audits, claims)

    def test_small_boxes_not_applicable(self):
        c = check_claim(audit(InjectionRule.COLUMN_FILL, 2, 2))
        assert c.verdict is ClaimVerdict.NOT_APPLICABLE

    def test_claim_judges_the_audit_it_is_given(self):
        for r in audit_all(4, 4, tuple(InjectionRule)):
            c = check_claim(r)
            assert c.first_failure is r
            assert (c.rule, c.box) == (r.rule, r.box)

    def test_grid_complete_and_stable(self):
        once = [check_claim(r) for r in audit_all(4, 4, tuple(InjectionRule))]
        twice = [check_claim(r) for r in audit_all(4, 4, tuple(InjectionRule))]
        assert [c.verdict for c in once] == [c.verdict for c in twice]
        assert len(once) == 4 * 4 * 4
