import math

import pytest

from gausslab.errors import EnumerationBudgetExceeded, NoSuccessor
from gausslab.injectlab import (
    AuditOutcome,
    BoxedPartition,
    ClaimVerdict,
    InjectionRule,
    RULE_BY_NUMBER,
    apply_rule,
    audit,
    audit_all,
    base_value,
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
        assert p.weight == 3 and p.a == 2 and p.b == 3

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

    def test_budget(self):
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_box(10, 10, budget=1000)

    def test_negative_budget_is_a_usage_error(self):
        with pytest.raises(ValueError, match="budget >= 0"):
            audit(InjectionRule.MAX_WT, 3, 3, budget=-1)

    def test_level_symmetry_under_conjugation(self):
        for a in range(1, 5):
            for b in range(1, 5):
                ours = [len(lv) for lv in levels(a, b)]
                theirs = [len(lv) for lv in levels(b, a)]
                assert ours == theirs


def _matrix(p):
    """0/1 matrix with a rows of width b; row i carries parts[i] leading ones."""
    return tuple(tuple(int(j < part) for j in range(p.b)) for part in p.parts)


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


class TestSelectionStatistics:
    def test_base_value(self):
        # digits in base b+1: (1,1) -> 4 and (2,0) -> 6 when b = 2
        assert base_value(BoxedPartition((1, 1), (2, 2))) == 4
        assert base_value(BoxedPartition((2, 0), (2, 2))) == 6

    def test_base_value_injective(self):
        for a in range(1, 5):
            for b in range(1, 5):
                values = [base_value(p) for p in enumerate_box(a, b)]
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
        with pytest.raises(NoSuccessor):
            apply_rule(InjectionRule.COLUMN_FILL, BoxedPartition((2, 2), (2, 2)))

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

    def test_small_boxes_not_applicable(self):
        c = check_claim(audit(InjectionRule.COLUMN_FILL, 2, 2))
        assert c.verdict is ClaimVerdict.NOT_APPLICABLE

    def test_claim_judges_the_audit_it_is_given(self):
        for r in audit_all(4, 4):
            c = check_claim(r)
            assert c.first_failure is r
            assert (c.rule, c.box) == (r.rule, r.box)

    def test_grid_complete_and_stable(self):
        once = [check_claim(r) for r in audit_all(4, 4)]
        twice = [check_claim(r) for r in audit_all(4, 4)]
        assert [c.verdict for c in once] == [c.verdict for c in twice]
        assert len(once) == 4 * 4 * 4
