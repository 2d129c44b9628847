import dataclasses
import itertools
import json
import math

import pytest

from gausslab import criteria, injectlab
from gausslab.cli import main
from gausslab.injectlab import (
    RULES,
    BoxedPartition,
    _claimed_witnesses,
    apply_rule,
    audit,
    audit_all,
    check_claim,
    conjugate,
    increment_candidates,
    iter_box,
    levels,
    wt,
)


def _box(a, b):
    """Every partition of the (a, b) box, in ascending lexicographic order."""
    return [BoxedPartition(parts, (a, b)) for parts in iter_box(a, b)]


class TestBoxedPartition:
    def test_valid(self):
        p = BoxedPartition((2, 1), (2, 3))
        assert p.parts == (2, 1) and p.box == (2, 3)

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
        assert list(iter_box(2, 2)) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]

    def test_counts(self):
        for a in range(1, 6):
            for b in range(1, 6):
                assert len(list(iter_box(a, b))) == math.comb(a + b, a)
                assert sum(map(len, levels(a, b))) == math.comb(a + b, a)

    def test_lex_sorted_and_unique(self):
        parts = list(iter_box(3, 3))
        assert parts == sorted(set(parts))

    def test_level(self):
        assert [p.parts for p in levels(2, 2)[2]] == [(1, 1), (2, 0)]
        assert [p.parts for p in levels(3, 4)[0]] == [(0, 0, 0)]
        for a, b in [(0, 3), (3, 0), (-1, 2)]:
            with pytest.raises(ValueError, match="^box sides must be positive$"):
                levels(a, b)

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

        monkeypatch.setattr(injectlab, "levels", refuse)
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
        for p in _box(3, 4):
            assert tuple(zip(*_matrix(p))) == _matrix(conjugate(p))

    def test_involution_and_weight(self):
        for a in range(1, 6):
            for b in range(1, 6):
                for p in _box(a, b):
                    back = conjugate(conjugate(p))
                    assert back == p
                    assert sum(conjugate(p).parts) == sum(p.parts)


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
    parts = list(p.parts)
    parts[j] += 1
    return BoxedPartition(tuple(parts), p.box)


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
                values = [_base_value(p) for p in _box(a, b)]
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
                for p in _box(a, b):
                    if sum(p.parts) == a * b:
                        assert increment_candidates(p) == []
                        continue
                    fast = {c.parts for c in increment_candidates(p)}
                    brute = {
                        q.parts
                        for q in by_level[sum(p.parts) + 1]
                        if all(x <= y for x, y in zip(p.parts, q.parts))
                    }
                    assert fast == brute


class TestApplyRule:
    def test_column_fill_collision_pair(self):
        box = (4, 4)
        lam = BoxedPartition((4, 2, 0, 0), box)
        dell = BoxedPartition((3, 3, 0, 0), box)
        assert apply_rule("ColumnFill", lam).parts == (4, 3, 0, 0)
        assert apply_rule("ColumnFill", dell).parts == (4, 3, 0, 0)

    def test_max_wt_tie(self):
        p = BoxedPartition((1, 0), (2, 2))
        assert apply_rule("MaxWt", p) is None
        cands = {c.parts for c in increment_candidates(p)}
        assert cands == {(2, 0), (1, 1)}
        assert {wt(c) for c in increment_candidates(p)} == {2}

    def test_min_base_value(self):
        p = BoxedPartition((1, 0), (2, 2))
        assert apply_rule("MinBaseValue", p).parts == (1, 1)

    def test_row_fill_transpose(self):
        # Transposed filling adds the new cell to the leftmost incomplete column.
        p = BoxedPartition((2, 1, 0), (3, 3))
        image = apply_rule("RowFillTranspose", p)
        assert image.parts == (2, 1, 1)

    def test_no_successor(self):
        with pytest.raises(ValueError, match=r"^\(2, 2\) fills its box$"):
            apply_rule("ColumnFill", BoxedPartition((2, 2), (2, 2)))

    def test_picks_match_the_definitions(self):
        # Each picking rule equals its definition on every non-full partition
        # of every box up to 8x8.
        references = {
            "ColumnFill": _column_fill,
            "RowFillTranspose": _row_fill_transpose,
            "MinBaseValue": _min_base_value,
        }
        checked = 0
        for a in range(1, 9):
            for b in range(1, 9):
                for p in _box(a, b):
                    if sum(p.parts) == a * b:
                        continue
                    checked += 1
                    for rule, reference in references.items():
                        assert apply_rule(rule, p) == reference(p), (rule, p.parts)
        assert checked == 48538

    def test_weight_increase_and_validity(self):
        for a in range(1, 5):
            for b in range(1, 5):
                for p in _box(a, b):
                    if sum(p.parts) == a * b:
                        continue
                    for rule in RULES:
                        image = apply_rule(rule, p)
                        if image is None:
                            continue
                        assert sum(image.parts) == sum(p.parts) + 1
                        assert image.box == p.box

    def test_domination_for_candidate_rules(self):
        for rule in ("MinBaseValue", "MaxWt"):
            for p in _box(3, 3):
                if sum(p.parts) == 9:
                    continue
                image = apply_rule(rule, p)
                if image is not None:
                    assert all(x <= y for x, y in zip(p.parts, image.parts))


class TestAudit:
    def test_max_wt_2_2(self):
        report = audit("MaxWt", 2, 2)
        assert report.outcome == "Undefined"
        assert report.k == 1
        assert report.witnesses == ((1, 0),)
        assert set(report.candidates) == {(2, 0), (1, 1)}

    def test_column_fill_2_2(self):
        report = audit("ColumnFill", 2, 2)
        assert report.outcome == "InjectiveUpToMiddle"
        assert report.levels_checked == 2

    def test_column_fill_4_4_first_failure(self):
        # The first collision sits at k = b: (b-1,1,0,..) and (b,0,..) share
        # the image (b,1,0,..).  That is below the documented level 2b-2.
        report = audit("ColumnFill", 4, 4)
        assert report.outcome == "Collision"
        assert report.k == 4
        assert set(report.witnesses) == {(3, 1, 0, 0), (4, 0, 0, 0)}
        assert report.image == (4, 1, 0, 0)

    def test_column_fill_first_failure_at_b_generally(self):
        for a in range(3, 7):
            for b in range(2, 7):
                if b >= (a * b) // 2:
                    continue
                report = audit("ColumnFill", a, b)
                assert report.outcome == "Collision"
                assert report.k == b

    def test_min_base_value_3_3(self):
        report = audit("MinBaseValue", 3, 3)
        assert report.outcome == "Collision"
        assert report.k == 3
        assert set(report.witnesses) == {(1, 1, 1), (2, 1, 0)}
        assert report.image == (2, 1, 1)

    def test_every_rule_fails_somewhere(self):
        for rule in RULES:
            outcomes = {
                audit(rule, a, b).outcome
                for a in range(1, 7)
                for b in range(1, 7)
            }
            assert outcomes - {"InjectiveUpToMiddle"}

    def test_deterministic(self):
        first = audit("MinBaseValue", 4, 4)
        second = audit("MinBaseValue", 4, 4)
        assert first == second

    def test_json_shape(self):
        # The record's fields are the JSON keys, so asdict is its JSON object.
        doc = json.loads(json.dumps(dataclasses.asdict(audit("MaxWt", 2, 2))))
        assert doc == {
            "rule": "MaxWt",
            "a": 2,
            "b": 2,
            "outcome": "Undefined",
            "k": 1,
            "witnesses": [[1, 0]],
            "image": None,
            "candidates": [[2, 0], [1, 1]],
            "levels_checked": 2,
        }

    def test_a_misspelt_rule_is_refused(self):
        with pytest.raises(ValueError, match="^unknown rule 'ColumFill'$"):
            apply_rule("ColumFill", BoxedPartition((1, 0), (2, 2)))
        # Also where no level is scanned: the 1x1 box has middle 0.
        for a, b in [(1, 1), (3, 3)]:
            with pytest.raises(ValueError, match="^unknown rule 'ColumFill'$"):
                audit("ColumFill", a, b)
        misspelt = dataclasses.replace(audit("ColumnFill", 3, 3), rule="ColumFill")
        with pytest.raises(ValueError, match="^unknown rule 'ColumFill'$"):
            check_claim(misspelt)


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
        # --rule n names RULES[n - 1].
        assert RULES == ("ColumnFill", "RowFillTranspose", "MinBaseValue", "MaxWt")

    def test_column_fill_claim_confirmed_but_not_first(self):
        c = check_claim(audit("ColumnFill", 4, 4))
        assert c.verdict == "Confirmed"
        assert c.claimed_k == 6
        assert c.first_failure.k == 4
        assert c.first_failure_at_claimed_level is False

    def test_max_wt_claim(self):
        c = check_claim(audit("MaxWt", 3, 3))
        assert c.verdict == "Confirmed"
        assert c.claimed_witnesses == ((1, 0, 0),)

    def test_min_base_value_claim_not_a_failure(self):
        c = check_claim(audit("MinBaseValue", 4, 4))
        assert c.verdict == "NotAFailure"
        assert c.claimed_witnesses == ((4, 0, 0, 0), (3, 1, 0, 0))

    def test_row_fill_claim_witnesses_live_in_original_box(self):
        c = check_claim(audit("RowFillTranspose", 4, 4))
        assert c.verdict == "Confirmed"
        for w in c.claimed_witnesses:
            assert sum(w) == c.claimed_k == 6
            BoxedPartition(w, (4, 4))  # must validate

    @pytest.mark.parametrize("rule", RULES)
    def test_claimed_witnesses_are_what_check_claim_assumes(self, rule):
        # check_claim does not re-check these: the witnesses sit on the
        # claimed level and are distinct, only MaxWt's claim is a one-witness
        # tie (and fits every box), a collision rule maps both witnesses, and
        # ColumnFill claims 2b - 2.
        for a in range(1, 9):
            for b in range(1, 9):
                k, witnesses = _claimed_witnesses(rule, a, b)
                if rule == "ColumnFill":
                    assert k == 2 * b - 2
                if witnesses is None:
                    assert rule != "MaxWt"
                    continue
                assert all(w.box == (a, b) and sum(w.parts) == k for w in witnesses), (a, b)
                assert len({w.parts for w in witnesses}) == len(witnesses), (a, b)
                assert len(witnesses) == (1 if rule == "MaxWt" else 2)
                if len(witnesses) == 2:
                    assert all(apply_rule(rule, w) is not None for w in witnesses), (a, b)

    def test_row_fill_claim_is_the_printed_transposed_pair(self):
        for a in range(1, 9):
            for b in range(1, 9):
                claim = _claimed_witnesses("RowFillTranspose", a, b)
                assert claim == _row_fill_claim_as_printed(a, b), (a, b)

    def test_max_wt_claim_with_a_side_of_one(self):
        # The claimed input (1, 0, ..., 0) has one candidate, so the rule is
        # defined on it; the claim at k = 1 is below the middle max(a, b) // 2
        # only from 4x1 and 1x4 on.
        audits = [
            audit("MaxWt", a, b)
            for a in range(1, 11)
            for b in range(1, 11)
            if min(a, b) == 1
        ]
        claims = [check_claim(r) for r in audits]
        for c in claims:
            expected = "NotAFailure" if max(c.a, c.b) >= 4 else "NotApplicable"
            assert c.verdict == expected, (c.a, c.b)
        assert criteria.injections_hold(audits, claims)

    def test_small_boxes_not_applicable(self):
        c = check_claim(audit("ColumnFill", 2, 2))
        assert c.verdict == "NotApplicable"

    def test_claim_judges_the_audit_it_is_given(self):
        for r in audit_all(4, 4, RULES):
            c = check_claim(r)
            assert c.first_failure is r
            assert (c.rule, c.a, c.b) == (r.rule, r.a, r.b)

    def test_grid_complete_and_stable(self):
        once = [check_claim(r) for r in audit_all(4, 4, RULES)]
        twice = [check_claim(r) for r in audit_all(4, 4, RULES)]
        assert [c.verdict for c in once] == [c.verdict for c in twice]
        assert len(once) == 4 * 4 * 4
