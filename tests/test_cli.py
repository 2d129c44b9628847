import ast
import contextlib
import dataclasses
import functools
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausslab
from gausslab import cli, criteria, injectlab, pathlab, polycore, posetlab, qgauss
from gausslab.cli import main
from gausslab.polycore import IntPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestGauss:
    def test_quotient(self, capsys):
        code, out = run(capsys, "gauss", "2", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["coeffs"] == ["1", "1", "2", "1", "1"]
        assert doc["v"] == 1

    def test_methods_agree(self, capsys):
        results = []
        for method in ("quotient", "pascal", "enum", "koh"):
            code, out = run(capsys, "gauss", "3", "3", "--method", method)
            assert code == 0
            results.append(json.loads(out)["coeffs"])
        assert len({tuple(r) for r in results}) == 1

    def test_koh_terms_breakdown(self, capsys):
        code, out = run(capsys, "gauss", "4", "2", "--method", "koh", "--terms")
        doc = json.loads(out)
        assert code == 0
        assert doc["rule"] == "calibrated"
        assert all({"exponent", "factors", "darga", "coefficients"} <= set(t) for t in doc["terms"])

    def test_koh_stated_rule(self, capsys):
        code, out = run(capsys, "gauss", "4", "2", "--method", "koh", "--koh-rule", "stated")
        assert code == 0
        assert json.loads(out)["coeffs"] != ["1", "1", "2", "2", "3", "2", "2", "1", "1"]

    @pytest.mark.parametrize("rule", list(qgauss.KOH_RULES))
    def test_koh_rule_is_named_in_the_output(self, capsys, rule):
        code, out = run(capsys, "gauss", "4", "2", "--method", "koh", "--koh-rule", rule)
        assert code == 0
        assert json.loads(out)["rule"] == rule

    def test_koh_rule_outside_the_table_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gauss", "4", "2", "--method", "koh", "--koh-rule", "minimal"])
        assert "invalid choice" in capsys.readouterr().err
        assert err.value.code == 2

    @pytest.mark.parametrize("method", [[], ["--method", "pascal"], ["--method", "enum"]])
    @pytest.mark.parametrize(
        "flag", [["--koh-rule", "stated"], ["--koh-rule", "calibrated"], ["--terms"]]
    )
    def test_koh_flags_need_method_koh(self, capsys, monkeypatch, method, flag):
        def no_route(*args):
            raise AssertionError("a route ran")

        for name in ("gaussian_quotient", "gaussian_pascal", "level_counts", "koh_sum"):
            monkeypatch.setattr(qgauss, name, no_route)
        assert main(["gauss", "4", "2", *method, *flag]) == 2
        assert capsys.readouterr() == ("", "error: --koh-rule and --terms need --method koh\n")

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "gauss", "5", "3", "--method", "koh", "--terms")
        _, second = run(capsys, "gauss", "5", "3", "--method", "koh", "--terms")
        assert first == second

    @pytest.mark.parametrize("method", ["quotient", "pascal", "enum", "koh"])
    @pytest.mark.parametrize("a, b", [(0, 3), (3, 0)])
    def test_zero_side_box_holds_only_the_empty_partition(self, capsys, method, a, b):
        code, out = run(capsys, "gauss", str(a), str(b), "--method", method)
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1"]

    @pytest.mark.parametrize("method", ["quotient", "pascal", "enum", "koh"])
    @pytest.mark.parametrize("a, b", [(-1, 3), (3, -1)])
    def test_negative_side_is_a_domain_error(self, capsys, method, a, b):
        code = main(["gauss", str(a), str(b), "--method", method])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_budget_exit_code(self, capsys):
        # gauss has no --budget: every route is bounded by the admission step.
        with pytest.raises(SystemExit) as err:
            main(["gauss", "12", "12", "--method", "enum", "--budget", "5"])
        assert err.value.code == 2
        assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


class TestCheck:
    def test_log_concave_failure_exit(self, capsys):
        code, out = run(capsys, "check", '["1","1","2","1","1"]', "--log-concave")
        assert code == 1
        assert json.loads(out)["checks"]["log_concave"] is False

    def test_all_checks_default(self, capsys):
        code, out = run(capsys, "check", '["1","2","1"]')
        doc = json.loads(out)
        assert code == 0
        checks = doc["checks"]
        assert checks["unimodal"] and checks["log_concave"] and checks["palindromic"]
        assert checks["real_rooted"] and checks["gamma_nonnegative"]
        assert checks["mode"] == 1

    def test_gamma_with_center(self, capsys):
        # The center is the darga: X + X^2 = X (1+X) is symmetric about 3/2.
        code, out = run(capsys, "check", '["0","1","1"]')
        doc = json.loads(out)
        assert code == 0
        assert doc["center"] == 3
        assert doc["checks"]["palindromic"] is True
        assert doc["checks"]["gamma"] == ["0", "1"]
        code, out = run(capsys, "check", '["0","1","2"]', "--gamma")
        doc = json.loads(out)
        assert code == 1
        assert doc["center"] == 3
        assert doc["checks"]["gamma"] is None

    def test_center_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check", '["1","1"]', "--center", "3"])
        assert err.value.code == 2
        assert "unrecognized arguments: --center 3" in capsys.readouterr().err

    def test_bad_json_usage_error(self, capsys):
        code = main(["check", "not-json", "--unimodal"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("flags", [
        [], ["--unimodal"], ["--log-concave"], ["--palindromic"], ["--gamma"],
    ])
    @pytest.mark.parametrize("coeffs", ["[]", '["0", 0]'])
    def test_zero_polynomial_is_refused(self, capsys, coeffs, flags):
        assert main(["check", coeffs, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: check needs a nonzero polynomial\n"


# Separating witnesses for the paper's shape hierarchy: the full `check`
# property vector of each, and the first k where Newton's inequality fails.
SHAPE_WITNESSES = [
    # unimodal and log-concave, yet Newton fails and a complex pair exists
    ([1, 1, 1], 1, {
        "unimodal": True, "mode": 0, "log_concave": True, "palindromic": True,
        "gamma_nonnegative": False, "gamma": ["1", "-1"], "real_rooted": False,
    }),
    # Newton holds and it is log-concave, but its internal zeros break
    # unimodality: log-concavity needs the no-internal-zeros hypothesis
    ([1, 0, 0, 1], None, {
        "unimodal": False, "mode": None, "log_concave": True, "palindromic": True,
        "gamma_nonnegative": False, "gamma": ["1", "-3"], "real_rooted": False,
    }),
    # palindromic with gamma = (1, 0, 5) >= 0, unimodal and log-concave,
    # yet Newton fails, so gamma-positivity does not give real roots
    ([1, 4, 11, 4, 1], 1, {
        "unimodal": True, "mode": 2, "log_concave": True, "palindromic": True,
        "gamma_nonnegative": True, "gamma": ["1", "0", "5"], "real_rooted": False,
    }),
]


class TestShapeHierarchy:
    @pytest.mark.parametrize("coeffs, newton_k, checks", SHAPE_WITNESSES)
    def test_separating_witness(self, capsys, coeffs, newton_k, checks):
        code, out = run(capsys, "check", json.dumps(coeffs))
        assert code == 1
        assert json.loads(out)["checks"] == checks
        assert polycore._newton_violation(coeffs) == newton_k


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer conversion limit before 3.10.7"
)
class TestPastTheDigitLimit:
    def test_sperner_bound_of_6019_digits(self, capsys):
        code, out = run(capsys, "sperner", "20000")
        assert code == 0
        bound = json.loads(out)["bound"]
        exact = math.comb(20000, 10000)
        assert len(bound) == 6019
        assert bound[:19] == str(exact // 10**6000)
        assert bound[-20:] == str(exact % 10**20).zfill(20)

    def test_a_5000_digit_coefficient_comes_back_exactly(self, capsys):
        ones = "1" * 5000
        code, out = run(capsys, "check", json.dumps([ones]))
        assert code == 0
        doc = json.loads(out)
        assert doc["coeffs"] == [ones] and doc["checks"]["gamma"] == [ones]

    @pytest.mark.parametrize("argv", [["check", "[1]"], ["check", "not-json"], ["no-such-command"]])
    def test_the_limit_is_restored(self, capsys, argv):
        before = sys.get_int_max_str_digits()
        with contextlib.suppress(SystemExit):
            main(argv)
        capsys.readouterr()
        assert sys.get_int_max_str_digits() == before != 0


class TestInjectionAudit:
    def test_rule_4_small_box(self, capsys):
        code, out = run(capsys, "injection-audit", "--rule", "4", "--amax", "2", "--bmax", "2")
        assert code == 0
        doc = json.loads(out)
        box22 = next(r for r in doc["audits"] if r["a"] == 2 and r["b"] == 2)
        assert box22["outcome"] == "Undefined"
        assert box22["k"] == 1
        assert box22["witnesses"] == [[1, 0]]

    def test_verify_claims(self, capsys):
        code, out = run(capsys, "injection-audit", "--rule", "1", "--amax", "4", "--bmax", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        claim44 = next(c for c in doc["claims"] if c["a"] == 4 and c["b"] == 4)
        assert claim44["verdict"] == "Confirmed"
        assert claim44["claimed_k"] == 6
        assert claim44["first_failure"]["k"] == 4

    @pytest.mark.parametrize("argv, audits", [
        (["report", "--amax", "4", "--bmax", "4"], 64),
        (["injection-audit", "--rule", "1", "--amax", "4", "--bmax", "4"], 16),
    ])
    def test_each_box_is_audited_once(self, capsys, monkeypatch, argv, audits):
        calls = []
        audit = injectlab.audit

        def counted(*args, **kwargs):
            calls.append(args)
            return audit(*args, **kwargs)

        monkeypatch.setattr(injectlab, "audit", counted)
        code, _ = run(capsys, *argv)
        assert code == 0
        assert len(calls) == len(set(calls)) == audits

    @pytest.mark.parametrize("rule, amax, bmax", [("all", 4, 4), ("3", 5, 3)])
    def test_matches_the_report_section(self, capsys, rule, amax, bmax):
        box = ["--amax", str(amax), "--bmax", str(bmax)]
        code, out = run(capsys, "injection-audit", "--rule", rule, *box)
        assert code == 0
        audited = json.loads(out)
        code, out = run(capsys, "report", *box)
        assert code == 0
        section = json.loads(out)["sections"]["injections"]
        if rule != "all":
            # The report audits every rule; compare this rule's entries.
            name = injectlab.RULE_BY_NUMBER[int(rule)].value
            section = {
                key: [entry for entry in section[key] if entry["rule"] == name]
                if key != "pass" else value
                for key, value in section.items()
            }
        assert {key: audited[key] for key in section} == section

    @pytest.mark.parametrize("flag", ["--table", "--verify-claims", "--out"])
    def test_the_removed_flags_are_usage_errors(self, capsys, flag):
        # Both commands print their document to stdout only.
        for command in ("injection-audit", "report"):
            with pytest.raises(SystemExit) as err:
                main([command, "--amax", "2", "--bmax", "2", flag])
            assert err.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestPosetCommands:
    def test_sperner_exhaustive(self, capsys):
        code, out = run(capsys, "sperner", "4", "--exhaustive")
        doc = json.loads(out)
        assert code == 0
        assert doc["exhaustive"]["max_size"] == "6"
        assert doc["exhaustive"]["num_maximum"] == "1"

    def test_lym(self, capsys):
        code, out = run(capsys, "lym", "3", "[[1,2],[3]]")
        doc = json.loads(out)
        assert code == 0
        assert doc["sum"] == "2/3"
        assert doc["bound_holds"] is True

    def test_lym_not_antichain(self, capsys):
        code = main(["lym", "3", "[[1],[1,2]]"])
        capsys.readouterr()
        assert code == 2

    def test_bruhat(self, capsys):
        code, out = run(capsys, "bruhat", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["rank_histogram"] == ["1", "2", "2", "1"]
        assert doc["matches_q_factorial"] is True
        assert doc["num_covers"] == 6

    def test_stirling(self, capsys):
        code, out = run(capsys, "stirling", "4")
        doc = json.loads(out)
        assert code == 0
        assert doc["row"] == ["1", "7", "6", "1"]

    def test_eulerian(self, capsys):
        code, out = run(capsys, "eulerian", "4")
        doc = json.loads(out)
        assert code == 0
        assert doc["coeffs"] == ["1", "11", "11", "1"]
        assert all(doc["checks"].values())


class TestPathCommands:
    def test_fab(self, capsys):
        code, out = run(capsys, "paths", "fab", "2", "2", "4")
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == "6" and doc["agree"] is True

    def test_fab_parity_error(self, capsys):
        code = main(["paths", "fab", "1", "1", "3"])
        capsys.readouterr()
        assert code == 2

    def test_monotone(self, capsys):
        code, out = run(capsys, "paths", "monotone", "6", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["injective"] is True and doc["source_count"] == "15"

    def test_sagan(self, capsys):
        code, out = run(capsys, "paths", "sagan", "4", "4")
        doc = json.loads(out)
        assert code == 0
        assert doc["sequence"] == ["1", "16", "36", "16", "1"]


class TestReport:
    def test_report_small(self, capsys):
        code, out = run(capsys, "report", "--amax", "3", "--bmax", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["sections"]["gaussian"]["pass"] is True
        grid = doc["sections"]["gaussian"]["grid"]
        assert all(cell["four_way_agreement"] for cell in grid)
        stated = {(c["a"], c["b"]): c["stated_rule_agrees"] for c in grid}
        assert all(agree == (a == b) for (a, b), agree in stated.items())

    def test_report_digest(self, capsys):
        code, out = run(capsys, "report", "--amax", "4", "--bmax", "4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "20036cfdbaf9d6e5f7814d6021f095cb4782a1158bde6826f7fbefcc4dd7862a"
        )

    @pytest.mark.parametrize(
        "side, boxes, digest",
        [
            (8, 64, "d2190ec6ea919bcfbd13938f5cd05b18118028b685b5a2d47c7f55e736667ab6"),
            (3, 36, "1caa2c60200f3c1d601bade1fc8068b3719b69abc35897efcfb48135196c45ad"),
        ],
        ids=["8-64", "3-36"],
    )
    def test_each_box_is_enumerated_once(self, capsys, monkeypatch, side, boxes, digest):
        # The grid's boxes and the 36 calibration boxes up to 6x6 share one
        # enumeration each: 64 at 8x8 (the grid covers all 36), 9 + 27 at 3x3.
        # The 8x8 report is the benchmark's workload, so its bytes are pinned too.
        calls = []
        enumerate_counts = qgauss.level_counts

        def counted(a, b, *rest):
            calls.append((a, b))
            return enumerate_counts(a, b, *rest)

        monkeypatch.setattr(qgauss, "level_counts", counted)
        code, out = run(capsys, "report", "--amax", str(side), "--bmax", str(side))
        assert code == 0
        assert len(calls) == len(set(calls)) == boxes
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_report_deterministic(self, capsys):
        code1, out1 = run(capsys, "report", "--amax", "2", "--bmax", "2")
        code2, out2 = run(capsys, "report", "--amax", "2", "--bmax", "2")
        assert code1 == code2 == 0
        assert out1 == out2


def _stated_rule_is_calibrated(monkeypatch):
    monkeypatch.setitem(qgauss.KOH_RULES, "stated", qgauss.calibrated_argument)


def _max_wt_claim_one_level_up(monkeypatch):
    claimed = injectlab._claimed_witnesses

    def shifted(rule, a, b):
        k, witnesses = claimed(rule, a, b)
        return (k + 1 if rule is injectlab.InjectionRule.MAX_WT else k), witnesses

    monkeypatch.setattr(injectlab, "_claimed_witnesses", shifted)


def _row_fill_claim_untransposed(monkeypatch):
    # RowFillTranspose gets ColumnFill's claim in the (a, b) box itself; only
    # the transposition tells the two claims apart.
    claimed = injectlab._claimed_witnesses
    rules = injectlab.InjectionRule

    def untransposed(rule, a, b):
        return claimed(rules.COLUMN_FILL if rule is rules.ROW_FILL_TRANSPOSE else rule, a, b)

    monkeypatch.setattr(injectlab, "_claimed_witnesses", untransposed)


def _max_wt_side_one_verdicts_swapped(monkeypatch):
    # With a side of 1 the MaxWt claim is either not applicable (below 4x1 and
    # 1x4, the middle is at most 1) or not a failure; swap the two.
    judged = injectlab.check_claim
    swap = {
        injectlab.ClaimVerdict.NOT_A_FAILURE: injectlab.ClaimVerdict.NOT_APPLICABLE,
        injectlab.ClaimVerdict.NOT_APPLICABLE: injectlab.ClaimVerdict.NOT_A_FAILURE,
    }

    def swapped(first):
        c = judged(first)
        if c.rule is injectlab.InjectionRule.MAX_WT and min(c.box) == 1:
            return dataclasses.replace(c, verdict=swap[c.verdict])
        return c

    monkeypatch.setattr(injectlab, "check_claim", swapped)


def _max_wt_ties_broken_by_order(monkeypatch):
    # MaxWt takes the first of its tied candidates instead of refusing to choose.
    apply = injectlab.apply_rule

    def first_of_ties(rule, p):
        image = apply(rule, p)
        return max(injectlab.increment_candidates(p), key=injectlab.wt) if image is None else image

    monkeypatch.setattr(injectlab, "apply_rule", first_of_ties)


def _stirling_row_with_a_dip(monkeypatch):
    row = posetlab.stirling_row
    monkeypatch.setattr(posetlab, "stirling_row", lambda n: [1, 0] + row(n))


def _closed_form_off_by_one(monkeypatch):
    closed = pathlab.count_free_closed_form
    monkeypatch.setattr(pathlab, "count_free_closed_form", lambda a, b, n: closed(a, b, n) + 1)


def _boros_moll_P_one_index_low(monkeypatch):
    build = polycore.boros_moll_P
    monkeypatch.setattr(polycore, "boros_moll_P", lambda m, r: build(m, max(r - 1, 0)))


def _always_log_concave(monkeypatch):
    monkeypatch.setattr(polycore, "is_log_concave", lambda f: True)


def _one_box_not_palindromic(monkeypatch):
    # Every route gives the (2, 3) box the same unimodal sequence of darga 6
    # that is not symmetric, so route agreement, unimodality, darga and the
    # calibration all still hold; only the symmetry check can see it.  The
    # stated KOH rule is left alone: off the diagonal it must still disagree.
    lopsided = IntPoly([1, 2, 2, 2, 1, 1, 1])
    faked = {
        "gaussian_quotient": lopsided,
        "gaussian_pascal": lopsided,
        "level_counts": list(lopsided.coeffs),
        "koh_sum": (lopsided, []),
    }
    for name, value in faked.items():
        route = getattr(qgauss, name)

        def patched(a, b, *args, route=route, value=value, **kwargs):
            if (a, b) == (2, 3) and qgauss.KOH_RULES["stated"] not in args:
                return value
            return route(a, b, *args, **kwargs)

        monkeypatch.setattr(qgauss, name, patched)


def _minimal_edit_reproduces_enumeration(monkeypatch):
    monkeypatch.setattr(qgauss, "minimal_edit_argument", qgauss.calibrated_argument)


SECTIONS = ("gaussian", "injections", "posets", "paths", "shapes")


class TestReportCanFail:
    @pytest.mark.parametrize(
        "section, fault",
        [
            ("gaussian", _stated_rule_is_calibrated),
            ("gaussian", _one_box_not_palindromic),
            ("gaussian", _minimal_edit_reproduces_enumeration),
            ("injections", _max_wt_claim_one_level_up),
            ("injections", _row_fill_claim_untransposed),
            ("injections", _max_wt_side_one_verdicts_swapped),
            ("injections", _max_wt_ties_broken_by_order),
            ("posets", _stirling_row_with_a_dip),
            ("paths", _closed_form_off_by_one),
            ("shapes", _boros_moll_P_one_index_low),
            ("shapes", _always_log_concave),
        ],
    )
    def test_one_fault_fails_only_its_section(self, capsys, monkeypatch, section, fault):
        fault(monkeypatch)
        code, out = run(capsys, "report", "--amax", "3", "--bmax", "3")
        doc = json.loads(out)
        assert code == 1
        assert doc["pass"] is False
        assert {name: s["pass"] for name, s in doc["sections"].items()} == {
            name: name != section for name in SECTIONS
        }
        if section == "injections":
            # injection-audit prints the same section, so the fault fails it too.
            code, out = run(capsys, "injection-audit", "--amax", "3", "--bmax", "3")
            assert code == 1
            assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize(
        "fault, key",
        [
            (_boros_moll_P_one_index_low, "shift_identity_weight_families_m_le_8"),
            (_always_log_concave, "g22_unimodal_palindromic_not_log_concave"),
        ],
    )
    def test_each_shape_fault_fails_only_its_check(self, capsys, monkeypatch, fault, key):
        fault(monkeypatch)
        _, out = run(capsys, "report", "--amax", "2", "--bmax", "2")
        shapes = json.loads(out)["sections"]["shapes"]
        assert {name: held for name, held in shapes.items() if name != "pass"} == {
            name: name != key for name in shapes if name != "pass"
        }

    def test_a_lopsided_box_fails_only_its_symmetry_check(self, capsys, monkeypatch):
        _one_box_not_palindromic(monkeypatch)
        _, out = run(capsys, "report", "--amax", "3", "--bmax", "3")
        gaussian = json.loads(out)["sections"]["gaussian"]
        assert gaussian["calibration_selects_calibrated_rule_a_b_le_6"] is True
        for cell in gaussian["grid"]:
            assert cell["darga_palindromic"] is ((cell["a"], cell["b"]) != (2, 3))
            assert cell["four_way_agreement"] and cell["unimodal"]
            assert cell["darga"] == cell["a"] * cell["b"]
            assert cell["stated_rule_agrees"] is (cell["a"] == cell["b"])


def _never_real_rooted(monkeypatch):
    monkeypatch.setattr(polycore, "is_real_rooted", lambda poly: False)


def _sources_miscounted(monkeypatch):
    # Source and image counts drop together, so only the C(n, k) check sees it.
    built = pathlab.monotone_injection

    def miscounted(n, k):
        cert = built(n, k)
        return dataclasses.replace(
            cert, source_count=cert.source_count - 1, image_count=cert.image_count - 1
        )

    monkeypatch.setattr(pathlab, "monotone_injection", miscounted)


def _one_maximum_too_many(monkeypatch):
    search = posetlab.max_antichain

    def miscounted(n):
        found = search(n)
        return dataclasses.replace(found, num_maximum=found.num_maximum + 1)

    monkeypatch.setattr(posetlab, "max_antichain", miscounted)


class TestSharedChecksCanFail:
    @pytest.mark.parametrize(
        "argv, range_check, fault",
        [
            (["eulerian", "4"], lambda: criteria.eulerian_suite_holds(4), _never_real_rooted),
            (["paths", "fab", "2", "2", "4"], lambda: criteria.free_walks_hold(2, 4),
             _closed_form_off_by_one),
            (["paths", "monotone", "6", "2"], lambda: criteria.monotone_injections_hold(6),
             _sources_miscounted),
            (["sperner", "4", "--exhaustive"],
             lambda: criteria.sperner_holds(posetlab.max_antichain(4)), _one_maximum_too_many),
        ],
    )
    def test_one_fault_fails_the_subcommand_and_the_range_check(
        self, capsys, monkeypatch, argv, range_check, fault
    ):
        fault(monkeypatch)
        assert main(argv) == 1
        capsys.readouterr()
        assert not range_check()


class TestInputContract:
    @pytest.mark.parametrize(
        "coeffs", ["[[1]]", "[null]", "[true,1]", "[1.5]", '["1.5"]', '[" 1"]', '"12"']
    )
    def test_check_rejects_non_integer_coefficients(self, capsys, coeffs):
        code = main(["check", coeffs])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_check_accepts_ints_and_decimal_strings(self, capsys):
        code, out = run(capsys, "check", '[1, "-2", "30"]', "--unimodal")
        assert code == 1
        assert json.loads(out)["coeffs"] == ["1", "-2", "30"]

    @pytest.mark.parametrize("family", ["{}", "[[1,2],5]", '[["1"]]', "[[true]]", "[[1.0]]"])
    def test_lym_rejects_malformed_families(self, capsys, family):
        code = main(["lym", "3", family])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def _fresh_process(*args):
    """``python -m ARGS`` in a new interpreter that imports the gausslab under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gausslab.__file__)))
    return subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


class TestOneProcess:
    ARGVS = (
        ["gauss", "6", "5"],
        ["check", '["1","11","11","1"]'],
        ["eulerian", "6"],
        ["gauss", "6", "5"],
    )

    def test_parser_built_once_and_outputs_match_fresh_processes(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counted_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted_build)
        in_process = []
        for argv in self.ARGVS:
            code = main(list(argv))
            in_process.append((code, capsys.readouterr().out))
        assert len(built) == 1
        for argv, (code, out) in zip(self.ARGVS, in_process):
            fresh = _fresh_process("gausslab.cli", *argv)
            assert (fresh.returncode, fresh.stdout) == (code, out)

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestPythonDashM:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gauss", "5", "3", "--method", "koh"],
            ["check", '["1","3","5","3","1"]'],
            ["gauss", "-1", "3"],
        ],
    )
    def test_runs_main_with_its_output_and_exit_code(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        fresh = _fresh_process("gausslab", *argv)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, captured.out, captured.err)


class TestOverflowedSlotExitsTwo:
    def test_gauss_40_40_pascal(self, capsys, monkeypatch):
        # Slots one byte narrower than the largest coefficient of G(40, 40) needs.
        width = polycore.slot_bytes(max(qgauss.gaussian_quotient(40, 40).coeffs)) - 1
        monkeypatch.setattr(qgauss, "slot_bytes", lambda bound: width)
        code = main(["gauss", "40", "40", "--method", "pascal"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# One invocation per subcommand and mode: the sha256 of stdout + stderr and the
# exit code, as the CLI printed them before its handlers shared one output path.
# The injection-audit entries date from when it began to print the injections
# section of ``report``: its audits, the replayed claims and the verdict.  The
# three exit-3 entries date from the admission step, which words every refusal
# as "<command> needs <limit>"; `gauss` lost its --budget then, so its exit-3
# entry is a box past the enum route's limit.  The `check` of X + X^2 dates from
# when the darga became the only center; it replaced a `check --center` entry.
# The injection-audit refusal dates from when the box-range limit became fixed
# and its line stopped naming a --budget.  The two `paths monotone` entries date
# from when the line lost its one-valued orientation and kept only its offset.
# The 8x8 report is the document the benchmark's report workload prints.
GOLDEN = [
    (["gauss", "5", "3"], 0,
     "18d88997aaba130ec951e26ddc7f02f4ddd0e2dbd3a28aad7b08b831724cbdfd"),
    (["gauss", "5", "3", "--method", "pascal"], 0,
     "d8a48f0735a3734cf51f0a9c5d19b6bee83b1497ba4e8d6574109d1ae0dd71e4"),
    (["gauss", "5", "3", "--method", "enum"], 0,
     "bd6cfe939e72d002270fb770b4113cf6137930c52cc0865b9bfdd76c51cf6604"),
    (["gauss", "5", "3", "--method", "koh"], 0,
     "b22607dfbfc1cdbd27e7094630032b8899e8f6a527bd8a540b0ee43d50ed18a9"),
    (["gauss", "4", "2", "--method", "koh", "--terms"], 0,
     "657413caef56b4472149882b88effa9557fcea6d126d8a9e06ffa4f8051ad625"),
    (["gauss", "4", "2", "--method", "koh", "--koh-rule", "stated"], 0,
     "a65226b292cc0b70960e23df60236acd11270f48a0eabee98c766b33c854c5d5"),
    (["gauss", "-1", "3"], 2,
     "347b3488a601d070a39770f2d266953a5566accb5cafce85556fb77cb41a5d7d"),
    (["gauss", "12", "12", "--method", "enum"], 3,
     "38b154964a655b772e95653b360d6eee7e3a1e1a9aadbf604b837d413f2e875e"),
    (["check", '["1","3","5","3","1"]'], 1,
     "a284e1eda75eca92f5c15dc6088bef63a91e8ba282c29d4767e42bcb7eb2753f"),
    (["check", '["1","3","5","3","1"]', "--unimodal"], 0,
     "f7d5d3cf9fe15b37873a893be3b9f02aca116b04b0a0f75cd717ec648a58c77a"),
    (["check", '["1","1","2","1","1"]', "--log-concave"], 1,
     "310f09fad938346b5fa98710549cdd480236d5b9bb93513a83b13866852b4ed2"),
    (["check", '["1","3","5","3","1"]', "--palindromic"], 0,
     "b3de1954d7cb2b2b65712bacb3d75fe94ec3436d6da5de95e76bf788ad9af940"),
    (["check", '["1","3","5","3","1"]', "--gamma"], 1,
     "264c1e83a526c443ad4aca02a162d6defe951c8c01b0a302a5a6ed6b570a1b50"),
    (["check", '["1","3","5","3","1"]', "--real-rooted"], 1,
     "bcc8d4adc6d4e13b104250969468b9821d7f98caf1d7d6a45d0c9cfd59d094a6"),
    (["check", '["0","1","1"]'], 0,
     "655604d311518667af44ce3525389d42f9238f2649f1273fa3364a10a062fd56"),
    (["check", '["1","11","11","1"]'], 0,
     "de408bbf54995ed583cc973e3f2a9601f07202aee972895bb6be710f163f1e51"),
    (["check", "not-json"], 2,
     "26ed9b2a26473764f82e18a8da58c232a2cc19ae24e61f9fb079a264e820121e"),
    (["injection-audit", "--amax", "3", "--bmax", "3"], 0,
     "0b162f7fcf5fd6da05ea4656b89c50c41d67f19448a1d235dec37e3d2f99f5a6"),
    (["injection-audit", "--rule", "1", "--amax", "4", "--bmax", "4"], 0,
     "f8b1052ee68a710eccdba54e9fa57aa4c5802c8ab02c2f0bea9faf0e9144950d"),
    (["injection-audit", "--rule", "3", "--amax", "5", "--bmax", "3"], 0,
     "6ac450f740f990708d393a65af174a270ef97d152a31a5063b2122092143782b"),
    (["injection-audit", "--amax", "13", "--bmax", "13"], 3,
     "59b832673402fc880ae63afb7e02be68dafb16ee9c11f37879e7feb24d6c7eee"),
    (["sperner", "5"], 0,
     "6d14095e3f2e8519c67245a655c6903ad261fcf05cc83b37fbcc0f13d30cf167"),
    (["sperner", "4", "--exhaustive"], 0,
     "43aee2820ba5df16c47e503ff330f32973d9f078b098a24b4f98b7b532de96ee"),
    (["sperner", "6", "--exhaustive"], 3,
     "d62c2f5714446d0dc6270cd1c9c97cd0df28908f17ff67036afb0d93cdca11bd"),
    (["lym", "3", "[[1,2],[3]]"], 0,
     "354751c10d962ff15dbe9eeee65e6b4664147ed5b886397fdab3916bf3739391"),
    (["lym", "4", "[[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]"], 0,
     "af72f42e1479fa7f8e0281d59cd2e548a027ee999f6c15bf1133bc6930b9d0dc"),
    (["lym", "3", "[[1],[1,2]]"], 2,
     "84567f2718540f93cb87a11ea62822d36a6aa165dcfae2569994fde39ccf9458"),
    (["bruhat", "4"], 0,
     "35846382b7bf6af983fa3390461166fdb8f836d497e018b0ccbdf71296f94fef"),
    (["stirling", "6"], 0,
     "83bb8679e87f25614b422c4ea6ca447cae6e8ca1fac5973c6cd371835e0b2fca"),
    (["eulerian", "6"], 0,
     "ff6b3df8814bf2b84fec91822d7b3996b5f1b13303addc8a02d0b7cd8a1e64aa"),
    (["paths", "fab", "2", "2", "4"], 0,
     "7e1fb03b21bdcf74e81aa55f78f65c8b2b996ebed9e65bae3ed6af1a18cbba04"),
    (["paths", "fab", "1", "1", "3"], 2,
     "71e73763fc965f649f4a4e979140c74cbb30beb45e27dbb770d64dfdda239cca"),
    (["paths", "monotone", "4", "1", "--show-map"], 0,
     "007f089f1afe182cd54ff9b0c88f655007a34c62a6ff8caf8e718b7b4cee9c29"),
    (["paths", "monotone", "6", "2"], 0,
     "5178044af8e15188a6f9540a3aea0fc7dfcbefb73428eb98c08cf8a55d5d8102"),
    (["paths", "sagan", "4", "4"], 0,
     "8a1b0690c103be38e18624a0cb7db87c2719fa6eeb174bd6cbdb5f6fbc545095"),
    (["report", "--amax", "4", "--bmax", "4"], 0,
     "20036cfdbaf9d6e5f7814d6021f095cb4782a1158bde6826f7fbefcc4dd7862a"),
    (["report"], 0,
     "94ea9f0ff3b47fe4dff055d2edeba2082560fb5cf75f0bbcca7b95215006bade"),
    (["report", "--amax", "8", "--bmax", "8"], 0,
     "d2190ec6ea919bcfbd13938f5cd05b18118028b685b5a2d47c7f55e736667ab6"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("argv, code, digest", GOLDEN)
    def test_output_and_exit_code_are_pinned(self, capsys, argv, code, digest):
        assert main(list(argv)) == code
        captured = capsys.readouterr()
        assert hashlib.sha256((captured.out + captured.err).encode()).hexdigest() == digest


# IntPoly methods that no command line calls, each kept for the reason given.
INTPOLY_UNCALLED = {
    "__repr__": "for people and doctests",
    "__bool__": "without it the zero polynomial would be truthy",
}


def _counting(fn, name, called):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)

    return counted


class TestIntPolyMethodsAreCalled:
    def test_every_method_is_called_by_a_command_line(self, capsys, monkeypatch):
        # The reachability walk counts a reached class's dunders as reached,
        # so an operator that only tests use passes it; running every GOLDEN
        # command line with each method of IntPoly's class body counted does
        # not.  An alias such as ``__rmul__ = __mul__`` counts on its own.
        cls = ast.parse(inspect.getsource(IntPoly)).body[0]
        names = [m.name for m in cls.body if isinstance(m, ast.FunctionDef)] + [
            t.id for m in cls.body if isinstance(m, ast.Assign) for t in m.targets
        ]
        called = set()
        for name in names:
            raw = vars(IntPoly)[name]
            if isinstance(raw, property):
                wrapped = property(_counting(raw.fget, name, called))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(_counting(raw.__func__, name, called))
            else:
                wrapped = _counting(raw, name, called)
            monkeypatch.setattr(IntPoly, name, wrapped)
        for argv, code, _ in GOLDEN:
            assert main(list(argv)) == code, argv
        capsys.readouterr()
        uncalled = {name for name in names if name not in called}
        assert uncalled == set(INTPOLY_UNCALLED), "called by no command line: " + ", ".join(
            sorted(uncalled - set(INTPOLY_UNCALLED))
        )


class _Built(Exception):
    """Raised by a spy that stands in for a row builder."""


# 50,000 levels of nesting: past the JSON decoder's recursion guard.
_DEEP_JSON = "[" * 50_000 + "]" * 50_000


class TestExitTwo:
    def test_a_stdout_that_cannot_be_written(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["report", "--amax", "1", "--bmax", "1"]) == 2
        assert capsys.readouterr() == ("", "error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--amax", "0", "--bmax", "0"],
            ["report", "--amax", "-2", "--bmax", "3"],
            ["report", "--amax", "3", "--bmax", "0"],
            ["injection-audit", "--amax", "0", "--bmax", "0"],
            ["injection-audit", "--amax", "4", "--bmax", "-1"],
            ["stirling", "0"],
            ["stirling", "-3"],
            ["lym", "-1", "[]"],
            ["bruhat", "0"],
            ["paths", "fab", "1", "1", "0"],
            ["paths", "monotone", "4", "2"],
            ["paths", "sagan", "3", "4"],
        ],
    )
    def test_empty_or_meaningless_range(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need ") and captured.err.count("\n") == 1

    def test_sperner_past_its_cap(self, capsys, monkeypatch):
        # Refused before the bound is computed, let alone printed.
        monkeypatch.setattr(posetlab, "sperner_bound", None)
        assert main(["sperner", str(cli.N_LIMITS["sperner"] + 1)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "budget exceeded: sperner needs n <= 100000\n"

    @pytest.mark.parametrize(
        "argv, module, builder, cap",
        [
            (lambda n: ["stirling", n], posetlab, "stirling_row", cli.N_LIMITS["stirling"]),
            (lambda n: ["eulerian", n], posetlab, "eulerian", cli.N_LIMITS["eulerian"]),
            (lambda n: ["paths", "sagan", n, "1"], pathlab, "sagan_sequence",
             cli.N_LIMITS["paths sagan"]),
            (lambda n: ["bruhat", n], posetlab, "inversion_polynomial", cli.N_LIMITS["bruhat"]),
            (lambda n: ["sperner", n, "--exhaustive"], posetlab, "max_antichain",
             cli.N_LIMITS["sperner --exhaustive"]),
            (lambda n: ["paths", "fab", "1", "1", n], pathlab, "count_free",
             cli.N_LIMITS["paths fab"]),
        ],
    )
    def test_one_number_commands_past_their_caps(
        self, capsys, monkeypatch, argv, module, builder, cap
    ):
        # A spy in place of the builder: never called past the cap, called at it.
        built = []

        def spy(*args):
            built.append(args)
            raise _Built

        monkeypatch.setattr(module, builder, spy)
        assert main(argv(str(cap + 1))) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded: ")
        assert captured.err.endswith(f" needs n <= {cap}\n")
        assert built == []
        with pytest.raises(_Built):
            main(argv(str(cap)))
        assert len(built) == 1 and cap in built[0]

    @pytest.mark.parametrize("argv", [["check", _DEEP_JSON], ["lym", "3", _DEEP_JSON]])
    def test_json_nested_too_deeply_to_parse(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert " not valid JSON: " in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @staticmethod
    def _spy_on_every_builder(monkeypatch) -> list:
        """Spies in place of the builders of every box in range; each raises _Built."""
        built = []

        def spy(*args, **kwargs):
            built.append(args)
            raise _Built

        for module, builder in [(posetlab, "max_antichain"), (qgauss, "level_counts"),
                                (injectlab, "audit_all"), (injectlab, "audit"),
                                (injectlab, "enumerate_box")]:
            monkeypatch.setattr(module, builder, spy)
        return built

    @pytest.mark.parametrize("command", ["report", "injection-audit"])
    def test_an_over_budget_range_is_refused_before_any_work(self, capsys, monkeypatch, command):
        # The boxes up to 12x13 hold 223,315,663 parts, up to 13x13 484,073,550
        # and up to 1000x1 334,334,000, each past the limit of 150,000,000.
        built = self._spy_on_every_builder(monkeypatch)
        for amax, bmax in [(12, 13), (13, 13), (1000, 1)]:
            start = time.perf_counter()
            assert main([command, "--amax", str(amax), "--bmax", str(bmax)]) == 3
            assert time.perf_counter() - start < 1.0
            assert built == []
            assert capsys.readouterr() == (
                "", f"budget exceeded: {command} needs at most 150000000 parts\n"
            )

    @pytest.mark.parametrize("command", ["report", "injection-audit"])
    def test_the_largest_box_is_held_to_the_budget(self, capsys, monkeypatch, command):
        # With every smaller box: the limit counts the parts of the whole range.
        # 13x13 alone holds 13 C(26, 13) = 135,207,800 parts, within the limit,
        # but its range is refused; the range up to 12x12 holds 115,149,423.
        assert 13 * math.comb(26, 13) <= cli.BOX_PARTS_LIMIT
        built = self._spy_on_every_builder(monkeypatch)
        assert main([command, "--amax", "13", "--bmax", "13"]) == 3
        assert built == []
        with pytest.raises(_Built):
            main([command, "--amax", "12", "--bmax", "12"])
        assert built
        capsys.readouterr()


# Each box-sized entry of the admission table: the command line at its limit and
# one step past it, and the builder that a spy replaces.
BOX_LIMITS = [
    (["gauss", "300", "300"], ["gauss", "300", "301"], qgauss, "gaussian_quotient"),
    # Thin quotient boxes: the kernel's residue-class slices number none at
    # a = 0, one a step at a = 1 and i at step i from a = 2 on.
    (["gauss", "0", "9053"], ["gauss", "0", "9054"], qgauss, "gaussian_quotient"),
    (["gauss", "1", "6399"], ["gauss", "1", "6400"], qgauss, "gaussian_quotient"),
    (["gauss", "2", "3241"], ["gauss", "2", "3242"], qgauss, "gaussian_quotient"),
    (["gauss", "150", "150", "--method", "pascal"], ["gauss", "151", "150", "--method", "pascal"],
     qgauss, "gaussian_pascal"),
    (["gauss", "11", "11", "--method", "enum"], ["gauss", "11", "12", "--method", "enum"],
     qgauss, "level_counts"),
    (["gauss", "25", "25", "--method", "koh"], ["gauss", "25", "26", "--method", "koh"],
     qgauss, "koh_sum"),
    (["paths", "monotone", "14", "6"], ["paths", "monotone", "15", "6"], pathlab, "monotone_paths"),
    (["report", "--amax", "12", "--bmax", "12"], ["report", "--amax", "12", "--bmax", "13"],
     qgauss, "level_counts"),
    (["injection-audit", "--amax", "12", "--bmax", "12"],
     ["injection-audit", "--amax", "13", "--bmax", "12"], injectlab, "audit"),
]

# The command lines that ran for seconds to minutes, or exhausted memory, before
# every command was admitted by a predicted size.
REFUSED_AT_ONCE = [
    ["injection-audit", "--amax", "1000000", "--bmax", "1000000"],
    ["injection-audit", "--amax", "1000", "--bmax", "1"],
    ["report", "--amax", "1000", "--bmax", "1"],
    ["report", "--amax", "13", "--bmax", "13"],
    ["gauss", "10000000", "0", "--method", "pascal"],
    ["gauss", "10000000", "0", "--method", "enum"],
    ["gauss", "3000000", "1", "--method", "koh"],
    ["gauss", "0", "20000"],
    ["gauss", "1000", "1000"],
    ["gauss", "200", "200", "--method", "pascal"],
    ["gauss", "60", "60", "--method", "koh"],
    ["bruhat", "9"],
    ["sperner", "6", "--exhaustive"],
    ["stirling", "1001"],
    ["eulerian", "31"],
]


class TestAdmission:
    @pytest.mark.parametrize("at, past, module, builder", BOX_LIMITS, ids=lambda v: (
        " ".join(v) if isinstance(v, list) else None))
    def test_refused_one_past_its_limit(self, capsys, monkeypatch, at, past, module, builder):
        built = []

        def spy(*args):
            built.append(args)
            raise _Built

        monkeypatch.setattr(module, builder, spy)
        assert main(past) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded: ") and captured.err.count("\n") == 1
        assert built == []
        with pytest.raises(_Built):
            main(at)
        assert built

    @pytest.mark.parametrize("argv", REFUSED_AT_ONCE, ids=" ".join)
    def test_refused_before_any_handler(self, capsys, monkeypatch, argv):
        # Every handler is a spy, and the parser is rebuilt to call them.
        for name in [name for name in vars(cli) if name.startswith("_cmd_")]:
            monkeypatch.setattr(cli, name, lambda args: pytest.fail("a handler ran"))
        monkeypatch.setattr(cli, "_parser", None)
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded: ") and captured.err.count("\n") == 1
        assert len(captured.err) < 100

    def test_the_partition_bound_holds(self):
        # koh's term count p(n) < e^(pi sqrt(2n/3)) / n^(3/4), against the counts
        # of a coin-change table, up to far past where it first exceeds any limit.
        p = [1] + [0] * 1000
        for part in range(1, 1001):
            for n in range(part, 1001):
                p[n] += p[n - part]
        assert p[25] == 1958 and p[100] == 190569292
        for n, count in enumerate(p):
            assert count <= math.exp(math.pi * math.sqrt(2 * n / 3)) / max(n, 1) ** 0.75, n

    def test_capped_binomials_stop_early_and_are_exact_below_the_cap(self):
        for n in range(12):
            for k in range(-1, n + 2):
                assert cli._comb(n, k, math.inf) == (math.comb(n, k) if 0 <= k <= n else 0)
        # C(2 10^6, 10^6) has 602,057 digits; past a cap of 10^9 it stops at once.
        start = time.perf_counter()
        assert cli._comb(2 * 10**6, 10**6, 10**9) > 10**9
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize("amax, bmax", [(1, 1), (3, 3), (4, 7), (8, 8), (6, 1), (1, 6)])
    def test_box_parts_is_the_sum_over_every_box(self, amax, bmax):
        brute = sum(a * math.comb(a + b, a) for a in range(1, amax + 1) for b in range(1, bmax + 1))
        assert cli._box_parts(amax, bmax, math.inf) == brute
        assert cli._box_parts(amax, bmax, brute) == brute
        assert cli._box_parts(amax, bmax, brute - 1) > brute - 1

    def test_the_default_budget_admits_12x12_and_refuses_13x13_and_1000x1(self):
        limit = cli.BOX_PARTS_LIMIT
        assert cli._box_parts(12, 12, math.inf) == 115_149_423 <= limit
        assert cli._box_parts(12, 13, math.inf) == 223_315_663 > limit
        assert cli._box_parts(13, 13, limit) > limit
        assert cli._box_parts(1000, 1, limit) > limit

    def test_every_benchmark_box_is_admitted(self):
        # The largest boxes the benchmark's gauss workload draws, each route.
        for method, boxes in {
            "quotient": [(36, 35), (35, 36)],
            "pascal": [(40, 40), (38, 37), (37, 38)],
            "koh": [(13, 13)],
            "enum": [(3, 11), (11, 3), (6, 8), (8, 6)],
        }.items():
            limits = cli.GAUSS_LIMITS[method]
            for a, b in boxes:
                sizes = cli._gauss_cost(method, a, b, max(limits))
                assert all(s <= limit for s, limit in zip(sizes, limits)), (method, a, b)


def _argv(*parts):
    """Concatenate fixed words and strategies that draw lists of words."""
    groups = [st.just([p]) if isinstance(p, str) else p for p in parts]
    return st.tuples(*groups).map(lambda drawn: [word for group in drawn for word in group])


def _opt(*words):
    return st.sampled_from([[], list(words)])


# Past every limit: each integer argument may also be 10^6 or 10^9.
def _int(lo, hi):
    return st.one_of(st.integers(lo, hi), st.sampled_from([10**6, 10**9]))


def _n(lo=-3, hi=6):
    return _int(lo, hi).map(lambda x: [str(x)])


def _flag(name, lo=-3, hi=6):
    return st.one_of(st.just([]), _int(lo, hi).map(lambda x: [name, str(x)]))


_METHOD = st.sampled_from([[], ["--method", "pascal"], ["--method", "enum"], ["--method", "koh"]])
_RULE = st.sampled_from(["all", "1", "2", "3", "4"]).map(lambda rule: ["--rule", rule])
_COEFFS = st.lists(st.one_of(_int(-3, 6), _int(-3, 6).map(str)), max_size=6)
_FAMILY = st.lists(st.lists(_int(-3, 6), max_size=3), max_size=4)


def _json(values):
    return values.map(lambda value: [json.dumps(value)])


# Every subcommand and mode, with integer arguments around each domain's edge.
ARGVS = st.one_of(
    _argv("gauss", _n(), _n(), _METHOD, _opt("--terms"), _opt("--koh-rule", "stated")),
    _argv("check", _json(_COEFFS), _opt("--unimodal"), _opt("--log-concave"),
          _opt("--palindromic"), _opt("--gamma"), _opt("--real-rooted")),
    _argv("injection-audit", _RULE, _flag("--amax", hi=3), _flag("--bmax", hi=3)),
    _argv("sperner", _n(), _opt("--exhaustive")),
    _argv("lym", _n(), _json(_FAMILY)),
    _argv("bruhat", _n()),
    _argv("stirling", _n()),
    _argv("eulerian", _n()),
    _argv("paths", "fab", _n(), _n(), _n()),
    _argv("paths", "monotone", _n(), _n(), _opt("--show-map")),
    _argv("paths", "sagan", _n(), _n()),
    _argv("report", "--amax", _n(hi=3), "--bmax", _n(hi=3)),
)


def _leaves(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [leaf for item in doc for leaf in _leaves(item)]
    return [doc]


class TestFuzzedContract:
    @settings(max_examples=150, deadline=None)
    @given(ARGVS)
    def test_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2  # argparse's own usage error
            return
        assert code in (0, 1, 2, 3)
        if code >= 2:
            assert out.getvalue() == ""
            prefix = "error: " if code == 2 else "budget exceeded: "
            assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1
            return
        assert err.getvalue() == ""
        doc = json.loads(out.getvalue())  # exactly one JSON document
        if code == 1:
            assert any(leaf is False for leaf in _leaves(doc))


class TestUsage:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        capsys.readouterr()
        assert err.value.code == 2

    def test_missing_args(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gauss", "2"])
        capsys.readouterr()
        assert err.value.code == 2

    def test_the_antichain_cap_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sperner", "3", "--exhaustive", "--max-exhaustive", "5"])
        assert err.value.code == 2
        assert "unrecognized arguments: --max-exhaustive 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["report", "injection-audit"])
    def test_the_box_parts_limit_is_not_an_option(self, capsys, command):
        # Like gauss, neither command takes a --budget: the limit is BOX_PARTS_LIMIT.
        with pytest.raises(SystemExit) as err:
            main([command, "--amax", "2", "--bmax", "2", "--budget", "5"])
        assert err.value.code == 2
        assert "unrecognized arguments: --budget 5" in capsys.readouterr().err
