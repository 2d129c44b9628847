import hashlib
import json
import subprocess
import sys

import pytest

from gausslab import cli, injectlab, pathlab, posetlab, qgauss
from gausslab.cli import main


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
        code = main(["gauss", "12", "12", "--method", "enum", "--budget", "100"])
        capsys.readouterr()
        assert code == 3


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
        code, out = run(capsys, "check", '["1","1"]', "--center", "3", "--gamma")
        doc = json.loads(out)
        assert code == 1  # not palindromic about 3/2
        assert doc["checks"]["gamma_nonnegative"] is False

    def test_bad_json_usage_error(self, capsys):
        code = main(["check", "not-json", "--unimodal"])
        capsys.readouterr()
        assert code == 2


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
        code, out = run(
            capsys,
            "injection-audit", "--rule", "1", "--amax", "4", "--bmax", "4",
            "--verify-claims",
        )
        assert code == 0
        doc = json.loads(out)
        claim44 = next(c for c in doc["claims"] if c["a"] == 4 and c["b"] == 4)
        assert claim44["verdict"] == "Confirmed"
        assert claim44["claimed_k"] == 6
        assert claim44["first_failure"]["k"] == 4

    def test_table_mode(self, capsys):
        code, out = run(capsys, "injection-audit", "--rule", "4", "--amax", "2", "--bmax", "2", "--table")
        assert code == 0
        assert "MaxWt" in out and "Undefined" in out


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
    def test_report_small(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = main(["report", "--amax", "3", "--bmax", "3", "--out", str(out_file)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out_file.read_text())
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
            "5a2d05e6930b34f00c36295385d365fc8d63f9c9d77d77314a66d7b9d536765e"
        )

    def test_report_deterministic(self, capsys):
        code1, out1 = run(capsys, "report", "--amax", "2", "--bmax", "2")
        code2, out2 = run(capsys, "report", "--amax", "2", "--bmax", "2")
        assert code1 == code2 == 0
        assert out1 == out2


def _stated_rule_is_calibrated(monkeypatch):
    monkeypatch.setitem(
        qgauss.ARGUMENT_FORMULAS, qgauss.ArgRule.STATED, qgauss.calibrated_argument
    )


def _max_wt_claim_one_level_up(monkeypatch):
    claimed = injectlab._claimed_witnesses

    def shifted(rule, a, b):
        k, witnesses, kind = claimed(rule, a, b)
        return (k + 1 if rule is injectlab.InjectionRule.MAX_WT else k), witnesses, kind

    monkeypatch.setattr(injectlab, "_claimed_witnesses", shifted)


def _stirling_row_with_a_dip(monkeypatch):
    row = posetlab.stirling_row
    monkeypatch.setattr(posetlab, "stirling_row", lambda n: [1, 0] + row(n))


def _closed_form_off_by_one(monkeypatch):
    closed = pathlab.count_free_closed_form
    monkeypatch.setattr(pathlab, "count_free_closed_form", lambda a, b, n: closed(a, b, n) + 1)


class TestReportCanFail:
    @pytest.mark.parametrize(
        "section, fault",
        [
            ("gaussian", _stated_rule_is_calibrated),
            ("injections", _max_wt_claim_one_level_up),
            ("posets", _stirling_row_with_a_dip),
            ("paths", _closed_form_off_by_one),
        ],
    )
    def test_one_fault_fails_only_its_section(self, capsys, monkeypatch, section, fault):
        fault(monkeypatch)
        code, out = run(capsys, "report", "--amax", "3", "--bmax", "3")
        doc = json.loads(out)
        assert code == 1
        assert doc["pass"] is False
        assert {name: s["pass"] for name, s in doc["sections"].items()} == {
            name: name != section for name in ("gaussian", "injections", "posets", "paths")
        }


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
            fresh = subprocess.run(
                [sys.executable, "-m", "gausslab.cli", *argv], capture_output=True, text=True
            )
            assert (fresh.returncode, fresh.stdout) == (code, out)

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


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
