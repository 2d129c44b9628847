"""Every check of the benchmark accepts gausslab's real output and can fail.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gausslab import cli  # noqa: E402


def invoke(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def problems(op: dict, code: int, doc: dict) -> list[str]:
    return oracles.CHECKERS[op["kind"]](op, code, doc)


def flagged(found: list[str], text: str) -> bool:
    """True when the check whose message holds ``text`` fired."""
    return any(text in problem for problem in found)


@pytest.fixture(scope="module")
def report():
    op = workloads.report_ops(0)[0]
    code, doc = invoke(op["argv"])
    return op, code, doc


def first_op(ops: list[dict], **match) -> dict:
    return next(op for op in ops if all(op.get(k) == v for k, v in match.items()))


# -- real outputs pass -------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7])
def test_certify_outputs_pass(seed):
    for op in workloads.certify_ops(seed):
        assert problems(op, *invoke(op["argv"])) == []


def test_gauss_outputs_pass():
    for op in workloads.gauss_ops(3):
        if op["a"] * op["b"] <= 400:
            assert problems(op, *invoke(op["argv"])) == []


def test_report_passes(report):
    assert problems(*report) == []


def test_sparse_gaussian_has_the_right_degree_and_sum():
    for a in range(1, 9):
        for b in range(1, 9):
            coeffs = workloads.gaussian_coeffs(a, b)
            assert len(coeffs) == a * b + 1
            assert sum(coeffs) == oracles.math.comb(a + b, a)


# -- gauss ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gauss_output():
    op = {"kind": "gauss", "method": "pascal", "a": 6, "b": 6,
          "argv": ["gauss", "6", "6", "--method", "pascal"]}
    code, doc = invoke(op["argv"])
    return op, code, doc


def with_coeffs(output, edit):
    op, code, doc = copy.deepcopy(output)
    c = [int(x) for x in doc["coeffs"]]
    edit(c)
    doc["coeffs"] = [str(x) for x in c]
    return problems(op, code, doc)


@pytest.mark.parametrize("index,delta,check", [
    (3, 1, "product formula"),
    (3, 1, "sum to"),
    (30, -1, "not palindromic"),
    (18, -6, "not unimodal"),
])
def test_gauss_rejects_one_changed_coefficient(gauss_output, index, delta, check):
    def edit(c):
        c[index] += delta
        if check == "not unimodal":  # keep the sum and the symmetry
            c[36 - index] += delta
            c[17] -= delta
            c[19] -= delta
    assert flagged(with_coeffs(gauss_output, edit), check)


def test_only_the_product_formula_sees_a_shape_preserving_change(gauss_output):
    def edit(c):
        # Move one unit down a step of height >= 2 on the rising side, and
        # mirror it: sum, symmetry and unimodality all survive.
        k = next(k for k in range(1, 17) if c[k + 1] - c[k] >= 2)
        c[k] += 1
        c[k + 1] -= 1
        c[36 - k] += 1
        c[35 - k] -= 1
    found = with_coeffs(gauss_output, edit)
    assert len(found) == 1 and flagged(found, "product formula")


def test_gauss_rejects_wrong_exit_code_and_header(gauss_output):
    op, code, doc = copy.deepcopy(gauss_output)
    assert flagged(problems(op, 1, doc), "exit code")
    doc["method"] = "quotient"
    assert flagged(problems(op, code, doc), "method is")


# -- certify -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def certify_outputs():
    ops = workloads.certify_ops(5)
    picked = [
        first_op(ops, family="eulerian_list"),
        first_op(ops, family="linear"),
        first_op(ops, family="linear_quadratic"),
        first_op(ops, family="gaussian"),
        first_op(ops, kind="eulerian"),
    ]
    return [(op, *invoke(op["argv"])) for op in picked]


@pytest.mark.parametrize("flag", ["unimodal", "log_concave", "palindromic", "real_rooted"])
def test_check_rejects_a_flipped_verdict(certify_outputs, flag):
    for op, code, doc in certify_outputs[:4]:
        doc = copy.deepcopy(doc)
        doc["checks"][flag] = not doc["checks"][flag]
        assert flagged(problems(op, code, doc), f"{flag} is"), (op["family"], flag)


def test_check_rejects_a_moved_mode_and_changed_input(certify_outputs):
    op, code, doc = copy.deepcopy(certify_outputs[1])
    doc["checks"]["mode"] += 1
    assert flagged(problems(op, code, doc), "mode is")
    op, code, doc = copy.deepcopy(certify_outputs[1])
    doc["coeffs"][2] = str(int(doc["coeffs"][2]) + 1)
    assert flagged(problems(op, code, doc), "echoed coefficients")


@pytest.mark.parametrize("which", [0, 3])
def test_check_rejects_a_gamma_vector_that_does_not_re_expand(certify_outputs, which):
    op, code, doc = copy.deepcopy(certify_outputs[which])
    assert doc["checks"]["palindromic"] is True
    doc["checks"]["gamma"][1] = str(int(doc["checks"]["gamma"][1]) + 1)
    assert flagged(problems(op, code, doc), "re-expand")
    op, code, doc = copy.deepcopy(certify_outputs[which])
    doc["checks"]["gamma_nonnegative"] = not doc["checks"]["gamma_nonnegative"]
    assert flagged(problems(op, code, doc), "gamma_nonnegative disagrees")


def test_check_rejects_a_wrong_exit_code(certify_outputs):
    for op, code, doc in certify_outputs[:4]:
        assert flagged(problems(op, 1 - code, doc), "exit code")


def test_eulerian_rejects_changed_coefficient_and_flipped_check(certify_outputs):
    op, code, doc = copy.deepcopy(certify_outputs[4])
    doc["coeffs"][1] = str(int(doc["coeffs"][1]) - 1)
    found = problems(op, code, doc)
    assert flagged(found, "closed form") and flagged(found, "do not sum")
    for flag in doc["checks"]:
        op, code, doc = copy.deepcopy(certify_outputs[4])
        doc["checks"][flag] = False
        assert flagged(problems(op, code, doc), f"{flag} is"), flag


# -- report --------------------------------------------------------------------------


def corrupted(report, edit):
    op, code, doc = copy.deepcopy(report)
    edit(doc)
    return problems(op, code, doc)


@pytest.mark.parametrize("field,value", [
    ("four_way_agreement", False),
    ("unimodal", False),
    ("darga", 17),
    ("stated_rule_agrees", True),
])
def test_report_rejects_a_changed_grid_cell(report, field, value):
    def edit(doc):
        cell = doc["sections"]["gaussian"]["grid"][11]  # (2, 4): off the diagonal
        cell[field] = value
    assert flagged(corrupted(report, edit), "(2,4)")


def _entry(doc, rule, outcome):
    """The audit of a rule with this outcome on the largest box."""
    audits = doc["sections"]["injections"]["audits"]
    return [e for e in audits if e["rule"] == rule and e["outcome"] == outcome][-1]


def test_report_rejects_a_moved_collision_witness(report):
    def edit(doc):
        entry = _entry(doc, "ColumnFill", "Collision")
        a, k = entry["a"], entry["k"]
        other = [w for w in oracles._level(a, entry["b"], k)
                 if list(w) not in entry["witnesses"]]
        entry["witnesses"][1] = list(other[0])
    found = corrupted(report, edit)
    assert flagged(found, "differs from a fresh audit")
    assert flagged(found, "not one cell above each witness")


def test_report_rejects_a_moved_image_and_level(report):
    def image(doc):
        entry = _entry(doc, "MinBaseValue", "Collision")
        entry["image"] = entry["witnesses"][0]
    found = corrupted(report, image)
    assert flagged(found, "differs from a fresh audit")
    assert flagged(found, "not one cell above each witness")

    def level(doc):
        _entry(doc, "RowFillTranspose", "Collision")["levels_checked"] += 1
    assert flagged(corrupted(report, level), "differs from a fresh audit")


def test_report_shape_check_alone_rejects_a_collision_image_off_by_a_cell(report):
    entry = copy.deepcopy(_entry(report[2], "ColumnFill", "Collision"))
    assert oracles._audit_shape(entry) == []
    entry["image"][-1] += 1
    assert oracles._audit_shape(entry)


def test_report_rejects_a_maxwt_audit_that_is_not_undefined_at_one(report):
    def edit(doc):
        entry = _entry(doc, "MaxWt", "Undefined")
        entry.update(outcome="InjectiveUpToMiddle", k=None, witnesses=[], candidates=[],
                     levels_checked=entry["a"] * entry["b"] // 2)
    assert flagged(corrupted(report, edit), "is not undefined at k=1")


@pytest.mark.parametrize("rule", ["ColumnFill", "MinBaseValue", "MaxWt"])
def test_report_rejects_a_flipped_claim_verdict(report, rule):
    def edit(doc):
        claim = [c for c in doc["sections"]["injections"]["claims"]
                 if c["rule"] == rule and c["verdict"] != "NotApplicable"][-1]
        claim["verdict"] = "NotApplicable"
    assert flagged(corrupted(report, edit), "verdict 'NotApplicable'")


def test_report_rejects_wrong_sperner_counts_and_false_flags(report):
    def sperner(doc):
        doc["sections"]["posets"]["sperner_n4"]["total_antichains"] = "167"
    assert flagged(corrupted(report, sperner), "Sperner n=4")

    def paths(doc):
        doc["sections"]["paths"]["monotone_reflection_injective"] = False
    assert flagged(corrupted(report, paths), "paths section has a false flag")

    def overall(doc):
        doc["pass"] = False
    assert flagged(corrupted(report, overall), "overall pass")


# -- the run's own checks ---------------------------------------------------------


def test_rounds_must_repeat_byte_for_byte_and_failures_are_counted():
    ops = workloads.certify_ops(1)[:2]
    records = []
    for op in ops:
        code, doc = invoke(op["argv"])
        records.append({"rc": code, "out": json.dumps(doc)})
    rounds = [{"records": records}, {"records": copy.deepcopy(records)}]
    assert run.check_outputs(ops, rounds) == (0, [])
    rounds[1]["records"][0]["out"] += " "
    assert run.check_outputs(ops, rounds)[1]
    rounds[1]["records"][0] = dict(records[0])
    rounds[0]["records"][1] = dict(records[1], rc=2)
    failed, found = run.check_outputs(ops, rounds)
    assert failed == 2


def test_traced_rounds_repeat_their_counts(tmp_path):
    ops_file, out_file = tmp_path / "ops.json", tmp_path / "out.jsonl"
    ops_file.write_text(json.dumps([
        ["gauss", "6", "5", "--method", "koh"],
        ["gauss", "6", "5", "--method", "quotient"],
        ["eulerian", "12"],
    ]))
    traces = [run.run_round(str(ops_file), str(out_file), True)["trace"] for _ in range(2)]
    counts = [{k: v for k, v in t.items() if tracer.PER_LAYER[k] != "s"} for t in traces]
    assert counts[0] == counts[1]
    assert counts[0]["qgauss.koh_terms"] == 7
    # qgauss binds div_exact too; the quotient route divides 5 times.
    assert counts[0]["polycore.div_exact_calls"] >= 5 + counts[0]["polycore.square_free_calls"]
    assert set(traces[0]) == set(tracer.PER_LAYER)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.OPS)
