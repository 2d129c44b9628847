import functools
import itertools
import json
import math
import tracemalloc

import pytest

from gausslab import criteria, injectlab, polycore, qgauss
from gausslab.cli import main
from gausslab.polycore import IntPoly, darga, is_log_concave, is_palindromic
from gausslab.qgauss import (
    KOH_RULES,
    calibrated_argument,
    gaussian_pascal,
    gaussian_quotient,
    koh_exponent,
    koh_multiplicity_vectors,
    koh_sum,
    koh_terms,
    level_counts,
    minimal_edit_argument,
    q_factorial,
    q_int,
)


class TestQInt:
    def test_examples(self):
        assert q_int(3).coeffs == (1, 1, 1)
        assert q_int(0).is_zero
        assert q_int(1) == IntPoly.one()

    def test_factorial(self):
        assert q_factorial(0) == IntPoly.one()
        assert q_factorial(1) == IntPoly.one()
        # (1)(1+X)(1+X+X^2) = 1 + 2X + 2X^2 + X^3
        assert q_factorial(3).coeffs == (1, 2, 2, 1)

    def test_factorial_at_one_is_factorial(self):
        for k in range(8):
            assert q_factorial(k).evaluate(1) == math.factorial(k)

    def test_negative(self):
        with pytest.raises(ValueError):
            q_int(-1)
        with pytest.raises(ValueError):
            q_factorial(-2)


class TestGaussianRoutes:
    def test_quotient_examples(self):
        assert gaussian_quotient(2, 2).coeffs == (1, 1, 2, 1, 1)
        assert gaussian_quotient(5, 0) == IntPoly.one()
        assert gaussian_quotient(0, 5) == IntPoly.one()
        assert gaussian_quotient(3, 2).evaluate(1) == 10

    def test_pascal_examples(self):
        assert gaussian_pascal(1, 1).coeffs == (1, 1)
        assert gaussian_pascal(2, 2).coeffs == (1, 1, 2, 1, 1)
        assert gaussian_pascal(0, 5) == IntPoly.one()

    def test_routes_agree(self):
        for a in range(31):
            for b in range(31):
                assert gaussian_quotient(a, b) == gaussian_pascal(a, b)

    def test_symmetry(self):
        for a in range(6):
            for b in range(6):
                assert gaussian_pascal(a, b) == gaussian_pascal(b, a)

    def test_degree_and_palindromicity(self):
        for a in range(1, 7):
            for b in range(1, 7):
                g = gaussian_pascal(a, b)
                assert g.degree == a * b
                assert is_palindromic(g)
                assert darga(g) == a * b

    def test_binomial_specialization(self):
        for a in range(1, 13):
            for b in range(1, 13):
                assert gaussian_pascal(a, b).evaluate(1) == math.comb(a + b, a)

    def test_integer_evaluations_log_concave_across_row(self):
        # Fixed n, the values at X = q form a log-concave positive sequence in k.
        for n in range(1, 11):
            for q in (1, 2, 3, 5):
                row = [gaussian_pascal(k, n - k).evaluate(q) for k in range(n + 1)]
                assert all(v > 0 for v in row)
                assert is_log_concave(IntPoly(row))

    def test_quotient_matches_factorial_form(self):
        for a in range(6):
            for b in range(6):
                num = q_factorial(a + b)
                den = q_factorial(a) * q_factorial(b)
                assert polycore.div_exact(num, den) == gaussian_quotient(a, b)

    def test_thin_boxes_sum_only_classes_of_two_or_more(self, monkeypatch):
        # Step i divides by X^i - 1 a polynomial of degree a i + i; a residue
        # class mod i with one coefficient needs no running sum, so for a = 1
        # each step sums one class, not i, and for a = 0 none.
        calls = []
        accumulate = itertools.accumulate
        monkeypatch.setattr(itertools, "accumulate", lambda xs: calls.append(1) or accumulate(xs))
        for a, b, expected in [(1, 50, 50), (5, 50, 1275), (0, 50, 0)]:
            calls.clear()
            gaussian_quotient(a, b)
            assert len(calls) == expected, (a, b)

    def test_thin_box_divisions_match_div_exact(self):
        # Every division gaussian_quotient(a, b) makes for a <= 1, b <= 200,
        # against the general long division.
        for a in (0, 1):
            out = IntPoly.one()
            for i in range(1, 201):
                product = polycore.mul_xm_minus_one(out, a + i)
                out = polycore.div_exact_xm_minus_one(product, i)
                assert out == polycore.div_exact(product, IntPoly([-1] + [0] * (i - 1) + [1]))
                assert out == gaussian_quotient(a, i) == IntPoly([1] * (a * i + 1)), (a, i)


class TestLevelCounts:
    def test_examples(self):
        assert level_counts(2, 2) == IntPoly([1, 1, 2, 1, 1])
        assert level_counts(1, 4) == IntPoly([1] * 5)
        assert level_counts(3, 3).evaluate(1) == 20

    def test_matches_quotient(self):
        for a in range(1, 12):
            for b in range(1, 12):
                assert level_counts(a, b) == gaussian_quotient(a, b)

    def test_budget(self, capsys):
        # The enum route is bounded on the command line, at the parts of 11x11.
        assert main(["gauss", "12", "12", "--method", "enum"]) == 3
        assert main(["gauss", "11", "11", "--method", "enum"]) == 0
        assert json.loads(capsys.readouterr().out)["coeffs"] == [
            str(c) for c in gaussian_quotient(11, 11).coeffs
        ]

    def test_negative_budget_is_a_usage_error(self, capsys):
        # As is any --budget: gauss has none.
        with pytest.raises(SystemExit) as err:
            main(["gauss", "3", "3", "--method", "enum", "--budget", "-1"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_matches_recursive_enumeration(self):
        for a in range(10):
            for b in range(10):
                assert level_counts(a, b).coeffs == tuple(_recursive_level_counts(a, b)), (a, b)

    def test_matches_sympy_partitions(self):
        iterables = pytest.importorskip("sympy.utilities.iterables")
        for a in range(1, 8):
            for b in range(1, 8):
                # partitions(k, m=a, k=b): partitions of k into at most a parts,
                # each at most b.
                expected = [
                    sum(1 for _ in iterables.partitions(k, m=a, k=b))
                    for k in range(a * b + 1)
                ]
                assert level_counts(a, b).coeffs == tuple(expected), (a, b)

    def test_never_walks_the_audits_ordered_generator(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("level_counts called injectlab.iter_box")

        monkeypatch.setattr(injectlab, "iter_box", refuse)
        assert level_counts(5, 4) == gaussian_quotient(5, 4)

    def test_budget_trips_before_any_iteration(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated a box over budget")

        monkeypatch.setattr(qgauss, "combinations_with_replacement", refuse)
        assert main(["gauss", "14", "14", "--method", "enum"]) == 3
        assert capsys.readouterr().err.startswith("budget exceeded: ")
        # The report's Gaussian grid counts every box in range by the same walk.
        for amax, bmax in [(12, 13), (13, 13), (1000, 1)]:
            assert main(["report", "--amax", str(amax), "--bmax", str(bmax)]) == 3
            assert capsys.readouterr().err.startswith("budget exceeded: ")
        with pytest.raises(AssertionError):
            main(["gauss", "2", "2", "--method", "enum"])

    def test_10_10_peak_memory(self):
        # A level_counts that held the box as a list would peak at about 22.7 MiB.
        tracemalloc.start()
        try:
            counts = level_counts(10, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(counts.coeffs) == math.comb(20, 10)
        assert peak < 64 * 2**10


def _recursive_level_counts(a, b):
    """The enumeration level_counts replaced: a recursive generator of part tuples."""

    def rec(prefix, bound, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        for v in range(bound + 1):
            prefix.append(v)
            yield from rec(prefix, v, remaining - 1)
            prefix.pop()

    counts = [0] * (a * b + 1)
    for parts in rec([], b, a):
        counts[sum(parts)] += 1
    return counts


class TestMultiplicityVectors:
    def test_examples(self):
        vecs = set(koh_multiplicity_vectors(3))
        assert vecs == {(3, 0, 0), (1, 1, 0), (0, 0, 1)}
        assert koh_multiplicity_vectors(1) == ((1,),)
        assert len(koh_multiplicity_vectors(5)) == 7  # p(5)

    def test_partition_counts(self):
        partitions = [1, 2, 3, 5, 7, 11, 15, 22]
        for b, p in zip(range(1, 9), partitions):
            assert len(koh_multiplicity_vectors(b)) == p

    def test_each_vector_solves_the_weighted_sum(self):
        for b in range(13):
            vecs = koh_multiplicity_vectors(b)
            assert list(vecs) == sorted(set(vecs)), b
            for d in vecs:
                assert len(d) == b and min(d, default=0) >= 0, d
                assert sum((i + 1) * x for i, x in enumerate(d)) == b, d

    def test_exponent_is_twice_the_pairwise_min_sum(self):
        # koh_terms assembles X^exponent with no sign check: the exponent is
        # 2 * sum_{k<m} min(l_k, l_m) over the parts of the partition l with
        # d_i parts equal to i, so it is never negative.
        for b in range(31):
            for d in koh_multiplicity_vectors(b):
                parts = [i + 1 for i, x in enumerate(d) for _ in range(x)]
                pairs = itertools.combinations(parts, 2)
                assert koh_exponent(d) == 2 * sum(min(p) for p in pairs) >= 0, d


class TestKoh:
    def test_single_column_vector_exponent(self):
        # d = (b, 0, ..., 0) contributes the prefactor X^(b(b-1)).
        for b in range(1, 7):
            d = (b,) + (0,) * (b - 1)
            assert koh_exponent(d) == b * (b - 1)

    def test_width_one_box(self):
        for a in range(1, 7):
            total, terms = koh_sum(a, 1)
            assert total == gaussian_quotient(a, 1)
            assert len(terms) == 1
            assert terms[0].exponent == 0

    def test_calibrated_4_2(self):
        total, _ = koh_sum(4, 2)
        assert list(total.coeffs) == [1, 1, 2, 2, 3, 2, 2, 1, 1]
        assert total == gaussian_quotient(4, 2)

    def test_single_column_term_matches_reduced_gaussian(self):
        # The d = (b, 0, ..., 0) term must assemble to X^(b(b-1)) G(a - 2(b-1), b).
        for a, b in [(4, 2), (5, 3), (6, 2), (7, 3)]:
            terms = koh_terms(a, b)
            d = (b,) + (0,) * (b - 1)
            term = next(t for t in terms if t.multiplicities == d)
            expected = gaussian_pascal(a - 2 * (b - 1), b).shift(b * (b - 1))
            assert term.poly == expected

    def test_terms_darga_palindromic(self):
        for a in range(1, 7):
            for b in range(1, 7):
                for term in koh_terms(a, b):
                    if not term.poly.is_zero:
                        assert term.darga == a * b
                        assert is_palindromic(term.poly)

    def test_negative_argument_handling(self):
        # (a, b) = (1, 2): the repeated-part vector produces a negative width.
        total, terms = koh_sum(1, 2)
        assert total == gaussian_quotient(1, 2)
        flagged = [t for t in terms if t.negative_factor_indexes]
        assert len(flagged) == 1
        assert flagged[0].poly.is_zero
        assert flagged[0].darga is None

    def test_stated_rule_disagrees_off_diagonal(self):
        stated, _ = koh_sum(4, 2, KOH_RULES["stated"])
        assert stated != gaussian_quotient(4, 2)
        for n in range(1, 6):
            diag, _ = koh_sum(n, n, KOH_RULES["stated"])
            assert diag == gaussian_quotient(n, n)

    def test_calibration_selects_second_candidate(self, monkeypatch):
        # The minimal edit fails somewhere up to 6x6 and the calibrated rule
        # holds on every box; either rule swapped for the other fails the check.
        assert criteria.calibration_holds()
        with monkeypatch.context() as m:
            m.setattr(qgauss, "minimal_edit_argument", calibrated_argument)
            assert not criteria.calibration_holds()
        monkeypatch.setitem(KOH_RULES, "calibrated", minimal_edit_argument)
        assert not criteria.calibration_holds()

    @pytest.mark.parametrize("box", [(1, 1), (4, 3), (6, 6)])
    def test_calibration_fails_on_one_corrupted_box(self, box, monkeypatch):
        enumerate_counts = qgauss.level_counts

        def corrupted(a, b):
            c = enumerate_counts(a, b).coeffs
            return IntPoly(c[:-1] + (c[-1] + 1,)) if (a, b) == box else IntPoly(c)

        monkeypatch.setattr(qgauss, "level_counts", corrupted)
        assert not criteria.calibration_holds()

    def test_first_candidate_fails(self):
        total, _ = koh_sum(2, 2, minimal_edit_argument)
        assert total != gaussian_quotient(2, 2)

    def test_agreement_up_to_six(self):
        for a in range(1, 7):
            for b in range(1, 7):
                total, _ = koh_sum(a, b)
                assert total == level_counts(a, b)

    def test_term_json(self):
        _, terms = koh_sum(2, 2)
        doc = terms[0].to_json_dict()
        assert set(doc) >= {"exponent", "factors", "darga", "coefficients"}
        assert all(isinstance(c, str) for c in doc["coefficients"])


class TestLevelSizesConsistency:
    def test_enumeration_matches_injectlab(self):
        for a in range(1, 9):
            for b in range(1, 9):
                by_level = injectlab.levels(a, b)
                assert tuple(len(lv) for lv in by_level) == level_counts(a, b).coeffs


# -- packed kernels against the IntPoly recurrence they replaced -----------------


def _pascal_table(a, b):
    """G(a', b') for every a' <= a, b' <= b, filled in a dict by IntPoly additions."""
    table = {}
    for aa in range(a + 1):
        for bb in range(b + 1):
            if aa == 0 or bb == 0:
                table[aa, bb] = IntPoly.one()
            else:
                table[aa, bb] = table[aa - 1, bb] + table[aa, bb - 1].shift(aa)
    return table


@functools.lru_cache(maxsize=None)
def _dict_pascal(a, b):
    return _pascal_table(a, b)[a, b]


def _quadratic_tail(d, b, i):
    """sum_{j<i} 2 (i - j) d_{b-j}, summed afresh for each factor i."""
    return sum(2 * (i - j) * d[b - 1 - j] for j in range(i))


def _quadratic_exponent(d, b):
    """b * sum d_i - b - sum_{i<j} (j - i) d_i d_j, summed over all pairs."""
    cross = sum(
        (j - i) * d[i - 1] * d[j - 1] for i in range(1, b + 1) for j in range(i + 1, b + 1)
    )
    return b * sum(d) - b - cross


def _schoolbook_terms(a, b, rule):
    """Each term as (multiplicities, exponent, factors, poly, darga, negatives),
    its exponent and widths from the pairwise sums above and its live factors
    multiplied one by one with IntPoly's schoolbook product."""
    arg = KOH_RULES[rule]
    out = []
    for d in koh_multiplicity_vectors(b):
        exponent = _quadratic_exponent(d, b)
        pairs = tuple((arg(a, b, i, _quadratic_tail(d, b, i)), d[b - 1 - i]) for i in range(b))
        negatives = tuple(i for i, (a_i, b_i) in enumerate(pairs) if b_i > 0 and a_i < 0)
        poly = IntPoly.zero()
        if not negatives:
            poly = IntPoly.one()
            for a_i, b_i in pairs:
                if b_i > 0:
                    poly = poly * _dict_pascal(a_i, b_i)
            poly = poly.shift(exponent)
        out.append((d, exponent, pairs, poly, None if poly.is_zero else darga(poly), negatives))
    return out


class TestRunningSums:
    """koh_terms and koh_exponent take one pass of running sums per multiplicity
    vector; they must equal the pairwise sums above on every vector with b <= 16."""

    def test_exponent(self):
        for b in range(17):
            for d in koh_multiplicity_vectors(b):
                assert koh_exponent(d) == _quadratic_exponent(d, b), d

    def test_tails(self):
        for b in range(17):
            tails = []

            def record(a, b, i, tail):
                tails.append(tail)
                return -1  # every live factor is negative, so no term is assembled

            koh_terms(0, b, record)
            expected = [
                _quadratic_tail(d, b, i) for d in koh_multiplicity_vectors(b) for i in range(b)
            ]
            assert tails == expected, b


class TestPackedKernels:
    def test_pascal_matches_the_dict_recurrence_up_to_30(self):
        for (a, b), poly in _pascal_table(30, 30).items():
            assert gaussian_pascal(a, b) == poly, (a, b)

    @pytest.mark.parametrize("a, b", [(60, 60), (100, 3), (3, 100)])
    def test_pascal_matches_the_dict_recurrence_on_large_boxes(self, a, b):
        assert gaussian_pascal(a, b) == _pascal_table(a, b)[a, b]

    @pytest.mark.parametrize("rule", list(KOH_RULES))
    def test_every_koh_term_matches_the_schoolbook_assembly(self, rule):
        for a in range(10):
            for b in range(10):
                got = [
                    (t.multiplicities, t.exponent, t.factors, t.poly, t.darga,
                     t.negative_factor_indexes)
                    for t in koh_terms(a, b, KOH_RULES[rule])
                ]
                assert got == _schoolbook_terms(a, b, rule), (a, b, rule)

    def test_keeps_no_module_level_table(self):
        assert not hasattr(qgauss, "_pascal_cache")
        assert not hasattr(qgauss, "_pascal_lock")
        assert "threading" not in vars(qgauss)

        def tables():
            return {
                name: repr(value)
                for name, value in vars(qgauss).items()
                if isinstance(value, (dict, list, set))
            }

        before = tables()
        gaussian_pascal(12, 11)
        koh_sum(7, 6)
        assert tables() == before

    def test_pascal_60_60_peak_memory(self):
        tracemalloc.start()
        try:
            gaussian_pascal(60, 60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def narrow_slots(monkeypatch, widest):
    """Give every packed product slots one byte narrower than ``widest`` needs.

    The width for the routes' bound (C(a+b, a), or a term's product of them)
    can exceed what the largest coefficient needs by a byte or more, so
    taking one byte off it may still be exact; this width must overflow.
    """
    width = polycore.slot_bytes(widest) - 1
    assert width >= 1
    monkeypatch.setattr(qgauss, "slot_bytes", lambda bound: width)


class TestSlotSumChecksCanFail:
    def test_pascal(self, monkeypatch):
        narrow_slots(monkeypatch, max(gaussian_quotient(40, 40).coeffs))
        with pytest.raises(OverflowError, match="packed coefficients sum"):
            gaussian_pascal(40, 40)

    def test_koh(self, monkeypatch):
        widest = max(max(t.poly.coeffs) for t in koh_terms(12, 12) if not t.poly.is_zero)
        narrow_slots(monkeypatch, widest)
        with pytest.raises(OverflowError, match="packed coefficients sum"):
            koh_terms(12, 12)

    def test_exact_width_passes(self, monkeypatch):
        # The checks reject overflow, not narrow slots: one byte more than the
        # failing width gives the exact polynomial.
        expected = gaussian_quotient(40, 40)
        width = polycore.slot_bytes(max(expected.coeffs))
        monkeypatch.setattr(qgauss, "slot_bytes", lambda bound: width)
        assert gaussian_pascal(40, 40) == expected
