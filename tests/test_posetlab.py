import itertools
import math
from fractions import Fraction

import pytest

from gausslab.errors import EnumerationBudgetExceeded, NotAnAntichain
from gausslab.polycore import IntPoly, is_unimodal
from gausslab.posetlab import (
    des,
    eulerian,
    full_layer,
    inv,
    inversion_polynomial,
    iter_antichains,
    lym_sum,
    max_antichain,
    set_partitions,
    stirling_row,
    weak_bruhat,
)
from gausslab.qgauss import q_factorial


class TestSperner:
    def test_small_boxes(self):
        expected = {1: (1, 2), 2: (2, 1), 3: (3, 2), 4: (6, 1), 5: (10, 2)}
        for n, (size, count) in expected.items():
            search = max_antichain(n)
            assert search.max_size == size == search.bound
            assert search.num_maximum == count
            assert search.bound_holds

    def test_total_antichain_counts(self):
        # Dedekind-style totals, empty antichain included.
        totals = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}
        for n, total in totals.items():
            assert max_antichain(n).total_antichains == total

    def test_budget_cap(self):
        with pytest.raises(EnumerationBudgetExceeded):
            max_antichain(6)
        with pytest.raises(EnumerationBudgetExceeded):
            list(iter_antichains(6))


class TestLym:
    def test_example(self):
        assert lym_sum([[1, 2], [3]], 3) == Fraction(2, 3)

    def test_middle_layer_tight(self):
        assert lym_sum(full_layer(4, 2), 4) == 1

    def test_not_an_antichain(self):
        with pytest.raises(NotAnAntichain) as err:
            lym_sum([[1], [1, 2]], 3)
        assert err.value.pair == ((1,), (1, 2))

    def test_duplicates_collapse(self):
        assert lym_sum([[1, 2], [1, 2]], 3) == Fraction(1, 3)

    def test_empty(self):
        assert lym_sum([], 3) == 0

    def test_negative_ground_set(self):
        with pytest.raises(ValueError):
            lym_sum([], -1)

    def test_exhaustive_bound_and_equality_set(self):
        # The bound holds for every antichain; equality exactly on full layers.
        for n in range(1, 5):
            layers = {frozenset(full_layer(n, k)) for k in range(n + 1)}
            for masks in iter_antichains(n):
                family = [
                    [i + 1 for i in range(n) if m >> i & 1] for m in masks
                ]
                total = lym_sum(family, n)
                assert total <= 1
                as_sets = frozenset(tuple(sorted(s)) for s in family)
                if total == 1:
                    assert as_sets in layers
                if as_sets in layers:
                    assert total == 1


class TestWeakOrder:
    def test_inv_examples(self):
        assert inv((2, 3, 1, 4)) == 2
        assert inv((2, 1, 3, 4)) == 1
        assert inv((1, 2, 3, 4)) == 0
        assert inv((4, 3, 2, 1)) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            inv((1, 1, 2))

    def test_poset_shape(self):
        poset = weak_bruhat(3)
        assert poset.rank_histogram() == [1, 2, 2, 1]
        idx_min = poset.ranks.index(0)
        idx_max = poset.ranks.index(max(poset.ranks))
        assert poset.elements[idx_min] == (1, 2, 3)
        assert poset.elements[idx_max] == (3, 2, 1)

    def test_cover_structure(self):
        poset = weak_bruhat(4)
        for i, j in poset.covers:
            low, high = poset.elements[i], poset.elements[j]
            assert inv(high) == inv(low) + 1
            diffs = [p for p in range(4) if low[p] != high[p]]
            assert len(diffs) == 2 and diffs[1] == diffs[0] + 1
            assert low[diffs[0]] == high[diffs[1]] and low[diffs[1]] == high[diffs[0]]

    def test_specific_cover(self):
        poset = weak_bruhat(4)
        i = poset.elements.index((2, 1, 3, 4))
        j = poset.elements.index((2, 3, 1, 4))
        assert (i, j) in set(poset.covers)

    def test_inversion_polynomial(self):
        assert inversion_polynomial(3).coeffs == (1, 2, 2, 1)
        for n in range(1, 7):
            assert inversion_polynomial(n) == q_factorial(n)

    def test_histogram_matches_inversion_polynomial(self):
        for n in range(1, 6):
            assert weak_bruhat(n).rank_histogram() == list(
                inversion_polynomial(n).coeffs
            )


class TestStirling:
    def test_examples(self):
        assert stirling_row(4)[1] == 7
        for n in range(1, 9):
            assert stirling_row(n)[0] == stirling_row(n)[-1] == 1

    def test_against_enumeration(self):
        for n in range(1, 8):
            counts = [0] * n
            for p in set_partitions(n):
                counts[len(p) - 1] += 1
            assert counts == stirling_row(n)

    def test_rows_unimodal(self):
        for n in range(1, 10):
            assert is_unimodal(IntPoly(stirling_row(n)))

    def test_polynomial(self):
        assert IntPoly([0] + stirling_row(4)).coeffs == (0, 1, 7, 6, 1)

    def test_row_range(self):
        for n in (0, -3):
            with pytest.raises(ValueError):
                stirling_row(n)

    def test_rows_against_inclusion_exclusion(self):
        # S(n, k) = (1/k!) sum_j (-1)^j C(k, j) (k - j)^n
        for n in (1, 2, 9, 60):
            explicit = [
                sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
                // math.factorial(k)
                for k in range(1, n + 1)
            ]
            assert stirling_row(n) == explicit

    def test_set_partitions_are_generated_lazily(self):
        partitions = set_partitions(10)
        assert iter(partitions) is partitions
        assert next(partitions) == (tuple(range(1, 11)),)
        with pytest.raises(ValueError):
            set_partitions(0)


class TestEulerian:
    def test_examples(self):
        assert eulerian(1).coeffs == (1,)
        assert eulerian(3).coeffs == (1, 4, 1)
        assert eulerian(4).coeffs == (1, 11, 11, 1)

    def test_des(self):
        assert des((1, 3, 2)) == 1
        assert des((3, 2, 1)) == 2
        assert des((1, 2, 3)) == 0
        # eulerian runs a recurrence; it must agree with the descent counts.
        for n in range(1, 9):
            counts = [0] * n
            for w in itertools.permutations(range(1, n + 1)):
                counts[des(w)] += 1
            assert eulerian(n).coeffs == tuple(counts)

    def test_large_n_uses_recurrence(self):
        poly = eulerian(12)
        assert poly.evaluate(1) == math.factorial(12)

    def test_coefficient_sum(self):
        for n in range(1, 8):
            assert eulerian(n).evaluate(1) == math.factorial(n)

