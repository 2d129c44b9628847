import itertools
import math
from fractions import Fraction

import pytest

from gausslab.errors import EnumerationBudgetExceeded, NotAnAntichain
from gausslab.polycore import IntPoly, is_unimodal
from gausslab.posetlab import (
    RankedPoset,
    affine_rank_relation,
    count_maximal_chains,
    des,
    eulerian,
    eulerian_recurrence,
    full_layer,
    inv,
    inversion_polynomial,
    iter_antichains,
    lym_sum,
    max_antichain,
    partition_lattice,
    refines,
    set_partitions,
    stirling2,
    stirling_row,
    subset_lattice,
    validate_ranked_poset,
    weak_bruhat,
)
from gausslab.qgauss import q_factorial


class TestSubsetLattice:
    def test_counts(self):
        poset = subset_lattice(3)
        assert len(poset.elements) == 8
        assert len(poset.covers) == 12
        validate_ranked_poset(poset)

    def test_histogram(self):
        assert subset_lattice(4).rank_histogram() == [1, 4, 6, 4, 1]

    def test_maximal_chains(self):
        for n in range(1, 6):
            assert count_maximal_chains(subset_lattice(n)) == math.factorial(n)

    def test_cover_is_single_insertion(self):
        for i, j in subset_lattice(4).covers:
            assert i & j == i
            assert (i ^ j).bit_count() == 1

    def test_size_guard(self):
        with pytest.raises(ValueError):
            subset_lattice(0)
        with pytest.raises(ValueError):
            subset_lattice(21)


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
        validate_ranked_poset(poset)
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
        assert stirling2(4, 2) == 7
        for n in range(1, 9):
            assert stirling2(n, n) == 1
            assert stirling2(n, 1) == 1

    def test_range(self):
        with pytest.raises(ValueError):
            stirling2(3, 0)
        with pytest.raises(ValueError):
            stirling2(3, 4)

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
            assert [stirling2(n, k) for k in range(1, n + 1)] == explicit

    def test_set_partitions_are_generated_lazily(self):
        partitions = set_partitions(10)
        assert iter(partitions) is partitions
        assert next(partitions) == (tuple(range(1, 11)),)
        with pytest.raises(ValueError):
            set_partitions(0)


class TestPartitionLattice:
    def test_counts_and_histogram(self):
        poset = partition_lattice(4)
        assert len(poset.elements) == 15  # Bell(4)
        assert poset.rank_histogram() == [1, 7, 6, 1]
        validate_ranked_poset(poset)

    def test_refinement_chain(self):
        singletons = ((1,), (2,), (3,), (4,))
        pairs = ((1, 2), (3, 4))
        top = ((1, 2, 3, 4),)
        assert refines(singletons, pairs)
        assert refines(pairs, top)
        assert not refines(pairs, singletons)

    def test_covers_merge_two_blocks(self):
        poset = partition_lattice(4)
        for i, j in poset.covers:
            finer, coarser = poset.elements[i], poset.elements[j]
            assert len(finer) == len(coarser) + 1
            assert refines(finer, coarser)

    def test_histogram_matches_stirling(self):
        for n in range(1, 7):
            assert partition_lattice(n).rank_histogram() == stirling_row(n)

    def test_maximal_chains(self):
        # Saturated chains from the all-singletons partition to the one-block
        # partition merge two blocks at a time: prod of C(k, 2) for k = n..2.
        for n in range(2, 6):
            expected = math.prod(math.comb(k, 2) for k in range(2, n + 1))
            assert count_maximal_chains(partition_lattice(n)) == expected


class TestEulerian:
    def test_examples(self):
        assert eulerian(1).coeffs == (1,)
        assert eulerian(3).coeffs == (1, 4, 1)
        assert eulerian(4).coeffs == (1, 11, 11, 1)

    def test_des(self):
        assert des((1, 3, 2)) == 1
        assert des((3, 2, 1)) == 2
        assert des((1, 2, 3)) == 0

    def test_recurrence_matches_enumeration(self):
        for n in range(1, 9):
            assert eulerian_recurrence(n) == eulerian(n)

    def test_large_n_uses_recurrence(self):
        poly = eulerian(12)
        assert poly.evaluate(1) == math.factorial(12)

    def test_coefficient_sum(self):
        for n in range(1, 8):
            assert eulerian(n).evaluate(1) == math.factorial(n)


class TestRankRelations:
    def test_affine_candidates(self):
        poset = subset_lattice(3)
        base = list(poset.ranks)
        shifted = [r + 5 for r in base]
        flipped = [3 - r for r in base]
        assert affine_rank_relation(base, shifted) == (1, 5)
        assert affine_rank_relation(base, flipped) == (-1, 3)
        assert affine_rank_relation(base, [2 * r for r in base]) is None

    def test_flipped_ranks_still_valid(self):
        poset = subset_lattice(3)
        flipped = RankedPoset(
            poset.elements, poset.covers, tuple(3 - r for r in poset.ranks)
        )
        validate_ranked_poset(flipped)

    def test_invalid_rank_function_rejected(self):
        poset = subset_lattice(3)
        doubled = RankedPoset(
            poset.elements, poset.covers, tuple(2 * r for r in poset.ranks)
        )
        with pytest.raises(ValueError):
            validate_ranked_poset(doubled)
