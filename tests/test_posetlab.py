import collections
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from gausslab import posetlab
from gausslab.cli import main
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

    def test_budget_cap(self, capsys, monkeypatch):
        # The search is capped on the command line, before any family is built.
        searched = []
        search = posetlab.iter_antichains

        def spy(n):
            searched.append(n)
            return search(n)

        monkeypatch.setattr(posetlab, "iter_antichains", spy)
        assert main(["sperner", "6", "--exhaustive"]) == 3
        assert capsys.readouterr().err == "budget exceeded: sperner --exhaustive needs n <= 5\n"
        assert searched == []
        assert main(["sperner", "5", "--exhaustive"]) == 0
        assert searched == [5]
        capsys.readouterr()


class TestLym:
    def test_example(self):
        assert lym_sum([[1, 2], [3]], 3) == Fraction(2, 3)

    def test_middle_layer_tight(self):
        assert lym_sum(full_layer(4, 2), 4) == 1

    def test_not_an_antichain(self):
        with pytest.raises(ValueError, match=r"^comparable pair: \(1,\) <= \(1, 2\)$"):
            lym_sum([[1], [1, 2]], 3)

    def test_a_huge_ground_set_costs_no_memory(self):
        # Subsets are compared as sets, not as n-bit masks.
        tracemalloc.start()
        try:
            total = lym_sum([[10**12]], 10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == Fraction(1, 10**12)
        assert peak < 64 * 2**10

    def test_matches_the_bitmask_version(self):
        # The bitmask version lym_sum replaced, on random small families: the
        # same sum, the same element error and the same pair, first in colex order.
        class Comparable(Exception):
            pass

        def mask_version(family, n):
            masks = set()
            for subset in family:
                mask = 0
                for x in subset:
                    if not 1 <= x <= n:
                        raise ValueError(f"element {x} outside 1..{n}")
                    mask |= 1 << (x - 1)
                masks.add(mask)
            masks = sorted(masks)
            as_set = lambda m: tuple(i + 1 for i in range(m.bit_length()) if m >> i & 1)
            for s, t in itertools.combinations(masks, 2):
                if s & t in (s, t):
                    raise Comparable(as_set(s), as_set(t))
            return sum((Fraction(1, math.comb(n, m.bit_count())) for m in masks), Fraction(0))

        def outcome(fn, family, n):
            try:
                return fn(family, n)
            except Comparable as exc:
                return "comparable pair: {} <= {}".format(*exc.args)
            except ValueError as exc:
                return str(exc)

        rng = random.Random(7)
        for _ in range(3000):
            n = rng.randint(0, 6)
            family = [
                [rng.randint(0, n + 1) for _ in range(rng.randint(0, n + 1))]
                for _ in range(rng.randint(0, 5))
            ]
            assert outcome(lym_sum, family, n) == outcome(mask_version, family, n), (family, n)

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
        # Any word is counted: repeated letters are not out of order.
        assert inv((2, 2, 1)) == 2 and des((2, 2, 1)) == 1

    def test_poset_shape(self, capsys):
        # bruhat 3's histogram; inv is least at the identity and greatest at its reverse.
        assert main(["bruhat", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["rank_histogram"] == ["1", "2", "2", "1"]
        for n in range(1, 7):
            rank, _ = _weak_order(n)
            assert rank[tuple(range(1, n + 1))] == inv(tuple(range(1, n + 1))) == 0
            assert max(rank, key=rank.get) == tuple(range(n, 0, -1))
            assert inv(tuple(range(n, 0, -1))) == math.comb(n, 2) == max(rank.values())

    def test_cover_structure(self, capsys):
        # bruhat's histogram and cover count against the weak order built above.
        for n in range(1, 7):
            rank, covers = _weak_order(n)
            assert len(rank) == math.factorial(n)
            assert all(rank[high] == rank[low] + 1 for low, high in covers)
            assert all(rank[w] == inv(w) for w in rank)
            assert main(["bruhat", str(n)]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["rank_histogram"] == [str(c) for c in _histogram(rank)]
            assert doc["num_covers"] == len(covers) == posetlab.weak_order_covers(n)

    def test_specific_cover(self):
        # Swapping the ascent 1 < 3 of (2, 1, 3, 4) is a cover, one inversion up.
        low, high = (2, 1, 3, 4), (2, 3, 1, 4)
        assert inv(high) == inv(low) + 1
        assert (low, high) in _weak_order(4)[1]
        assert (high, low) not in _weak_order(4)[1]

    def test_inversion_polynomial(self):
        assert inversion_polynomial(3).coeffs == (1, 2, 2, 1)
        for n in range(1, 7):
            assert inversion_polynomial(n) == q_factorial(n)

    def test_histogram_matches_inversion_polynomial(self):
        for n in range(1, 7):
            assert _histogram(_weak_order(n)[0]) == list(inversion_polynomial(n).coeffs)

    def test_inversion_polynomial_and_bruhat_share_one_count(self, monkeypatch, capsys):
        # bruhat's histogram is the inversion polynomial: inv once per permutation.
        counted = []

        def spy(word):
            counted.append(tuple(word))
            return inv(word)

        monkeypatch.setattr(posetlab, "inv", spy)
        inversion_polynomial(4)
        assert sorted(counted) == sorted(itertools.permutations(range(1, 5)))
        counted.clear()
        assert main(["bruhat", "4"]) == 0
        capsys.readouterr()
        assert sorted(counted) == sorted(itertools.permutations(range(1, 5)))


def _weak_order(n):
    """The weak order on the permutations of 1..n from its definition, each cover
    swapping an adjacent ascent: (each permutation's rank as its distance from
    the identity along covers, the list of covers as (lower, upper) pairs)."""
    perms = list(itertools.permutations(range(1, n + 1)))
    covers = [
        (w, w[:i] + (w[i + 1], w[i]) + w[i + 2:])
        for w in perms
        for i in range(n - 1)
        if w[i] < w[i + 1]
    ]
    upper = collections.defaultdict(list)
    for low, high in covers:
        upper[low].append(high)
    rank = {perms[0]: 0}
    queue = collections.deque([perms[0]])
    while queue:
        w = queue.popleft()
        for high in upper[w]:
            if high not in rank:
                rank[high] = rank[w] + 1
                queue.append(high)
    return rank, covers


def _histogram(rank):
    counts = [0] * (max(rank.values()) + 1)
    for r in rank.values():
        counts[r] += 1
    return counts


class TestStirling:
    def test_examples(self):
        assert stirling_row(4).coeffs[1] == 7
        for n in range(1, 9):
            assert stirling_row(n).coeffs[0] == stirling_row(n).coeffs[-1] == 1

    def test_against_enumeration(self):
        for n in range(1, 8):
            counts = [0] * n
            for p in set_partitions(n):
                counts[len(p) - 1] += 1
            assert stirling_row(n).coeffs == tuple(counts)

    def test_rows_unimodal(self):
        for n in range(1, 10):
            assert is_unimodal(stirling_row(n))

    def test_polynomial(self):
        assert stirling_row(4).shift(1) == IntPoly([0, 1, 7, 6, 1])

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
            assert stirling_row(n) == IntPoly(explicit)

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

