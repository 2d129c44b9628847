import math
import random

import pytest

from gausslab import pathlab
from gausslab.cli import main
from gausslab.pathlab import (
    count_free,
    count_free_closed_form,
    monotone_injection,
    monotone_paths,
    reflect_path,
    sagan_sequence,
)
from gausslab.polycore import IntPoly, is_unimodal


def _unit_steps(path):
    return all(abs(x1 - x0) + abs(y1 - y0) == 1 for (x0, y0), (x1, y1) in zip(path, path[1:]))


def _mirror(c, v):
    """v reflected across x - y = c, as the one vertex after a touch at (c, 0)."""
    return reflect_path(c, ((c, 0), v))[1]


class TestReflection:
    def test_diagonal_swap(self):
        assert _mirror(0, (2, 5)) == (5, 2)
        assert _mirror(3, (2, 5)) == (8, -1)

    def test_path_suffix_reflection(self):
        path = ((0, 0), (1, 0), (1, 1))
        # last touch is the endpoint itself, so nothing is reflected
        assert reflect_path(0, path) == path
        path2 = ((0, 0), (1, 0), (2, 0))
        assert reflect_path(0, path2) == ((0, 0), (0, 1), (0, 2))
        # the prefix runs through the last touch, not the first
        path3 = ((0, 0), (0, 1), (1, 1), (1, 2), (1, 3))
        assert reflect_path(0, path3) == ((0, 0), (0, 1), (1, 1), (2, 1), (3, 1))

    def test_path_misses_line(self):
        with pytest.raises(ValueError, match="^path never touches the line x - y = 5$"):
            reflect_path(5, ((0, 0), (1, 0)))

    def test_path_reflection_involution_and_validity(self):
        rng = random.Random(11)
        for _ in range(100):
            c = rng.randint(-5, 5)
            steps = [rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)]) for _ in range(8)]
            vertices = [(c, 0)]  # starts on the line
            for dx, dy in steps:
                x, y = vertices[-1]
                vertices.append((x + dx, y + dy))
            path = tuple(vertices)
            reflected = reflect_path(c, path)
            assert _unit_steps(reflected)
            assert reflect_path(c, reflected) == path


class TestSwapBisector:
    # monotone_injection reflects level k across x - y = 2k - n + 1, the line
    # that swaps its endpoint (k, n-k) with the next level's, (k+1, n-k-1).
    def test_derived_offset(self):
        assert monotone_injection(5, 2).offset == 0
        assert monotone_injection(4, 1).offset == -1
        assert _mirror(0, (2, 3)) == (3, 2)

    def test_endpoints_swap(self):
        for n in range(1, 13):
            for k in range((n - 1) // 2 + 1):
                c = monotone_injection(n, k).offset
                assert c == 2 * k - n + 1
                p, q = (k, n - k), (k + 1, n - k - 1)
                assert _mirror(c, p) == q and _mirror(c, q) == p


class TestMonotone:
    def test_counts(self):
        assert len(monotone_paths(4, 2)) == 6
        for n in range(9):
            for k in range(n + 1):
                assert len(monotone_paths(n, k)) == math.comb(n, k)

    def test_paths_are_valid_and_end_right(self):
        for path in monotone_paths(5, 2):
            assert _unit_steps(path)
            assert path[0] == (0, 0)
            assert path[-1] == (2, 3)

    def test_injection_4_1(self):
        cert = monotone_injection(4, 1)
        assert cert.source_count == 4
        assert cert.image_count == 4
        assert cert.injective and cert.images_in_target

    def test_injection_5_2(self):
        cert = monotone_injection(5, 2)
        assert cert.source_count == 10 and cert.image_count == 10
        assert cert.injective and cert.images_in_target

    def test_injection_endpoints(self):
        cert = monotone_injection(6, 1)
        for src, img in cert.mapping:
            assert src[-1] == (1, 5)
            assert img[-1] == (2, 4)

    def test_injection_range(self):
        with pytest.raises(ValueError):
            monotone_injection(4, 2)
        with pytest.raises(ValueError):
            monotone_injection(4, -1)


class TestFreeWalks:
    def test_examples(self):
        assert count_free(1, 1, 2) == 2
        assert count_free(2, 2, 4) == 6
        assert count_free(1, 2, 3) == 3

    def test_closed_form_examples(self):
        assert count_free_closed_form(2, 2, 4) == math.comb(4, 2) * math.comb(4, 0)
        assert count_free_closed_form(1, 2, 3) == 3

    def test_parity(self):
        with pytest.raises(ValueError, match=r"^n = 3 has the wrong parity for endpoint \(1,1\)$"):
            count_free(1, 1, 3)
        with pytest.raises(ValueError, match=r"^n = 4 has the wrong parity for endpoint \(2,1\)$"):
            count_free_closed_form(2, 1, 4)

    def test_too_few_steps_gives_zero(self):
        assert count_free(3, 3, 4) == 0
        assert count_free_closed_form(3, 3, 4) == 0

    def test_dp_matches_closed_form(self):
        for a in range(1, 5):
            for b in range(1, 5):
                for n in range(a + b, 13, 2):
                    assert count_free(a, b, n) == count_free_closed_form(a, b, n)

    def test_range_guard(self, capsys, monkeypatch):
        # The command line caps n at 18 before the table is built; the library
        # has no cap of its own.
        assert count_free(1, 1, 20) == count_free_closed_form(1, 1, 20)
        with pytest.raises(ValueError):
            count_free(1, 1, 0)
        monkeypatch.setattr(pathlab, "count_free", None)
        assert main(["paths", "fab", "1", "1", "20"]) == 3
        assert capsys.readouterr().err == "budget exceeded: paths fab needs n <= 18\n"


class TestSagan:
    def test_examples(self):
        assert sagan_sequence(4, 4) == IntPoly([1, 16, 36, 16, 1])
        assert sagan_sequence(3, 0) == IntPoly([1])
        assert sagan_sequence(4, 2) == IntPoly([6, 16, 6])

    def test_unimodal_small(self):
        for n in range(13):
            for k in range(n + 1):
                assert is_unimodal(sagan_sequence(n, k))

    def test_middle_inequality_is_binomial_log_concavity(self):
        for n in range(2, 13):
            for j in range(1, n // 2 + 1):
                seq = sagan_sequence(n, 2 * j).coeffs
                assert seq[j] == math.comb(n, j) ** 2
                assert seq[j - 1] == math.comb(n, j - 1) * math.comb(n, j + 1)
                assert seq[j] >= seq[j - 1]

    def test_range(self):
        with pytest.raises(ValueError):
            sagan_sequence(3, 4)
