import math
import random

import pytest

from gausslab.errors import ParityViolation, PathMissesLine
from gausslab.pathlab import (
    GridLine,
    LineOrientation,
    count_free,
    count_free_closed_form,
    monotone_injection,
    monotone_paths,
    reflect_path,
    reflect_point,
    reflect_through_point,
    sagan_sequence,
    swap_bisector,
)
from gausslab.polycore import IntPoly, is_unimodal


def _unit_steps(path):
    return all(abs(x1 - x0) + abs(y1 - y0) == 1 for (x0, y0), (x1, y1) in zip(path, path[1:]))


class TestReflection:
    def test_diagonal_swap(self):
        line = GridLine(LineOrientation.DIAG_UP, 0)
        assert reflect_point(line, (2, 5)) == (5, 2)

    def test_involution_all_orientations(self):
        rng = random.Random(7)
        for orientation in LineOrientation:
            for _ in range(50):
                line = GridLine(orientation, rng.randint(-5, 5))
                v = (rng.randint(-9, 9), rng.randint(-9, 9))
                assert reflect_point(line, reflect_point(line, v)) == v

    def test_fixes_line_points(self):
        cases = [
            (GridLine(LineOrientation.HORIZONTAL, 3), (7, 3)),
            (GridLine(LineOrientation.VERTICAL, -2), (-2, 4)),
            (GridLine(LineOrientation.DIAG_UP, 1), (5, 4)),
            (GridLine(LineOrientation.DIAG_DOWN, 6), (2, 4)),
        ]
        for line, v in cases:
            assert line.contains(v)
            assert reflect_point(line, v) == v

    def test_point_reflection_is_not_a_line_reflection(self):
        # The central symmetry through a point moves every other point,
        # including points a line reflection would fix.
        assert reflect_through_point((1, 1), (0, 0)) == (2, 2)
        assert reflect_through_point((1, 1), reflect_through_point((1, 1), (4, -3))) == (4, -3)

    def test_path_suffix_reflection(self):
        line = GridLine(LineOrientation.DIAG_UP, 0)
        path = ((0, 0), (1, 0), (1, 1))
        # last touch is the endpoint itself, so nothing is reflected
        assert reflect_path(line, path) == path
        path2 = ((0, 0), (1, 0), (2, 0))
        assert reflect_path(line, path2) == ((0, 0), (0, 1), (0, 2))

    def test_path_misses_line(self):
        line = GridLine(LineOrientation.HORIZONTAL, 5)
        with pytest.raises(PathMissesLine):
            reflect_path(line, ((0, 0), (1, 0)))

    def test_path_reflection_involution_and_validity(self):
        rng = random.Random(11)
        for _ in range(100):
            steps = [rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)]) for _ in range(8)]
            vertices = [(0, 0)]
            for dx, dy in steps:
                x, y = vertices[-1]
                vertices.append((x + dx, y + dy))
            path = tuple(vertices)
            line = GridLine(LineOrientation.DIAG_UP, 0)  # touches at the origin
            reflected = reflect_path(line, path)
            assert _unit_steps(reflected)
            assert reflect_path(line, reflected) == path


class TestSwapBisector:
    def test_derived_offset(self):
        line = swap_bisector((2, 3), (3, 2))
        assert line.orientation is LineOrientation.DIAG_UP
        assert reflect_point(line, (2, 3)) == (3, 2)

    def test_endpoints_swap(self):
        # swap_bisector does not re-check this on each call.
        for x in range(-6, 7):
            for y in range(-6, 7):
                for q in ((x + 1, y - 1), (x - 1, y + 1)):
                    line = swap_bisector((x, y), q)
                    assert reflect_point(line, (x, y)) == q and reflect_point(line, q) == (x, y)

    def test_rejects_other_differences(self):
        with pytest.raises(ValueError):
            swap_bisector((0, 0), (1, 1))


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
        with pytest.raises(ParityViolation):
            count_free(1, 1, 3)
        with pytest.raises(ParityViolation):
            count_free_closed_form(2, 1, 4)

    def test_too_few_steps_gives_zero(self):
        assert count_free(3, 3, 4) == 0
        assert count_free_closed_form(3, 3, 4) == 0

    def test_dp_matches_closed_form(self):
        for a in range(1, 5):
            for b in range(1, 5):
                for n in range(a + b, 13, 2):
                    assert count_free(a, b, n) == count_free_closed_form(a, b, n)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            count_free(1, 1, 20)


class TestSagan:
    def test_examples(self):
        assert sagan_sequence(4, 4) == [1, 16, 36, 16, 1]
        assert sagan_sequence(3, 0) == [1]
        assert sagan_sequence(4, 2) == [6, 16, 6]

    def test_unimodal_small(self):
        for n in range(13):
            for k in range(n + 1):
                assert is_unimodal(IntPoly(sagan_sequence(n, k)))

    def test_middle_inequality_is_binomial_log_concavity(self):
        for n in range(2, 13):
            for j in range(1, n // 2 + 1):
                seq = sagan_sequence(n, 2 * j)
                assert seq[j] == math.comb(n, j) ** 2
                assert seq[j - 1] == math.comb(n, j - 1) * math.comb(n, j + 1)
                assert seq[j] >= seq[j - 1]

    def test_range(self):
        with pytest.raises(ValueError):
            sagan_sequence(3, 4)
