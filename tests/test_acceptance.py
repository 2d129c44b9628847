"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test also enforces its stated time budget.
"""

import random
import time

from gausslab import criteria, injectlab, polycore, posetlab
from gausslab.injectlab import ClaimVerdict
from gausslab.polycore import IntPoly, gamma_expand


def _criterion(number, label, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        print(f"PASS {number:2d} {label} ({elapsed:.2f}s)")
    except AssertionError:
        elapsed = time.perf_counter() - start
        print(f"FAIL {number:2d} {label} ({elapsed:.2f}s)")
        raise
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_01_g22_shape():
    def body():
        assert criteria.g22_shape_holds()

    _criterion(1, "G(2,2) unimodal palindromic not-log-concave", 1.0, body)


def test_criterion_02_four_way_agreement():
    def body():
        grid = criteria.gaussian_grid(
            criteria.box_level_counts(10, 10, injectlab.DEFAULT_ENUMERATION_BUDGET)
        )
        assert len(grid) == 100
        # Besides route agreement, the printed argument rule reproduces the
        # polynomial exactly on the diagonal (where its leading factor
        # coincides with the corrected one).
        assert criteria.gaussian_grid_holds(grid), grid
        agreeing = [(c["a"], c["b"]) for c in grid if c["stated_rule_agrees"]]
        print(f"        stated-rule record: agrees on {agreeing}, disagrees elsewhere")

    _criterion(2, "four-way Gaussian agreement a,b <= 10", 30.0, body)


def test_criterion_03_gaussian_unimodal_darga():
    def body():
        grid = criteria.gaussian_grid(
            criteria.box_level_counts(8, 8, injectlab.DEFAULT_ENUMERATION_BUDGET)
        )
        assert criteria.gaussian_grid_holds(grid), grid

    _criterion(3, "G(a,b) unimodal and symmetric with darga ab for a,b <= 8", 30.0, body)


def test_criterion_04_inversion_generating_function():
    def body():
        assert criteria.inversions_hold(7)

    _criterion(4, "inversion polynomial equals q-factorial n <= 7", 10.0, body)


def test_criterion_05_sperner_exhaustive():
    def body():
        for n in range(1, 6):
            assert criteria.sperner_holds(posetlab.max_antichain(n)), n

    _criterion(5, "Sperner bound exhaustive n <= 5", 60.0, body)


def test_criterion_06_lym_exhaustive():
    def body():
        for n in range(1, 5):
            assert criteria.lym_holds(n), n

    _criterion(6, "LYM bound exhaustive n <= 4, tight on full layers", 5.0, body)


def test_criterion_07_free_walk_closed_form():
    def body():
        assert criteria.free_walks_hold(6, 14)

    _criterion(7, "free-walk DP equals closed form a,b <= 6, n <= 14", 10.0, body)


def test_criterion_08_monotone_injection():
    def body():
        assert criteria.monotone_injections_hold(12)

    _criterion(8, "monotone reflection injective n <= 12", 20.0, body)


def test_criterion_09_sagan_sequences():
    def body():
        assert criteria.sagan_sequences_hold(20)

    _criterion(9, "binomial-product sequences unimodal n <= 20", 1.0, body)


def test_criterion_10_injection_audits():
    def body():
        audits = injectlab.audit_all(6, 6)
        checks = [injectlab.check_claim(r) for r in audits]
        again = [injectlab.check_claim(r) for r in injectlab.audit_all(6, 6)]
        assert [c.verdict for c in checks] == [c.verdict for c in again]
        assert criteria.injections_hold(audits, checks)

        confirmed = sum(1 for c in checks if c.verdict is ClaimVerdict.CONFIRMED)
        not_failures = sum(1 for c in checks if c.verdict is ClaimVerdict.NOT_A_FAILURE)
        print(
            f"        claims on boxes <= (6,6): {confirmed} confirmed,"
            f" {not_failures} not-a-failure, rest not applicable"
        )

    _criterion(10, "injection audits and claim verdicts boxes <= (6,6)", 60.0, body)


def test_criterion_11_eulerian_suite():
    def body():
        assert criteria.eulerian_suite_holds(8)

    _criterion(11, "Eulerian polynomials full certificate n <= 8", 30.0, body)


def test_criterion_12_property_suites():
    def body():
        rng = random.Random(20260810)

        # log-concave and positive implies unimodal
        checked = 0
        for _ in range(4000):
            seq = [rng.randint(1, 30) for _ in range(rng.randint(1, 8))]
            if polycore.is_log_concave(seq):
                checked += 1
                assert polycore.is_unimodal(seq)
        assert checked > 100

        # real-rooted with nonnegative coefficients implies log-concave
        for _ in range(50):
            poly = IntPoly([rng.randint(1, 3)])
            for _ in range(rng.randint(1, 6)):
                poly = poly * IntPoly([rng.randint(0, 5), 1])
            assert polycore.is_real_rooted(poly)
            assert polycore.is_log_concave(poly)

        # products of positive log-concave polynomials stay log-concave
        produced = 0
        while produced < 50:
            f = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
            g = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
            if polycore.is_log_concave(f) and polycore.is_log_concave(g):
                produced += 1
                assert polycore.is_log_concave(IntPoly(f) * IntPoly(g))

        # nonnegative gamma vectors expand to unimodal polynomials
        for _ in range(200):
            half = rng.randint(0, 4)
            n = 2 * half + rng.randint(0, 1)
            gammas = [rng.randint(0, 9) for _ in range(n // 2 + 1)]
            assert polycore.is_unimodal(gamma_expand(gammas, n))

        # gamma round trip is the identity on palindromic inputs
        for _ in range(200):
            half = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
            coeffs = half + (half[::-1] if rng.random() < 0.5 else half[-2::-1])
            f = IntPoly(coeffs)
            if f.is_zero:
                continue
            n = len(coeffs) - 1
            gammas = polycore.gamma_decompose(f, n)
            assert gamma_expand(gammas, n) == f
            assert polycore.gamma_decompose(f, n) == gammas  # unique / deterministic

        # shift-test building blocks peak at 1 + m//2 through m = 30
        for m in range(31):
            for r in range(m + 1):
                poly = polycore.boros_moll_P(m, r)
                assert polycore.is_unimodal(poly)
                assert poly.coeffs[1 + m // 2] == max(poly.coeffs)

        # 1000 random nondecreasing nonnegative polynomials pass the shift test
        for _ in range(1000):
            length = rng.randint(1, 25)
            total = rng.randint(0, 3)
            coeffs = []
            for _ in range(length):
                total += rng.randint(0, 9)
                coeffs.append(total)
            assert criteria.shift_identity_holds(IntPoly(coeffs))

    _criterion(12, "randomized property suites (seeded)", 30.0, body)


def test_criterion_13_stirling_rows():
    def body():
        assert criteria.stirling_rows_hold(8)

    _criterion(13, "Stirling rows unimodal, recurrence vs enumeration n <= 8", 10.0, body)
