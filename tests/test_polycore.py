import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslab import criteria, polycore
from gausslab.errors import (
    NonExactDivision,
    NotPalindromic,
    PreconditionViolated,
    ZeroPolynomial,
)
from gausslab.polycore import (
    GammaVector,
    IntPoly,
    binomial_power,
    boros_moll_P,
    darga,
    decompose_shift,
    div_exact,
    gamma_decompose,
    is_darga_palindromic,
    is_gamma_nonnegative,
    is_log_concave,
    is_palindromic,
    is_real_rooted,
    is_unimodal,
    mode,
    shift_by_one,
    square_free_part,
    sturm_chain,
)


class TestIntPoly:
    def test_normalization(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0, 0]).coeffs == ()
        assert IntPoly().is_zero
        assert IntPoly([5]).degree == 0
        assert IntPoly().degree == -1

    def test_mul(self):
        assert (IntPoly([1, 1]) * IntPoly([1, 1])).coeffs == (1, 2, 1)
        assert (IntPoly([1, 1]) * 3).coeffs == (3, 3)
        assert (IntPoly([1, 2]) * IntPoly()).is_zero

    def test_add_sub(self):
        assert (IntPoly([1, 2]) + IntPoly([0, -2, 5])).coeffs == (1, 0, 5)
        assert (IntPoly([1, 2]) - IntPoly([1, 2])).is_zero

    def test_pow(self):
        assert IntPoly([1, 1]) ** 4 == binomial_power(4)
        assert (IntPoly([0, 1]) ** 3).coeffs == (0, 0, 0, 1)
        assert IntPoly([2, 1]) ** 0 == IntPoly.one()

    def test_evaluate(self):
        assert IntPoly([1, 1, 2, 1, 1]).evaluate(1) == 6
        assert IntPoly([1, 2, 3]).evaluate(10) == 321

    def test_shift_low_degree(self):
        p = IntPoly([1, 1]).shift(2)
        assert p.coeffs == (0, 0, 1, 1)
        assert p.low_degree == 2
        with pytest.raises(ZeroPolynomial):
            IntPoly().low_degree

    def test_json_round_trip(self):
        p = IntPoly([10**40, -3, 0, 7])
        assert IntPoly.from_json(p.to_json()) == p
        assert p.to_json()[0] == str(10**40)


class TestDivExact:
    def test_basic(self):
        assert div_exact([-1, 0, 1], [-1, 1]).coeffs == (1, 1)

    def test_degree_mismatch(self):
        with pytest.raises(NonExactDivision):
            div_exact([1, 1], [1, 1, 1])

    def test_nonzero_remainder(self):
        with pytest.raises(NonExactDivision):
            div_exact([1, 0, 1], [1, 1])

    def test_non_integer_quotient(self):
        with pytest.raises(NonExactDivision):
            div_exact([0, 1], [0, 2])

    def test_round_trip(self):
        f = IntPoly([3, -1, 4, 1, -5])
        g = IntPoly([-2, 0, 7])
        assert div_exact(f * g, g) == f

    def test_zero_dividend(self):
        assert div_exact(IntPoly(), [1, 1]).is_zero

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            div_exact([1, 1], [])

    def test_floordiv_operator(self):
        assert (IntPoly([-1, 0, 1]) // IntPoly([-1, 1])).coeffs == (1, 1)


class TestUnimodalMode:
    def test_examples(self):
        assert is_unimodal([1, 1, 2, 1, 1]) and mode([1, 1, 2, 1, 1]) == 2
        assert is_unimodal([1, 4, 6, 4, 1]) and mode([1, 4, 6, 4, 1]) == 2
        assert not is_unimodal([1, 0, 1])
        assert mode([1, 0, 1]) is None

    def test_degenerate(self):
        assert is_unimodal([])
        assert is_unimodal([7])
        assert mode([7]) == 0
        assert mode([]) is None

    def test_plateau_takes_least_index(self):
        assert mode([0, 3, 3, 1]) == 1
        assert mode([3, 3, 1]) == 0
        assert mode([1, 2, 2, 1]) == 1

    def test_monotone_sequences(self):
        assert mode([1, 2, 3]) == 2
        assert mode([3, 2, 1]) == 0


class TestLogConcave:
    def test_examples(self):
        assert not is_log_concave([1, 1, 2, 1, 1])
        assert is_log_concave([1, 2, 1])
        assert is_log_concave([1, 1, 1, 1])

    def test_binomial_row(self):
        assert is_log_concave([math.comb(8, k) for k in range(9)])


class TestPalindromicDarga:
    def test_examples(self):
        assert is_palindromic([1, 1, 2, 1, 1], 4)
        assert not is_palindromic([1, 2], 1)
        assert darga([0, 0, 1, 1]) == 5

    def test_center_beyond_degree(self):
        # X^2 + X^3 is symmetric about 5/2 even though its degree is 3.
        assert is_palindromic([0, 0, 1, 1], 5)
        assert not is_palindromic([0, 0, 1, 1], 3)
        assert is_darga_palindromic([0, 0, 1, 1])

    def test_degree_exceeds_center(self):
        assert not is_palindromic([1, 1, 1], 1)

    def test_zero_polynomial(self):
        assert is_palindromic([], 4)
        with pytest.raises(ZeroPolynomial):
            darga([])

    def test_reversal_oracle(self):
        # a_k = a_{n-k} is the same as comparing against the reversed padding.
        for coeffs, n in [([1, 2, 3, 2, 1], 4), ([1, 2, 3], 4), ([2, 3, 3, 2], 3)]:
            padded = coeffs + [0] * (n + 1 - len(coeffs))
            assert is_palindromic(coeffs, n) == (padded == padded[::-1])


class TestGamma:
    def test_basis_element(self):
        assert gamma_decompose(binomial_power(4), 4).gammas == (1, 0, 0)

    def test_worked_examples(self):
        # 1 + 4X + X^2 = (1+X)^2 + 2X and 1 + X^2 = (1+X)^2 - 2X.
        assert gamma_decompose([1, 4, 1], 2).gammas == (1, 2)
        assert gamma_decompose([1, 0, 1], 2).gammas == (1, -2)
        assert not is_gamma_nonnegative([1, 0, 1], 2)
        assert is_gamma_nonnegative([1, 4, 1], 2)

    def test_not_palindromic(self):
        with pytest.raises(NotPalindromic):
            gamma_decompose([1, 2], 2)

    def test_reconstruction(self):
        for coeffs, n in [([1, 1, 2, 1, 1], 4), ([0, 1, 1], 3), ([2, 5, 5, 2], 3)]:
            gv = gamma_decompose(coeffs, n)
            assert gv.reconstruct() == IntPoly(coeffs)

    def test_manual_vector(self):
        gv = GammaVector((1, -1, 2), 4)
        back = gamma_decompose(gv.reconstruct(), 4)
        assert back == gv


class TestRealRooted:
    def test_examples(self):
        assert is_real_rooted([1, 2, 1])
        assert not is_real_rooted([1, 0, 1])
        # 1 + 11X + 11X^2 + X^3 = (1+X)(1 + 10X + X^2), all roots real
        assert is_real_rooted([1, 11, 11, 1])

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            is_real_rooted([])

    def test_constants_and_linears(self):
        assert is_real_rooted([5])
        assert is_real_rooted([3, -2])

    def test_repeated_roots(self):
        assert is_real_rooted([1, 3, 3, 1])  # (1+X)^3
        assert is_real_rooted(list((IntPoly([1, 1]) ** 2 * IntPoly([-2, 1])).coeffs))

    def test_mixed_complex(self):
        # (X^2 + 1)(X + 1) has one real root out of three.
        p = IntPoly([1, 0, 1]) * IntPoly([1, 1])
        assert not is_real_rooted(p)
        assert polycore._count_real_roots_square_free(p) == 1

    def test_irrational_roots(self):
        assert is_real_rooted([-2, 0, 1])
        assert polycore._count_real_roots_square_free(IntPoly([0, -1, 0, 1])) == 3

    def test_square_free_part(self):
        p = IntPoly([1, 1]) ** 3 * IntPoly([-1, 1])
        sf = square_free_part(p)
        assert sf == IntPoly([1, 1]) * IntPoly([-1, 1])

    def test_square_free_reduction_runs_once(self, monkeypatch):
        calls = []

        def counted(f):
            calls.append(f)
            return square_free_part(f)

        monkeypatch.setattr(polycore, "square_free_part", counted)
        p = IntPoly([1, 1]) ** 3 * IntPoly([-1, 1])
        assert is_real_rooted(p)
        assert len(calls) == 1

    def test_sturm_chain_shape(self):
        chain = sturm_chain([1, 11, 11, 1])
        assert chain[0].degree == 3 and chain[1].degree == 2
        assert all(chain[i].degree > chain[i + 1].degree for i in range(1, len(chain) - 1))


def _bound_count(g):
    """The Sturm count read at -B and B, with B = 1 + max |c_k| / |c_n| the
    Cauchy bound on the roots of g, evaluated over the rationals."""
    if g.degree == 0:
        return 0
    chain = sturm_chain(g)
    bound = Fraction(1) + Fraction(max(abs(c) for c in g.coeffs[:-1]), abs(g.coeffs[-1]))

    def variations(x):
        signs = [v > 0 for v in (q.evaluate(x) for q in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(-bound) - variations(bound)


def _random_products(seed, count):
    """Products of 1 to 5 linear and quadratic factors, some repeated, with
    leading coefficients of either sign."""
    rng = random.Random(seed)
    polys = []
    for _ in range(count):
        p = IntPoly([rng.choice([-3, -2, -1, 1, 2, 3])])
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                factor = IntPoly([rng.randint(-5, 5), rng.choice([-2, -1, 1, 3])])
            else:
                factor = IntPoly([rng.randint(-6, 6), rng.randint(-4, 4), rng.choice([-1, 1, 2])])
            p = p * factor ** rng.randint(1, 3)
        polys.append(p)
    return polys


class TestSturmAtInfinity:
    """The count read from leading coefficients against independent counts."""

    def test_matches_the_bound_based_count(self):
        for p in _random_products(5, 400):
            g = square_free_part(p)
            assert polycore._count_real_roots_square_free(g) == _bound_count(g), p
            assert polycore._count_real_roots_square_free(-g) == _bound_count(g), p

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for p in _random_products(11, 120):
            poly = sympy.Poly(list(reversed(p.coeffs)), x)
            roots = poly.real_roots()
            g = square_free_part(p)
            assert polycore._count_real_roots_square_free(g) == len(set(roots)), p
            assert is_real_rooted(p) == (len(roots) == p.degree), p


def _fraction_chain(f):
    """The Sturm chain by exact rational remainders, each later member scaled
    to the primitive integer polynomial with the remainder's sign: the
    reference that the integer pseudo-remainder chain must reproduce."""
    chain = [f]
    if f.degree >= 1:
        chain.append(f.derivative())
        while chain[-1].degree >= 1:
            num = [Fraction(c) for c in chain[-2].coeffs]
            den = chain[-1].coeffs
            while len(num) >= len(den):
                q = num[-1] / den[-1]
                for j, c in enumerate(den):
                    num[len(num) - len(den) + j] -= q * c
                num.pop()
            while num and not num[-1]:
                num.pop()
            if not num:
                break
            denom = math.lcm(*(c.denominator for c in num))
            ints = [int(c * denom) for c in num]
            g = math.gcd(*ints)
            chain.append(IntPoly(-c // g for c in ints))
    return chain


def _primitive(p):
    g = math.gcd(*p.coeffs)
    return IntPoly(c // g for c in p.coeffs)


class TestIntegerChain:
    """The integer pseudo-remainder chain against the rational one and the gcd."""

    def test_matches_the_fraction_chain(self):
        for p in _random_products(17, 300):
            for q in (p, -p, square_free_part(p)):
                assert sturm_chain(q) == _fraction_chain(q), q

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=13))
    def test_matches_the_fraction_chain_on_any_polynomial(self, coeffs):
        p = IntPoly(coeffs)
        if not p.is_zero:
            assert sturm_chain(p) == _fraction_chain(p)

    def test_negative_leading_divisor_keeps_the_remainder_sign(self):
        # 3 - X^2 has the real roots +-sqrt(3); its derivative -2X has a
        # negative leading coefficient, so a multiplier lc(b)^k of odd k
        # would flip the last member's sign and read no roots at all.
        p = IntPoly([3, 0, -1])
        assert sturm_chain(p) == [p, IntPoly([0, -2]), IntPoly([-1])]
        assert polycore._count_real_roots_square_free(p) == 2
        assert is_real_rooted(p)

    def test_chain_ends_in_the_gcd(self):
        checked = 0
        for p in _random_products(23, 300):
            g = polycore._poly_gcd(p, p.derivative())
            if g.degree >= 1:
                checked += 1
                assert _primitive(sturm_chain(p)[-1]) in (g, -g), p
        assert checked >= 100


class TestBorosMoll:
    def test_examples(self):
        assert boros_moll_P(1, 0).coeffs == (0, 2, 1)
        assert boros_moll_P(1, 1).coeffs == (0, 1, 1)

    def test_recurrence(self):
        # P(m+1, r) = P(m, r) + X (1+X)^(m+1)
        for m in range(5):
            for r in range(m + 1):
                lhs = boros_moll_P(m + 1, r)
                rhs = boros_moll_P(m, r) + binomial_power(m + 1).shift(1)
                assert lhs == rhs

    def test_bad_range(self):
        with pytest.raises(ValueError):
            boros_moll_P(1, 2)
        with pytest.raises(ValueError):
            boros_moll_P(3, -1)


class TestShiftTest:
    def test_monomial_gives_binomials(self):
        f = IntPoly([0, 0, 0, 0, 1])
        assert is_unimodal(shift_by_one(f))
        assert shift_by_one(f) == binomial_power(4)

    def test_small_example(self):
        assert shift_by_one([1, 1, 1]).coeffs == (3, 3, 1)
        assert is_unimodal(shift_by_one([1, 1, 1]))

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            decompose_shift([2, 1])
        with pytest.raises(PreconditionViolated):
            decompose_shift([-1, 0])
        # The shared check reads a broken precondition as a false verdict.
        assert not criteria.shift_identity_holds(IntPoly([2, 1]))
        assert not criteria.shift_identity_holds(IntPoly([-1, 0]))

    def test_decompose_shift_identity(self):
        for coeffs in [(1, 1, 1), (0, 2, 2, 5), (3, 3, 4, 4, 9)]:
            f = IntPoly(coeffs)
            weights = decompose_shift(f)
            assert weights == tuple(
                coeffs[k] - (coeffs[k - 1] if k else 0) for k in range(len(coeffs))
            )
            n = f.degree
            rhs = IntPoly.zero()
            for k, w in enumerate(weights):
                rhs = rhs + boros_moll_P(n, k) * w
            assert shift_by_one(f).shift(1) == rhs


def _family_member(w, m):
    return IntPoly(w(j, m) for j in range(m + 1))


class TestWeightFamilies:
    @staticmethod
    def _binomial_transform(weights):
        m = len(weights) - 1
        return [
            sum(weights[j] * math.comb(j, k) for j in range(k, m + 1))
            for k in range(m + 1)
        ]

    @pytest.mark.parametrize(
        "poly",
        [
            _family_member(w, m)
            for w, m in zip(criteria.WEIGHT_FAMILIES, (6, 7, 6, 4), strict=True)
        ],
    )
    def test_families_pass_shift_test(self, poly):
        assert criteria.shift_identity_holds(poly)
        transformed = shift_by_one(poly)
        expected = self._binomial_transform(list(poly.coeffs))
        assert list(transformed.coeffs) == expected
        assert is_unimodal(transformed)

    def test_families_are_the_documented_weights(self):
        geometric, power, self_power, binomial = criteria.WEIGHT_FAMILIES
        assert _family_member(geometric, 3).coeffs == (1, 3, 9, 27)
        assert _family_member(power, 3).coeffs == (0, 1, 16, 81)
        assert _family_member(self_power, 3).coeffs == (1, 1, 4, 27)
        assert _family_member(binomial, 1).coeffs == (1, 3 * 5**2)

    @pytest.mark.parametrize("family", range(4))
    def test_families_are_nonnegative_and_nondecreasing(self, family):
        w = criteria.WEIGHT_FAMILIES[family]
        for m in range(1, 9):
            weights = [w(j, m) for j in range(m + 1)]
            assert weights[0] >= 0
            assert all(x <= y for x, y in zip(weights, weights[1:]))

    def test_a_decreasing_family_fails_the_shift_check(self, monkeypatch):
        assert criteria.weight_families_shift_hold(2)
        monkeypatch.setattr(
            criteria, "WEIGHT_FAMILIES", criteria.WEIGHT_FAMILIES + (lambda j, m: m - j,)
        )
        assert not criteria.weight_families_shift_hold(2)
