import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslab import criteria, polycore, qgauss
from gausslab.polycore import (
    IntPoly,
    binomial_power,
    boros_moll_P,
    darga,
    decompose_shift,
    div_exact,
    gamma_decompose,
    gamma_expand,
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

    def test_evaluate(self):
        assert IntPoly([1, 1, 2, 1, 1]).evaluate(1) == 6
        assert IntPoly([1, 2, 3]).evaluate(10) == 321

    def test_shift_low_degree(self):
        p = IntPoly([1, 1]).shift(2)
        assert p.coeffs == (0, 0, 1, 1)
        assert p.low_degree == 2
        with pytest.raises(ValueError, match="^zero polynomial has no lowest term$"):
            IntPoly().low_degree

    def test_json_round_trip(self):
        p = IntPoly([10**40, -3, 0, 7])
        assert IntPoly.from_json(p.to_json()) == p
        assert p.to_json()[0] == str(10**40)


class TestDivExact:
    def test_basic(self):
        assert div_exact(IntPoly([-1, 0, 1]), IntPoly([-1, 1])).coeffs == (1, 1)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree 1 < divisor degree 2"):
            div_exact(IntPoly([1, 1]), IntPoly([1, 1, 1]))

    def test_nonzero_remainder(self):
        with pytest.raises(ValueError, match="nonzero remainder"):
            div_exact(IntPoly([1, 0, 1]), IntPoly([1, 1]))

    def test_non_integer_quotient(self):
        with pytest.raises(ValueError, match="coefficient 1 not divisible by 2"):
            div_exact(IntPoly([0, 1]), IntPoly([0, 2]))

    def test_round_trip(self):
        f = IntPoly([3, -1, 4, 1, -5])
        g = IntPoly([-2, 0, 7])
        assert div_exact(f * g, g) == f

    def test_zero_dividend(self):
        assert div_exact(IntPoly(), IntPoly([1, 1])).is_zero

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            div_exact(IntPoly([1, 1]), IntPoly())


class TestUnimodalMode:
    def test_examples(self):
        assert is_unimodal(IntPoly([1, 1, 2, 1, 1])) and mode(IntPoly([1, 1, 2, 1, 1])) == 2
        assert is_unimodal(IntPoly([1, 4, 6, 4, 1])) and mode(IntPoly([1, 4, 6, 4, 1])) == 2
        assert not is_unimodal(IntPoly([1, 0, 1]))
        assert mode(IntPoly([1, 0, 1])) is None

    def test_degenerate(self):
        assert is_unimodal(IntPoly())
        assert is_unimodal(IntPoly([7]))
        assert mode(IntPoly([7])) == 0
        assert mode(IntPoly()) is None

    def test_plateau_takes_least_index(self):
        assert mode(IntPoly([0, 3, 3, 1])) == 1
        assert mode(IntPoly([3, 3, 1])) == 0
        assert mode(IntPoly([1, 2, 2, 1])) == 1

    def test_monotone_sequences(self):
        assert mode(IntPoly([1, 2, 3])) == 2
        assert mode(IntPoly([3, 2, 1])) == 0


class TestLogConcave:
    def test_examples(self):
        assert not is_log_concave(IntPoly([1, 1, 2, 1, 1]))
        assert is_log_concave(IntPoly([1, 2, 1]))
        assert is_log_concave(IntPoly([1, 1, 1, 1]))

    def test_binomial_row(self):
        assert is_log_concave(IntPoly([math.comb(8, k) for k in range(9)]))


class TestPalindromicDarga:
    def test_examples(self):
        assert is_palindromic(IntPoly([1, 1, 2, 1, 1]))
        assert not is_palindromic(IntPoly([1, 2]))
        assert darga(IntPoly([0, 0, 1, 1])) == 5

    def test_center_beyond_degree(self):
        # X^2 + X^3 is symmetric about its darga 5 / 2 even though its degree is 3;
        # as a list padded to its degree it is not.
        assert darga(IntPoly([0, 0, 1, 1])) == 5
        assert is_palindromic(IntPoly([0, 0, 1, 1]))
        assert is_palindromic(IntPoly([0, 1, 2, 1]))
        assert not is_palindromic(IntPoly([0, 0, 1, 2]))

    def test_degree_exceeds_center(self):
        # The support must mirror itself: 1 + X + 2X^2 mirrors about no center.
        assert not is_palindromic(IntPoly([1, 1, 2]))
        assert not is_palindromic(IntPoly([2, 1, 1, 0, 0]))
        assert not is_palindromic(IntPoly([0, 1, 1, 1, 0, 2]))

    def test_zero_polynomial(self):
        assert is_palindromic(IntPoly())
        with pytest.raises(ValueError, match="^darga of the zero polynomial is undefined$"):
            darga(IntPoly())
        with pytest.raises(ValueError, match="^darga of the zero polynomial is undefined$"):
            gamma_decompose(IntPoly())

    def test_reversal_oracle(self):
        # a_k = a_{d-k}, d = darga, is the same as comparing the list padded to
        # length d + 1 against its reversal, and no other center passes.
        for coeffs in [[1, 2, 3, 2, 1], [1, 2, 3], [2, 3, 3, 2], [0, 0, 1, 1], [0, 1, 2, 3]]:
            centers = [
                n for n in range(len(coeffs) - 1, 2 * len(coeffs))
                if (padded := coeffs + [0] * (n + 1 - len(coeffs))) == padded[::-1]
            ]
            f = IntPoly(coeffs)
            assert centers == ([darga(f)] if is_palindromic(f) else [])


class TestGamma:
    def test_basis_element(self):
        assert gamma_decompose(binomial_power(4)) == (1, 0, 0)
        # X (1+X)^2 has darga 4: it is the k = 1 element of the n = 4 basis.
        assert gamma_decompose(binomial_power(2).shift(1)) == (0, 1, 0)

    def test_worked_examples(self):
        # 1 + 4X + X^2 = (1+X)^2 + 2X and 1 + X^2 = (1+X)^2 - 2X.
        assert gamma_decompose(IntPoly([1, 4, 1])) == (1, 2)
        assert gamma_decompose(IntPoly([1, 0, 1])) == (1, -2)
        assert gamma_expand((1, 2), 2) == IntPoly([1, 4, 1])
        assert gamma_expand((1, -2), 2) == IntPoly([1, 0, 1])
        # X + X^2 = X (1+X), center 3/2.
        assert gamma_decompose(IntPoly([0, 1, 1])) == (0, 1)

    def test_not_palindromic(self):
        # Asymmetric supports, wherever they start: no gamma-vector.
        for coeffs in [[1, 2], [0, 1, 2], [1, 1, 2], [2, 1, 1, 1], [0, 0, 1, 0, 2]]:
            assert gamma_decompose(IntPoly(coeffs)) is None, coeffs

    def test_reconstruction(self):
        for coeffs in [[1, 1, 2, 1, 1], [0, 1, 1], [2, 5, 5, 2], [0, 0, 3, 1, 3]]:
            f = IntPoly(coeffs)
            assert gamma_expand(gamma_decompose(f), darga(f)) == f

    def test_every_small_palindrome_is_exhausted(self):
        # gamma_decompose peels only the low half and does not check that the
        # residual vanished: every nonzero palindrome with entries in -2..2 and
        # center n/2, n <= 7, must re-expand to itself about its darga n.
        for n in range(8):
            for half in itertools.product(range(-2, 3), repeat=n // 2 + 1):
                coeffs = list(half) + list(reversed(half[: (n + 1) // 2]))
                if not any(coeffs):
                    continue
                f = IntPoly(coeffs)
                assert gamma_expand(gamma_decompose(f), darga(f)) == f, coeffs

    def test_manual_vector(self):
        assert gamma_decompose(gamma_expand((1, -1, 2), 4)) == (1, -1, 2)


@pytest.fixture
def square_free_calls(monkeypatch):
    """The arguments of every square-free reduction made during the test."""
    calls = []

    def counted(f):
        calls.append(f)
        return square_free_part(f)

    monkeypatch.setattr(polycore, "square_free_part", counted)
    return calls


class TestRealRooted:
    def test_examples(self):
        assert is_real_rooted(IntPoly([1, 2, 1]))
        assert not is_real_rooted(IntPoly([1, 0, 1]))
        # 1 + 11X + 11X^2 + X^3 = (1+X)(1 + 10X + X^2), all roots real
        assert is_real_rooted(IntPoly([1, 11, 11, 1]))

    def test_zero_polynomial(self):
        with pytest.raises(ValueError, match="^real-rootedness of zero is undefined$"):
            is_real_rooted(IntPoly())

    def test_constants_and_linears(self):
        assert is_real_rooted(IntPoly([5]))
        assert is_real_rooted(IntPoly([3, -2]))

    def test_repeated_roots(self):
        assert is_real_rooted(IntPoly([1, 3, 3, 1]))  # (1+X)^3
        assert is_real_rooted(binomial_power(2) * IntPoly([-2, 1]))

    def test_mixed_complex(self):
        # (X^2 + 1)(X + 1) has one real root out of three.
        p = IntPoly([1, 0, 1]) * IntPoly([1, 1])
        assert not is_real_rooted(p)
        assert polycore._count_real_roots_square_free(p) == 1

    def test_irrational_roots(self):
        assert is_real_rooted(IntPoly([-2, 0, 1]))
        assert polycore._count_real_roots_square_free(IntPoly([0, -1, 0, 1])) == 3

    def test_square_free_part(self):
        p = binomial_power(3) * IntPoly([-1, 1])
        sf = square_free_part(p)
        assert sf == IntPoly([1, 1]) * IntPoly([-1, 1])

    def test_square_free_reduction_runs_once(self, square_free_calls):
        p = binomial_power(3) * IntPoly([-1, 1])
        assert is_real_rooted(p)
        assert len(square_free_calls) == 1

    def test_sturm_path_still_refutes(self, square_free_calls):
        # (X+1)(X^2+5X+7) has a complex pair yet meets Newton's inequalities,
        # with equality at k = 2, so only the Sturm count can say False.
        p = IntPoly([7, 12, 6, 1])
        assert p == IntPoly([1, 1]) * IntPoly([7, 5, 1])
        assert polycore._newton_violation(p.coeffs) is None
        assert not is_real_rooted(p)
        assert square_free_calls == [p]

    def test_newton_refutes_before_the_reduction(self, square_free_calls):
        assert not is_real_rooted(IntPoly([1, 0, 1]))
        assert square_free_calls == []

    def test_sturm_chain_shape(self):
        chain = sturm_chain(IntPoly([1, 11, 11, 1]))
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
            for _ in range(rng.randint(1, 3)):
                p = p * factor
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
        refuted_by = {"newton": 0, "sturm": 0}
        for p in _random_products(11, 120) + [IntPoly([7, 12, 6, 1])]:
            poly = sympy.Poly(list(reversed(p.coeffs)), x)
            roots = poly.real_roots()
            g = square_free_part(p)
            assert polycore._count_real_roots_square_free(g) == len(set(roots)), p
            assert is_real_rooted(p) == (len(roots) == p.degree), p
            if len(roots) < p.degree:
                newton = polycore._newton_violation(p.coeffs) is not None
                refuted_by["newton" if newton else "sturm"] += 1
        # Inputs that are not real-rooted on both sides of Newton's test.
        assert min(refuted_by.values()) >= 10, refuted_by


def _old_path_real_rooted(p):
    """The square-free reduction and Sturm count alone, without Newton."""
    g = square_free_part(p)
    return polycore._count_real_roots_square_free(g) == g.degree


class TestNewton:
    """Newton's inequalities as a refutation of real-rootedness."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.sampled_from(_random_products(29, 300)),
        st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=13).map(IntPoly),
    ))
    def test_a_violation_means_not_real_rooted(self, p):
        if p.degree >= 2 and polycore._newton_violation(p.coeffs) is not None:
            assert not _old_path_real_rooted(p), p

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=-5, max_value=5).filter(bool),
        st.lists(
            st.tuples(st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=-4, max_value=4).filter(bool)),
            min_size=1, max_size=10,
        ),
    )
    def test_products_of_linear_factors_never_violate(self, scale, factors):
        p = IntPoly([scale])
        for root_term, lead in factors:
            p = p * IntPoly([root_term, lead])
        assert polycore._newton_violation(p.coeffs) is None, p

    def test_binomial_rows_sit_on_the_boundary(self):
        # (1+X)^n meets every inequality with equality, so lowering any inner
        # coefficient by one breaks the inequality there and nowhere before.
        for n in range(2, 30):
            a = binomial_power(n).coeffs
            assert polycore._newton_violation(a) is None
            for k in range(1, n):
                lowered = a[:k] + (a[k] - 1,) + a[k + 1:]
                assert polycore._newton_violation(lowered) == k, (n, k)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30).filter(bool))
    def test_degree_two_violates_iff_the_discriminant_is_negative(self, c, b, a):
        violation = polycore._newton_violation([c, b, a])
        assert violation == (1 if b * b - 4 * a * c < 0 else None)

    def test_every_gaussian_is_refuted_at_k1(self):
        # a_0 = a_1 = 1 and a_2 = 2 for a, b >= 2, and n - 1 < 4n with n = ab.
        for a in range(2, 21):
            for b in range(2, 21):
                assert polycore._newton_violation(qgauss.gaussian_pascal(a, b).coeffs) == 1, (a, b)


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


def _infinity_count(f):
    """V(-inf) - V(+inf) over sturm_chain(f) itself, read from the leading
    coefficients, with no square-free reduction first."""
    chain = sturm_chain(f)

    def variations(signs):
        return sum(s != t for s, t in zip(signs, signs[1:]))

    at_plus_inf = [q.coeffs[-1] > 0 for q in chain]
    at_minus_inf = [s != (q.degree % 2 == 1) for s, q in zip(at_plus_inf, chain)]
    return variations(at_minus_inf) - variations(at_plus_inf)


def _repeated_root_products(seed, count):
    """(product, kinds): products of X, linear factors and quadratics with a
    complex pair, each taken 1 to 3 times; kinds names what the product has."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = IntPoly([rng.choice([-2, -1, 1, 3])])
        kinds = set()
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["zero", "real", "complex"])
            if kind == "zero":
                factor = IntPoly([0, 1])
            elif kind == "real":
                factor = IntPoly([rng.randint(-4, 4), rng.choice([-2, -1, 1, 3])])
            else:
                b = rng.randint(-3, 3)
                factor = IntPoly([rng.randint(b * b // 4 + 1, 6), b, 1])
            times = rng.randint(1, 3)
            for _ in range(times):
                p = p * factor
            kinds.add(kind if times == 1 else "repeated " + kind)
        out.append((p, kinds))
    return out


class TestOneChainCountsDistinctRoots:
    """The Sturm chain of any nonzero f, square-free or not, counts its distinct
    real roots at the infinities, and its last member has degree deg gcd(f, f')."""

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        seen = {"zero": 0, "repeated real": 0, "repeated complex": 0, "real-rooted": 0}
        for p, kinds in _repeated_root_products(41, 150):
            distinct_real = len(set(sympy.Poly(list(reversed(p.coeffs)), x).real_roots()))
            distinct_complex = p.degree - sturm_chain(p)[-1].degree
            assert _infinity_count(p) == distinct_real, p
            assert is_real_rooted(p) == (distinct_real == distinct_complex), p
            seen["zero"] += any("zero" in k for k in kinds)
            seen["repeated real"] += "repeated real" in kinds
            seen["repeated complex"] += "repeated complex" in kinds
            seen["real-rooted"] += is_real_rooted(p)
        assert min(seen.values()) >= 20, seen


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
        assert shift_by_one(IntPoly([1, 1, 1])).coeffs == (3, 3, 1)
        assert is_unimodal(shift_by_one(IntPoly([1, 1, 1])))

    def test_precondition(self):
        assert decompose_shift(IntPoly([2, 1])) is None
        assert decompose_shift(IntPoly([-1, 0])) is None
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
        assert transformed == IntPoly(expected)
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
