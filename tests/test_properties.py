"""Property tests for the invariants behind the shape-test machinery."""

import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslab.polycore import (
    IntPoly,
    binomial_power,
    boros_moll_P,
    darga,
    decompose_shift,
    div_exact,
    div_exact_xm_minus_one,
    gamma_decompose,
    gamma_expand,
    is_log_concave,
    is_palindromic,
    is_real_rooted,
    is_unimodal,
    mode,
    mul_xm_minus_one,
    pack,
    shift_by_one,
    slot_bytes,
    unpack,
)

small_ints = st.integers(min_value=-50, max_value=50)
coeff_lists = st.lists(small_ints, max_size=8)


# -- ring structure ------------------------------------------------------------


@given(coeff_lists, coeff_lists)
def test_mul_commutative(a, b):
    assert IntPoly(a) * IntPoly(b) == IntPoly(b) * IntPoly(a)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_mul_distributes(a, b, c):
    f, g, h = IntPoly(a), IntPoly(b), IntPoly(c)
    assert f * (g + h) == f * g + f * h


@given(coeff_lists, coeff_lists)
def test_div_exact_round_trip(a, b):
    f, g = IntPoly(a), IntPoly(b)
    if g.is_zero:
        return
    assert div_exact(f * g, g) == f


# -- the X^m - 1 kernels against the dense routines -----------------------------

strides = st.integers(min_value=1, max_value=9)


def _xm_minus_one(m):
    return IntPoly([-1] + [0] * (m - 1) + [1])


@given(coeff_lists, strides)
def test_mul_xm_minus_one_matches_dense(a, m):
    f = IntPoly(a)
    assert mul_xm_minus_one(f, m) == f * _xm_minus_one(m)


@given(coeff_lists, strides)
def test_div_xm_minus_one_round_trip(a, m):
    f = IntPoly(a)
    product = f * _xm_minus_one(m)
    assert div_exact_xm_minus_one(product, m) == f == div_exact(product, _xm_minus_one(m))


@given(coeff_lists, st.lists(small_ints, min_size=1, max_size=9), strides)
def test_div_xm_minus_one_rejects_a_remainder(a, r, m):
    # A nonzero remainder of degree < m leaves f * (X^m - 1) + r indivisible.
    rem = IntPoly(r[:m])
    if rem.is_zero:
        return
    g = IntPoly(a) * _xm_minus_one(m) + rem
    with pytest.raises(ValueError, match=rf"X\^{m} - 1 does not divide"):
        div_exact_xm_minus_one(g, m)
    # X^m - 1 is monic: a remainder stays, or g is below its degree.
    with pytest.raises(ValueError, match="nonzero remainder|< divisor degree"):
        div_exact(g, _xm_minus_one(m))


@given(coeff_lists, strides)
def test_div_xm_minus_one_agrees_on_any_input(a, m):
    f, g = IntPoly(a), _xm_minus_one(m)
    try:
        expected = div_exact(f, g)
    except ValueError:
        with pytest.raises(ValueError, match=rf"X\^{m} - 1 does not divide"):
            div_exact_xm_minus_one(f, m)
    else:
        assert div_exact_xm_minus_one(f, m) == expected


@pytest.mark.parametrize("m", [0, -1, -5])
def test_xm_minus_one_kernels_reject_m_below_one(m):
    with pytest.raises(ValueError):
        mul_xm_minus_one([1, 2], m)
    with pytest.raises(ValueError):
        div_exact_xm_minus_one([1, 2], m)


@given(coeff_lists)
def test_naive_convolution_oracle(a):
    f = IntPoly(a)
    g = IntPoly([2, -1, 3])
    n = len(f.coeffs)
    expected = [0] * (n + 3)
    for i, c in enumerate(f.coeffs):
        for j, d in enumerate((2, -1, 3)):
            expected[i + j] += c * d
    assert f * g == IntPoly(expected)


# -- packed integers ---------------------------------------------------------------

slot_widths = st.integers(min_value=1, max_value=12)


@given(slot_widths, st.data())
def test_pack_unpack_round_trip(nb, data):
    coeffs = data.draw(st.lists(st.integers(0, 256**nb - 1), max_size=12))
    packed = pack(coeffs, nb)
    assert packed == IntPoly(coeffs).evaluate(256**nb)
    assert unpack(packed, nb) == list(IntPoly(coeffs).coeffs)
    assert slot_bytes(max(coeffs, default=0)) <= nb


@given(slot_widths, st.data())
def test_pack_rejects_a_coefficient_outside_its_slot(nb, data):
    coeffs = data.draw(st.lists(st.integers(0, 256**nb - 1), max_size=6))
    bad = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=256**nb)))
    position = data.draw(st.integers(0, len(coeffs)))
    with pytest.raises(ValueError):
        pack(coeffs[:position] + [bad] + coeffs[position:], nb)


@given(slot_widths, st.data())
def test_overflowed_slots_unpack_to_a_smaller_sum(nb, data):
    # What the routes' slot-sum checks rest on: once any nonnegative
    # coefficient outgrows its slot, the unpacked slots sum to less.
    coeffs = data.draw(st.lists(st.integers(0, 256 ** (nb + 1)), min_size=1, max_size=8))
    value = IntPoly(coeffs).evaluate(256**nb)
    if max(coeffs) < 256**nb:
        assert sum(unpack(value, nb)) == sum(coeffs)
    else:
        assert sum(unpack(value, nb)) < sum(coeffs)


# -- palindromicity and gamma vectors -------------------------------------------


@given(coeff_lists)
def test_palindromic_matches_reversal(a):
    # Palindromic iff some center n/2 mirrors the padded list, and then n is
    # the darga; a nonzero f has a gamma-vector exactly then.
    f = IntPoly(a)
    centers = [
        n for n in range(len(f.coeffs) - 1, 2 * len(f.coeffs) + 1)
        if (padded := list(f.coeffs) + [0] * (n + 1 - len(f.coeffs))) == padded[::-1]
    ]
    assert is_palindromic(f) == bool(centers)
    if not f.is_zero:
        assert centers in ([], [darga(f)])
        assert (gamma_decompose(f) is not None) == bool(centers)


@given(st.lists(small_ints, min_size=1, max_size=5), st.integers(0, 1))
def test_gamma_round_trip_from_vector(gammas, extra):
    n = 2 * (len(gammas) - 1) + extra
    poly = gamma_expand(gammas, n)
    assert is_palindromic(poly)
    if not any(gammas):
        assert poly.is_zero
        return
    # The first nonzero gamma_k gives the lowest term X^k and the highest X^(n-k).
    assert darga(poly) == n
    assert gamma_decompose(poly) == tuple(gammas)


@given(st.lists(small_ints, min_size=1, max_size=5), st.booleans())
def test_gamma_round_trip_from_polynomial(half, odd_center):
    # Build a palindromic polynomial by mirroring a random half.
    if odd_center:
        coeffs = half + half[::-1]
    else:
        coeffs = half + half[-2::-1]
    f = IntPoly(coeffs)
    if f.degree < 0:
        return
    assert darga(f) == len(coeffs) - 1
    assert gamma_expand(gamma_decompose(f), darga(f)) == f


def test_gamma_nonnegative_implies_unimodal_and_palindromic():
    rng = random.Random(20260810)
    for _ in range(300):
        half = rng.randint(0, 4)
        n = 2 * half + rng.randint(0, 1)
        gammas = tuple(rng.randint(0, 9) for _ in range(n // 2 + 1))
        poly = gamma_expand(gammas, n)
        assert is_unimodal(poly)
        assert is_palindromic(poly)


# -- unimodality closure properties -----------------------------------------------


def _random_unimodal_with_peak(rng, length, peak):
    rise = sorted(rng.randint(0, 30) for _ in range(peak + 1))
    fall = sorted((rng.randint(0, rise[-1]) for _ in range(length - peak - 1)), reverse=True)
    return rise + fall


def test_mode_shift_by_x():
    rng = random.Random(5)
    for _ in range(300):
        length = rng.randint(1, 9)
        peak = rng.randrange(length)
        f = IntPoly(_random_unimodal_with_peak(rng, length, peak))
        if f.is_zero:
            continue
        k0 = mode(f)
        assert k0 is not None
        assert mode(f.shift(1)) == k0 + 1


def test_equal_mode_sums_stay_unimodal():
    rng = random.Random(6)
    for _ in range(300):
        length = rng.randint(1, 9)
        peak = rng.randrange(length)
        f = IntPoly(_random_unimodal_with_peak(rng, length, peak))
        g = IntPoly(_random_unimodal_with_peak(rng, length, peak))
        alpha, beta = rng.randint(0, 5), rng.randint(0, 5)
        assert is_unimodal(f * alpha + g * beta)


def test_log_concave_positive_implies_unimodal_exhaustive():
    # All short positive sequences: the log-concave ones are unimodal.
    for length in range(1, 5):
        def rec(prefix):
            if len(prefix) == length:
                if is_log_concave(prefix):
                    assert is_unimodal(prefix)
                return
            for v in range(1, 5):
                rec(prefix + [v])

        rec([])


def test_log_concave_positive_implies_unimodal_random():
    rng = random.Random(99)
    checked = 0
    for _ in range(4000):
        seq = [rng.randint(1, 40) for _ in range(rng.randint(1, 9))]
        if is_log_concave(seq):
            checked += 1
            assert is_unimodal(seq)
    assert checked > 200


def test_log_concavity_inequality_needs_contiguous_support():
    # With internal zero runs the bare inequality no longer forces unimodality.
    seq = [1, 1, 0, 0, 1]
    assert is_log_concave(seq)
    assert not is_unimodal(seq)


def _random_real_rooted(rng, max_deg=7):
    poly = IntPoly([rng.randint(1, 4)])
    for _ in range(rng.randint(1, max_deg)):
        poly = poly * IntPoly([rng.randint(0, 6), 1])
    return poly


def test_real_rooted_products_are_log_concave():
    # Products of (X + c) with c >= 0: real-rooted, hence log-concave.
    rng = random.Random(42)
    for _ in range(60):
        poly = _random_real_rooted(rng)
        assert is_real_rooted(poly)
        assert is_log_concave(poly)
        assert is_unimodal(poly)


def test_real_rooted_nonnegative_is_gamma_nonnegative_when_palindromic():
    # Operational surrogate: build palindromic real-rooted products and
    # inspect the gamma signs directly.
    rng = random.Random(43)
    for _ in range(40):
        poly = IntPoly([1])
        degree = 0
        for _ in range(rng.randint(1, 4)):
            c = rng.randint(1, 5)
            # (c X^2 + (c^2+1) X + c) has reciprocal roots; keeps palindromicity
            poly = poly * IntPoly([c, c * c + 1, c])
            degree += 2
        assert is_palindromic(poly) and darga(poly) == degree
        if is_real_rooted(poly):
            assert min(gamma_decompose(poly)) >= 0


def test_product_of_log_concave_positive_is_log_concave():
    rng = random.Random(44)
    produced = 0
    while produced < 60:
        f = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
        g = [rng.randint(1, 9) for _ in range(rng.randint(1, 6))]
        if not (is_log_concave(f) and is_log_concave(g)):
            continue
        produced += 1
        product = IntPoly(f) * IntPoly(g)
        assert is_log_concave(product)
        assert is_unimodal(product)


# -- the shift test ---------------------------------------------------------------


def test_P_polynomials_unimodal_with_central_peak():
    # P(m, r) is unimodal and its coefficient at index 1 + m//2 is maximal;
    # for even m with small r the plateau starts one step earlier, so the
    # peak-position claim is the sharp one.
    for m in range(31):
        for r in range(m + 1):
            poly = boros_moll_P(m, r)
            assert is_unimodal(poly)
            peak = 1 + m // 2
            coeffs = poly.coeffs
            assert coeffs[peak] == max(coeffs)
            assert mode(poly) in (peak, peak - 1)


def test_shifted_unimodality_random_nondecreasing():
    rng = random.Random(20260810)
    for _ in range(500):
        length = rng.randint(1, 30)
        steps = [rng.randint(0, 9) for _ in range(length)]
        coeffs = []
        total = rng.randint(0, 3)
        for s in steps:
            total += s
            coeffs.append(total)
        assert is_unimodal(shift_by_one(IntPoly(coeffs)))


def test_shift_decomposition_identity_random():
    rng = random.Random(77)
    for _ in range(100):
        length = rng.randint(1, 10)
        coeffs = sorted(rng.randint(0, 20) for _ in range(length))
        f = IntPoly(coeffs)
        n = len(coeffs) - 1
        weights = [coeffs[k] - (coeffs[k - 1] if k else 0) for k in range(len(coeffs))]
        rhs = IntPoly.zero()
        for k, w in enumerate(weights):
            rhs = rhs + boros_moll_P(n, k) * w
        assert shift_by_one(f).shift(1) == rhs


nondecreasing_lists = st.lists(st.integers(0, 20), max_size=8).map(lambda s: list(accumulate(s)))


@given(st.one_of(coeff_lists, nondecreasing_lists))
def test_decompose_shift_weights_are_nonnegative(coeffs):
    # criteria.shift_identity_holds does not re-check the weights: whenever
    # decompose_shift returns weights, they are nonnegative, and it returns
    # them on every nonnegative nondecreasing input and on no other.
    a = IntPoly(coeffs).coeffs
    nondecreasing = all(0 <= x <= y for x, y in zip((0,) + a, a))
    weights = decompose_shift(a)
    assert (weights is not None) == nondecreasing
    assert weights is None or all(w >= 0 for w in weights)


# -- darga arithmetic ---------------------------------------------------------------


@given(
    st.lists(small_ints, min_size=1, max_size=5),
    st.integers(min_value=0, max_value=3),
)
def test_darga_of_shifted_product(a, k):
    f = IntPoly(a)
    if f.is_zero:
        return
    g = binomial_power(2).shift(k)  # darga 2 + 2k, palindromic
    assert darga(f * g) == darga(f) + darga(g)
    assert is_palindromic(g)


def test_darga_palindromic_products_stay_darga_palindromic():
    rng = random.Random(3)
    for _ in range(200):
        def make(rng):
            half = [rng.randint(0, 9) for _ in range(rng.randint(1, 3))]
            odd = rng.randint(0, 1)
            coeffs = half + ([rng.randint(0, 9)] if odd else []) + half[::-1]
            return IntPoly(coeffs).shift(rng.randint(0, 2))

        f, g = make(rng), make(rng)
        if f.is_zero or g.is_zero:
            continue
        assert is_palindromic(f) and is_palindromic(g)
        assert is_palindromic(f * g)
        assert darga(f * g) == darga(f) + darga(g)
