"""Exact integer-coefficient polynomials and shape tests for coefficient sequences.

Everything here is pure and exact: coefficients are Python ints, and
rationals appear only inside the gcd of the square-free reduction.
Real-rootedness is decided in two stages: Newton's inequalities refute it
from the coefficients alone in linear time, and whatever passes them goes on
to the square-free reduction and a Sturm count, whose chain is built from
integer pseudo-remainders.  Every function here that takes a polynomial takes
an :class:`IntPoly`; build one from coefficients with ``IntPoly([...])``.
Values are immutable after construction, so they are safe to share across
threads.
"""

from __future__ import annotations

import itertools
import math
import re
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union


@dataclass(frozen=True)
class IntPoly:
    """A dense polynomial over the integers.

    ``coeffs[k]`` holds the coefficient of X^k.  Trailing zeros are stripped,
    so the zero polynomial is the empty tuple and ``degree == len - 1`` for
    nonzero polynomials.

    >>> IntPoly([1, 1]) * IntPoly([1, 1])
    IntPoly((1, 2, 1))
    >>> IntPoly([1, 2, 0, 0])
    IntPoly((1, 2))
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def low_degree(self) -> int:
        """Least exponent with a nonzero coefficient."""
        if self.is_zero:
            raise ValueError("zero polynomial has no lowest term")
        return next(k for k, c in enumerate(self.coeffs) if c)

    def evaluate(self, x):
        """Evaluate by Horner's rule; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(k * c for k, c in enumerate(self.coeffs) if k)

    def shift(self, k: int) -> "IntPoly":
        """Multiply by X^k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: Union[int, "IntPoly"]) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(other * c for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPoly(out)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

    # -- constructors / serialization ---------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def from_json(cls, strings: Iterable[Union[str, int]]) -> "IntPoly":
        """Inverse of :meth:`to_json`; also takes plain ints.

        Anything else (bools, floats, null, nested arrays, strings other than
        an optional minus sign followed by decimal digits) raises ValueError.
        """
        return cls(_coefficient(s) for s in strings)

    def to_json(self) -> list[str]:
        """Decimal strings, lowest degree first, so precision survives transport."""
        return [str(c) for c in self.coeffs]


_DECIMAL = re.compile(r"-?[0-9]+")


def _coefficient(item: object) -> int:
    if type(item) is int:
        return item
    if isinstance(item, str) and _DECIMAL.fullmatch(item):
        return int(item)
    raise ValueError(f"coefficient {item!r} is not an integer or a decimal string")


def binomial_power(k: int) -> IntPoly:
    """(1 + X)^k via the binomial row."""
    if k < 0:
        raise ValueError("negative exponent")
    return IntPoly(math.comb(k, i) for i in range(k + 1))


def div_exact(f: IntPoly, g: IntPoly) -> IntPoly:
    """Exact quotient f / g over the integers.

    Raises ValueError when g does not divide f exactly (any remainder
    coefficient nonzero, or a leading-coefficient division leaves a rest).

    >>> div_exact(IntPoly([-1, 0, 1]), IntPoly([-1, 1]))
    IntPoly((1, 1))
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return f
    if f.degree < g.degree:
        raise ValueError(f"degree {f.degree} < divisor degree {g.degree}")
    rem = list(f.coeffs)
    lead = g.coeffs[-1]
    dg = g.degree
    quot = [0] * (f.degree - dg + 1)
    for k in range(f.degree - dg, -1, -1):
        top = rem[k + dg]
        q, r = divmod(top, lead)
        if r:
            raise ValueError(f"coefficient {top} not divisible by {lead}")
        if q:
            quot[k] = q
            for j, c in enumerate(g.coeffs):
                rem[k + j] -= q * c
    if any(rem):
        raise ValueError("nonzero remainder")
    return IntPoly(quot)


# -- linear-time kernels for the binomial X^m - 1 ------------------------------


def mul_xm_minus_one(f: IntPoly, m: int) -> IntPoly:
    """f * (X^m - 1) in one shift-subtract pass, O(deg f + m).

    >>> mul_xm_minus_one(IntPoly([1, 1]), 2)
    IntPoly((-1, -1, 1, 1))
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    c = f.coeffs
    out = [0] * m + list(c)
    for k, v in enumerate(c):
        out[k] -= v
    return IntPoly(out)


def div_exact_xm_minus_one(f: IntPoly, m: int) -> IntPoly:
    """Exact quotient f / (X^m - 1) by strided running sums, O(deg f).

    From f = q * (X^m - 1), the coefficients obey q[k] = q[k - m] - f[k]
    from the bottom up, and the top m coefficients of f must equal
    q[k - m]; any mismatch raises ValueError, exactly when
    :func:`div_exact` would.

    >>> div_exact_xm_minus_one(IntPoly([-1, 0, 0, 1]), 3)
    IntPoly((1,))
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    c = f.coeffs
    size = max(len(c) - m, 0)
    q = [-v for v in c[:size]]
    # A residue class r >= size - m holds one coefficient, already its own sum.
    for r in range(min(m, size - m)):
        q[r::m] = itertools.accumulate(q[r::m])
    shifted = [0] * m + q
    for k in range(size, len(c)):
        if c[k] != shifted[k]:
            raise ValueError(f"X^{m} - 1 does not divide: coefficient {k} is {c[k]}")
    return IntPoly(q)


# -- packed integers (Kronecker substitution) ----------------------------------


# Native unsigned formats by size, for reading whole slots at once; a native
# read matches pack's byte order only on little-endian machines.
_NATIVE_SLOTS = {struct.calcsize(f): f for f in "BHIQ"} if sys.byteorder == "little" else {}


def slot_bytes(bound: int) -> int:
    """Bytes per slot that hold every integer from 0 to ``bound``.

    >>> slot_bytes(255), slot_bytes(256)
    (1, 2)
    """
    return max(1, (bound.bit_length() + 7) // 8)


def pack(coeffs: Sequence[int], nb: int) -> int:
    """The polynomial with these coefficients evaluated at X = 2^(8 nb).

    Each coefficient takes one slot of ``nb`` bytes, lowest degree first, so
    every coefficient must lie in 0 .. 2^(8 nb) - 1; anything else raises
    ValueError.

    >>> pack([1, 2, 3], 1) == 1 + 2 * 256 + 3 * 256**2
    True
    """
    try:
        return int.from_bytes(b"".join(c.to_bytes(nb, "little") for c in coeffs), "little")
    except OverflowError as exc:
        raise ValueError(f"coefficient does not fit a {nb}-byte slot") from exc


def unpack(n: int, nb: int) -> list[int]:
    """The slots of ``n >= 0``, ``nb`` bytes each, lowest first: inverse of :func:`pack`.

    The list stops at the highest nonzero slot.  A packed value whose true
    coefficients overflowed their slots unpacks to carried digits whose sum
    is smaller than the coefficients' sum, which is how callers detect it.

    >>> unpack(pack([1, 2, 3, 0], 1), 1)
    [1, 2, 3]
    """
    size = -(-n.bit_length() // (8 * nb)) * nb
    data = n.to_bytes(size, "little")
    fmt = _NATIVE_SLOTS.get(nb)
    if fmt is not None:
        return memoryview(data).cast(fmt).tolist()
    return [int.from_bytes(data[k:k + nb], "little") for k in range(0, size, nb)]


# -- sequence shape tests ----------------------------------------------------


def is_unimodal(f: IntPoly) -> bool:
    """True iff the coefficients weakly rise then weakly fall.

    The zero polynomial and constants are unimodal (vacuous peak).
    """
    a = f.coeffs
    i = 0
    while i + 1 < len(a) and a[i] <= a[i + 1]:
        i += 1
    while i + 1 < len(a) and a[i] >= a[i + 1]:
        i += 1
    return i >= len(a) - 1


def mode(f: IntPoly) -> int | None:
    """Least peak index of a unimodal polynomial; None when not unimodal.

    Also None for the zero polynomial, which is unimodal but has no
    coefficient index.
    """
    a = f.coeffs
    if not a or not is_unimodal(f):
        return None
    j = len(a) - 1
    while j > 0 and a[j - 1] >= a[j]:
        j -= 1
    return j


def is_log_concave(f: IntPoly) -> bool:
    """a_k^2 >= a_{k-1} * a_{k+1} for all internal indices of the stored sequence."""
    a = f.coeffs
    return all(a[k] * a[k] >= a[k - 1] * a[k + 1] for k in range(1, len(a) - 1))


def is_palindromic(f: IntPoly) -> bool:
    """True iff a_k = a_{d-k} for every k, where d = darga(f): f reads the same
    from its lowest nonzero coefficient to its highest (center d/2).

    The darga is the only center a nonzero f can have, since a_low and a_deg
    must pair with nonzero coefficients; so X^2 + X^3 is symmetric about 5/2,
    beyond deg/2.  The zero polynomial, which has no darga, is palindromic.
    """
    support = () if f.is_zero else f.coeffs[f.low_degree:]
    return support == support[::-1]


def darga(f: IntPoly) -> int:
    """Sum of the lowest and the highest exponents carrying nonzero coefficients."""
    if f.is_zero:
        raise ValueError("darga of the zero polynomial is undefined")
    return f.low_degree + f.degree


# -- gamma decomposition -----------------------------------------------------


def gamma_decompose(f: IntPoly) -> tuple[int, ...] | None:
    """Unique gamma-vector of f in the X^k (1+X)^(n-2k) basis, n = darga(f), or
    None when f is not palindromic.  ValueError for zero, which has no darga.

    Solves the unitriangular change of basis by peeling the basis elements
    off the low-degree coefficients; integer inputs yield integer gammas
    because the basis change is unimodular over the integers.  Zeroing the
    low half of the residual zeroes all of it, since the input and every
    basis element are palindromic about n/2.

    >>> gamma_decompose(IntPoly([1, 4, 1]))
    (1, 2)
    >>> gamma_decompose(IntPoly([0, 1, 1]))
    (0, 1)
    >>> gamma_decompose(IntPoly([1, 2])) is None
    True
    """
    if not is_palindromic(f):
        return None
    n = darga(f)
    residual = list(f.coeffs) + [0] * (n + 1 - len(f.coeffs))
    gammas = []
    for k in range(n // 2 + 1):
        g = residual[k]
        gammas.append(g)
        if g:
            for t in range(n - 2 * k + 1):
                residual[k + t] -= g * math.comb(n - 2 * k, t)
    return tuple(gammas)


def gamma_expand(gammas: Sequence[int], n: int) -> IntPoly:
    """sum_k gammas[k] X^k (1+X)^(n-2k): the inverse of ``gamma_decompose``."""
    total = IntPoly.zero()
    for k, g in enumerate(gammas):
        if g:
            total = total + binomial_power(n - 2 * k).shift(k) * g
    return total


# -- exact real-rootedness via Sturm sequences --------------------------------


def _to_fractions(p: IntPoly) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _frac_trim(a: list[Fraction]) -> list[Fraction]:
    while a and not a[-1]:
        a.pop()
    return a


def _frac_rem(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = num[:]
    _frac_trim(num)
    dd = len(den) - 1
    lead = den[-1]
    while num and len(num) - 1 >= dd:
        q = num[-1] / lead
        dn = len(num) - 1
        for j in range(dd + 1):
            num[dn - dd + j] -= q * den[j]
        num.pop()
        _frac_trim(num)
    return num


def _primitive_from_fractions(a: list[Fraction]) -> IntPoly:
    """Primitive integer form with positive leading coefficient."""
    if not a:
        return IntPoly.zero()
    denom = math.lcm(*(c.denominator for c in a))
    ints = [int(c * denom) for c in a]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return IntPoly(c // g for c in ints)


def _poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive integer gcd with positive leading coefficient."""
    a, b = _to_fractions(p), _to_fractions(q)
    while _frac_trim(b):
        a, b = b, _frac_rem(a, b)
    return _primitive_from_fractions(a)


def square_free_part(f: IntPoly) -> IntPoly:
    """f divided by gcd(f, f'); same root set, all roots simple."""
    if f.is_zero:
        raise ValueError("square-free part of zero is undefined")
    if f.degree < 1:
        return IntPoly.one()
    g = _poly_gcd(f, f.derivative())
    return div_exact(f, g)


def _sign_variations(values: Iterable[int]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _primitive_prem(a: tuple[int, ...], b: tuple[int, ...]) -> IntPoly:
    """Primitive part of |lc(b)|^(deg a - deg b + 1) * (a mod b), over the integers.

    A positive multiple of the remainder, so its sign is kept.  Each degree
    from deg a down to deg b takes one scale-and-subtract pass: scale by
    |lc(b)| and cancel the top coefficient with a shifted copy of b (a zero
    top only drops it, which changes the multiple but not its primitive
    part).  The result is divided by its positive content.

    >>> _primitive_prem((-3, 0, 1), (0, 2))  # X^2 - 3 mod 2X is -3
    IntPoly((-1,))
    """
    r = list(a)
    scale = abs(b[-1])
    sb = b if b[-1] > 0 else [-c for c in b]
    db = len(b) - 1
    for k in range(len(r) - 1, db - 1, -1):
        top = r.pop()
        if top:
            off = k - db
            r = [scale * c for c in r[:off]] + [scale * c - top * d for c, d in zip(r[off:], sb)]
    while r and not r[-1]:
        r.pop()
    if not r:
        return IntPoly.zero()
    g = math.gcd(*r)
    return IntPoly(c // g for c in r)


def sturm_chain(f: IntPoly) -> list[IntPoly]:
    """Standard Sturm sequence p0 = f, p1 = f', p_{i+1} = -rem(p_{i-1}, p_i).

    Each later member is the primitive integer polynomial positively
    proportional to -rem(p_{i-1}, p_i), from :func:`_primitive_prem`; positive
    scaling never changes sign variations, and keeping the sign of the
    remainder itself is what makes the chain a Sturm chain.
    """
    if f.is_zero:
        raise ValueError("Sturm chain of zero is undefined")
    chain = [f]
    if f.degree >= 1:
        chain.append(f.derivative())
        while chain[-1].degree >= 1:
            nxt = _primitive_prem(chain[-2].coeffs, chain[-1].coeffs)
            if nxt.is_zero:
                break
            chain.append(-nxt)
    return chain


def _count_real_roots_square_free(g: IntPoly) -> int:
    """Sturm count of the real roots of a nonzero square-free g.

    The variations are read at -inf and +inf, where each chain member has the
    sign of its leading coefficient, times (-1)^degree at -inf.
    """
    if g.degree == 0:
        return 0
    chain = sturm_chain(g)
    at_minus_inf = _sign_variations(-q.coeffs[-1] if q.degree % 2 else q.coeffs[-1] for q in chain)
    at_plus_inf = _sign_variations(q.coeffs[-1] for q in chain)
    return at_minus_inf - at_plus_inf


def _newton_violation(coeffs: Sequence[int]) -> int | None:
    """First k in 1..n-1 where Newton's inequality fails, else None.

    With n = len(coeffs) - 1 and a_n nonzero, the inequality at k reads
    a_k^2 k (n-k) >= a_{k-1} a_{k+1} (k+1) (n-k+1), i.e. a_k / C(n, k) is
    log-concave.  Every real polynomial of degree n with only real roots
    satisfies it at every k, for coefficients of any sign (Hardy,
    Littlewood & Polya, Inequalities, 2.22); (1+X)^n meets it with
    equality.  So a violation certifies a nonreal root in O(n) exact
    integer products.

    >>> _newton_violation([1, 0, 1]), _newton_violation([1, 3, 3, 1])
    (1, None)
    """
    n = len(coeffs) - 1
    for k in range(1, n):
        if coeffs[k] * coeffs[k] * k * (n - k) < coeffs[k - 1] * coeffs[k + 1] * (k + 1) * (n - k + 1):
            return k
    return None


def is_real_rooted(f: IntPoly) -> bool:
    """True iff every complex root is real; decided exactly, in two stages.

    First Newton's inequalities (:func:`_newton_violation`): a violation
    proves a nonreal root, and the answer is False at once.  Passing them
    proves nothing, so every other input is reduced to its square-free part
    and counted by Sturm: f is real-rooted iff its square-free part has as
    many distinct real roots as its degree.
    """
    if f.is_zero:
        raise ValueError("real-rootedness of zero is undefined")
    if f.degree <= 1:
        return True
    if _newton_violation(f.coeffs) is not None:
        return False
    g = square_free_part(f)
    return _count_real_roots_square_free(g) == g.degree


# -- nondecreasing-coefficient shift test -------------------------------------


def boros_moll_P(m: int, r: int) -> IntPoly:
    """(1 + X)^(m+1) - (1 + X)^r for 0 <= r <= m.

    >>> boros_moll_P(1, 0)
    IntPoly((0, 2, 1))
    """
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    return binomial_power(m + 1) - binomial_power(r)


def shift_by_one(f: IntPoly) -> IntPoly:
    """f(X + 1) by exact binomial expansion (Horner in X + 1)."""
    one_plus_x = IntPoly((1, 1))
    acc = IntPoly.zero()
    for c in reversed(f.coeffs):
        acc = acc * one_plus_x + IntPoly((c,))
    return acc


def decompose_shift(f: IntPoly) -> tuple[int, ...] | None:
    """First-difference weights (a_0, a_1 - a_0, ..., a_n - a_{n-1}), or None
    when a coefficient of f is negative or smaller than the one before it.

    For nonnegative nondecreasing f these are the nonnegative weights in the
    exact identity X * f(X+1) = sum_k (a_k - a_{k-1}) * P_{n,k}(X) with
    P from :func:`boros_moll_P`.

    >>> decompose_shift(IntPoly([1, 1, 3]))
    (1, 0, 2)
    >>> decompose_shift(IntPoly([2, 1])) is None
    True
    """
    a = f.coeffs
    weights = tuple(a[k] - (a[k - 1] if k else 0) for k in range(len(a)))
    return weights if all(w >= 0 for w in weights) else None
