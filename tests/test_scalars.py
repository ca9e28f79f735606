"""Gaussian rationals held as one integer triple ``(a + b i)/d``.

Every operation is checked against a reference that keeps the two parts as a
pair of ``Fraction``s (the cross-check is deliberate: the reference shares
no code with ``QQi``).  The canonical form (``d > 0``, ``gcd(a, b, d) ==
1``) is checked after every operation, and the regression tests pin the
reductions that come from Gaussian-prime content, which cross-cancelling
the operands alone does not find."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from renormrec.scalars import QQi, as_scalar, scalar_is_zero

# -- reference: a pair of Fractions -------------------------------------------


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    if n == 0:
        raise ZeroDivisionError
    return (x[0] / n, -x[1] / n)


def ref_pow(x, n):
    if n < 0:
        x, n = ref_inverse(x), -n
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = ref_mul(out, x)
    return out


def ref_str(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)}i"


def assert_is(z, pair):
    """``z`` is the canonical triple of the Gaussian rational ``pair``."""
    assert isinstance(z, QQi)
    assert z.d > 0 and math.gcd(math.gcd(z.a, z.b), z.d) == 1, (z.a, z.b, z.d)
    assert (Fraction(z.a, z.d), Fraction(z.b, z.d)) == tuple(pair)


# -- strategies ----------------------------------------------------------------

#: denominators built from few primes, so that sums and products cancel often
SMOOTH = st.builds(lambda i, j, k, m: 2 ** i * 3 ** j * 5 ** k * 13 ** m,
                   st.integers(0, 4), st.integers(0, 2), st.integers(0, 3),
                   st.integers(0, 1))
FRACTIONS = st.one_of(
    st.builds(Fraction, st.integers(-60, 60), SMOOTH),
    st.builds(Fraction, st.integers(-2 ** 90, 2 ** 90),
              st.integers(1, 2 ** 90)),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]))
PAIRS = st.tuples(FRACTIONS, FRACTIONS)
NONZERO = PAIRS.filter(lambda p: p != (0, 0))


# -- arithmetic against the reference ----------------------------------------


@given(PAIRS, PAIRS)
def test_add_sub_mul_are_exact(x, y):
    zx, zy = QQi(*x), QQi(*y)
    assert_is(zx, x)
    assert_is(zx + zy, ref_add(x, y))
    assert_is(zx - zy, ref_sub(x, y))
    assert_is(zx * zy, ref_mul(x, y))
    assert_is(-zx, (-x[0], -x[1]))


@given(PAIRS, NONZERO)
def test_division_and_inverse_are_exact(x, y):
    zx, zy = QQi(*x), QQi(*y)
    assert_is(zy.inverse(), ref_inverse(y))
    assert_is(zx / zy, ref_mul(x, ref_inverse(y)))


@given(PAIRS, st.integers(-7, 7))
def test_powers_are_exact(x, n):
    z = QQi(*x)
    if n < 0 and x == (0, 0):
        with pytest.raises(ZeroDivisionError):
            z ** n
        return
    assert_is(z ** n, ref_pow(x, n))


@given(PAIRS)
def test_conjugate_and_norm2_are_exact(x):
    z = QQi(*x)
    assert_is(z.conjugate(), (x[0], -x[1]))
    assert z.norm2() == x[0] * x[0] + x[1] * x[1]
    assert isinstance(z.norm2(), Fraction)


@given(PAIRS, FRACTIONS, st.integers(-10 ** 30, 10 ** 30))
def test_mixed_operands_are_exact(x, q, k):
    z = QQi(*x)
    for r in (q, k):
        p = (Fraction(r), Fraction(0))
        assert_is(z + r, ref_add(x, p))
        assert_is(r + z, ref_add(x, p))
        assert_is(z - r, ref_sub(x, p))
        assert_is(r - z, ref_sub(p, x))
        assert_is(z * r, ref_mul(x, p))
        assert_is(r * z, ref_mul(x, p))
        if r != 0:
            assert_is(z / r, ref_mul(x, ref_inverse(p)))
        if x != (0, 0):
            assert_is(r / z, ref_mul(p, ref_inverse(x)))
        assert (z == r) == (x == p)
    assert_is(as_scalar(q), (q, 0))
    assert scalar_is_zero(z) == (x == (0, 0))


def test_division_by_zero_raises():
    for zero in (QQi(0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            QQi(1, 2) / zero
    with pytest.raises(ZeroDivisionError):
        1 / QQi(0)
    with pytest.raises(ZeroDivisionError):
        QQi(0).inverse()


# -- conversions, text and hashing --------------------------------------------


@given(PAIRS)
def test_repr_and_str_keep_the_fraction_pair_form(x):
    z = QQi(*x)
    assert repr(z) == f"QQi({x[0]}, {x[1]})"
    assert str(z) == ref_str(*x)
    assert (z.re, z.im) == x


@given(PAIRS)
def test_float_and_complex_are_bitwise_the_fraction_floats(x):
    z = QQi(*x)
    c = complex(z)
    assert repr(c.real) == repr(float(x[0]))
    assert repr(c.imag) == repr(float(x[1]))
    if x[1] == 0:
        assert repr(float(z)) == repr(float(x[0]))
    else:
        with pytest.raises(ValueError):
            float(z)


def test_float_of_huge_ratios_does_not_overflow_early():
    big = 7 ** 2000
    assert float(QQi(Fraction(big + 1, 3 * big))) == 1 / 3
    with pytest.raises(OverflowError):
        float(QQi(Fraction(big, 3)))


@given(PAIRS)
def test_hash_matches_the_fraction_pair(x):
    z = QQi(*x)
    if x[1] == 0:
        assert hash(z) == hash(x[0])
    else:
        assert hash(z) == hash(x)


def test_hash_and_mixed_dict_keys():
    assert hash(QQi(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(QQi(3)) == hash(3)
    assert hash(QQi(-1)) == hash(-1)
    table = {QQi(3): "three", Fraction(1, 2): "half", 7: "seven",
             QQi(1, 1): "one plus i"}
    assert table[3] == table[Fraction(3)] == table[QQi(3)] == "three"
    assert table[QQi(Fraction(1, 2))] == table[Fraction(2, 4)] == "half"
    assert table[QQi(7)] == table[QQi(Fraction(14, 2))] == "seven"
    assert table[QQi(Fraction(3, 3), Fraction(5, 5))] == "one plus i"
    assert len({QQi(2), 2, Fraction(2), QQi(Fraction(4, 2), 0)}) == 1


def test_hash_of_a_denominator_the_modulus_divides():
    p = sys.hash_info.modulus
    for value in (Fraction(1, p), Fraction(3, 2 * p), Fraction(-5, p * p)):
        assert hash(QQi(value)) == hash(value)


# -- reductions that cross-cancellation alone misses ---------------------------


def test_conjugate_factors_of_two_cancel():
    # (1 + i)(1 - i) = 2 shares a 2 with the denominator 4
    h = Fraction(1, 2)
    z = QQi(h, h) * QQi(h, -h)
    assert z == Fraction(1, 2)
    assert (z.a, z.b, z.d) == (1, 0, 2)
    assert QQi(h, h) ** 2 == QQi(0, h)
    assert QQi(h, h) * QQi(h, h) == QQi(0, h)


def test_gaussian_prime_over_five_cancels():
    # (2 + i)(2 - i) = 5
    z = QQi(Fraction(2, 5), Fraction(1, 5)) * QQi(2, -1)
    assert z == 1
    assert (z.a, z.b, z.d) == (1, 0, 1)
    assert QQi(2, -1) * QQi(Fraction(2, 5), Fraction(1, 5)) == 1
    assert QQi(1) / QQi(2, 1) == QQi(Fraction(2, 5), Fraction(-1, 5))


def test_powers_of_three_four_five_never_reduce():
    # (3 + 4i) = (2 + i)^2 is prime to (2 - i), so no power cancels a 5
    w = QQi(Fraction(3, 5), Fraction(4, 5))
    ref = (Fraction(1), Fraction(0))
    stepped = QQi(1)
    for n in range(1, 51):
        ref = ref_mul(ref, (Fraction(3, 5), Fraction(4, 5)))
        stepped = stepped * w
        assert_is(w ** n, ref)
        assert_is(stepped, ref)
        assert (w ** n).d == 5 ** n
        assert_is(w ** -n, ref_inverse(ref))


def test_powers_with_a_factor_one_plus_i():
    for base in ((Fraction(1, 2), Fraction(1, 2)),
                 (Fraction(3, 4), Fraction(-5, 4)),
                 (Fraction(7, 6), Fraction(1, 6))):
        w = QQi(*base)
        for n in range(0, 21):
            assert_is(w ** n, ref_pow(base, n))


def _big(rng, bits):
    return rng.getrandbits(bits) | 1


def test_big_value_times_small_real_and_complex_ratios():
    rng = random.Random(3000)
    # a 3000-bit value whose denominator shares 2, 3, 5 and 7 with the
    # factors, and whose numerator carries the Gaussian prime 2 + i
    d = _big(rng, 3000) * 2 ** 5 * 3 * 5 ** 4 * 7
    u = QQi(_big(rng, 3000), -_big(rng, 3000))
    z = u * QQi(2, 1) * QQi(Fraction(1, d))
    x = (z.re, z.im)
    assert max(abs(z.a), abs(z.b), z.d).bit_length() > 3000
    for r in (Fraction(35, 6), Fraction(-6, 35), Fraction(14, 3)):
        assert_is(z * r, ref_mul(x, (r, Fraction(0))))
        assert_is(r * z, ref_mul(x, (r, Fraction(0))))
        assert_is(z / r, ref_mul(x, ref_inverse((r, Fraction(0)))))
    for w in ((Fraction(2), Fraction(-1)), (Fraction(4, 5), Fraction(-2, 5)),
              (Fraction(3, 5), Fraction(4, 5)), (Fraction(7, 2), Fraction(7, 2)),
              (Fraction(-1, 10), Fraction(3, 14))):
        assert_is(z * QQi(*w), ref_mul(x, w))
        assert_is(QQi(*w) * z, ref_mul(x, w))
        assert_is(z / QQi(*w), ref_mul(x, ref_inverse(w)))
        assert_is(z + QQi(*w), ref_add(x, w))
    # the Gaussian prime 2 - i meets 2 + i and cancels one 5
    assert (z * QQi(2, -1)).d == z.d // 5
