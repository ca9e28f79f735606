"""Scalar tower used throughout the package.

Two kinds of scalars coexist:

* :class:`QQi` -- a complex number with exact rational real and imaginary
  parts (a Gaussian rational), held as one reduced integer triple
  ``(a + b i)/d``.  All algebra on these is exact, so equality is decidable
  with no tolerance and the sequence algebra built on top admits
  zero-tolerance tests.
* plain ``complex`` -- double precision, used whenever a quantity is
  irrational (``exp(i*theta)`` bases, measured trajectories, ...).

Mixing the two demotes to ``complex``.  ``int`` and ``Fraction`` inputs are
lifted to :class:`QQi`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import gcd
from typing import Optional, Union

#: absolute tolerance for float-scalar equality
DEFAULT_TOL = 1e-12
#: float bases (and characteristic roots) closer than this are one base
BASE_TOL = 1e-9

_RATIONAL = (int, Fraction)
_HASH_MODULUS = sys.hash_info.modulus


class QQi:
    """Gaussian rational ``(a + b*i)/d`` held as three integers.

    The triple is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so two
    values are equal exactly when their triples are.  ``re`` and ``im``
    give the parts as reduced fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p // gcd(p, q) * q
        self.a = re.numerator * (d // p)
        self.b = im.numerator * (d // q)
        self.d = d

    # -- basic properties ------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def conjugate(self) -> "QQi":
        return _q(self.a, -self.b, self.d)

    def norm2(self) -> Fraction:
        """Exact squared modulus ``re**2 + im**2``."""
        a, b, d = self.a, self.b, self.d
        return Fraction(a * a + b * b, d * d)

    # -- conversions -----------------------------------------------------

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as Fraction.__float__ is
        return complex(self.a / self.d, self.b / self.d)

    def __float__(self) -> float:
        if self.b:
            raise ValueError(f"{self!r} has a nonzero imaginary part")
        return self.a / self.d

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is not None:
            return _add(self.a, self.b, self.d, *o)
        if isinstance(other, (float, complex)):
            return complex(self) + complex(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _q(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = _parts(other)
        if o is not None:
            c, e, f = o
            return _add(self.a, self.b, self.d, -c, -e, f)
        if isinstance(other, (float, complex)):
            return complex(self) - complex(other)
        return NotImplemented

    def __rsub__(self, other):
        o = _parts(other)
        if o is not None:
            return _add(*o, -self.a, -self.b, self.d)
        if isinstance(other, (float, complex)):
            return complex(other) - complex(self)
        return NotImplemented

    def __mul__(self, other):
        o = _parts(other)
        if o is not None:
            return _mul(self.a, self.b, self.d, *o)
        if isinstance(other, (float, complex)):
            return complex(self) * complex(other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QQi":
        return _q(*_inverse(self.a, self.b, self.d))

    def __truediv__(self, other):
        o = _parts(other)
        if o is not None:
            return _mul(self.a, self.b, self.d, *_inverse(*o))
        if isinstance(other, (float, complex)):
            return complex(self) / complex(other)
        return NotImplemented

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is not None:
            return _mul(*o, *_inverse(self.a, self.b, self.d))
        if isinstance(other, (float, complex)):
            return complex(other) / complex(self)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        a, b, d = self.a, self.b, self.d
        if not b:
            return _q(a ** n, 0, d ** n)
        # (a + b i)^n by squaring in the Gaussian integers, over d^n.  A
        # prime p | d does not divide both a and b, so it divides both parts
        # of the power only if p = 2 and a, b are both odd, i.e. (1 + i)
        # divides a + b i once; then (1 + i)^n leaves the factor 2^(n//2).
        k = n // 2 if a & b & 1 and not d & 1 else 0
        den = d ** n >> k
        x, y = 1, 0
        while n:
            if n & 1:
                x, y = x * a - y * b, x * b + y * a
            n >>= 1
            if n:
                a, b = (a + b) * (a - b), 2 * a * b
        return _q(x >> k, y >> k, den)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        o = _parts(other)
        if o is not None:
            return (self.a, self.b, self.d) == o
        if isinstance(other, (float, complex)):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the equal Fraction (and int); a complex one
        # as the pair of its parts
        h = _ratio_hash(self.a, self.d)
        if not self.b:
            return h
        return hash((h, _ratio_hash(self.b, self.d)))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


_new = object.__new__


def _q(a: int, b: int, d: int) -> QQi:
    """The QQi with the triple ``(a, b, d)``, which must be canonical."""
    z = _new(QQi)
    z.a = a
    z.b = b
    z.d = d
    return z


def _parts(x) -> Optional[tuple]:
    """The triple of an exact scalar, or None."""
    if isinstance(x, QQi):
        return x.a, x.b, x.d
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


def _add(a, b, d, c, e, f) -> QQi:
    """``(a + b i)/d + (c + e i)/f``, reduced as ``Fraction._add`` is."""
    g = gcd(d, f)
    if g == 1:
        # a prime of d divides both parts only if it divides a and b
        return _q(a * f + c * d, b * f + e * d, d * f)
    s = d // g
    t = f // g
    x = a * t + c * s
    y = b * t + e * s
    # s and t are coprime, and no prime of s or t divides both x and y, so
    # gcd(x, y, g) is all that cancels
    h = gcd(g, x)
    if h != 1:
        h = gcd(h, y)
        if h != 1:
            return _q(x // h, y // h, s * (f // h))
    return _q(x, y, s * f)


def _mul(a, b, d, c, e, f) -> QQi:
    """``(a + b i)/d * (c + e i)/f``.  Every gcd pairs a number of the
    larger operand with one of the smaller, as ``Fraction._mul`` does."""
    if not e:
        if not b:
            g = gcd(a, f)
            if g != 1:
                a //= g
                f //= g
            g = gcd(c, d)
            if g != 1:
                c //= g
                d //= g
            return _q(a * c, 0, d * f)
        return _scale(a, b, d, c, f)
    if not b:
        return _scale(c, e, f, a, d)
    x = a * c - b * e
    y = a * e + b * c
    # A prime p | d divides neither a nor b together; if p^k divides both
    # parts of (a + b i)(c + e i) and d, then p^k | c^2 + e^2 (a Gaussian
    # prime over p must divide c + e i).  So the common factor of x, y and
    # d f divides gcd(d, c^2 + e^2) * f, and with the roles swapped
    # gcd(f, a^2 + b^2) * d: take the one built from the smaller operand.
    if d >= f:
        m = gcd(d, c * c + e * e) * f
    else:
        m = gcd(f, a * a + b * b) * d
    if m != 1:
        g = gcd(m, x)
        if g != 1:
            g = gcd(g, y)
            if g != 1:
                return _q(x // g, y // g, d * f // g)
    return _q(x, y, d * f)


def _scale(a, b, d, c, f) -> QQi:
    """``(a + b i)/d * c/f`` with ``b != 0``, cross-cancelled."""
    g = gcd(c, d)
    if g != 1:
        c //= g
        d //= g
    g = gcd(gcd(a, f), b)
    if g != 1:
        a //= g
        b //= g
        f //= g
    return _q(a * c, b * c, d * f)


def _inverse(a, b, d) -> tuple:
    """The triple of ``d/(a + b i)``."""
    if not b:
        if not a:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return (d, 0, a) if a > 0 else (-d, 0, -a)
    # with g = gcd(a, b): d (a - b i)/(a^2 + b^2) = d (a' - b' i)/(g n'),
    # where gcd(d, g) = 1 and only gcd(d, n') cancels
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    n = a * a + b * b
    k = gcd(d, n)
    if k != 1:
        d //= k
        n //= k
    return d * a, -d * b, g * n


def _ratio_hash(n: int, d: int) -> int:
    """``hash(Fraction(n, d))`` for ``d > 0`` without reducing ``n/d``: the
    numeric hash is ``n/d`` modulo ``sys.hash_info.modulus``, the same for
    every ratio of one value as long as ``d`` is invertible."""
    if d == 1:
        return hash(n)
    try:
        dinv = pow(d, -1, _HASH_MODULUS)
    except ValueError:
        return hash(Fraction(n, d))
    h = hash(hash(abs(n)) * dinv)
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


Scalar = Union[QQi, complex]


def as_scalar(x) -> Scalar:
    """Lift a number to the scalar tower (QQi if exact, complex otherwise)."""
    if isinstance(x, QQi):
        return x
    if isinstance(x, int):
        return _q(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _q(x.numerator, 0, x.denominator)
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, float):
        return complex(x)
    if isinstance(x, complex):
        return x
    raise TypeError(f"cannot interpret {x!r} as a scalar")


def is_exact(x) -> bool:
    return isinstance(x, (QQi, int, Fraction))


def to_complex(x) -> complex:
    return complex(x)


def conj_scalar(x):
    if isinstance(x, QQi):
        return x.conjugate()
    return complex(x).conjugate()


def scalar_pow(x, n: int):
    """``x**n`` for integer ``n`` of either sign, staying exact when possible."""
    return as_scalar(x) ** n


def scalar_eq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Equality test: exact when both operands are exact, else within ``tol``."""
    if is_exact(a) and is_exact(b):
        return as_scalar(a) == as_scalar(b)
    return abs(complex(a) - complex(b)) <= tol


def same_base(a, b) -> bool:
    """The one test that two bases (or roots) are the same: exact equality
    when both are exact, else a distance within ``BASE_TOL``."""
    return scalar_eq(a, b, BASE_TOL)


def scalar_is_zero(x, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(x, QQi):
        return not (x.a or x.b)
    if isinstance(x, _RATIONAL):
        return x == 0
    return abs(complex(x)) <= tol


def re_im(x) -> tuple:
    c = complex(x)
    return (c.real, c.imag)


def sort_key(x) -> tuple:
    """Deterministic total order on scalars (by real part, then imaginary)."""
    if isinstance(x, QQi):
        return (x.re, x.im)
    c = complex(x)
    return (Fraction(c.real), Fraction(c.imag))


def frac_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def exact_sqrt(z) -> Optional[QQi]:
    """A Gaussian-rational square root of ``z`` if one exists, else None."""
    z = as_scalar(z)
    if not isinstance(z, QQi):
        return None
    a, b = z.re, z.im
    if b == 0:
        r = frac_sqrt(a)
        if r is not None:
            return QQi(r)
        r = frac_sqrt(-a)
        if r is not None:
            return QQi(0, r)
        return None
    # solve (x + iy)^2 = a + ib: x^2 = (a + |z|)/2, y = b/(2x)
    n = frac_sqrt(a * a + b * b)
    if n is None:
        return None
    x2 = (a + n) / 2
    x = frac_sqrt(x2)
    if x is None or x == 0:
        return None
    return QQi(x, b / (2 * x))
