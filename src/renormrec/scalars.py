"""Scalar tower used throughout the package.

Two kinds of scalars coexist:

* :class:`QQi` -- a complex number with exact rational real and imaginary
  parts (a Gaussian rational).  All algebra on these is exact, so equality
  is decidable with no tolerance and the sequence algebra built on top
  admits zero-tolerance tests.
* plain ``complex`` -- double precision, used whenever a quantity is
  irrational (``exp(i*theta)`` bases, measured trajectories, ...).

Mixing the two demotes to ``complex``.  ``int`` and ``Fraction`` inputs are
lifted to :class:`QQi`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

#: absolute tolerance for float-scalar equality
DEFAULT_TOL = 1e-12
#: float bases (and characteristic roots) closer than this are one base
BASE_TOL = 1e-9

_RATIONAL = (int, Fraction)


class QQi:
    """Gaussian rational: ``re + im*i`` with ``re``, ``im`` exact fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- basic properties ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Exact squared modulus ``re**2 + im**2``."""
        return self.re * self.re + self.im * self.im

    # -- conversions -----------------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __float__(self) -> float:
        if self.im != 0:
            raise ValueError(f"{self!r} has a nonzero imaginary part")
        return float(self.re)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Optional["QQi"]:
        if isinstance(other, QQi):
            return other
        if isinstance(other, _RATIONAL):
            return QQi(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is not None:
            return QQi(self.re + o.re, self.im + o.im)
        if isinstance(other, (float, complex)):
            return complex(self) + complex(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is not None:
            return QQi(self.re - o.re, self.im - o.im)
        if isinstance(other, (float, complex)):
            return complex(self) - complex(other)
        return NotImplemented

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is not None:
            return QQi(o.re - self.re, o.im - self.im)
        if isinstance(other, (float, complex)):
            return complex(other) - complex(self)
        return NotImplemented

    def __mul__(self, other):
        o = self._coerce(other)
        if o is not None:
            if not (self.im or o.im):
                return QQi(self.re * o.re)
            return QQi(self.re * o.re - self.im * o.im,
                       self.re * o.im + self.im * o.re)
        if isinstance(other, (float, complex)):
            return complex(self) * complex(other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QQi":
        n = self.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is not None:
            return self * o.inverse()
        if isinstance(other, (float, complex)):
            return complex(self) / complex(other)
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is not None:
            return o * self.inverse()
        if isinstance(other, (float, complex)):
            return complex(other) / complex(self)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = QQi(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is not None:
            return self.re == o.re and self.im == o.im
        if isinstance(other, (float, complex)):
            return complex(self) == complex(other)
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


Scalar = Union[QQi, complex]


def as_scalar(x) -> Scalar:
    """Lift a number to the scalar tower (QQi if exact, complex otherwise)."""
    if isinstance(x, QQi):
        return x
    if isinstance(x, _RATIONAL):
        return QQi(x)
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
    if is_exact(x):
        return as_scalar(x).is_zero
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
