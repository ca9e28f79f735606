"""Polynomials in undetermined amplitude symbols.

The order-0 solution of a perturbed recurrence carries free constants
(``A``, ``B``, ``K0``, ...).  Higher-order forcings are polynomial in those
constants, so sequence coefficients are represented as :class:`AmpPoly`:
multivariate polynomials in named amplitude symbols over the scalar tower.
Substituting numbers for the symbols collapses an AmpPoly back to a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .scalars import Scalar, as_scalar, re_im, scalar_is_zero, to_complex

#: a monomial is a sorted tuple of (symbol name, positive exponent)
Monomial = Tuple[Tuple[str, int], ...]


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    exps: Dict[str, int] = {}
    for name, e in m1 + m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class AmpPoly:
    """Immutable polynomial in amplitude symbols with scalar coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Dict[Monomial, Scalar]] = None):
        clean: Dict[Monomial, Scalar] = {}
        for mono, c in (terms or {}).items():
            c = as_scalar(c)
            if not scalar_is_zero(c, 0.0):
                clean[mono] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "AmpPoly":
        return cls({(): as_scalar(c)})

    @classmethod
    def var(cls, name: str) -> "AmpPoly":
        return cls({((name, 1),): as_scalar(1)})

    # -- inspection ----------------------------------------------------------

    def items(self) -> Iterable[Tuple[Monomial, Scalar]]:
        return sorted(self._terms.items())

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(scalar_is_zero(c, tol) for c in self._terms.values())

    @property
    def is_constant(self) -> bool:
        return all(m == () for m in self._terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self._terms.get((), as_scalar(0))

    def symbols(self) -> set:
        return {name for m in self._terms for name, _ in m}

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(tuple(sorted(mono)), as_scalar(0))

    def filter_degree(self, degree: int) -> "AmpPoly":
        """Keep only the monomials of the given total degree."""
        return AmpPoly({m: c for m, c in self._terms.items()
                        if _mono_degree(m) == degree})

    def max_abs(self) -> float:
        return max((abs(to_complex(c)) for c in self._terms.values()),
                   default=0.0)

    # -- algebra ---------------------------------------------------------

    @staticmethod
    def _lift(x) -> Optional["AmpPoly"]:
        if isinstance(x, AmpPoly):
            return x
        try:
            return AmpPoly.const(x)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for m, c in o._terms.items():
            terms[m] = terms.get(m, as_scalar(0)) + c
        return AmpPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return AmpPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms: Dict[Monomial, Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in o._terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, as_scalar(0)) + c1 * c2
        return AmpPoly(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, AmpPoly):
            return self * AmpPoly.const(as_scalar(1) / other.constant_value())
        return self * (as_scalar(1) / as_scalar(other))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = AmpPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def substitute(self, env: Dict[str, Scalar]) -> Scalar:
        """Evaluate with concrete amplitude values."""
        total = as_scalar(0)
        for mono, c in self._terms.items():
            val = c
            for name, e in mono:
                if name not in env:
                    raise KeyError(f"no value supplied for amplitude {name!r}")
                val = val * (as_scalar(env[name]) ** e)
            total = total + val
        return total

    def map_coeffs(self, fn) -> "AmpPoly":
        return AmpPoly({m: fn(c) for m, c in self._terms.items()})

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero(0.0)

    __hash__ = None  # type: ignore[assignment]

    def allclose(self, other, tol: float = 1e-10) -> bool:
        diff = self - self._lift(other)
        return diff.is_zero(tol)

    def __repr__(self):
        if not self._terms:
            return "AmpPoly(0)"
        bits = []
        for mono, c in self.items():
            re, im = re_im(c)
            cs = f"({re:.6g}{im:+.6g}i)"
            ms = "*".join(f"{n}^{e}" if e > 1 else n for n, e in mono)
            bits.append(f"{cs}{'*' + ms if ms else ''}")
        return "AmpPoly(" + " + ".join(bits) + ")"


@dataclass(frozen=True)
class Amplitude:
    """An undetermined constant attached to one homogeneous mode.

    ``eps_power`` records at which perturbation order the constant enters the
    solution (0 for order-0 integration constants, 1 for constants like the
    order-1 homogeneous amplitude of the boundary-layer expansion).
    ``conjugate_link`` names the partner amplitude whose value must be the
    complex conjugate for the assembled solution to be real.
    """

    name: str
    base: object  # Scalar base of the attached mode, or None for map modes
    eps_power: int = 0
    conjugate_link: Optional[str] = None
