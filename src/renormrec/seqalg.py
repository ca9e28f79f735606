"""Exact algebra of exponential-binomial sequences.

A sequence is a finite sum of terms

    c * r**n * C(n - m, k)

with coefficient ``c``, nonzero base ``r``, integer anchor ``m`` shared by
every term, and binomial degree ``k >= 0``.  This class of sequences is
closed under shift, forward difference, addition, scaling and pointwise
product, which is exactly what the per-order solutions of constant
coefficient perturbation problems need.  Coefficients are scalars or
:class:`~renormrec.amplitudes.AmpPoly` values; bases are always scalars.

Canonical form: terms sorted by (base, degree) under a fixed total order,
one term per (base, degree), no zero coefficients.  With exact scalars the
canonical form makes equality structural and tolerance-free.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Tuple

from .amplitudes import AmpPoly
from .scalars import (DEFAULT_TOL, as_scalar, conj_scalar, is_exact,
                      re_im, same_base, scalar_eq, scalar_is_zero, scalar_pow,
                      sort_key, to_complex)


def int_binom(a: int, k: int) -> int:
    """Binomial coefficient C(a, k) for any integer ``a`` and ``k >= 0``."""
    if k < 0:
        return 0
    if a >= 0:
        return math.comb(a, k)
    num = 1
    for i in range(k):
        num *= a - i
    return num // math.factorial(k)


# ---------------------------------------------------------------------------
# Stirling-number tables for binomial <-> monomial conversion
# ---------------------------------------------------------------------------

_STIRLING1: List[List[int]] = [[1]]   # signed, row n: s(n, 0..n)
_STIRLING2: List[List[int]] = [[1]]   # row n: S(n, 0..n)

#: tables are pre-grown to this degree at import; they extend on demand
_PREBUILT_DEGREE = 64


def _grow_stirling(n: int) -> None:
    while len(_STIRLING1) <= n:
        m = len(_STIRLING1) - 1
        row1 = _STIRLING1[-1]
        new1 = [0] * (m + 2)
        new2 = [0] * (m + 2)
        row2 = _STIRLING2[-1]
        for p in range(m + 2):
            left1 = row1[p - 1] if 0 <= p - 1 <= m else 0
            mid1 = row1[p] if p <= m else 0
            new1[p] = left1 - m * mid1
            left2 = row2[p - 1] if 0 <= p - 1 <= m else 0
            mid2 = row2[p] if p <= m else 0
            new2[p] = left2 + p * mid2
        _STIRLING1.append(new1)
        _STIRLING2.append(new2)


_grow_stirling(_PREBUILT_DEGREE)

_BINOM_PRODUCT_CACHE: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}


def _binom_product(k1: int, k2: int) -> Tuple[Tuple[int, int], ...]:
    """Expansion C(x,k1)*C(x,k2) = sum of coeff * C(x,k); coeffs are integers."""
    if k1 > k2:
        k1, k2 = k2, k1
    key = (k1, k2)
    if key in _BINOM_PRODUCT_CACHE:
        return _BINOM_PRODUCT_CACHE[key]
    _grow_stirling(k1 + k2)
    # binomial -> monomial: C(x,k) = (1/k!) sum_p s(k,p) x^p
    def mono(k: int) -> List[Fraction]:
        fact = math.factorial(k)
        return [Fraction(_STIRLING1[k][p], fact) for p in range(k + 1)]

    p1, p2 = mono(k1), mono(k2)
    conv = [Fraction(0)] * (k1 + k2 + 1)
    for i, a in enumerate(p1):
        if a:
            for j, b in enumerate(p2):
                if b:
                    conv[i + j] += a * b
    # monomial -> binomial: x^p = sum_k S(p,k) * k! * C(x,k)
    acc = [Fraction(0)] * (k1 + k2 + 1)
    for p, coeff in enumerate(conv):
        if coeff:
            for k in range(p + 1):
                acc[k] += coeff * _STIRLING2[p][k] * math.factorial(k)
    out = []
    for k, v in enumerate(acc):
        if v:
            if v.denominator != 1:
                raise ArithmeticError("binomial product expansion not integral")
            out.append((k, v.numerator))
    result = tuple(out)
    _BINOM_PRODUCT_CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# Terms and canonical form
# ---------------------------------------------------------------------------

class Term(NamedTuple):
    coeff: object          # Scalar or AmpPoly
    base: object           # Scalar, nonzero
    degree: int


def _coeff_is_zero(c, tol: float = 0.0) -> bool:
    if isinstance(c, AmpPoly):
        return c.is_zero(tol)
    return scalar_is_zero(c, tol)


def _coeff_to_float_mode(c):
    if isinstance(c, AmpPoly):
        return c.map_coeffs(to_complex)
    return to_complex(c)


def _is_float_coeff(c) -> bool:
    if isinstance(c, AmpPoly):
        return any(not is_exact(v) for _, v in c.items())
    return not is_exact(c)


def _canonical(anchor: int, raw: Iterable[Term],
               zero_tol: float = DEFAULT_TOL) -> "ExpBinomSeq":
    terms = [Term(t.coeff, as_scalar(t.base), int(t.degree)) for t in raw
             if not _coeff_is_zero(t.coeff, 0.0)]
    for t in terms:
        if t.degree < 0:
            raise ValueError("binomial degree must be >= 0")
        if scalar_is_zero(t.base, 0.0):
            raise ValueError("zero base is not a valid kernel")
    float_mode = any(not is_exact(t.base) or _is_float_coeff(t.coeff)
                     for t in terms)
    if float_mode:
        terms = [Term(_coeff_to_float_mode(t.coeff), to_complex(t.base),
                      t.degree) for t in terms]
        # merge bases that are the same base, deterministically
        bases = sorted({t.base for t in terms}, key=lambda b: (b.real, b.imag))
        rep: Dict[complex, complex] = {}
        cluster: List[complex] = []
        for b in bases:
            if cluster and same_base(b, cluster[0]):
                cluster.append(b)
            else:
                cluster = [b]
            rep[b] = cluster[0]
        terms = [Term(t.coeff, rep[t.base], t.degree) for t in terms]
    merged: Dict[Tuple[object, int], object] = {}
    for t in terms:
        key = ((t.base.real, t.base.imag), t.degree) if float_mode \
            else (t.base, t.degree)
        if key in merged:
            merged[key] = merged[key] + t.coeff
        else:
            merged[key] = t.coeff
    out = []
    for key, c in merged.items():
        if _coeff_is_zero(c, zero_tol if float_mode else 0.0):
            continue
        base = key[0] if not float_mode else complex(*key[0])
        out.append(Term(c, base, key[1]))
    out.sort(key=lambda t: (sort_key(t.base), t.degree))
    return ExpBinomSeq(anchor, tuple(out), _checked=True)


class ExpBinomSeq:
    """Finite sum of terms ``c * r**n * C(n - anchor, k)`` in canonical form."""

    __slots__ = ("anchor", "terms")

    def __init__(self, anchor: int = 0, terms: Tuple[Term, ...] = (),
                 _checked: bool = False):
        if not _checked:
            seq = _canonical(anchor, terms)
            terms = seq.terms
        self.anchor = int(anchor)
        self.terms = terms

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_small(self, tol: float) -> bool:
        return all(_coeff_is_zero(t.coeff, tol) for t in self.terms)

    def bases(self) -> Tuple[object, ...]:
        return tuple(dict.fromkeys(t.base for t in self.terms))

    def max_degree(self) -> int:
        return max((t.degree for t in self.terms), default=0)

    def terms_by_base(self) -> Dict[object, Dict[int, object]]:
        out: Dict[object, Dict[int, object]] = {}
        for t in self.terms:
            out.setdefault(t.base, {})[t.degree] = t.coeff
        return out

    @property
    def is_exact_mode(self) -> bool:
        """True when every base (hence, after canonicalization, every
        scalar) is exact."""
        return all(is_exact(t.base) for t in self.terms)

    # -- evaluation ----------------------------------------------------------

    def eval(self, n: int):
        """Value at integer ``n``; exact whenever all scalars are exact."""
        total = None
        for c, r, k in self.terms:
            v = c * scalar_pow(r, n) * int_binom(n - self.anchor, k)
            total = v if total is None else total + v
        return as_scalar(0) if total is None else total

    # -- algebra ---------------------------------------------------------

    def _compatible_anchor(self, other: "ExpBinomSeq") -> int:
        if self.is_zero:
            return other.anchor
        if other.is_zero:
            return self.anchor
        if self.anchor != other.anchor:
            raise ValueError(
                f"anchor mismatch ({self.anchor} vs {other.anchor}); "
                "reanchor one operand first")
        return self.anchor

    def __add__(self, other):
        if not isinstance(other, ExpBinomSeq):
            return NotImplemented
        anchor = self._compatible_anchor(other)
        return _canonical(anchor, self.terms + other.terms)

    def __sub__(self, other):
        if not isinstance(other, ExpBinomSeq):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExpBinomSeq(
            self.anchor, tuple(Term(-t.coeff, t.base, t.degree)
                               for t in self.terms), _checked=True)

    def scale(self, c) -> "ExpBinomSeq":
        if not isinstance(c, AmpPoly):
            c = as_scalar(c)
        return _canonical(self.anchor,
                          [Term(t.coeff * c, t.base, t.degree)
                           for t in self.terms])

    def shift(self, j: int) -> "ExpBinomSeq":
        """The sequence ``n -> self(n + j)`` in the same anchored basis."""
        j = int(j)
        if j == 0:
            return self
        out: List[Term] = []
        for c, r, k in self.terms:
            mult = c * scalar_pow(r, j)
            for t in range(k + 1):
                w = int_binom(j, k - t)
                if w:
                    out.append(Term(mult * w, r, t))
        return _canonical(self.anchor, out)

    def delta(self) -> "ExpBinomSeq":
        """Forward difference ``n -> self(n+1) - self(n)``.

        Closed form on one term:
        D[r^n C(n-m,k)] = (r-1) r^n C(n-m,k) + r * r^n C(n-m,k-1).
        """
        out: List[Term] = []
        for c, r, k in self.terms:
            rm1 = r - as_scalar(1)
            if not scalar_is_zero(rm1, 0.0):
                out.append(Term(c * rm1, r, k))
            if k >= 1:
                out.append(Term(c * r, r, k - 1))
        return _canonical(self.anchor, out)

    def product(self, other: "ExpBinomSeq") -> "ExpBinomSeq":
        """Pointwise product; bases multiply, binomial parts expand."""
        if not isinstance(other, ExpBinomSeq):
            return NotImplemented
        anchor = self._compatible_anchor(other)
        out: List[Term] = []
        for c1, r1, k1 in self.terms:
            for c2, r2, k2 in other.terms:
                c = c1 * c2
                r = r1 * r2
                for k, w in _binom_product(k1, k2):
                    out.append(Term(c * w, r, k))
        return _canonical(anchor, out)

    def __mul__(self, other):
        if isinstance(other, ExpBinomSeq):
            return self.product(other)
        return self.scale(other)

    __rmul__ = __mul__

    def reanchor(self, new_anchor: int) -> "ExpBinomSeq":
        """Same pointwise sequence expressed about a different anchor.

        Uses C(n-m,k) = sum_t C(n-m',t) C(m'-m,k-t), i.e. the difference
        table of the binomial part taken at the new anchor.
        """
        new_anchor = int(new_anchor)
        if new_anchor == self.anchor:
            return self
        d = new_anchor - self.anchor
        out: List[Term] = []
        for c, r, k in self.terms:
            for t in range(k + 1):
                w = int_binom(d, k - t)
                if w:
                    out.append(Term(c * w, r, t))
        return _canonical(new_anchor, out)

    def conjugate(self) -> "ExpBinomSeq":
        out = []
        for c, r, k in self.terms:
            if isinstance(c, AmpPoly):
                raise ValueError("cannot conjugate amplitude symbols")
            out.append(Term(conj_scalar(c), conj_scalar(r), k))
        return _canonical(self.anchor, out)

    def substitute(self, env) -> "ExpBinomSeq":
        """Replace amplitude symbols by concrete values."""
        out = []
        for c, r, k in self.terms:
            if isinstance(c, AmpPoly):
                c = c.substitute(env)
            out.append(Term(c, r, k))
        return _canonical(self.anchor, out)

    def map_coeffs(self, fn) -> "ExpBinomSeq":
        return _canonical(self.anchor,
                          [Term(fn(t.coeff), t.base, t.degree)
                           for t in self.terms])

    # -- comparison --------------------------------------------------------

    def allclose(self, other: "ExpBinomSeq", tol: float = 1e-10) -> bool:
        diff = self - other.reanchor(self.anchor)
        return diff.is_small(tol)

    def __eq__(self, other):
        if not isinstance(other, ExpBinomSeq):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        if self.anchor != other.anchor or len(self.terms) != len(other.terms):
            return False
        for t1, t2 in zip(self.terms, other.terms):
            if t1.degree != t2.degree or not same_base(t1.base, t2.base):
                return False
            c1, c2 = t1.coeff, t2.coeff
            if isinstance(c1, AmpPoly) or isinstance(c2, AmpPoly):
                c1 = c1 if isinstance(c1, AmpPoly) else AmpPoly.const(c1)
                if not c1.allclose(c2, DEFAULT_TOL):
                    return False
            elif not scalar_eq(c1, c2):
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        if self.is_zero:
            return "ExpBinomSeq(0)"
        bits = []
        for c, r, k in self.terms:
            rre, rim = re_im(r)
            b = f"({rre:.6g}{rim:+.6g}i)^n"
            if k:
                b += f"*C(n-{self.anchor},{k})"
            bits.append(f"{c!r}*{b}" if isinstance(c, AmpPoly)
                        else f"({re_im(c)[0]:.6g}{re_im(c)[1]:+.6g}i)*{b}")
        return "ExpBinomSeq[" + " + ".join(bits) + "]"

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list:
        """List of per-term records with float coefficients."""
        out = []
        for c, r, k in self.terms:
            if isinstance(c, AmpPoly):
                raise ValueError("substitute amplitudes before serializing")
            cre, cim = re_im(c)
            rre, rim = re_im(r)
            out.append({"coeff_re": cre, "coeff_im": cim,
                        "base_re": rre, "base_im": rim,
                        "anchor": self.anchor, "degree": k})
        return out

    @classmethod
    def from_json_obj(cls, records: list) -> "ExpBinomSeq":
        if not records:
            return zero_seq(0)
        anchor = records[0]["anchor"]
        terms = []
        for rec in records:
            if rec["anchor"] != anchor:
                raise ValueError("terms with mixed anchors")
            terms.append(Term(complex(rec["coeff_re"], rec["coeff_im"]),
                              complex(rec["base_re"], rec["base_im"]),
                              int(rec["degree"])))
        return _canonical(anchor, terms)


# ---------------------------------------------------------------------------
# module-level constructors
# ---------------------------------------------------------------------------

def make_term(c, r, m: int, k: int) -> ExpBinomSeq:
    """The sequence ``n -> c * r**n * C(n-m, k)``; zero coefficient gives
    the empty sequence.  Rejects ``r == 0``."""
    r = as_scalar(r)
    if scalar_is_zero(r, 0.0):
        raise ValueError("base must be nonzero (the zero sequence is the "
                         "empty term list)")
    if not isinstance(c, AmpPoly):
        c = as_scalar(c)
    return _canonical(m, [Term(c, r, int(k))])


def zero_seq(m: int = 0) -> ExpBinomSeq:
    return ExpBinomSeq(m, (), _checked=True)


def const_seq(c, m: int = 0) -> ExpBinomSeq:
    return make_term(c, 1, m, 0)
