"""Linear constant-coefficient difference equations with exponential-binomial
forcing, including resonance handling.

The recurrence  c_p y(n+p) + ... + c_1 y(n+1) + c_0 y(n) = forcing(n)  is
solved by undetermined coefficients in the anchored binomial basis.  For a
forcing base ``r`` with characteristic multiplicity ``mu`` and maximum
binomial degree ``d``, the ansatz sum_{j=mu..mu+d} a_j r^n C(n-m, j) leads
to a triangular system

    sum_{j >= i+mu} gamma_{j-i} a_j = f_i,       i = d..0,

where gamma_s = sum_j c_j r^j C(j, s) = (r^s / s!) P^(s)(r) for the
characteristic polynomial P.  Resonance (gamma_0 = 0) shifts the ansatz up
by the multiplicity and produces secular (degree >= 1) terms; the diagonal
entry gamma_mu is nonzero exactly when the multiplicity is right, so the
back-substitution cannot break unless the root data is inconsistent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .amplitudes import AmpPoly
from .scalars import (BASE_TOL, QQi, as_scalar, exact_sqrt, is_exact,
                      same_base, scalar_is_zero, scalar_pow, sort_key,
                      to_complex)
from .seqalg import ExpBinomSeq, Term, int_binom, make_term, zero_seq

#: band of base-root distances where secular detection is numerically fragile
NEAR_RESONANCE_BAND = (BASE_TOL, 1e-4)


class NearResonanceWarning(UserWarning):
    """A forcing base is suspiciously close to, but not at, a root."""


class SingularSystemError(ValueError):
    """A linear solve that should be regular came out singular."""


@dataclass(frozen=True)
class LinearRecurrence:
    """Coefficients [c_p, ..., c_1, c_0] of c_p y(n+p) + ... + c_0 y(n)."""

    coeffs: Tuple[object, ...]

    def __init__(self, coeffs: Sequence[object]):
        cs = tuple(as_scalar(c) for c in coeffs)
        if len(cs) < 2:
            raise ValueError("a recurrence needs order >= 1")
        if scalar_is_zero(cs[0], 0.0) or scalar_is_zero(cs[-1], 0.0):
            raise ValueError("leading and trailing coefficients must be "
                             "nonzero (full order, no shift reduction)")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def ascending(self) -> Tuple[object, ...]:
        """Coefficients ordered by shift: entry j multiplies y(n+j)."""
        return tuple(reversed(self.coeffs))

    @property
    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.coeffs)

    def gamma(self, r, s: int):
        """gamma_s = sum_j c_j r^j C(j, s); gamma_0 is the characteristic
        polynomial at r and gamma_s vanishes for s below the multiplicity."""
        total = as_scalar(0)
        for j, c in enumerate(self.ascending):
            w = int_binom(j, s)
            if w:
                total = total + c * scalar_pow(r, j) * w
        return total

    def apply_seq(self, s: ExpBinomSeq) -> ExpBinomSeq:
        """The sequence n -> sum_j c_j s(n+j)."""
        total = zero_seq(s.anchor)
        for j, c in enumerate(self.ascending):
            if not scalar_is_zero(c, 0.0):
                total = total + s.shift(j).scale(c)
        return total


RootSet = Tuple[Tuple[object, int], ...]


def _cluster_roots(raw: List[complex]) -> RootSet:
    raw = sorted(raw, key=lambda z: (z.real, z.imag))
    groups: List[List[complex]] = []
    for z in raw:
        if groups and same_base(z, groups[-1][0]):
            groups[-1].append(z)
        else:
            groups.append([z])
    out = [(sum(g) / len(g), len(g)) for g in groups]
    return tuple(sorted(out, key=lambda p: sort_key(p[0])))


def char_roots(rec: LinearRecurrence) -> RootSet:
    """Characteristic roots with multiplicity.

    Closed forms (exact when representable) for orders 1 and 2; companion
    matrix eigenvalues in floating point for order >= 3.
    """
    asc = rec.ascending
    if rec.order == 1:
        root = -asc[0] / asc[1] if is_exact(asc[0]) and is_exact(asc[1]) \
            else -to_complex(asc[0]) / to_complex(asc[1])
        return ((root, 1),)
    if rec.order == 2:
        a0, a1, a2 = asc
        disc = a1 * a1 - 4 * a2 * a0
        if rec.is_exact:
            s = exact_sqrt(disc)
            if s is not None:
                r1 = (-a1 + s) / (2 * a2)
                r2 = (-a1 - s) / (2 * a2)
                if r1 == r2:
                    return ((r1, 2),)
                return tuple(sorted(((r1, 1), (r2, 1)),
                                    key=lambda p: sort_key(p[0])))
        a0c, a1c, a2c = (to_complex(x) for x in (a0, a1, a2))
        s = np.sqrt(complex(a1c * a1c - 4 * a2c * a0c))
        return _cluster_roots([(-a1c + s) / (2 * a2c), (-a1c - s) / (2 * a2c)])
    raw = np.roots([to_complex(c) for c in rec.coeffs])
    return _cluster_roots([complex(z) for z in raw])


def homogeneous_basis(roots: RootSet, m: int = 0) -> List[ExpBinomSeq]:
    """For each root r of multiplicity mu: r^n C(n-m, j), j = 0..mu-1."""
    out = []
    for r, mu in roots:
        for j in range(mu):
            out.append(make_term(1, r, m, j))
    return out


def match_multiplicity(roots: RootSet, base) -> int:
    """Multiplicity of the characteristic root matching a forcing base.

    The root matches when it is the same base (``same_base``); a float
    distance inside ``NEAR_RESONANCE_BAND`` triggers a near-resonance warning
    since secular detection is then numerically fragile.
    """
    for r, mu in roots:
        if same_base(r, base):
            return mu
    best = min((abs(to_complex(r) - to_complex(base)) for r, _ in roots
                if not (is_exact(r) and is_exact(base))), default=None)
    if best is not None and NEAR_RESONANCE_BAND[0] < best < NEAR_RESONANCE_BAND[1]:
        warnings.warn(
            f"forcing base within {best:.3e} of a characteristic root; "
            "secular-term detection is fragile at this distance",
            NearResonanceWarning, stacklevel=3)
    return 0


def _coeff_abs(c) -> float:
    if isinstance(c, AmpPoly):
        return c.max_abs()
    return abs(to_complex(c))


def particular_solution(rec: LinearRecurrence,
                        forcing: ExpBinomSeq) -> ExpBinomSeq:
    """A particular solution with zero residual; secular terms appear exactly
    when a forcing base coincides with a characteristic root."""
    if forcing.is_zero:
        return zero_seq(forcing.anchor)
    roots = char_roots(rec)
    m = forcing.anchor
    terms = []
    for base, by_deg in forcing.terms_by_base().items():
        mu = match_multiplicity(roots, base)
        d = max(by_deg)
        gammas = [rec.gamma(base, s) for s in range(mu + d + 1)]
        if (scalar_is_zero(gammas[mu], 0.0) if rec.is_exact and is_exact(base)
                else abs(to_complex(gammas[mu])) < 1e-14):
            raise SingularSystemError(
                f"singular ansatz system for base {base!r}; multiplicity "
                "detection inconsistent with the characteristic polynomial")
        alphas = {}
        for i in range(d, -1, -1):
            rhs = by_deg.get(i, as_scalar(0))
            for j in range(i + mu + 1, mu + d + 1):
                rhs = rhs - alphas[j] * gammas[j - i]
            alphas[i + mu] = rhs / gammas[mu]
        for j, a in alphas.items():
            terms.append(Term(a, base, j))
    result = ExpBinomSeq(m, tuple(terms))
    residual = rec.apply_seq(result) - forcing
    if rec.is_exact and forcing.is_exact_mode:
        ok = residual.is_small(0.0)
    else:
        scale = max((_coeff_abs(t.coeff) for t in forcing.terms), default=1.0)
        ok = residual.is_small(1e-10 * max(scale, 1.0))
    if not ok:
        raise SingularSystemError("particular solution residual check failed")
    return result


def _pivot_size(x):
    """Squared modulus, exact for Gaussian rationals (no float overflow)."""
    return x.norm2() if isinstance(x, QQi) else abs(x) ** 2


def linsolve(A: List[List[object]], b: List[object]) -> List[object]:
    """Dense linear solve with partial pivoting, generic over the scalar
    tower (exact arithmetic stays exact)."""
    n = len(A)
    M = [[as_scalar(x) for x in row] + [as_scalar(bv)]
         for row, bv in zip(A, b)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: _pivot_size(M[r][col]))
        if _pivot_size(M[piv][col]) == 0:
            raise SingularSystemError("singular linear system")
        M[col], M[piv] = M[piv], M[col]
        inv = as_scalar(1) / M[col][col]
        for r in range(col + 1, n):
            f = M[r][col] * inv
            if scalar_is_zero(f, 0.0):
                continue
            for j in range(col, n + 1):
                M[r][j] = M[r][j] - f * M[col][j]
    x: List[object] = [as_scalar(0)] * n
    for i in range(n - 1, -1, -1):
        acc = M[i][n]
        for j in range(i + 1, n):
            acc = acc - M[i][j] * x[j]
        x[i] = acc / M[i][i]
    return x


def solve(rec: LinearRecurrence, forcing: ExpBinomSeq,
          initial: Sequence[object], n0: int = 0) -> ExpBinomSeq:
    """Full solution matching ``initial`` = values at n0, ..., n0+order-1.

    Agrees with direct iteration of the recurrence.
    """
    if len(initial) != rec.order:
        raise ValueError(f"need exactly {rec.order} initial values")
    anchor = forcing.anchor if not forcing.is_zero else n0
    yp = particular_solution(rec, forcing)
    basis = homogeneous_basis(char_roots(rec), anchor)
    A = [[basis[j].eval(n0 + i) for j in range(len(basis))]
         for i in range(rec.order)]
    b = [as_scalar(initial[i]) - yp.eval(n0 + i) for i in range(rec.order)]
    kappa = linsolve(A, b)
    total = yp
    for k, s in zip(kappa, basis):
        total = total + s.scale(k)
    return total


def particular_solution_vc1(rec: LinearRecurrence,
                            forcing: ExpBinomSeq) -> ExpBinomSeq:
    """Variation-of-constants particular solution for order-1 recurrences.

    Writes y(n) = B(n) r^n with the homogeneous base r; the forcing term
    c s^n C(n-m,k) gives DB(n) = (c / (c1 r)) (s/r)^n C(n-m,k), summed in
    closed form.  Cross-check for the undetermined-coefficients route;
    degree >= 1 with a non-resonant base is not needed and not supported.
    """
    if rec.order != 1:
        raise ValueError("variation-of-constants path is order-1 only")
    if forcing.is_zero:
        return zero_seq(forcing.anchor)
    (r, _), = char_roots(rec)
    c1 = rec.ascending[1]
    m = forcing.anchor
    out = zero_seq(m)
    for c, s, k in forcing.terms:
        w = c / (c1 * r)
        q = s / r
        if same_base(q, 1):
            # sum_{j=m}^{n-1} C(j-m,k) = C(n-m, k+1)
            out = out + make_term(w, r, m, k + 1)
        else:
            if k != 0:
                raise NotImplementedError(
                    "non-resonant forcing with binomial degree >= 1")
            # sum_{j=m}^{n-1} q^j = (q^n - q^m) / (q - 1), with B(m) = 0
            wq = w / (q - as_scalar(1))
            out = out + make_term(wq, r * q, m, 0)
            out = out - make_term(wq * scalar_pow(q, m), r, m, 0)
    return out
