"""Linear recurrence solver: root finding, resonance handling, and the
residual-zero contract of particular solutions.  Full solutions are checked
against direct iteration of the recurrence (the independent oracle)."""

import cmath
import math
import random
import warnings
from fractions import Fraction

import pytest

from renormrec.amplitudes import AmpPoly
from renormrec.lindiff import (LinearRecurrence, NearResonanceWarning,
                               char_roots, homogeneous_basis, linsolve,
                               match_multiplicity, particular_solution,
                               particular_solution_vc1, solve)
from renormrec.scalars import BASE_TOL, QQi, same_base, to_complex
from renormrec.seqalg import make_term, zero_seq

I = QQi(0, 1)


def iterate(rec, forcing_fn, initial, n_max):
    """Direct iteration oracle for c_p y(n+p) + ... + c_0 y(n) = f(n)."""
    asc = [to_complex(c) for c in rec.ascending]
    ys = [complex(v) for v in initial]
    p = rec.order
    for n in range(n_max - p + 1):
        acc = complex(forcing_fn(n))
        for j in range(p):
            acc -= asc[j] * ys[n + j]
        ys.append(acc / asc[p])
    return ys


# -- construction / roots ----------------------------------------------------

def test_recurrence_validates_ends():
    with pytest.raises(ValueError):
        LinearRecurrence([0, 1, 1])
    with pytest.raises(ValueError):
        LinearRecurrence([1, 1, 0])
    with pytest.raises(ValueError):
        LinearRecurrence([1])


def test_roots_plus_minus_i():
    roots = char_roots(LinearRecurrence([1, 0, 1]))
    assert roots == ((QQi(0, -1), 1), (QQi(0, 1), 1))


def test_roots_cosine_pair():
    th = math.pi / 5
    rec = LinearRecurrence([1.0, -2.0 * math.cos(th), 1.0])
    roots = char_roots(rec)
    assert len(roots) == 2
    vals = sorted((to_complex(r) for r, _ in roots), key=lambda z: z.imag)
    assert vals[0] == pytest.approx(cmath.exp(-1j * th), abs=1e-12)
    assert vals[1] == pytest.approx(cmath.exp(1j * th), abs=1e-12)


def test_roots_first_order_ratio():
    rec = LinearRecurrence([Fraction(2), Fraction(1)])
    ((r, mu),) = char_roots(rec)
    assert mu == 1 and r == QQi(Fraction(-1, 2))


def test_roots_double():
    # (z - 2)^2 = z^2 - 4z + 4
    roots = char_roots(LinearRecurrence([1, -4, 4]))
    assert roots == ((QQi(2), 2),)


def test_roots_exact_fallback_to_float():
    # z^2 - 2 = 0: sqrt(2) is not a Gaussian rational
    roots = char_roots(LinearRecurrence([1, 0, -2]))
    assert all(isinstance(r, complex) for r, _ in roots)
    assert min(abs(r - math.sqrt(2)) for r, _ in roots) < 1e-12


def test_roots_cubic_companion():
    # (z-1)(z-2)(z-3)
    roots = char_roots(LinearRecurrence([1, -6, 11, -6]))
    got = sorted(to_complex(r).real for r, _ in roots)
    assert got == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)


def test_basis_double_root():
    basis = homogeneous_basis(((QQi(2), 2),), 0)
    assert basis[0] == make_term(1, 2, 0, 0)
    assert basis[1] == make_term(1, 2, 0, 1)


def test_basis_unit_root():
    (b,) = homogeneous_basis(((QQi(1), 1),), 0)
    assert all(b.eval(n) == QQi(1) for n in range(5))


# -- resonance detection -----------------------------------------------------

def test_near_resonance_warning():
    roots = ((complex(0.5), 1),)
    with pytest.warns(NearResonanceWarning):
        mu = match_multiplicity(roots, complex(0.5 + 1e-6))
    assert mu == 0


def test_clean_match_and_clean_miss():
    roots = ((complex(0.5), 1),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert match_multiplicity(roots, complex(0.5 + 1e-12)) == 1
        assert match_multiplicity(roots, complex(0.9)) == 0


def test_same_base_is_exact_for_exact_operands_else_within_tolerance():
    assert same_base(Fraction(1, 3), QQi(Fraction(1, 3)))
    assert not same_base(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30))
    assert same_base(0.5, complex(0.5 + 0.5 * BASE_TOL))
    assert not same_base(0.5, 0.5 + 2 * BASE_TOL)
    # an exact operand against a float compares within the tolerance
    assert same_base(Fraction(1, 2), 0.5 + 0.5 * BASE_TOL)
    assert not same_base(Fraction(1, 2), 0.5 + 2 * BASE_TOL)


# -- particular solutions ----------------------------------------------------

def test_resonant_secular_term_oscillator():
    rec = LinearRecurrence([1, 0, 1])
    A = AmpPoly.var("A")
    forcing = make_term(A, I, 0, 0).shift(1).scale(-1)   # -A i^(n+1)
    ps = particular_solution(rec, forcing)
    expected = make_term(A * QQi(0, Fraction(1, 2)), I, 0, 1)
    assert ps == expected
    assert (rec.apply_seq(ps) - forcing).is_zero


def test_oscillator_secular_coefficients_both_modes():
    rec = LinearRecurrence([1, 0, 1])
    A, B = AmpPoly.var("A"), AmpPoly.var("B")
    y0 = make_term(A, I, 0, 0) + make_term(B, -I, 0, 0)
    ps = particular_solution(rec, y0.shift(1).scale(-1))
    by_base = ps.terms_by_base()
    assert by_base[I][1] == A * QQi(0, Fraction(1, 2))
    assert by_base[-I][1] == B * QQi(0, Fraction(-1, 2))


def test_cubic_mode_mixing_coefficients():
    # resonant part of (1 - y0(n+1)^2)(y0(n+2) - y0(n)) for two conjugate
    # modes carries the amplitude structure (A - A^2 B), (B - A B^2)
    th = math.pi / 5
    rec = LinearRecurrence([1.0, -2.0 * math.cos(th), 1.0])
    e = cmath.exp(1j * th)
    A, B = AmpPoly.var("A"), AmpPoly.var("B")
    y0 = make_term(A, e, 0, 0) + make_term(B, e.conjugate(), 0, 0)
    from renormrec.seqalg import const_seq
    w = const_seq(1, 0) - y0.shift(1).product(y0.shift(1))
    forcing = w.product(y0.shift(2) - y0)
    ps = particular_solution(rec, forcing)
    sec = {}
    for c, r, k in ps.terms:
        if k == 1:
            sec[round(to_complex(r).imag, 6)] = c
    up = sec[round(math.sin(th), 6)]
    expected_up = A - A * A * B
    assert up.allclose(expected_up, 1e-12)
    dn = sec[round(-math.sin(th), 6)]
    assert dn.allclose(B - A * B * B, 1e-12)


def test_first_order_resonant_geometric():
    a, b = Fraction(2), Fraction(1)
    rec = LinearRecurrence([a, b])
    rho = QQi(-b / a)
    A = AmpPoly.var("A")
    forcing = make_term(A, rho, 0, 0).shift(2).scale(-1)
    ps = particular_solution(rec, forcing)
    expected = make_term(A * QQi(b / (a * a)), rho, 0, 1)
    assert ps == expected


def test_nonresonant_forcing_degree_zero():
    rec = LinearRecurrence([1, Fraction(-1, 2)])
    forcing = make_term(3, Fraction(1, 8), 0, 0)
    ps = particular_solution(rec, forcing)
    assert ps == make_term(-8, Fraction(1, 8), 0, 0)
    assert (rec.apply_seq(ps) - forcing).is_zero


def test_variation_of_constants_cross_check():
    rec = LinearRecurrence([1, Fraction(-1, 2)])
    forcing = make_term(Fraction(3, 2), Fraction(1, 2), 0, 0) \
        + make_term(1, Fraction(1, 8), 0, 0)
    uc = particular_solution(rec, forcing)
    vc = particular_solution_vc1(rec, forcing)
    # both satisfy the recurrence; they differ by a homogeneous solution
    assert (rec.apply_seq(vc) - forcing).is_zero
    diff = uc - vc
    assert rec.apply_seq(diff).is_zero


def test_particular_residual_tolerance_float():
    th = 1.1
    rec = LinearRecurrence([1.0, -2.0 * math.cos(th), 1.0])
    e = cmath.exp(1j * th)
    forcing = make_term(0.25, e, 0, 0) + make_term(0.5, 0.3 + 0.1j, 0, 2)
    ps = particular_solution(rec, forcing)
    resid = rec.apply_seq(ps) - forcing
    assert resid.is_small(1e-10)


# -- full solves ---------------------------------------------------------------

def test_solve_quarter_period_pattern():
    rec = LinearRecurrence([1, 0, 1])
    sol = solve(rec, zero_seq(0), [1, 0])
    vals = [sol.eval(n) for n in range(8)]
    assert vals == [QQi(1), QQi(0), QQi(-1), QQi(0),
                    QQi(1), QQi(0), QQi(-1), QQi(0)]


def test_solve_matches_iteration_random():
    rng = random.Random(123)
    for trial in range(100):
        order = rng.randint(1, 3)
        while True:
            coeffs = [rng.uniform(-2, 2) for _ in range(order + 1)]
            if abs(coeffs[0]) > 0.3 and abs(coeffs[-1]) > 0.3:
                break
        rec = LinearRecurrence(coeffs)
        forcing = zero_seq(0)
        for _ in range(rng.randint(0, 3)):
            base = rng.choice([0.5, -0.75, 1.25, 0.3 + 0.4j])
            forcing = forcing + make_term(rng.uniform(-1, 1), base, 0,
                                          rng.randint(0, 2))
        initial = [rng.uniform(-2, 2) for _ in range(order)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearResonanceWarning)
            sol = solve(rec, forcing, initial)
        direct = iterate(rec, lambda n: to_complex(forcing.eval(n)),
                         initial, 50)
        scale = max(1.0, max(abs(v) for v in direct))
        for n in range(51):
            assert abs(to_complex(sol.eval(n)) - direct[n]) <= 1e-9 * scale


def test_solve_requires_enough_initial_values():
    rec = LinearRecurrence([1, 0, 1])
    with pytest.raises(ValueError):
        solve(rec, zero_seq(0), [1])


def test_secularity_iff_resonance():
    rng = random.Random(5)
    rec = LinearRecurrence([1, Fraction(-1, 2)])
    for _ in range(20):
        resonant = rng.random() < 0.5
        base = Fraction(1, 2) if resonant else Fraction(rng.randint(2, 9), 8)
        if base == Fraction(1, 2) and not resonant:
            base = Fraction(5, 8)
        forcing = make_term(rng.randint(1, 5), base, 0, 0)
        ps = particular_solution(rec, forcing)
        has_secular = any(k >= 1 for _, _, k in ps.terms)
        assert has_secular == resonant


def test_linsolve_pivots_exactly_on_huge_rationals():
    # pivot sizes beyond the float range: the solve stays exact
    big = Fraction(10) ** 400
    x = linsolve([[big, 1], [1, big]], [1, 2])
    det = big * big - 1
    assert x == [QQi((big - 2) / det), QQi((2 * big - 1) / det)]
