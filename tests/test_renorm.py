"""Renormalization engine: per-order expansion, secular collection,
amplitude update extraction, closed flows, assembly and boundary fitting.

The load-bearing identity is checked numerically: after substituting the
solved amplitude flows, the first difference of the collected zeroth series
reproduces the collected first series exactly in the closed power form and
to second order in the small parameter under the smooth identification.
"""

import cmath
import functools
import math
import operator
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from renormrec.amplitudes import Amplitude, AmpPoly
from renormrec.cases import (BoundaryLayer, HtrCubic, HtrDomainWall,
                             Illustration, VanDerPol)
from renormrec.renorm import (ConstFlow, GlobalSolution, MapMode, Part,
                              PowerFlow, PowerMode, RenormError, RenormSystem,
                              apply_boundary, assemble_global, collect_Y,
                              form_renorm_system, htr_expand, perturb_expand,
                              residual_scan, run_pipeline, solve_renorm)
from renormrec.scalars import QQi, scalar_pow, to_complex
from renormrec.seqalg import make_term

I = QQi(0, 1)
EPS = Fraction(1, 10)


# -- expansion ----------------------------------------------------------------

def test_expand_oscillator_order1():
    sol = perturb_expand(Illustration(epsilon=EPS), 1)
    A, B = AmpPoly.var("A"), AmpPoly.var("B")
    assert sol.order0 == make_term(A, I, 0, 0) + make_term(B, -I, 0, 0)
    secular = {r: c for c, r, k in sol.orders[1].terms if k == 1}
    assert secular[I] == A * QQi(0, Fraction(1, 2))
    assert secular[-I] == B * QQi(0, Fraction(-1, 2))


def test_order0_never_secular():
    for case in (Illustration(), VanDerPol(), BoundaryLayer(), HtrCubic()):
        expand = htr_expand if case.family == "htr" else perturb_expand
        sol = expand(case, 1)
        assert sol.order0.max_degree() == 0


def test_secular_coefficients_anchor_independent():
    s0 = collect_Y(perturb_expand(Illustration(epsilon=EPS), 1, anchor=0))
    s5 = collect_Y(perturb_expand(Illustration(epsilon=EPS), 1, anchor=5))
    for base in s0.secular:
        assert s0.secular[base] == s5.secular[base]


def test_boundary_layer_expansion():
    case = BoundaryLayer()
    sol = perturb_expand(case, 1)
    rho = QQi(Fraction(-1, 2))
    A, B0 = AmpPoly.var("A"), AmpPoly.var("B0")
    assert sol.order0 == make_term(A, rho, 0, 0)
    # order 1 carries its own homogeneous constant plus the secular term
    expected = make_term(B0, rho, 0, 0) \
        + make_term(A * QQi(Fraction(1, 4)), rho, 0, 1)
    assert sol.orders[1] == expected
    assert [a.name for a in sol.amplitudes] == ["A", "B0"]
    assert sol.amplitudes[1].eps_power == 1


# -- renormalization systems ---------------------------------------------------

def test_oscillator_updates():
    col = collect_Y(perturb_expand(Illustration(epsilon=EPS), 1))
    sys = form_renorm_system(col)
    assert sys.kind == "linear-diagonal"
    assert sys.rate("A") == QQi(0, Fraction(1, 20))
    assert sys.rate("B") == QQi(0, Fraction(-1, 20))


def test_oscillator_second_order_rate():
    col = collect_Y(perturb_expand(Illustration(epsilon=EPS), 2))
    sys = form_renorm_system(col)
    # rate = i eps/2 - eps^2/8
    assert sys.rate("A") == QQi(-Fraction(1, 800), Fraction(1, 20))


def test_van_der_pol_closures():
    case = VanDerPol()
    col = collect_Y(perturb_expand(case, 1))
    lin = form_renorm_system(col, "linear")
    assert lin.kind == "linear-diagonal"
    assert abs(to_complex(lin.rate("A")) - float(case.epsilon)) < 1e-12
    full = form_renorm_system(col, "full")
    assert full.kind == "nonlinear"
    ((k, poly, s),) = full.updates["A"]
    A, B = AmpPoly.var("A"), AmpPoly.var("B")
    assert poly.allclose(A - A * A * B, 1e-12)


def test_boundary_layer_update_splits():
    case = BoundaryLayer()
    sys = form_renorm_system(collect_Y(perturb_expand(case, 1)))
    assert sys.rate("A") == QQi(Fraction(1, 400))   # eps * b / a^2
    assert sys.updates["B0"] == ()


@pytest.mark.parametrize("eps,a,b", [
    (Fraction(1, 100), Fraction(2), Fraction(1)),
    (Fraction(1, 50), Fraction(7, 2), Fraction(3, 2)),
])
def test_boundary_layer_inner_rate(eps, a, b):
    case = BoundaryLayer(epsilon=eps, a=a, b=b)
    sol = perturb_expand(case.inner_problem(), 1)
    sys = form_renorm_system(collect_Y(sol))
    assert sys.kind == "linear-diagonal"
    assert sys.rate("C") == QQi(-eps * b / (a * a))
    # the assembled layer runs on the fast base -a/eps + b/a
    layer = run_pipeline(case).global_solution.parts[-1]
    assert layer.amp_name == "C"
    assert layer.mode.base == QQi(-a / eps + b / a)


def test_unmatched_secular_mode_rejected():
    sol = perturb_expand(Illustration(epsilon=EPS), 1)
    rogue = sol.orders[1] + make_term(AmpPoly.var("A"), 3, 0, 1)
    bad = type(sol)(sol.anchor, sol.epsilon, (sol.orders[0], rogue),
                    sol.amplitudes)
    with pytest.raises(RenormError, match="not a homogeneous mode"):
        form_renorm_system(collect_Y(bad))


def test_unknown_closure_rejected():
    col = collect_Y(perturb_expand(Illustration(epsilon=EPS), 1))
    with pytest.raises(ValueError):
        form_renorm_system(col, "truncate-somehow")


# -- flows ---------------------------------------------------------------------

def test_closed_flow_power_and_exp_forms():
    flow = PowerFlow(QQi(1), QQi(0, Fraction(1, 20)))
    assert flow.value(3) == (1 + QQi(0, Fraction(1, 20))) ** 3
    expv = flow.value(3, form="exp")
    assert expv == pytest.approx(cmath.exp(0.05j * 3), abs=1e-12)


def test_cubic_growth_flow_matches_doubling():
    case = HtrCubic()
    res = run_pipeline(case)
    # Delta K0 = (1 + 2 eta) K0 with homotopy parameter 1:
    # K0(m) = B0 (2 + 2 eta)^m = 2^m (1 + eta)^m B0
    eta, B0 = Fraction(case.eta), Fraction(case.B0)
    flow = res.flows["K0"]
    for m in (0, 1, 5, 10):
        assert flow.value(m) == B0 * (2 + 2 * eta) ** m


def test_logistic_update_equilibria():
    """Iterated cubic-saturation update: 0 is a fixed point, amplitudes from
    either side settle on 1/sqrt(k)."""
    B = AmpPoly.var("B")
    k = 1
    sys = RenormSystem(
        unknowns=(Amplitude("B", QQi(1), 0),),
        updates={"B": ((1, B - k * B * B * B, QQi(1)),)},
        epsilon=Fraction(1, 100), kind="nonlinear", closure="full")
    for b0, target in ((0.1, 1.0), (2.0, 1.0), (0.0, 0.0)):
        flows = solve_renorm(sys, {"B": b0}, horizon=5000)
        final = to_complex(flows["B"].value(5000))
        assert abs(final - target) <= 1e-3


def test_nonlinear_solve_requires_initials():
    B = AmpPoly.var("B")
    sys = RenormSystem((Amplitude("B", QQi(1), 0),),
                       {"B": ((1, B * B, QQi(1)),)},
                       Fraction(1, 100), "nonlinear", "full")
    with pytest.raises(RenormError):
        solve_renorm(sys)


# -- assembly and boundary fitting ----------------------------------------------

def test_boundary_fit_two_point_amplitudes():
    case = BoundaryLayer()
    res = run_pipeline(case)
    pub = case.published_answer()
    flow_map = {p.amp_name: p.flow for p in res.global_solution.parts}
    assert flow_map["A"].a0 == QQi(Fraction(pub.A0))
    assert flow_map["B0"].a0 == QQi(Fraction(pub.B0))
    # y(0) = alpha exactly, y(N) = beta exactly
    assert res.global_solution.evaluate(0) == QQi(case.alpha)
    assert res.global_solution.evaluate(case.N) == QQi(case.beta)


def test_two_point_amplitude_identity():
    # the n=0 condition forces A0 + eps*B0 = alpha at every eps
    for eps in (Fraction(1, 25), Fraction(1, 50), Fraction(1, 1000)):
        case = BoundaryLayer(epsilon=eps)
        pub = case.published_answer()
        assert eps * Fraction(pub.B0) == Fraction(case.alpha) - Fraction(pub.A0)


def test_boundary_values_exact_for_other_data():
    for eps in (Fraction(1, 25), Fraction(1, 50), Fraction(1, 100)):
        case = BoundaryLayer(epsilon=eps, a=Fraction(7, 2), b=Fraction(3, 2),
                             N=30, alpha=Fraction(5, 7), beta=Fraction(8, 9))
        gs = run_pipeline(case).global_solution
        assert gs.evaluate(0) == QQi(case.alpha)
        assert gs.evaluate(case.N) == QQi(case.beta)
        pub = case.published_answer()
        for n in range(case.N + 1):
            assert gs.evaluate(n) == QQi(pub.evaluate(n))


def test_boundary_layer_higher_order_rejected():
    # at order 2 the update of A couples to B0, so the system is iterated
    # and needs numeric initial values, which the boundary fit supplies
    # only afterwards: a clean RenormError, not a KeyError
    with pytest.raises(RenormError, match="initial amplitude values"):
        run_pipeline(BoundaryLayer(), order=2)


def test_boundary_needs_matching_condition_count():
    case = Illustration(epsilon=EPS)
    res = run_pipeline(case)
    with pytest.raises(ValueError):
        apply_boundary(res.global_solution, [(0, 1)])


def test_boundary_singular_system():
    case = Illustration(epsilon=EPS)
    col = collect_Y(perturb_expand(case, 1))
    sys = form_renorm_system(col)
    flows = solve_renorm(sys)
    gs = assemble_global(col, flows, case.window())
    from renormrec.lindiff import SingularSystemError
    with pytest.raises(SingularSystemError):
        apply_boundary(gs, [(0, 1), (0, 2)])


def test_reality_with_conjugate_amplitudes():
    case = VanDerPol()
    gs = run_pipeline(case).global_solution
    assert gs.conjugate_pairs
    for n in range(0, 101, 7):
        v = to_complex(gs.evaluate(n))
        assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))


# -- homotopy path ---------------------------------------------------------------

def test_htr_cubic_frozen_update():
    case = HtrCubic()
    sol = htr_expand(case, 1)
    ((base, members),) = sol.frozen_updates
    assert base == QQi(Fraction(1, 2))
    ((poly, s),) = members
    K0 = AmpPoly.var("K0")
    assert poly == K0 ** 3 * QQi(2 * Fraction(case.eta))
    assert s == QQi(Fraction(1, 4))
    # full closure keeps the frozen cubic member, linear closure drops it
    col = collect_Y(sol)
    full = form_renorm_system(col, "full")
    assert len(full.updates["K0"]) == 2
    assert full.kind == "nonlinear"
    lin = form_renorm_system(col, "linear")
    assert len(lin.updates["K0"]) == 1
    assert lin.rate("K0") == 1 + 2 * Fraction(case.eta)


def test_htr_cubic_exact_first_order_solution():
    case = HtrCubic()
    sol = htr_expand(case, 1)
    K0 = AmpPoly.var("K0")
    eta = Fraction(case.eta)
    expected = make_term(K0 * QQi(1 + 2 * eta), Fraction(1, 2), 0, 1) \
        + make_term(K0 ** 3 * QQi(-Fraction(8, 3) * eta), Fraction(1, 8), 0, 0)
    assert sol.orders[1] == expected


def test_htr_domain_wall_flow_and_boundary():
    case = HtrDomainWall(lam=0.2)
    res = run_pipeline(case)
    gs = res.global_solution
    # closed update Delta A = k(1-D) A with D=1: constant amplitude fixed
    # to 2 by the n=0 condition
    assert res.system.rate("A") == QQi(0)
    assert to_complex(gs.evaluate(0)) == 1.0
    for n in (1, 5, 20):
        assert gs.evaluate_real(n) == pytest.approx(
            2 / (1 + math.exp(0.2 * n)), abs=1e-15)


def test_htr_domain_wall_growth_rejected():
    case = HtrDomainWall(D=Fraction(1, 2), lam=0.2)
    with pytest.raises(RenormError, match="far-field"):
        run_pipeline(case)


def test_htr_domain_wall_general_gain_flow():
    # registered update Delta A = k(1-D) A gives A(m) = A0 (k(1-D)+1)^m
    case = HtrDomainWall(D=Fraction(1, 2), k=Fraction(2), lam=0.2)
    rate = case.registered_update_rate()
    assert rate == Fraction(1)
    flow = PowerFlow(QQi(2), QQi(rate))
    for m in (0, 1, 4):
        assert flow.value(m) == QQi(2 * (1 + 1) ** m)


def test_htr_matches_direct_expansion_for_oscillator():
    """Homotopy run with the base operator taken as the linear part of the
    perturbed oscillator reproduces the direct expansion to second order."""

    class OscillatorHomotopy:
        name = "oscillator-homotopy"
        family = "htr"
        default_closure = "linear"

        def __init__(self, epsilon):
            self.epsilon = epsilon

        def small_parameter_value(self):
            return 1

        def window(self):
            return int(math.ceil(1 / float(self.epsilon)))

        def base_recurrence(self):
            from renormrec.lindiff import LinearRecurrence
            return LinearRecurrence([1, 0, 1])

        def forcing(self, k, orders):
            if k != 1:
                raise NotImplementedError
            return orders[0].shift(1).scale(-Fraction(self.epsilon))

        def name_for_mode(self, base, idx):
            return "A" if to_complex(base).imag > 0 else "B"

        def conjugate_links(self):
            return {"A": "B", "B": "A"}

        def extra_amplitudes(self, roots):
            return ()

        def amplitude_initials(self):
            return None

        def boundary_conditions(self):
            return [(0, 1), (1, 0)]

    eps = Fraction(1, 100)
    direct = run_pipeline(Illustration(epsilon=eps)).global_solution
    hom = run_pipeline(OscillatorHomotopy(eps)).global_solution
    # identical amplitude updates, so identical assembled values
    for n in range(0, 101, 10):
        d = abs(to_complex(direct.evaluate(n)) - to_complex(hom.evaluate(n)))
        assert d <= 10 * float(eps) ** 2


def test_unregistered_map_kernel_rejected():
    import dataclasses
    case = HtrDomainWall(lam=0.2)
    bad = dataclasses.replace(case)
    object.__setattr__(bad, "homotopy_base", lambda: "mystery-kernel")
    with pytest.raises(RenormError, match="not registered"):
        run_pipeline(bad)


# -- consistency of the solved flows ----------------------------------------------

def _consistency_residual_sup(case, form):
    """sup over the validity window of |Y1(m) - Delta Y0(m)| after
    substituting the solved amplitude flows."""
    res = run_pipeline(case, form=form)
    col = res.collected
    flows = res.flows
    eps = case.epsilon

    def env(m):
        return {name: flows[name].value(m, form) for name in flows}

    def Y0(m):
        total = 0j
        e = env(m)
        for k, byb in enumerate(col.Y0):
            for base, poly in byb.items():
                total += to_complex(scalar_pow(eps, k)) \
                    * to_complex(poly.substitute(e)) * to_complex(base) ** m
        return total

    def Y1(m):
        total = 0j
        e = env(m)
        for k, byb in enumerate(col.Y1):
            for base, poly in byb.items():
                total += to_complex(scalar_pow(eps, k)) \
                    * to_complex(poly.substitute(e)) * to_complex(base) ** m
        return total

    sup = 0.0
    for m in range(0, 2 * case.window()):
        sup = max(sup, abs(Y1(m) - (Y0(m + 1) - Y0(m))))
    return sup


def test_flow_consistency_power_form_exact():
    sup = _consistency_residual_sup(Illustration(epsilon=EPS), "power")
    assert sup <= 1e-13


def test_flow_consistency_exp_form_second_order():
    sups = []
    for eps in (Fraction(1, 10), Fraction(1, 20), Fraction(1, 40)):
        sups.append((float(eps),
                     _consistency_residual_sup(Illustration(epsilon=eps),
                                               "exp")))
    import numpy as np
    slope = np.polyfit(np.log([e for e, _ in sups]),
                       np.log([s for _, s in sups]), 1)[0]
    assert slope >= 1.7
    # two unit-amplitude modes, each off by eps^2/8 per step
    assert sups[-1][1] <= 0.5 * sups[-1][0] ** 2


# -- residual scans ----------------------------------------------------------------

def test_residual_scan_exact_solution_is_zero():
    """Plugging the exact root combination of the unexpanded oscillator
    equation into the scan gives zero residual."""
    case = Illustration(epsilon=EPS)
    eps = float(EPS)
    root = (-eps + cmath.sqrt(complex(eps * eps - 4))) / 2
    parts = (Part("A", 0, MapMode(lambda n: root ** n, "exact"), ConstFlow(1.0)),
             Part("B", 0, MapMode(lambda n: root.conjugate() ** n, "exact"),
                  ConstFlow(1.0)))
    gs = GlobalSolution(parts, eps, case.window())
    _, sup = residual_scan(gs, case, range(0, 21))
    assert sup <= 1e-12


def test_residual_scan_scales_with_epsilon_squared():
    sups = []
    for eps in (Fraction(1, 10), Fraction(1, 20), Fraction(1, 40)):
        case = Illustration(epsilon=eps)
        gs = run_pipeline(case).global_solution
        _, sup = residual_scan(gs, case, range(0, case.window() + 1))
        sups.append((float(eps), sup))
    import numpy as np
    slope = np.polyfit(np.log([e for e, _ in sups]),
                       np.log([s for _, s in sups]), 1)[0]
    assert slope >= 1.7


# -- stepped window evaluation ---------------------------------------------------

def _part_sum(gs, n, form=None):
    """The value at n as the sum of the part values, in part order."""
    return functools.reduce(operator.add, (
        p.value(n, gs.epsilon, form or gs.form) for p in gs.parts))


EXACT_CASES = {
    "illustration": Illustration(epsilon=Fraction(1, 37), init0=Fraction(2, 3),
                                 init1=Fraction(-1, 5)),
    "htr-cubic": HtrCubic(eta=Fraction(1, 37), B0=Fraction(1, 5)),
    "boundary-layer": BoundaryLayer(Fraction(1, 50), Fraction(7, 2),
                                    Fraction(3, 2), 30, Fraction(5, 7),
                                    Fraction(8, 9)),
}
FLOAT_CASES = {
    "van-der-pol-linear": VanDerPol(closure="linear"),
    "van-der-pol-full": VanDerPol(0.9, Fraction(1, 50), "full",
                                  0.01 + 0.004j),
    "htr-domain-wall": HtrDomainWall(lam=0.3),
    # exact bases and rates, float amplitudes: these parts must not step
    "illustration-float-data": Illustration(epsilon=Fraction(1, 37),
                                            init0=0.3, init1=-0.7),
    "htr-cubic-float-data": HtrCubic(eta=Fraction(1, 37), B0=0.2),
}


def _orders(window):
    up = list(range(window + 1))
    repeated = [n for n in up for _ in range(2)]
    return {"ascending": up, "descending": up[::-1], "repeated": repeated,
            "restarts": up[:5] + up[3:9] + [0] + up[1:]}


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_stepped_evaluation_is_exactly_the_part_sum(name):
    case = EXACT_CASES[name]
    gs = run_pipeline(case).global_solution
    # the exact cases have geometric parts, so ascending calls do step
    assert any(p.step_ratio(gs.epsilon) is not None for p in gs.parts)
    for order in _orders(case.window()).values():
        for n in order:
            assert gs.evaluate(n) == _part_sum(gs, n)


@pytest.mark.parametrize("name", sorted(FLOAT_CASES))
def test_float_evaluation_is_bitwise_the_part_sum(name):
    case = FLOAT_CASES[name]
    gs = run_pipeline(case).global_solution
    for order in _orders(case.window()).values():
        for n in order:
            assert repr(gs.evaluate(n)) == repr(_part_sum(gs, n))


def test_exact_part_under_float_epsilon_does_not_step():
    part = Part("A", 1, PowerMode(QQi(Fraction(1, 3), Fraction(2, 3))),
                ConstFlow(QQi(Fraction(2, 7))))
    gs = GlobalSolution((part,), 0.1, 40)
    for n in range(41):
        assert repr(gs.evaluate(n)) == repr(_part_sum(gs, n))


@pytest.fixture(scope="module")
def exact_solutions():
    # shared by every example, so each one starts from the last one's cursor
    return {name: run_pipeline(case).global_solution
            for name, case in EXACT_CASES.items()}


@given(name=st.sampled_from(sorted(EXACT_CASES)), data=st.data())
def test_stepped_evaluation_in_shuffled_order(exact_solutions, name, data):
    gs = exact_solutions[name]
    order = data.draw(st.permutations(range(EXACT_CASES[name].window() + 1)))
    for n in order:
        assert gs.evaluate(n) == _part_sum(gs, n)


def test_form_switch_does_not_step_from_the_other_form():
    gs = run_pipeline(EXACT_CASES["illustration"]).global_solution
    for n in range(10):
        gs.evaluate(n, "exp")
        assert gs.evaluate(n + 1) == _part_sum(gs, n + 1)
        assert repr(gs.evaluate(n + 2, "exp")) \
            == repr(_part_sum(gs, n + 2, "exp"))


def test_replaced_and_fitted_solutions_start_without_a_cursor():
    case = EXACT_CASES["illustration"]
    col = collect_Y(perturb_expand(case, 1))
    gs = assemble_global(col, solve_renorm(form_renorm_system(col)),
                         case.window())
    for n in range(6):
        gs.evaluate(n)
    fitted = apply_boundary(gs, [(0, case.init0), (1, case.init1)])
    assert fitted.evaluate(6) == _part_sum(fitted, 6)
    assert fitted.evaluate(0) == QQi(case.init0)
    assert fitted.evaluate(1) == QQi(case.init1)
    doubled = replace(gs, parts=tuple(
        replace(p, flow=p.flow.scaled(2)) for p in gs.parts))
    assert doubled.evaluate(6) == 2 * gs.evaluate(6)
    # the cursor is no field: a used solution equals a fresh copy
    fresh = replace(doubled)
    assert fresh == doubled and hash(fresh) == hash(doubled)
