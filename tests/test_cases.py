"""Case registry: descriptor validation, oracle sanity (each oracle
reproduces its defining recurrence), engine-vs-closed-form regressions, and
the slow-manifold reduction pipeline."""

import json
import math
from fractions import Fraction

import pytest

from renormrec.cases import (CASE_REGISTRY, BoundaryLayer, HtrCubic,
                             HtrDomainWall, Illustration, Reduction,
                             VanDerPol, case_from_config,
                             case_to_config, published_answer,
                             reduction_pipeline)
from renormrec.renorm import run_pipeline
from renormrec.scalars import QQi, to_complex

ALL_DEFAULT_CASES = [cls() for cls in CASE_REGISTRY.values()]


# -- validation ----------------------------------------------------------------

def test_small_parameter_range_enforced():
    with pytest.raises(ValueError):
        Illustration(epsilon=Fraction(0))
    with pytest.raises(ValueError):
        Illustration(epsilon=Fraction(3, 4))
    with pytest.raises(ValueError):
        HtrCubic(eta=Fraction(-1, 100))


def test_van_der_pol_angle_exclusion():
    with pytest.raises(ValueError):
        VanDerPol(theta=0.01)      # e^{2 i theta} too close to 1
    with pytest.raises(ValueError):
        VanDerPol(theta=math.pi - 0.01)
    VanDerPol(theta=math.pi / 5)   # fine


def test_boundary_layer_validation():
    with pytest.raises(ValueError):
        BoundaryLayer(a=0)
    with pytest.raises(ValueError):
        BoundaryLayer(N=1)


def test_domain_wall_validation():
    with pytest.raises(ValueError):
        HtrDomainWall(lam=0.0)


@pytest.mark.parametrize("make", [
    lambda: Reduction(x0=math.nan), lambda: Reduction(y0=math.inf),
    lambda: VanDerPol(amp0=complex(0, math.nan)),
    lambda: HtrDomainWall(lam=math.nan),
    lambda: Illustration(init1=-math.inf)])
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


def test_reduction_derivative_spot_check():
    with pytest.raises(ValueError, match="derivative"):
        Reduction(gprime=lambda x: 2 * x + 0.1)


# -- oracles -------------------------------------------------------------------

def test_oscillator_oracle_satisfies_recurrence():
    case = Illustration()
    ys = case.exact_trajectory(40)
    for n in range(38):
        r = ys[n + 2] + float(case.epsilon) * ys[n + 1] + ys[n]
        assert abs(r) <= 1e-12


def test_van_der_pol_oracle_satisfies_recurrence():
    case = VanDerPol()
    ys = case.exact_trajectory(120)
    for n in range(118):
        r = case.original_residual(lambda t: ys[t], n)
        assert abs(r) <= 1e-12


def test_cubic_growth_oracle_satisfies_recurrence():
    case = HtrCubic()
    ys = case.exact_trajectory(120)
    for n in range(119):
        assert abs(case.original_residual(lambda t: ys[t], n)) <= 1e-12


def test_boundary_layer_closed_form_satisfies_recurrence():
    case = BoundaryLayer()
    ys = case.exact_trajectory()
    assert ys[0] == pytest.approx(float(case.alpha), abs=1e-12)
    assert ys[case.N] == pytest.approx(float(case.beta), abs=1e-12)
    for n in range(case.N - 1):
        r = case.original_residual(lambda t: ys[t], n)
        assert abs(r) <= 1e-12


def test_domain_wall_two_point_solve_satisfies_recurrence():
    case = HtrDomainWall(lam=0.2)
    ys = case.exact_trajectory()
    assert ys[0] == 1.0
    assert ys[-1] == 0.0
    for n in range(len(ys) - 2):
        assert abs(case.original_residual(lambda t: ys[t], n)) <= 1e-10


def test_divergence_guard():
    case = HtrCubic(eta=Fraction(1, 2), B0=Fraction(3))
    with pytest.raises(RuntimeError, match="diverged"):
        case.exact_trajectory(2000)


# -- engine vs closed-form regression ---------------------------------------------

@pytest.mark.parametrize("case", [Illustration(), VanDerPol(),
                                  BoundaryLayer(), HtrCubic(),
                                  HtrDomainWall()],
                         ids=lambda c: c.name)
def test_engine_matches_closed_answer_pointwise(case):
    gs = run_pipeline(case).global_solution
    pub = case.published_answer("power")
    for n in range(case.window() + 1):
        d = abs(to_complex(gs.evaluate(n)) - to_complex(pub.evaluate(n)))
        assert d <= 1e-9, (n, d)


def test_engine_matches_closed_answer_exp_form():
    case = Illustration()
    gs = run_pipeline(case, form="exp").global_solution
    pub = case.published_answer("exp")
    for n in range(case.window() + 1):
        d = abs(to_complex(gs.evaluate(n)) - complex(pub.evaluate(n)))
        assert d <= 1e-9


def test_boundary_values_exact():
    case = BoundaryLayer()
    gs = run_pipeline(case).global_solution
    assert gs.evaluate(0) == QQi(case.alpha)
    assert gs.evaluate(case.N) == QQi(case.beta)
    dw = HtrDomainWall(lam=0.1)
    gw = run_pipeline(dw).global_solution
    assert to_complex(gw.evaluate(0)) == 1.0


def test_domain_wall_published_profile():
    case = HtrDomainWall(lam=0.4)
    pub = case.published_answer()
    assert pub.evaluate(0) == 1.0
    assert pub.evaluate(10) == pytest.approx(2 / (1 + math.exp(4.0)), rel=1e-15)


# -- reduction pipeline ----------------------------------------------------------

def test_reduced_update_is_cubic_decay():
    case = Reduction(epsilon=Fraction(1, 50))
    mr = reduction_pipeline(case)
    for c in (0.5, 0.3, -0.4):
        assert mr.reduced_update(c) == pytest.approx(-0.02 * c ** 3, rel=1e-12)


def test_manifold_map_carries_first_order_correction():
    case = Reduction(epsilon=Fraction(1, 50))
    mr = reduction_pipeline(case)
    for x in (0.5, 0.2, -0.7):
        assert mr.manifold_map(x) == pytest.approx(
            x * x + 2 * 0.02 * x ** 4, rel=1e-12)


def test_first_order_fast_component_by_substitution():
    """Re-derivation oracle for the order-1 fast component: with
    x1(n) = fbar (n - n0) + b, the fast correction solving
    Dy1 = -y1 + g'(c) x1 is y1(n) = g'(c)(fbar (n-n0) + b - fbar); the
    sign-flipped constant (+fbar) fails the equation."""
    g = lambda x: x * x
    gp = lambda x: 2 * x
    f = lambda x, y: -x * y
    c, b, n0 = 0.7, 0.3, 0
    fbar = f(c, g(c))

    def x1(n):
        return fbar * (n - n0) + b

    def y1_good(n):
        return gp(c) * (fbar * (n - n0) + b - fbar)

    def y1_flipped(n):
        return gp(c) * (fbar * (n - n0) + b + fbar)

    for n in range(-3, 8):
        good = y1_good(n + 1) - y1_good(n) + y1_good(n) - gp(c) * x1(n)
        assert good == pytest.approx(0.0, abs=1e-14)
    flipped = y1_flipped(1) - y1_flipped(0) + y1_flipped(0) - gp(c) * x1(0)
    assert abs(flipped) > 1e-3


def test_frozen_fast_variable_when_drive_vanishes():
    case = Reduction(f=lambda x, y: 0.0, y0=0.35)
    mr = reduction_pipeline(case, n_max=40)
    assert all(mr.reduced_update(c) == 0 for c in (0.1, 0.5))
    assert mr.manifold_map(0.5) == 0.25
    # fast variable slaved to g(x0) after one step, slow variable frozen
    xs = [x for x, _ in mr.full]
    ys = [y for _, y in mr.full]
    assert xs == [xs[0]] * len(xs)
    assert ys[1] == pytest.approx(mr.manifold_map(xs[0]), abs=1e-14)
    assert abs(ys[1] - ys[0]) > 0.05


def test_slow_map_tracks_full_trajectory():
    case = Reduction(epsilon=Fraction(1, 50))
    mr = reduction_pipeline(case, n_max=50)
    for n in range(51):
        assert abs(mr.full[n][0] - mr.slow[n]) <= 5 * 0.02


def test_published_answer_reduction_returns_manifold():
    mr = published_answer(Reduction())
    assert hasattr(mr, "manifold_map")


# -- config plumbing ----------------------------------------------------------------

def test_config_roundtrip_all_cases():
    for case in ALL_DEFAULT_CASES:
        doc = case_to_config(case)
        rebuilt = case_from_config(json.loads(json.dumps(doc)))
        assert rebuilt.name == case.name
        assert rebuilt.params() == case.params()


def test_config_rejects_unknown_case_and_params():
    with pytest.raises(ValueError, match="unknown case"):
        case_from_config({"case": "mystery"})
    with pytest.raises(ValueError, match="unknown parameters"):
        case_from_config({"case": "illustration", "params": {"zeta": 1}})
    with pytest.raises(ValueError, match='"case"'):
        case_from_config({"params": {}})


def test_config_fraction_parameters():
    case = case_from_config({"case": "boundary-layer",
                             "params": {"epsilon": "1/25", "beta": "0.25",
                                        "N": "12"}})
    assert case.epsilon == Fraction(1, 25)
    assert case.beta == Fraction(1, 4)
    assert case.N == 12 and type(case.N) is int
    lam = HtrDomainWall().with_small_param(Fraction(1, 4)).lam
    assert lam == 0.25 and type(lam) is float


def _typed(params):
    return {k: (v, type(v)) for k, v in params.items()}


@pytest.mark.parametrize("case, expected", [
    (Illustration(), {"epsilon": 0.1, "init0": 1.0, "init1": 0.0}),
    (VanDerPol(), {"theta": math.pi / 5, "epsilon": 0.01,
                   "closure": "linear", "amp0_re": 0.005, "amp0_im": 0.0}),
    (VanDerPol(0.9, Fraction(1, 50), "full", 0.01 + 0.004j),
     {"theta": 0.9, "epsilon": 0.02, "closure": "full", "amp0_re": 0.01,
      "amp0_im": 0.004}),
    (BoundaryLayer(), {"epsilon": 0.01, "a": 2.0, "b": 1.0, "N": 20,
                       "alpha": 1.0, "beta": 0.5}),
    (Reduction(), {"epsilon": 0.02, "x0": 0.5, "y0": 0.2525}),
    (Reduction(Fraction(1, 40), x0=0.3, y0=None),
     {"epsilon": 0.025, "x0": 0.3, "y0": 0.090405}),
    (HtrCubic(), {"eta": 0.01, "B0": 0.1}),
    (HtrDomainWall(), {"D": 1.0, "lam": 0.2, "k": 1.0, "n_max": 125}),
], ids=lambda c: getattr(c, "name", ""))
def test_params_pinned(case, expected):
    # exact fields as floats, complex split into _re/_im, int/float/str kept;
    # the reduction reports its on-manifold start, the domain wall its horizon
    assert _typed(case.params()) == _typed(expected)
