"""Registry of the worked problems: parameterized descriptors exposing the
original recurrence (the oracle), the perturbation structure the engine
needs, and the closed-form answer used for regression.

Six families:

* ``illustration``    y(n+2) + eps*y(n+1) + y(n) = 0, a weakly detuned
                      oscillator recurrence.
* ``van-der-pol``     y(n+2) - 2cos(theta) y(n+1) + y(n)
                      = eps (1 - y(n+1)^2)(y(n+2) - y(n)).
* ``boundary-layer``  eps*y(n+2) + a*y(n+1) + b*y(n) = 0 with two-point
                      boundary values; the small leading coefficient makes a
                      fast characteristic root, which the composite answer
                      carries as an inner-layer mode anchored at n = N.
* ``reduction``       the fast-slow pair  Dx = eps f(x,y), Dy = -y + g(x),
                      reduced to a slow map on an invariant manifold.
* ``htr-cubic``       Dy = eta (y + y^3), solved through a homotopy from the
                      base operator Dy + y/2 = 0.
* ``htr-domain-wall`` y(n+2) - 2y(n+1) + y(n) = D (y - y^3) with a front
                      profile, solved through a homotopy from a
                      variable-coefficient logistic-kernel base operator.
"""

from __future__ import annotations

import cmath
import collections.abc
import functools
import math
import typing
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .amplitudes import Amplitude
from .lindiff import LinearRecurrence
from .scalars import conj_scalar, to_complex
from .seqalg import ExpBinomSeq, const_seq

#: divergence guard for iterated oracles
DIVERGENCE_LIMIT = 1e6


def _exact(value):
    """Exact config value: rationals, and rational strings such as "1/25",
    become Fractions; floats stay floats."""
    return Fraction(value) if isinstance(value, (str, int, Fraction)) else value


#: config coercion by declared field type; ``object`` marks an exact field
_COERCE = {object: _exact, int: int, float: float, str: str, complex: complex,
           Optional[float]: lambda v: None if v is None else float(v)}


@functools.lru_cache(maxsize=None)
def _config_types(cls) -> Dict[str, object]:
    """Declared type of each config field of a case class; a config field is
    any field that is not a callable."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)
            if typing.get_origin(hints[f.name]) is not collections.abc.Callable}


def _coerced(cls, params: Dict) -> Dict:
    """``params`` as config values of ``cls``, each coerced by its field type."""
    types = _config_types(cls)
    bad = set(params) - set(types)
    if bad:
        raise ValueError(f"unknown parameters for {cls.name}: {sorted(bad)}")
    return {k: _COERCE[types[k]](v) for k, v in params.items()}


def _check_finite(case) -> None:
    """Reject NaN and infinite float or complex config values: they would
    iterate to NaN rows whose sup error reads 0."""
    for key in _config_types(type(case)):
        v = getattr(case, key)
        if isinstance(v, (float, complex)) and not cmath.isfinite(v):
            raise ValueError(f"{key} must be finite, got {v}")


class Case:
    """Base of the case descriptors (frozen dataclasses).

    A case defines ``name``, its dataclass fields (the config keys), the
    oracle ``exact_trajectory`` and ``original_residual``, and for the mode
    engine ``base_recurrence``, ``forcing`` and ``name_for_mode``.  The base
    supplies the rest from ``ladder_param``, the field swept along ladders:
    the small parameter, the window [0, ceil(1/param)], config coercion and
    report parameters by field type, and empty engine hooks.
    """

    family = "tr"
    ladder_param = "epsilon"
    default_closure = "linear"

    def __post_init__(self):
        _check_finite(self)
        value = getattr(self, self.ladder_param)
        v = Fraction(value) if not isinstance(value, float) else value
        if not (0 < v <= Fraction(1, 2)):
            raise ValueError(f"{self.ladder_param} must lie in (0, 1/2], "
                             f"got {value}")

    def params(self) -> Dict[str, object]:
        """Report parameters: exact fields as floats, complex fields split
        into ``_re`` and ``_im``, the other config fields as they are."""
        out: Dict[str, object] = {}
        for key, kind in _config_types(type(self)).items():
            v = getattr(self, key)
            if kind is object:
                out[key] = float(v)
            elif kind is complex:
                out[key + "_re"], out[key + "_im"] = v.real, v.imag
            else:
                out[key] = v
        return out

    def with_params(self, **params) -> "Case":
        """This case with config parameters replaced (coerced by field type)."""
        return replace(self, **_coerced(type(self), params))

    def small_parameter_value(self):
        return getattr(self, self.ladder_param)

    def window(self) -> int:
        return int(math.ceil(1 / float(getattr(self, self.ladder_param))))

    def check_window(self, hi: int) -> int:
        """``hi`` as the end of a comparison window [0, hi]."""
        if hi < 0:
            raise ValueError(f"window end must be >= 0, got {hi}")
        return hi

    def with_small_param(self, v) -> "Case":
        return self.with_params(**{self.ladder_param: v})

    def conjugate_links(self) -> Dict[str, str]:
        return {}

    def extra_amplitudes(self, roots) -> Tuple[Amplitude, ...]:
        return ()

    def amplitude_initials(self) -> Optional[Dict[str, object]]:
        return None

    def boundary_conditions(self) -> Optional[List[Tuple[int, object]]]:
        return None


class ClosedAnswer:
    """A closed-form comparison target: a callable on integers."""

    def __init__(self, fn: Callable[[int], complex], label: str = ""):
        self._fn = fn
        self.label = label

    def evaluate(self, n: int):
        return self._fn(n)

    def evaluate_real(self, n: int) -> float:
        return to_complex(self._fn(n)).real


# ---------------------------------------------------------------------------
# perturbed oscillator (illustration family)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Illustration(Case):
    """y(n+2) + eps y(n+1) + y(n) = 0."""

    epsilon: object = Fraction(1, 10)
    init0: object = Fraction(1)
    init1: object = Fraction(0)

    name = "illustration"

    def base_recurrence(self) -> LinearRecurrence:
        return LinearRecurrence([1, 0, 1])

    def forcing(self, k: int, orders: Sequence[ExpBinomSeq]) -> ExpBinomSeq:
        # order-k right-hand side: -y_{k-1}(n+1)
        return orders[k - 1].shift(1).scale(-1)

    def name_for_mode(self, base, idx: int) -> str:
        return "A" if to_complex(base).imag > 0 else "B"

    def conjugate_links(self) -> Dict[str, str]:
        return {"A": "B", "B": "A"}

    def boundary_conditions(self) -> Optional[List[Tuple[int, object]]]:
        return [(0, self.init0), (1, self.init1)]

    def original_residual(self, y, n: int):
        return y(n + 2) + self.epsilon * y(n + 1) + y(n)

    def exact_trajectory(self, n_max: int,
                         seeds: Optional[Sequence[float]] = None) -> List[float]:
        eps = float(self.epsilon)
        ys = [float(seeds[0]) if seeds else float(self.init0),
              float(seeds[1]) if seeds else float(self.init1)]
        for n in range(n_max - 1):
            nxt = -(eps * ys[n + 1] + ys[n])
            if abs(nxt) > DIVERGENCE_LIMIT:
                raise RuntimeError("iterated trajectory diverged")
            ys.append(nxt)
        return ys[:n_max + 1]

    def published_answer(self, form: str = "power") -> ClosedAnswer:
        """C0 cos(n(eps+pi)/2) + D0 sin(n(eps+pi)/2) fitted to the initial
        values (exp form), or the same two-mode answer with the closed power
        amplitudes (1 +- i eps/2)^n (power form)."""
        eps = float(self.epsilon)
        y0, y1 = float(self.init0), float(self.init1)
        if form == "exp":
            psi = (math.pi + eps) / 2
            C0 = y0
            D0 = (y1 - C0 * math.cos(psi)) / math.sin(psi)
            return ClosedAnswer(
                lambda n: C0 * math.cos(n * psi) + D0 * math.sin(n * psi),
                "trig closed form")
        w = 1 + 0.5j * eps
        a0 = 0.5 * y0 - 0.5j * (y1 + 0.5 * y0 * eps)
        base = 1j * w
        return ClosedAnswer(
            lambda n: (a0 * base ** n + (a0 * base ** n).conjugate()),
            "closed power form")


# ---------------------------------------------------------------------------
# Van der Pol type oscillator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VanDerPol(Case):
    """y(n+2) - 2cos(theta) y(n+1) + y(n) = eps (1-y(n+1)^2)(y(n+2)-y(n))."""

    theta: float = math.pi / 5
    epsilon: object = Fraction(1, 100)
    closure: str = "linear"
    amp0: complex = 0.005 + 0j

    name = "van-der-pol"

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.theta < math.pi:
            raise ValueError("theta must lie in (0, pi)")
        if abs(cmath.exp(2j * self.theta) - 1) < 0.1:
            raise ValueError("theta too close to a resonant angle: the cubic "
                             "third harmonic must stay non-resonant")
        if self.closure not in ("linear", "full"):
            raise ValueError(f"unknown closure {self.closure!r}")

    @property
    def default_closure(self) -> str:
        return self.closure

    def base_recurrence(self) -> LinearRecurrence:
        return LinearRecurrence([1.0, -2.0 * math.cos(self.theta), 1.0])

    def forcing(self, k: int, orders: Sequence[ExpBinomSeq]) -> ExpBinomSeq:
        if k != 1:
            raise NotImplementedError(
                "the cubic nonlinearity is expanded to first order only")
        y0 = orders[0]
        y1s = y0.shift(1)
        w = const_seq(1, y0.anchor) - y1s.product(y1s)
        return w.product(y0.shift(2) - y0)

    def name_for_mode(self, base, idx: int) -> str:
        return "A" if to_complex(base).imag > 0 else "B"

    def conjugate_links(self) -> Dict[str, str]:
        return {"A": "B", "B": "A"}

    def amplitude_initials(self) -> Optional[Dict[str, object]]:
        return {"A": self.amp0, "B": conj_scalar(self.amp0)}

    def original_residual(self, y, n: int):
        c = 2 * math.cos(self.theta)
        eps = float(self.epsilon)
        return (y(n + 2) - c * y(n + 1) + y(n)
                - eps * (1 - y(n + 1) ** 2) * (y(n + 2) - y(n)))

    def asym_seed(self, n: int) -> float:
        """Closed power-form value used to seed the exact iteration."""
        eps = float(self.epsilon)
        v = self.amp0 * (1 + eps) ** n * cmath.exp(1j * n * self.theta)
        return 2 * v.real

    def exact_trajectory(self, n_max: int,
                         seeds: Optional[Sequence[float]] = None) -> List[float]:
        eps = float(self.epsilon)
        c = 2 * math.cos(self.theta)
        if seeds is None:
            seeds = (self.asym_seed(0), self.asym_seed(1))
        ys = [float(seeds[0]), float(seeds[1])]
        for n in range(n_max - 1):
            w = 1 - ys[n + 1] ** 2
            nxt = (c * ys[n + 1] - (1 + eps * w) * ys[n]) / (1 - eps * w)
            if abs(nxt) > DIVERGENCE_LIMIT:
                raise RuntimeError("iterated trajectory diverged")
            ys.append(nxt)
        return ys[:n_max + 1]

    def envelope_target(self) -> Callable[[float], float]:
        a = abs(2 * self.amp0)
        eps = float(self.epsilon)
        return lambda n: a * math.exp(n * eps)

    def published_answer(self, form: str = "power") -> ClosedAnswer:
        eps = float(self.epsilon)
        a0 = complex(self.amp0)
        th = self.theta
        if form == "exp":
            return ClosedAnswer(
                lambda n: 2 * (a0 * cmath.exp(n * (eps + 1j * th))).real,
                "exponential envelope form")
        return ClosedAnswer(
            lambda n: 2 * (a0 * (1 + eps) ** n * cmath.exp(1j * n * th)).real,
            "closed power form")


# ---------------------------------------------------------------------------
# boundary layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryLayerInner(Case):
    """Inner problem of the two-point layer, anchored at the far boundary.

    With y(n) = eps^-n v(n) the recurrence becomes
    v(n+2) + a v(n+1) = -eps b v(n): the small parameter now multiplies the
    lowest shift, so the base is the first-order recurrence
    v(m+1) + a v(m) = 0 in m = n + 1, with the lagged forcing -b v(m-1).
    The engine expands it like any other problem; its renormalized mode,
    times ``scale`` per step, is the fast mode of the composite answer.
    """

    epsilon: object
    a: object
    b: object
    anchor: int

    @property
    def scale(self):
        """Per-step factor of the rescaling y(n) = scale^n v(n)."""
        return 1 / self.epsilon

    def base_recurrence(self) -> LinearRecurrence:
        return LinearRecurrence([1, self.a])

    def forcing(self, k: int, orders: Sequence[ExpBinomSeq]) -> ExpBinomSeq:
        # order-k right-hand side: -b v_{k-1}(m-1)
        return orders[k - 1].shift(-1).scale(-self.b)

    def name_for_mode(self, base, idx: int) -> str:
        return "C"


@dataclass(frozen=True)
class BoundaryLayer(Case):
    """eps y(n+2) + a y(n+1) + b y(n) = 0, y(0) = alpha, y(N) = beta.

    The outer expansion carries the slow root -b/a; the far boundary is met
    through the fast mode of the inner problem (``inner_problem``), which
    the engine adds as an inner layer anchored at n = N.
    """

    epsilon: object = Fraction(1, 100)
    a: object = Fraction(2)
    b: object = Fraction(1)
    N: int = 20
    alpha: object = Fraction(1)
    beta: object = Fraction(1, 2)

    name = "boundary-layer"

    def __post_init__(self):
        super().__post_init__()
        if self.a == 0 or self.b == 0:
            raise ValueError("a and b must be nonzero")
        if self.N < 2:
            raise ValueError("N must be >= 2")

    def window(self) -> int:
        return self.N

    def check_window(self, hi: int) -> int:
        # the two-point solution is defined on [0, N] only
        if hi > self.N:
            raise ValueError(f"window end {hi} lies past the far boundary "
                             f"N = {self.N}")
        return super().check_window(hi)

    def base_recurrence(self) -> LinearRecurrence:
        # the perturbation multiplies the highest shift, so order 0 is the
        # first-order recurrence a y(n+1) + b y(n) = 0
        return LinearRecurrence([self.a, self.b])

    def forcing(self, k: int, orders: Sequence[ExpBinomSeq]) -> ExpBinomSeq:
        # order-k right-hand side: -y_{k-1}(n+2)
        return orders[k - 1].shift(2).scale(-1)

    def name_for_mode(self, base, idx: int) -> str:
        return "A"

    def extra_amplitudes(self, roots) -> Tuple[Amplitude, ...]:
        (root, _), = roots
        return (Amplitude("B0", root, 1),)

    def amplitude_initials(self) -> Optional[Dict[str, object]]:
        # with the far boundary carried by the fast mode, the order-1
        # constant on the slow mode is redundant with A
        return {"B0": Fraction(0)}

    def boundary_conditions(self) -> Optional[List[Tuple[int, object]]]:
        return [(0, self.alpha), (self.N, self.beta)]

    def inner_problem(self) -> BoundaryLayerInner:
        return BoundaryLayerInner(self.epsilon, self.a, self.b, self.N)

    def original_residual(self, y, n: int):
        return self.epsilon * y(n + 2) + self.a * y(n + 1) + self.b * y(n)

    def exact_roots(self) -> Tuple[complex, complex]:
        """Exact characteristic roots of eps z^2 + a z + b (slow, fast)."""
        eps, a, b = (float(self.epsilon), float(self.a), float(self.b))
        disc = cmath.sqrt(a * a - 4 * eps * b)
        slow = (-a + disc) / (2 * eps)
        fast = (-a - disc) / (2 * eps)
        if abs(slow) > abs(fast):
            slow, fast = fast, slow
        return complex(slow), complex(fast)

    def exact_trajectory(self, n_max: Optional[int] = None,
                         seeds=None) -> List[float]:
        """Two-point solution from the exact roots, evaluated stably: the
        fast mode is parameterized relative to the far boundary so no large
        powers are formed."""
        n_max = self.N if n_max is None else n_max
        slow, fast = self.exact_roots()
        alpha, beta, N = float(self.alpha), float(self.beta), self.N
        # y(n) = cs * slow^n + d * fast^(n-N)
        A = np.array([[1.0, complex(fast) ** (-N)],
                      [complex(slow) ** N, 1.0]], dtype=complex)
        cs, d = np.linalg.solve(A, np.array([alpha, beta], dtype=complex))
        out = []
        for n in range(n_max + 1):
            v = cs * slow ** n + d * fast ** (n - N)
            out.append(v.real)
        return out

    def backward_iteration(self) -> List[float]:
        """Iterate the recurrence backward from the far end; backward
        stepping keeps the slow mode dominant, so this is a stable
        cross-check of the closed form."""
        ref = self.exact_trajectory()
        eps, a, b = (float(self.epsilon), float(self.a), float(self.b))
        ys = [0.0] * (self.N + 1)
        ys[self.N] = ref[self.N]
        ys[self.N - 1] = ref[self.N - 1]
        for n in range(self.N - 2, -1, -1):
            ys[n] = -(eps * ys[n + 2] + a * ys[n + 1]) / b
        return ys

    def published_answer(self, form: str = "power") -> ClosedAnswer:
        """A0 (1 + eps b/a^2)^n (-b/a)^n + eps B0 (-b/a)^n + C L(n) with the
        two-point amplitudes A0 = alpha, B0 = 0 and the inner layer

            L(n) = phi^(n-N) - phi^(-N) ((-b/a) (1 + eps b/a^2))^n,
            phi = -a/eps + b/a,

        which vanishes at n = 0, so that y(N) = beta fixes C; exact
        rational arithmetic throughout."""
        eps = Fraction(self.epsilon)
        a, b = Fraction(self.a), Fraction(self.b)
        alpha, beta, N = Fraction(self.alpha), Fraction(self.beta), self.N
        slow = -b / a * (1 + eps * b / (a * a))
        fast = -a / eps + b / a
        if fast == 0:
            raise ValueError("the fast base -a/eps + b/a vanishes "
                             "(a^2 = eps b): no inner layer")

        def layer(n: int):
            return fast ** (n - N) - fast ** -N * slow ** n

        C = (beta - alpha * slow ** N) / layer(N)

        def fn(n: int):
            return alpha * slow ** n + C * layer(n)

        ans = ClosedAnswer(fn, "two-point composite closed form")
        ans.A0 = alpha
        ans.B0 = Fraction(0)
        return ans


# ---------------------------------------------------------------------------
# fast-slow reduction
# ---------------------------------------------------------------------------

def _default_g(x: float) -> float:
    return x * x


def _default_gprime(x: float) -> float:
    return 2 * x


def _default_f(x: float, y: float) -> float:
    return -x * y


@dataclass(frozen=True)
class Reduction(Case):
    """Dx(n) = eps f(x, y),  Dy(n) = -y + g(x)."""

    epsilon: object = Fraction(1, 50)
    f: Callable[[float, float], float] = _default_f
    g: Callable[[float], float] = _default_g
    gprime: Callable[[float], float] = _default_gprime
    x0: float = 0.5
    y0: Optional[float] = None   # None: start on the computed manifold

    name = "reduction"
    family = "reduction"

    def __post_init__(self):
        super().__post_init__()
        for x in (-1.0, -0.5, 0.1, 0.5, 1.0):
            h = 1e-5
            approx = (self.g(x + h) - self.g(x - h)) / (2 * h)
            if abs(approx - self.gprime(x)) > 1e-6 * (1 + abs(approx)):
                raise ValueError(
                    f"gprime is not the derivative of g near x={x}")

    def params(self) -> Dict[str, object]:
        y0 = self.manifold(self.x0) if self.y0 is None else self.y0
        return {**super().params(), "y0": y0}

    def manifold(self, x: float) -> float:
        """Invariant-manifold map y = g(x) - eps g'(x) f(x, g(x)).

        The first-order correction carries the small parameter: checked by
        substituting the order-by-order solution back into the pair of
        update equations (see the tests), the order-eps constant term of the
        fast component is -g'(c) f(c, g(c)), so the on-manifold relation is
        y = g - eps g' f.
        """
        eps = float(self.epsilon)
        return self.g(x) - eps * self.gprime(x) * self.f(x, self.g(x))

    def reduced_update(self, c: float) -> float:
        """Slow update increment: Delta c = eps f(c, g(c))."""
        return float(self.epsilon) * self.f(c, self.g(c))

    def start(self) -> Tuple[float, float]:
        y0 = self.manifold(self.x0) if self.y0 is None else float(self.y0)
        return (float(self.x0), y0)

    def full_trajectory(self, n_max: int) -> List[Tuple[float, float]]:
        eps = float(self.epsilon)
        x, y = self.start()
        out = [(x, y)]
        for _ in range(n_max):
            x, y = x + eps * self.f(x, y), self.g(x)
            if abs(x) > DIVERGENCE_LIMIT or abs(y) > DIVERGENCE_LIMIT:
                raise RuntimeError("iterated trajectory diverged")
            out.append((x, y))
        return out

    def slow_trajectory(self, n_max: int) -> List[float]:
        c = float(self.x0)
        out = [c]
        for _ in range(n_max):
            c = c + self.reduced_update(c)
            out.append(c)
        return out


@dataclass(frozen=True)
class ManifoldResult:
    """Reduction output: slow update, manifold map, trajectories."""

    reduced_update: Callable[[float], float]
    manifold_map: Callable[[float], float]
    slow: Tuple[float, ...]
    full: Tuple[Tuple[float, float], ...]


def reduction_pipeline(case: Reduction, n_max: Optional[int] = None) -> ManifoldResult:
    """Slow reduction of the fast-slow pair: Delta c = eps f(c, g(c)) on the
    manifold y = g(x) - eps g'(x) f(x, g(x))."""
    horizon = n_max if n_max is not None else max(case.window(), 60)
    return ManifoldResult(case.reduced_update, case.manifold,
                          tuple(case.slow_trajectory(horizon)),
                          tuple(case.full_trajectory(horizon)))


# ---------------------------------------------------------------------------
# homotopy cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HtrCubic(Case):
    """Dy(n) = eta (y(n) + y(n)^3), via the base operator Dy + y/2 = 0."""

    eta: object = Fraction(1, 100)
    B0: object = Fraction(1, 10)

    name = "htr-cubic"
    family = "htr"
    ladder_param = "eta"

    def small_parameter_value(self):
        # homotopy parameter, set to 1 at assembly
        return 1

    def base_recurrence(self) -> LinearRecurrence:
        # Dy + y/2 = 0  <=>  y(n+1) - y(n)/2 = 0
        return LinearRecurrence([1, Fraction(-1, 2)])

    def forcing(self, k: int, orders: Sequence[ExpBinomSeq]) -> ExpBinomSeq:
        if k != 1:
            raise NotImplementedError(
                "the cubic homotopy is expanded to first order only")
        y0 = orders[0]
        cube = y0.product(y0).product(y0)
        return y0.scale(Fraction(1, 2) + Fraction(self.eta)) \
            + cube.scale(Fraction(self.eta))

    def name_for_mode(self, base, idx: int) -> str:
        return "K0"

    def amplitude_initials(self) -> Optional[Dict[str, object]]:
        return {"K0": self.B0}

    def original_residual(self, y, n: int):
        return y(n + 1) - y(n) - self.eta * (y(n) + y(n) ** 3)

    def exact_trajectory(self, n_max: int,
                         seeds: Optional[Sequence[float]] = None) -> List[float]:
        eta = float(self.eta)
        y = float(seeds[0]) if seeds else float(self.B0)
        out = [y]
        for _ in range(n_max):
            y = y + eta * (y + y ** 3)
            if abs(y) > DIVERGENCE_LIMIT:
                raise RuntimeError("iterated trajectory diverged")
            out.append(y)
        return out

    def published_answer(self, form: str = "power") -> ClosedAnswer:
        eta, B0 = Fraction(self.eta), Fraction(self.B0)
        return ClosedAnswer(lambda n: B0 * (1 + eta) ** n,
                            "geometric growth closed form")


@dataclass(frozen=True)
class HtrDomainWall(Case):
    """y(n+2) - 2y(n+1) + y(n) = D (y(n) - y(n)^3), y(0)=1, y(inf)=0.

    The homotopy base operator is the first-order logistic-kernel recurrence
    whose solution is A / (1 + exp(lam*n)); lam > 0 stays free and the
    reports carry the residual as a function of lam.
    """

    D: object = Fraction(1)
    lam: float = 0.2
    k: object = Fraction(1)
    n_max: int = 0   # 0: choose automatically from lam

    name = "htr-domain-wall"
    family = "htr-map"
    ladder_param = "lam"

    def __post_init__(self):
        _check_finite(self)
        if self.lam <= 0:
            raise ValueError("lam must be positive")

    def params(self) -> Dict[str, object]:
        return {**super().params(), "n_max": self.horizon()}

    def horizon(self) -> int:
        return self.n_max if self.n_max else int(math.ceil(25 / self.lam))

    def homotopy_base(self) -> str:
        return "logistic-kernel"

    def kernel(self, n: int) -> float:
        return 1.0 / (1.0 + math.exp(self.lam * n))

    def amplitude_names(self) -> Tuple[str, ...]:
        return ("A",)

    def registered_update_rate(self):
        """Closed renormalization update Delta A = k (1 - D) A."""
        return Fraction(self.k) * (1 - Fraction(self.D))

    def original_residual(self, y, n: int):
        D = float(self.D)
        return y(n + 2) - 2 * y(n + 1) + y(n) - D * (y(n) - y(n) ** 3)

    def exact_trajectory(self, n_max: Optional[int] = None,
                         seeds=None) -> List[float]:
        """Two-point solution of the full nonlinear recurrence with y(0)=1
        and y=0 at the far horizon, by damped Newton iteration on the banded
        residual system (the recurrence is too unstable to iterate forward).
        The far end stays at the case horizon even for short requests so the
        returned window is not distorted by the artificial boundary."""
        M = max(self.horizon(), (0 if n_max is None else n_max) + 4)
        D = float(self.D)
        y = np.array([2 * self.kernel(n) for n in range(M + 1)])
        y[0], y[M] = 1.0, 0.0

        def resid(vec):
            return (vec[2:] - 2 * vec[1:-1] + vec[:-2]
                    - D * (vec[:-2] - vec[:-2] ** 3))

        converged = False
        for _ in range(80):
            r = resid(y)
            nr = np.max(np.abs(r))
            if nr < 1e-12:
                converged = True
                break
            # equation i involves y[i], y[i+1], y[i+2]; unknowns y[1..M-1]
            J = np.zeros((M - 1, M - 1))
            for i in range(M - 1):
                for t, w in ((i, 1.0 - D * (1 - 3 * y[i] ** 2)),
                             (i + 1, -2.0), (i + 2, 1.0)):
                    col = t - 1
                    if 0 <= col < M - 1:
                        J[i, col] += w
            step = np.linalg.solve(J, -r)
            damp = 1.0
            for _ in range(40):
                trial = y.copy()
                trial[1:M] += damp * step
                if np.max(np.abs(resid(trial))) < nr:
                    y = trial
                    break
                damp *= 0.5
            else:
                raise RuntimeError("nonlinear two-point solve stalled")
        if not converged:
            raise RuntimeError("nonlinear two-point solve did not converge")
        if np.max(np.abs(y)) > DIVERGENCE_LIMIT:
            raise RuntimeError("two-point solution diverged")
        cut = M if n_max is None else n_max
        return list(y[:cut + 1])

    def published_answer(self, form: str = "power") -> ClosedAnswer:
        lam = self.lam
        return ClosedAnswer(lambda n: 2.0 / (1.0 + math.exp(lam * n)),
                            "front profile closed form")


# ---------------------------------------------------------------------------
# registry / config plumbing
# ---------------------------------------------------------------------------

CASE_REGISTRY = {
    cls.name: cls
    for cls in (Illustration, VanDerPol, BoundaryLayer, Reduction,
                HtrCubic, HtrDomainWall)
}

def case_from_config(doc: Dict) -> Case:
    """Build a case from the JSON config document {"case": ..., "params": ...}."""
    if "case" not in doc:
        raise ValueError('config document needs a "case" key')
    name = doc["case"]
    if name not in CASE_REGISTRY:
        raise ValueError(f"unknown case {name!r}; known: "
                         f"{', '.join(sorted(CASE_REGISTRY))}")
    cls = CASE_REGISTRY[name]
    return cls(**_coerced(cls, doc.get("params", {})))


def case_to_config(case: Case) -> Dict:
    doc_params = {}
    for key in _config_types(type(case)):
        v = getattr(case, key)
        if v is None:
            continue
        if isinstance(v, Fraction):
            doc_params[key] = str(v)
        elif isinstance(v, complex):
            doc_params[key] = v.real if v.imag == 0 else repr(v)
        else:
            doc_params[key] = v
    return {"case": case.name, "params": doc_params}


def published_answer(case, form: str = "power"):
    """The closed-form answer of a case as an evaluable expression."""
    if isinstance(case, Reduction):
        return reduction_pipeline(case)
    return case.published_answer(form)
