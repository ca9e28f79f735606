"""Order-by-order perturbation solve and secular-term renormalization.

Pipeline for a recurrence N(y) = eps * M(y):

1. ``perturb_expand`` solves the order-0 equation with symbolic amplitudes
   attached to the homogeneous modes, then each order-k linear equation with
   the secular terms retained.
2. ``collect_Y`` gathers, per homogeneous mode ``r``, the values and first
   differences of the per-order solutions at the anchor.  For a mode with
   amplitude combination cal_A = A + eps*H + ... the collected series give

       Y0(m) = sum_r cal_A_r r^m,
       Y1(m) = sum_r [ (r-1) cal_A_r + sum_k eps^k sigma_{k,r} r ] r^m,

   where sigma_{k,r} is the coefficient of the degree-1 secular term
   r^n C(n-m,1) in the order-k solution.
3. ``form_renorm_system``: promoting amplitudes to functions of the anchor
   and matching Y1 = Delta Y0 mode by mode cancels the (r-1) cal_A parts and
   leaves the amplitude updates

       Delta A_r(m) = sum_k eps^k sigma_{k,r}(A, B, ..., m),

   one per order-0 amplitude (higher-order homogeneous constants update to
   zero).  A closure policy trims the right-hand side: "linear" keeps only
   the amplitude-linear part, "full" keeps everything.
4. ``solve_renorm`` solves linear-diagonal updates in closed form,
   A(m) = A(0) (1 + rate)^m, and iterates anything else numerically.  The
   closed power form is what the update literally produces; the smooth
   identification (1 + rate)^m ~ exp(rate*m) is kept alongside it and both
   are evaluable.
5. ``assemble_global`` substitutes the solved amplitude flows back into the
   homogeneous-mode content of Y0.  Non-resonant order-eps corrections stay
   inspectable on the expansion object but are not part of the assembled
   closed form, matching the structure of the per-case closed answers.
   When the small parameter multiplies the highest shift, the outer
   expansion above keeps only the slow modes.  The case then supplies a
   rescaled inner problem, which ``add_inner_layer`` runs through the same
   expand, collect, system and flows steps; its renormalized mode, anchored
   at the far boundary, joins the outer solution as a composite (outer plus
   inner layer), and the boundary values fix both amplitudes.

The homotopy variant embeds a target equation N(y) = 0 in the family
(1-eps) L(y) + eps N(y) = 0 for a registered solvable base operator L,
expands in the homotopy parameter, and sets eps = 1 at assembly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .amplitudes import Amplitude, AmpPoly
from .lindiff import (SingularSystemError, char_roots, homogeneous_basis,
                      linsolve, particular_solution)
from .scalars import (as_scalar, is_exact, same_base, scalar_is_zero,
                      scalar_pow, to_complex)
from .seqalg import ExpBinomSeq, make_term, zero_seq


class RenormError(ValueError):
    """Secular structure that the renormalization step cannot absorb."""


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationSolution:
    """Per-order solutions y_0, y_1, ..., y_K with symbolic amplitudes."""

    anchor: int
    epsilon: object
    orders: Tuple[ExpBinomSeq, ...]
    amplitudes: Tuple[Amplitude, ...]
    #: extra per-mode update members (coeff poly, anchor-base) injected by
    #: the homotopy path when non-resonant forcing is frozen at the anchor
    frozen_updates: Tuple[Tuple[object, Tuple[Tuple[AmpPoly, object], ...]], ...] = ()

    @property
    def order0(self) -> ExpBinomSeq:
        return self.orders[0]

    def mode_amplitudes(self) -> Tuple[Amplitude, ...]:
        return tuple(a for a in self.amplitudes if a.eps_power == 0)


def perturb_expand(case, K: int = 1, anchor: int = 0) -> PerturbationSolution:
    """Expand ``case`` to order K: order 0 solved homogeneously with symbolic
    amplitudes, each later order solved with its secular terms retained."""
    if K < 1:
        raise ValueError("expansion order must be >= 1")
    rec = case.base_recurrence()
    roots = char_roots(rec)
    basis = homogeneous_basis(roots, anchor)
    amps: List[Amplitude] = []
    y0 = zero_seq(anchor)
    links = dict(case.conjugate_links())
    for idx, mode in enumerate(basis):
        if mode.max_degree() != 0:
            raise RenormError("repeated homogeneous roots leave no "
                              "single-mode amplitude attachment")
        base = mode.terms[0].base
        name = case.name_for_mode(base, idx)
        if any(a.name == name for a in amps):
            raise RenormError(f"duplicate amplitude name {name!r}")
        amps.append(Amplitude(name, base, 0, links.get(name)))
        y0 = y0 + mode.scale(AmpPoly.var(name))
    orders = [y0]
    extra = {e.eps_power: e for e in case.extra_amplitudes(roots)}
    for k in range(1, K + 1):
        forcing = case.forcing(k, orders)
        yk = particular_solution(rec, forcing)
        if k in extra:
            e = extra[k]
            amps.append(e)
            yk = yk + make_term(AmpPoly.var(e.name), e.base, anchor, 0)
        orders.append(yk)
    return PerturbationSolution(anchor, case.small_parameter_value(),
                                tuple(orders), tuple(amps))


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollectedSeries:
    """Per-mode anchor values and secular coefficients of an expansion.

    ``Y0[k][base]``: order-k contribution to the collected value at the
    anchor.  ``Y1[k][base]``: order-k contribution to the collected first
    difference at the anchor.  ``secular[base][k-1]``: the degree-1 secular
    coefficient of order k on that mode.
    """

    solution: PerturbationSolution
    Y0: Tuple[Dict[object, AmpPoly], ...]
    Y1: Tuple[Dict[object, AmpPoly], ...]
    secular: Dict[object, Tuple[AmpPoly, ...]]
    unmatched: Tuple[Tuple[object, int, int], ...]  # (base, order, degree)


def _as_poly(c) -> AmpPoly:
    return c if isinstance(c, AmpPoly) else AmpPoly.const(c)


def collect_Y(sol: PerturbationSolution) -> CollectedSeries:
    """Collect per-mode values and differences of the orders at the anchor."""
    mode_bases = [a.base for a in sol.mode_amplitudes()]
    Y0: List[Dict[object, AmpPoly]] = []
    Y1: List[Dict[object, AmpPoly]] = []
    secular: Dict[object, List[AmpPoly]] = {b: [] for b in mode_bases}
    unmatched: List[Tuple[object, int, int]] = []
    for k, yk in enumerate(sol.orders):
        y0k: Dict[object, AmpPoly] = {}
        y1k: Dict[object, AmpPoly] = {}
        deg1: Dict[object, AmpPoly] = {}
        for c, r, d in yk.terms:
            p = _as_poly(c)
            if d == 0:
                y0k[r] = y0k.get(r, AmpPoly()) + p
                y1k[r] = y1k.get(r, AmpPoly()) + p * (r - as_scalar(1))
            elif d == 1:
                y1k[r] = y1k.get(r, AmpPoly()) + p * r
                deg1[r] = deg1.get(r, AmpPoly()) + p
                if k >= 1 and not any(same_base(r, b) for b in mode_bases):
                    unmatched.append((r, k, d))
            else:
                if k >= 1 and not any(same_base(r, b) for b in mode_bases):
                    unmatched.append((r, k, d))
        Y0.append(y0k)
        Y1.append(y1k)
        if k >= 1:
            for b in mode_bases:
                hit = AmpPoly()
                for r, p in deg1.items():
                    if same_base(r, b):
                        hit = hit + p
                secular[b].append(hit)
    return CollectedSeries(sol, tuple(Y0), tuple(Y1),
                           {b: tuple(v) for b, v in secular.items()},
                           tuple(unmatched))


# ---------------------------------------------------------------------------
# renormalization system
# ---------------------------------------------------------------------------

#: one update member: (eps power, coefficient polynomial, anchor base s);
#: the member contributes eps^k * poly(A, B, ...) * s^m to Delta(amplitude)(m)
UpdateMember = Tuple[int, AmpPoly, object]

LINEAR = "linear"
FULL = "full"


@dataclass(frozen=True)
class RenormSystem:
    """First-order amplitude updates extracted from the secular terms."""

    unknowns: Tuple[Amplitude, ...]
    updates: Dict[str, Tuple[UpdateMember, ...]]
    epsilon: object
    kind: str  # "linear-diagonal" | "nonlinear"
    closure: str

    def rate(self, name: str):
        """Total eps-weighted linear rate for a linear-diagonal unknown."""
        total = as_scalar(0)
        own = ((name, 1),)
        for k, poly, s in self.updates[name]:
            total = total + scalar_pow(self.epsilon, k) * poly.coefficient(own)
        return total


def form_renorm_system(collected: CollectedSeries,
                       closure: str = LINEAR) -> RenormSystem:
    """One update per amplitude: the order-0 amplitude of each mode absorbs
    that mode's secular coefficients; higher-order homogeneous constants
    update to zero.  Closure "linear" drops amplitude-nonlinear parts."""
    if closure not in (LINEAR, FULL):
        raise ValueError(f"unknown closure policy {closure!r}")
    if collected.unmatched:
        base, order, degree = collected.unmatched[0]
        raise RenormError(
            f"secular term of degree {degree} at order {order} sits on base "
            f"{base!r}, which is not a homogeneous mode")
    sol = collected.solution
    updates: Dict[str, Tuple[UpdateMember, ...]] = {}
    frozen = dict(sol.frozen_updates)
    for amp in sol.amplitudes:
        if amp.eps_power != 0:
            updates[amp.name] = ()
            continue
        members: List[UpdateMember] = []
        for k, sigma in enumerate(collected.secular[amp.base], start=1):
            if closure == LINEAR:
                sigma = sigma.filter_degree(1)
            if not sigma.is_zero(0.0):
                members.append((k, sigma, as_scalar(1)))
        for poly, s in frozen.get(amp.base, ()):
            if closure == LINEAR:
                poly = poly.filter_degree(1)
            if not poly.is_zero(0.0):
                members.append((1, poly, s))
        updates[amp.name] = tuple(members)
    kind = "linear-diagonal"
    for amp in sol.mode_amplitudes():
        own = ((amp.name, 1),)
        for k, poly, s in updates[amp.name]:
            if not same_base(s, 1) \
                    or not (poly - poly.coefficient(own) * AmpPoly.var(amp.name)).is_zero(0.0):
                kind = "nonlinear"
    return RenormSystem(sol.amplitudes, updates, sol.epsilon, kind, closure)


# ---------------------------------------------------------------------------
# amplitude flows
# ---------------------------------------------------------------------------

class Flow:
    """Solved amplitude sequence A(m)."""

    free: bool = False

    def value(self, m: int, form: str = "power"):
        raise NotImplementedError

    def scaled(self, mult) -> "Flow":
        raise NotImplementedError


@dataclass(frozen=True)
class PowerFlow(Flow):
    """A(m) = a0 * (1 + rate)^m; the smooth identification exp(rate*m) is
    carried alongside and selected with form="exp"."""

    a0: object
    rate: object
    free: bool = False

    def value(self, m: int, form: str = "power"):
        if form == "exp":
            return to_complex(self.a0) * cmath.exp(to_complex(self.rate) * m)
        return self.a0 * scalar_pow(as_scalar(1) + self.rate, m)

    def scaled(self, mult) -> "PowerFlow":
        return PowerFlow(self.a0 * mult, self.rate, free=False)


@dataclass(frozen=True)
class ConstFlow(Flow):
    a0: object
    free: bool = False

    def value(self, m: int, form: str = "power"):
        return self.a0

    def scaled(self, mult) -> "ConstFlow":
        return ConstFlow(self.a0 * mult, free=False)


@dataclass(frozen=True)
class TabulatedFlow(Flow):
    """Forward-iterated amplitude values (nonlinear updates)."""

    values: Tuple[object, ...]
    free: bool = False

    def value(self, m: int, form: str = "power"):
        if not 0 <= m < len(self.values):
            raise IndexError(f"amplitude table covers 0..{len(self.values)-1}")
        return self.values[m]

    def scaled(self, mult) -> "TabulatedFlow":
        raise RenormError("iterated amplitude flows cannot be rescaled; "
                          "supply numeric initial values up front")


def solve_renorm(system: RenormSystem,
                 initial: Optional[Dict[str, object]] = None,
                 horizon: int = 0) -> Dict[str, Flow]:
    """Closed-form flows for linear-diagonal systems; forward iteration up
    to ``horizon`` otherwise (numeric initial values required)."""
    flows: Dict[str, Flow] = {}
    if system.kind == "linear-diagonal":
        for amp in system.unknowns:
            members = system.updates[amp.name]
            a0 = as_scalar(initial[amp.name]) if initial and amp.name in initial \
                else as_scalar(1)
            free = not (initial and amp.name in initial)
            if not members:
                flows[amp.name] = ConstFlow(a0, free=free)
            else:
                flows[amp.name] = PowerFlow(a0, system.rate(amp.name), free=free)
        return flows
    if not initial or any(a.name not in initial for a in system.unknowns):
        raise RenormError("nonlinear renormalization updates need numeric "
                          "initial amplitude values")
    if horizon < 1:
        raise ValueError("iteration horizon must be positive for nonlinear "
                         "updates")
    state = {a.name: to_complex(initial[a.name]) for a in system.unknowns}
    tables = {name: [v] for name, v in state.items()}
    for m in range(horizon):
        nxt = {}
        for amp in system.unknowns:
            inc = 0j
            for k, poly, s in system.updates[amp.name]:
                inc += to_complex(scalar_pow(system.epsilon, k)) \
                    * to_complex(poly.substitute(state)) \
                    * to_complex(s) ** m
            nxt[amp.name] = state[amp.name] + inc
        state = nxt
        for name, v in state.items():
            tables[name].append(v)
    return {name: TabulatedFlow(tuple(vals)) for name, vals in tables.items()}


# ---------------------------------------------------------------------------
# global solutions
# ---------------------------------------------------------------------------

class ModeEval:
    def value(self, n: int):
        raise NotImplementedError


@dataclass(frozen=True)
class PowerMode(ModeEval):
    base: object

    def value(self, n: int):
        return scalar_pow(self.base, n)


@dataclass(frozen=True)
class MapMode(ModeEval):
    """Mode given by an arbitrary callable kernel (variable-coefficient
    base operators)."""

    fn: Callable[[int], object]
    label: str = "map"

    def value(self, n: int):
        return self.fn(n)


@dataclass(frozen=True)
class LayerMode(ModeEval):
    """Inner-layer mode of a composite solution, anchored at ``anchor``:

        L(n) = base^(n - anchor) - base^(-anchor) u(n) / u(0),

    where u is the outer part (``outer_flow`` times ``outer_mode``).  The
    layer's value at n = 0 is carried back along the outer mode, so L(0) = 0
    and the boundary value at n = 0 is met by the outer part alone."""

    base: object
    anchor: int
    outer_flow: Flow
    outer_mode: ModeEval

    def __post_init__(self):
        object.__setattr__(self, "_carry", scalar_pow(self.base, -self.anchor)
                           / self._outer(0))

    def _outer(self, n: int):
        return self.outer_flow.value(n) * self.outer_mode.value(n)

    def value(self, n: int):
        return scalar_pow(self.base, n - self.anchor) \
            - self._carry * self._outer(n)


@dataclass(frozen=True)
class Part:
    amp_name: str
    eps_power: int
    mode: ModeEval
    flow: Flow

    def value(self, n: int, epsilon, form: str = "power"):
        """eps^eps_power times the flow times the mode, at ``n``."""
        return scalar_pow(epsilon, self.eps_power) \
            * self.flow.value(n, form) * self.mode.value(n)

    def step_ratio(self, epsilon):
        """``value(n+1) / value(n)`` in the power form when every factor of
        the part is exact and geometric in n, else None (float factors,
        tabulated flows and map or layer modes)."""
        mode, flow = self.mode, self.flow
        exact = (isinstance(mode, PowerMode) and is_exact(mode.base)
                 and isinstance(flow, (PowerFlow, ConstFlow))
                 and is_exact(flow.a0) and is_exact(epsilon))
        if not exact:
            return None
        if isinstance(flow, ConstFlow):
            return as_scalar(mode.base)
        if is_exact(flow.rate):
            return (as_scalar(1) + flow.rate) * mode.base
        return None


def _total(values):
    total = None
    for v in values:
        total = v if total is None else total + v
    return as_scalar(0) if total is None else total


@dataclass(frozen=True)
class GlobalSolution:
    """Assembled asymptotic solution: amplitude flows times modes.

    ``evaluate`` is total on integers; with exact scalars and the power form
    the value is exact.  ``validity_scale`` records the window (in n) over
    which a first-order renormalized solution carries its error contract.
    """

    parts: Tuple[Part, ...]
    epsilon: object
    validity_scale: int
    form: str = "power"
    conjugate_pairs: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        # per-part step ratios, and the cursor (n, part values) of the last
        # power-form call when some part steps; neither is a field, so ==,
        # hash and replace ignore them
        ratios = tuple(p.step_ratio(self.epsilon) for p in self.parts)
        object.__setattr__(self, "_ratios", ratios)
        object.__setattr__(self, "_steps",
                           any(r is not None for r in ratios))
        object.__setattr__(self, "_cursor", None)

    def evaluate(self, n: int, form: Optional[str] = None):
        """Sum of the part values at ``n``.  Called in the power form at
        the n after the last such call, each exact geometric part steps
        from its last value by its ratio (exact, so the value is the same);
        everything else is computed afresh."""
        form = form or self.form
        if not (self._steps and form == "power"):
            return _total([p.value(n, self.epsilon, form)
                           for p in self.parts])
        cursor = self._cursor
        if cursor is not None and cursor[0] == n - 1:
            values = tuple(
                p.value(n, self.epsilon) if ratio is None else last * ratio
                for p, ratio, last in zip(self.parts, self._ratios,
                                          cursor[1]))
        else:
            values = tuple(p.value(n, self.epsilon) for p in self.parts)
        # one tuple, swapped in whole: a concurrent caller sees either cursor
        object.__setattr__(self, "_cursor", (n, values))
        return _total(values)

    def evaluate_real(self, n: int, form: Optional[str] = None) -> float:
        return to_complex(self.evaluate(n, form)).real


def assemble_global(collected: CollectedSeries, flows: Dict[str, Flow],
                    validity_scale: int, form: str = "power") -> GlobalSolution:
    """Substitute solved amplitude flows into the homogeneous-mode content of
    the collected zeroth series."""
    sol = collected.solution
    parts = []
    for amp in sol.amplitudes:
        parts.append(Part(amp.name, amp.eps_power, PowerMode(amp.base),
                          flows[amp.name]))
    pairs = tuple((a.name, a.conjugate_link) for a in sol.amplitudes
                  if a.conjugate_link)
    return GlobalSolution(tuple(parts), sol.epsilon, validity_scale,
                          form=form, conjugate_pairs=pairs)


def add_inner_layer(gs: GlobalSolution, inner, order: int = 1,
                    closure: str = LINEAR) -> GlobalSolution:
    """Composite assembly: add the renormalized mode of the rescaled
    ``inner`` problem to the outer solution ``gs`` as one more free part.

    The inner problem goes through the same expand, collect, system and
    flows steps as the outer one.  Its mode base times the per-step ratio of
    its flow, times the rescaling ``inner.scale``, is the fast base; the
    layer is anchored at ``inner.anchor`` and vanishes at n = 0
    (``LayerMode``).  The outer solution must have exactly one order-0
    part, not yet fitted, for the layer to be carried back along.
    """
    sol = perturb_expand(inner, order)
    system = form_renorm_system(collect_Y(sol), closure)
    amp, = sol.mode_amplitudes()
    flow = solve_renorm(system)[amp.name]
    fast = as_scalar(inner.scale) * amp.base * flow.value(1) / flow.value(0)
    if scalar_is_zero(fast, 0.0):
        raise RenormError("the inner layer's fast base vanishes: its "
                          "renormalized flow cancels the rescaled mode")
    unit, = (p for p in gs.parts if p.eps_power == 0)
    mode = LayerMode(fast, inner.anchor, unit.flow, unit.mode)
    part = Part(amp.name, 0, mode, ConstFlow(as_scalar(1), free=True))
    return replace(gs, parts=gs.parts + (part,))


def apply_boundary(gs: GlobalSolution,
                   conditions: Sequence[Tuple[int, object]]) -> GlobalSolution:
    """Fix the free amplitude initial values from boundary/initial data.

    The number of conditions must match the number of free amplitudes; the
    resulting linear system is solved exactly when the data is exact.
    """
    free = [p for p in gs.parts if p.flow.free]
    if len(free) != len(conditions):
        raise ValueError(f"{len(free)} free amplitudes but "
                         f"{len(conditions)} conditions")
    if not free:
        return gs
    A = []
    b = []
    for n, val in conditions:
        A.append([p.value(n, gs.epsilon, gs.form) for p in free])
        b.append(as_scalar(val) - _total(p.value(n, gs.epsilon, gs.form)
                                         for p in gs.parts if not p.flow.free))
    try:
        mults = linsolve(A, b)
    except SingularSystemError as exc:
        raise SingularSystemError(
            "boundary system is singular for these conditions") from exc
    mult_by_name = {p.amp_name: m for p, m in zip(free, mults)}
    parts = tuple(
        replace(p, flow=p.flow.scaled(mult_by_name[p.amp_name]))
        if p.flow.free else p
        for p in gs.parts)
    return replace(gs, parts=parts)


def residual_scan(gs: GlobalSolution, case, n_range: Sequence[int],
                  form: Optional[str] = None) -> Tuple[List[float], float]:
    """Plug the assembled solution into the original (unexpanded) equation;
    per-n absolute residuals and their sup."""
    n_range = list(n_range)
    cache: Dict[int, complex] = {}

    def y(n: int) -> complex:
        if n not in cache:
            cache[n] = to_complex(gs.evaluate(n, form))
        return cache[n]

    residuals = [abs(case.original_residual(y, n)) for n in n_range]
    sup = max(residuals) if residuals else 0.0
    return residuals, sup


# ---------------------------------------------------------------------------
# homotopy path
# ---------------------------------------------------------------------------

#: registered solvable base operators for the homotopy embedding
HOMOTOPY_BASES = ("logistic-kernel",)


def htr_expand(case, K: int = 1, anchor: int = 0) -> PerturbationSolution:
    """Homotopy expansion: per-order solves under the case's base operator;
    the homotopy parameter is set to 1 at assembly.

    Constant-coefficient base operators go through the generic machinery;
    variable-coefficient ones must be registered (the logistic kernel is the
    only entry) and take the map-mode pipeline instead.  For a first-order
    base operator, non-resonant forcing terms are frozen at the anchor,
    adding anchor-dependent members (coeff * (s/r)^m) to the mode's update;
    the linear closure drops them again, so the closed approximation is
    unchanged while the full update stays inspectable.
    """
    if K != 1:
        raise NotImplementedError("homotopy expansion is first-order only")
    rec = case.base_recurrence()
    sol = perturb_expand(case, K, anchor)
    if rec.order != 1:
        return sol
    (root, _), = char_roots(rec)
    c1 = rec.ascending[1]
    frozen: Dict[object, List[Tuple[AmpPoly, object]]] = {}
    forcing = case.forcing(1, [sol.order0])
    for c, s, d in forcing.terms:
        if same_base(s, root):
            continue
        if d != 0:
            raise NotImplementedError("frozen non-resonant forcing with "
                                      "binomial degree >= 1")
        poly = _as_poly(c) / (c1 * root)
        frozen.setdefault(root, []).append((poly, s / root))
    return replace(sol, frozen_updates=tuple(
        (b, tuple(v)) for b, v in frozen.items()))


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineResult:
    case: object
    expansion: Optional[PerturbationSolution]
    collected: Optional[CollectedSeries]
    system: RenormSystem
    flows: Dict[str, Flow]
    global_solution: GlobalSolution


def _map_mode_pipeline(case, form: str) -> PipelineResult:
    """Registered variable-coefficient homotopy path: the base kernel is the
    mode, the closed update rate comes with the case."""
    if case.homotopy_base() not in HOMOTOPY_BASES:
        raise RenormError(
            f"variable-coefficient base operator {case.homotopy_base()!r} "
            "is not registered; no closed-form homogeneous solve available")
    name = case.amplitude_names()[0]
    amp = Amplitude(name, None, 0)
    rate = as_scalar(case.registered_update_rate())
    members: Tuple[UpdateMember, ...] = ()
    if not (is_exact(rate) and as_scalar(rate) == as_scalar(0)) \
            and abs(to_complex(rate)) > 0:
        members = ((1, AmpPoly.var(name) * rate, as_scalar(1)),)
    system = RenormSystem((amp,), {name: members}, epsilon=1,
                          kind="linear-diagonal", closure="linear")
    flows = solve_renorm(system)
    parts = (Part(name, 0, MapMode(case.kernel, case.homotopy_base()),
                  flows[name]),)
    gs = GlobalSolution(parts, 1, case.window(), form=form)
    gs = apply_boundary(gs, [(0, as_scalar(1))])
    growth = abs(to_complex(as_scalar(1) + rate))
    if growth * math.exp(-case.lam) >= 1.0:
        raise RenormError(
            "far-field boundary value 0 is unreachable: the amplitude flow "
            f"grows faster than the kernel decays (|1+rate| = {growth:.6g})")
    return PipelineResult(case, None, None, system, flows, gs)


def run_pipeline(case, order: int = 1, closure: Optional[str] = None,
                 form: str = "power",
                 horizon: Optional[int] = None) -> PipelineResult:
    """Expansion, renormalization, amplitude solve and assembly for one case.

    ``horizon`` extends the iteration range of tabulated amplitude flows
    beyond the validity window when a longer evaluation is wanted.  The
    reduction family has its own slow-manifold pipeline in the case registry
    and is rejected here.
    """
    if case.family == "reduction":
        raise ValueError("the fast-slow reduction runs through "
                         "reduction_pipeline, not the mode engine")
    closure = closure or case.default_closure
    if case.family == "htr-map":
        return _map_mode_pipeline(case, form)
    if case.family == "htr":
        sol = htr_expand(case, order)
    else:
        sol = perturb_expand(case, order)
    collected = collect_Y(sol)
    system = form_renorm_system(collected, closure)
    validity = case.window()
    flows = solve_renorm(system, case.amplitude_initials(),
                         horizon=max(validity, horizon or 0) + 2)
    gs = assemble_global(collected, flows, validity, form)
    inner_problem = getattr(case, "inner_problem", None)
    if inner_problem is not None:
        gs = add_inner_layer(gs, inner_problem(), order, closure)
    bc = case.boundary_conditions()
    if bc:
        gs = apply_boundary(gs, bc)
    return PipelineResult(case, sol, collected, system, flows, gs)
