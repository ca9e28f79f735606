"""Traced reports: spans around the public calls into each layer.

``instrument(tracer)`` is a context manager.  While it is open, the module
attributes through which ``verify.case_report`` and ``renorm.run_pipeline``
reach each layer (see ``CALLS``), and ``GlobalSolution.evaluate``, are
replaced by wrappers that record a span around each call; on exit the
originals are put back.  A traced report is therefore ``case_report``
itself: the spans follow the program's own call sequence, and a change to
that sequence (say, evaluating the window once) shows in the per-layer
figures.

The domain wall's registered map-mode pipeline reaches ``solve_renorm`` and
``apply_boundary`` only, so it has flows and assembly spans but no
expansion or collection.  The fast-slow reduction does not use the mode
engine; its ``reduction_pipeline`` is the ``cases.reduction`` layer.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

from renormrec import renorm, verify
from renormrec.renorm import GlobalSolution, TabulatedFlow
from renormrec.scalars import QQi

#: (module, attribute, layer): the calls that get a span, looked up by the
#: program as globals of these modules
CALLS = (
    (renorm, "perturb_expand", "renorm.expand"),
    (renorm, "htr_expand", "renorm.expand"),
    (renorm, "collect_Y", "renorm.collect"),
    (renorm, "form_renorm_system", "renorm.system"),
    (renorm, "solve_renorm", "renorm.flows"),
    (renorm, "assemble_global", "renorm.assemble"),
    (renorm, "apply_boundary", "renorm.assemble"),
    (verify, "iterate_exact", "cases.oracle"),
    (verify, "reduction_pipeline", "cases.reduction"),
    (verify, "residual_scan", "renorm.residual"),
    (verify, "compare", "verify.compare"),
    (verify, "order_fit", "verify.order_fit"),
)

#: layer -> (counter, amount counted from the call's result)
COUNTERS = {
    "renorm.expand": ("renorm.expand.terms",
                      lambda sol: sum(len(o.terms) for o in sol.orders)),
    "renorm.flows": ("renorm.flows.steps",
                     lambda flows: sum(len(f.values) for f in flows.values()
                                       if isinstance(f, TabulatedFlow))),
    "cases.oracle": ("cases.oracle.points", len),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]      # index of the enclosing span
    report: int


class Tracer:
    """Spans and counters of one run, kept in memory.  ``report`` is the id
    of the current report, ``hi`` its window end."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.report = -1
        self.hi: Optional[int] = None
        self.points = set()        # (report, n) evaluated
        self._open: List[int] = []

    def record(self, name: str, start: float, end: float) -> int:
        """Add a span inside the innermost open one; returns its index."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, start, end, parent, self.report))
        return len(self.spans) - 1

    def innermost(self) -> Optional[str]:
        return self.spans[self._open[-1]].name if self._open else None

    @contextmanager
    def span(self, name: str):
        """A span around the block; a raise counts as ``<name>.fail``."""
        idx = self.record(name, perf_counter(), 0.0)
        self._open.append(idx)
        try:
            yield
        except Exception:
            self.counts[name + ".fail"] += 1
            raise
        finally:
            self._open.pop()
            self.spans[idx] = self.spans[idx]._replace(end=perf_counter())


def _traced_call(tr: Tracer, layer: str, fn):
    counter = COUNTERS.get(layer)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if tr.innermost() == layer:
            # htr_expand calls perturb_expand: one span per layer entry
            return fn(*args, **kwargs)
        with tr.span(layer):
            result = fn(*args, **kwargs)
        if counter:
            tr.counts[counter[0]] += counter[1](result)
        return result
    return call


def _traced_evaluate(tr: Tracer, evaluate):
    @functools.wraps(evaluate)
    def call(gs, n, form=None):
        t0 = perf_counter()
        value = evaluate(gs, n, form)
        tr.record("renorm.evaluate", t0, perf_counter())
        tr.points.add((tr.report, n))
        if n == tr.hi and isinstance(value, QQi):
            tr.counts["scalars.max_bits"] = max(
                tr.counts["scalars.max_bits"],
                *(x.bit_length() for x in (value.re.numerator,
                                           value.re.denominator,
                                           value.im.numerator,
                                           value.im.denominator)))
        return value
    return call


@contextmanager
def instrument(tr: Tracer):
    """Record spans into ``tr`` around every call in ``CALLS`` and every
    ``GlobalSolution.evaluate`` made inside the block."""
    saved = [(module, attr, getattr(module, attr))
             for module, attr, _ in CALLS]
    saved.append((GlobalSolution, "evaluate", GlobalSolution.evaluate))
    try:
        for module, attr, layer in CALLS:
            setattr(module, attr, _traced_call(tr, layer,
                                               getattr(module, attr)))
        GlobalSolution.evaluate = _traced_evaluate(tr,
                                                   GlobalSolution.evaluate)
        yield tr
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(tr: Tracer) -> Dict[str, float]:
    """Per-layer totals (ms, counts) and shares of the traced work time,
    which is the time of the root spans: reports and order fits."""
    spans = tr.spans
    selfs = self_times(spans)
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    work = 0.0
    for s, st in zip(spans, selfs):
        total[s.name] += s.end - s.start
        own[s.name] += st
        calls[s.name] += 1
        if s.parent is None:
            work += s.end - s.start
    out: Dict[str, float] = {}
    for name in ("renorm.expand", "renorm.collect", "renorm.system",
                 "renorm.flows", "renorm.assemble", "renorm.evaluate",
                 "cases.oracle", "cases.reduction", "verify.serialize",
                 "verify.order_fit"):
        out[f"{name}.ms"] = total[name] * 1e3
        out[f"{name}.share"] = 100 * total[name] / work
    for name in ("renorm.residual", "verify.compare", "report"):
        out[f"{name}.self_ms"] = own[name] * 1e3
        out[f"{name}.self_share"] = 100 * own[name] / work
    out["renorm.expand.calls"] = calls["renorm.expand"]
    out["renorm.evaluate.calls"] = calls["renorm.evaluate"]
    out["renorm.evaluate.points"] = len(tr.points)
    out["renorm.evaluate.calls_per_point"] = (
        calls["renorm.evaluate"] / len(tr.points) if tr.points else 0.0)
    for key in ("renorm.expand.terms", "renorm.flows.steps",
                "scalars.max_bits", "cases.oracle.points",
                "cases.oracle.fail", "verify.serialize.bytes"):
        out[key] = tr.counts[key]
    return out
