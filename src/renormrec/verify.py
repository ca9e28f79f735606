"""Numerical verification harness: exact iteration, error metrics over the
asymptotic validity window, ladder order fitting, report generation.

Window convention: the validity window of a first-order renormalized
solution is n in [0, ceil(1/eps)] (1/eta or 1/lam for the homotopy cases,
and [0, N] for the two-point boundary case).  Every sup error is reported
over exactly this window.

Reports serialize to CSV (columns: n, exact_re, exact_im, asym_re, asym_im,
abs_err, residual) and JSON.  Runs are deterministic, so identical inputs
produce byte-identical files; the wall time and the pipeline result are
kept on the in-memory report only and never serialized.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cases import ManifoldResult, Reduction, reduction_pipeline
from .renorm import residual_scan, run_pipeline
from .scalars import to_complex

CSV_HEADER = "n,exact_re,exact_im,asym_re,asym_im,abs_err,residual"

Row = Tuple[int, float, float, float, float, float, float]


@dataclass
class VerificationReport:
    case: str
    params: Dict[str, object]
    window: Tuple[int, int]
    rows: List[Row]
    sup_error: float
    empirical_order: Optional[float] = None
    extras: Dict[str, object] = field(default_factory=dict)
    wall_time: float = 0.0
    #: the run behind the rows: a PipelineResult, or the ManifoldResult of
    #: the fast-slow reduction
    result: object = field(default=None, repr=False, compare=False)

    def to_json_obj(self) -> Dict[str, object]:
        obj: Dict[str, object] = {
            "case": self.case,
            "params": self.params,
            "window": list(self.window),
            "sup_error": self.sup_error,
            "rows": [list(r) for r in self.rows],
        }
        if self.empirical_order is not None:
            obj["empirical_order"] = (
                "inf" if math.isinf(self.empirical_order)
                else self.empirical_order)
        obj.update(self.extras)
        return obj

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=1) + "\n"

    def to_csv_text(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([str(r[0])] + [repr(float(v))
                                                 for v in r[1:]]))
        return "\n".join(lines) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write-then-rename so partially written reports are never observed."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# trajectories and comparison
# ---------------------------------------------------------------------------

def iterate_exact(case, n_max: int, seeds: Optional[Sequence[float]] = None):
    """Ground-truth trajectory of the unexpanded recurrence.

    Initial-value cases iterate directly (floats, divergence-guarded);
    two-point cases evaluate their stable closed form or relaxed solve.
    """
    if isinstance(case, Reduction):
        return case.full_trajectory(n_max)
    return case.exact_trajectory(n_max, seeds)


def extract_envelope(values: Sequence[float], period: int) -> List[Tuple[int, float]]:
    """Local maxima of |y| over sliding windows of one nominal period."""
    pts = []
    for start in range(0, len(values) - period + 1, period):
        k = max(range(start, start + period), key=lambda n: abs(values[n]))
        pts.append((k, abs(values[k])))
    return pts


def envelope_deviation(values: Sequence[float], period: int,
                       target: Callable[[float], float]) -> float:
    """Max relative deviation of the interpolated amplitude envelope from a
    target curve, between the first and last detected maxima."""
    pts = extract_envelope(values, period)
    if len(pts) < 2:
        raise ValueError("trajectory too short for envelope extraction")
    worst = 0.0
    for (n0, v0), (n1, v1) in zip(pts, pts[1:]):
        for n in range(n0, n1 + 1):
            env = v0 + (v1 - v0) * (n - n0) / (n1 - n0)
            t = target(n)
            worst = max(worst, abs(env - t) / abs(t))
    return worst


def compare(asym, exact: Sequence[float], window: Tuple[int, int],
            case=None, residuals: Optional[Sequence[float]] = None,
            case_name: str = "", params: Optional[Dict] = None) -> VerificationReport:
    """Per-n table of exact vs asymptotic values plus residuals; sup error
    over the window."""
    t0 = time.perf_counter()
    lo, hi = window
    if hi >= len(exact):
        raise ValueError("window extends past the computed trajectory")
    rows: List[Row] = []
    sup = 0.0
    for n in range(lo, hi + 1):
        ex = complex(exact[n])
        av = to_complex(asym.evaluate(n))
        err = abs(ex - av)
        sup = max(sup, err)
        res = float(residuals[n - lo]) if residuals is not None else 0.0
        rows.append((n, ex.real, ex.imag, av.real, av.imag, err, res))
    return VerificationReport(
        case=case_name or (case.name if case is not None else ""),
        params=params or (case.params() if case is not None else {}),
        window=(lo, hi), rows=rows, sup_error=sup,
        wall_time=time.perf_counter() - t0)


def order_fit(ladder: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(sup_error) against log(parameter).

    A ladder containing an exactly zero error reports the infinity sentinel.
    """
    if len(ladder) < 3:
        raise ValueError("order fitting needs a ladder of at least 3 points")
    vals = [float(v) for v, _ in ladder]
    if len(set(vals)) != len(vals):
        raise ValueError("ladder parameter values must be distinct")
    errs = [float(e) for _, e in ladder]
    if any(e == 0.0 for e in errs):
        return math.inf
    slope = np.polyfit(np.log(vals), np.log(errs), 1)[0]
    return float(slope)


def manifold_distance(result: ManifoldResult,
                      trajectory: Optional[Sequence[Tuple[float, float]]] = None
                      ) -> List[float]:
    """Per-n distance of a trajectory from the computed invariant manifold."""
    traj = trajectory if trajectory is not None else result.full
    return [abs(y - result.manifold_map(x)) for x, y in traj]


# ---------------------------------------------------------------------------
# per-case report assembly
# ---------------------------------------------------------------------------

def case_report(case, order: int = 1, closure: Optional[str] = None,
                form: str = "power",
                window: Optional[int] = None) -> VerificationReport:
    """Run the full pipeline for one case and compare against the exact
    trajectory over the validity window."""
    hi = case.window() if window is None else case.check_window(window)
    if isinstance(case, Reduction):
        mr = reduction_pipeline(case, n_max=hi)
        dist = manifold_distance(mr)
        rows: List[Row] = []
        sup = 0.0
        for n in range(hi + 1):
            x, y = mr.full[n]
            c = mr.slow[n]
            err = abs(x - c)
            sup = max(sup, err)
            rows.append((n, x, y, c, mr.manifold_map(c), err, dist[n]))
        return VerificationReport(case.name, case.params(), (0, hi), rows,
                                  sup, extras={"distance_sup": max(dist)},
                                  result=mr)
    res = run_pipeline(case, order=order, closure=closure, form=form,
                       horizon=hi)
    gs = res.global_solution
    lookahead = 2
    exact = iterate_exact(case, hi + lookahead)
    residuals, res_sup = residual_scan(gs, case, range(0, hi + 1))
    report = compare(gs, exact, (0, hi), case=case, residuals=residuals)
    report.result = res
    report.extras["residual_sup"] = res_sup
    report.extras["closure"] = closure or case.default_closure
    report.extras["form"] = form
    if case.name == "van-der-pol":
        # the envelope is read off per-period maxima: it needs two periods
        period = math.ceil(2 * math.pi / case.theta)
        if hi + 1 >= 2 * period:
            report.extras["envelope_rel_dev"] = envelope_deviation(
                exact[:hi + 1], period, case.envelope_target())
    return report


def ladder_report(case, values: Sequence, order: int = 1,
                  closure: Optional[str] = None, form: str = "power",
                  window: Optional[int] = None) -> Tuple[VerificationReport, List[Dict]]:
    """Sweep the case's small parameter over ``values``; the returned report
    is the one for the last (finest) value, annotated with the ladder and
    the fitted empirical order."""
    points = []
    last: Optional[VerificationReport] = None
    for v in values:
        c = case.with_small_param(v)
        last = case_report(c, order=order, closure=closure, form=form,
                           window=window)
        points.append({"value": float(v), "sup_error": last.sup_error,
                       "residual_sup": last.extras.get("residual_sup")})
    assert last is not None
    if len(points) >= 3:
        last.empirical_order = order_fit(
            [(p["value"], p["sup_error"]) for p in points])
    last.extras["ladder"] = points
    return last, points
