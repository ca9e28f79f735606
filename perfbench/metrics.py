"""Metric names and the arithmetic behind them (no dependency on the code
under test, so the statistics can be tested on their own)."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: end-to-end metrics (measured with tracing off) and their units
END_TO_END = {
    "report_p50_ms": "ms",
    "report_tail_ms": "ms",
    "reports_per_s": "1/s",
    "cost_slope": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced run): layer name -> {suffix: unit}
LAYERS = {
    "renorm.expand": {"ms": "ms", "share": "%", "calls": "count",
                      "terms": "count"},
    "renorm.collect": {"ms": "ms", "share": "%"},
    "renorm.system": {"ms": "ms", "share": "%"},
    "renorm.flows": {"ms": "ms", "share": "%", "steps": "count"},
    "renorm.assemble": {"ms": "ms", "share": "%"},
    "renorm.evaluate": {"ms": "ms", "share": "%", "calls": "count",
                        "points": "count", "calls_per_point": "1"},
    "scalars": {"max_bits": "bits"},
    "renorm.residual": {"self_ms": "ms", "self_share": "%"},
    "cases.oracle": {"ms": "ms", "share": "%", "points": "count",
                     "fail": "count"},
    "cases.reduction": {"ms": "ms", "share": "%"},
    "verify.compare": {"self_ms": "ms", "self_share": "%"},
    "verify.serialize": {"ms": "ms", "share": "%", "bytes": "B"},
    "verify.order_fit": {"ms": "ms", "share": "%"},
    "report": {"self_ms": "ms", "self_share": "%"},
    "trace": {"reports": "count", "reports_per_s": "1/s",
              "untraced_reports_per_s": "1/s", "overhead": "%"},
}

PER_LAYER = {f"{layer}.{suffix}": unit
             for layer, suffixes in LAYERS.items()
             for suffix, unit in suffixes.items()}

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
#: samples a tail percentile must leave beyond it
MIN_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest of TAIL_PERCENTILES with at least MIN_BEYOND samples
    beyond it: (value, percentile, samples beyond).  With fewer than
    2 * MIN_BEYOND samples no percentile qualifies and the maximum is
    returned as percentile 100."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)        # nearest-rank, 1-based
        if n - rank >= MIN_BEYOND:
            return xs[rank - 1], p, n - rank
    return xs[-1], 100.0, 0


def within_slope(points: Iterable[Tuple[str, float, float]]) -> float:
    """Least-squares slope of y on x with one intercept per group: the
    common slope of several ladders whose costs differ by a factor."""
    groups: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for g, x, y in points:
        groups[g].append((x, y))
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        raise ValueError("no ladder varies its window length")
    return sxy / sxx


def cost_slope(samples: Iterable[Tuple[str, str, int, float]]) -> float:
    """Slope of log(median report time per rung) on log(window length),
    within each ladder family.  ``samples`` are successful reports as
    (family, rung, window, seconds)."""
    rungs: Dict[Tuple[str, str], List[Tuple[int, float]]] = defaultdict(list)
    for family, rung, window, dt in samples:
        rungs[(family, rung)].append((window, dt))
    return within_slope(
        (family, math.log(statistics.median(w for w, _ in vals)),
         math.log(statistics.median(t for _, t in vals)))
        for (family, _), vals in rungs.items())


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance as a
    share of the median), with the quartiles of statistics.quantiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else math.inf
