"""Correctness checks on every report the benchmark times.

Each check returns a list of problems; an empty list means the report is
correct.  The references are computed here, independently of the code
under test where that is cheap (the order-K illustration answer, the
van-der-pol amplitude flows, the fast-slow reduction, the order fit); the
order-1 closed answers come from ``published_answer``.  The exact (oracle)
column is checked against the unexpanded recurrence and the case's initial
or boundary values.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import List, Sequence, Tuple

from metrics import within_slope
from renormrec import published_answer

CSV_HEADER = "n,exact_re,exact_im,asym_re,asym_im,abs_err,residual"

#: tolerance of a column against its reference, relative to the largest
#: reference value
RTOL = 1e-9

#: cases whose order-1 answer has a closed form in every closure
_CLOSED = ("illustration", "htr-cubic", "boundary-layer", "htr-domain-wall")


def check_report(job, report, text: str) -> List[str]:
    """Problems with one report and its serialized text."""
    case = job.case
    hi = case.window()
    rows = report.rows
    if report.window != (0, hi):
        return [f"window {report.window} is not (0, {hi})"]
    if [r[0] for r in rows] != list(range(hi + 1)):
        return ["rows do not cover the window n = 0..%d" % hi]
    if not all(math.isfinite(v) for r in rows for v in r[1:]):
        return ["non-finite value in the rows"]
    problems = []
    if case.name != "reduction" and any(
            abs(complex(r[1], r[2]) - complex(r[3], r[4])) != r[5]
            for r in rows):
        problems.append("abs_err is not |exact - asymptotic|")
    if report.sup_error != max(r[5] for r in rows):
        problems.append("sup_error is not the largest abs_err")
    problems += _check_text(job.fmt, report, text)
    if case.name != "reduction":
        problems += _check_exact(case, rows)
    if job.order > 1:
        # the only higher-order rungs are illustration rungs
        problems += _check_illustration(case, job.order, rows)
    elif case.name in _CLOSED or (case.name == "van-der-pol"
                                  and job.closure == "linear"):
        problems += _check_closed(case, rows)
    if case.name == "van-der-pol":
        problems += _check_van_der_pol(case, job.closure, rows)
    if case.name == "reduction":
        problems += _check_reduction(case, rows)
    return problems


def _close(got: Sequence[complex], want: Sequence[complex],
           scale_of: Sequence[complex] = ()) -> float:
    """Largest deviation as a share of the largest magnitude of the
    reference, or of ``scale_of`` when given."""
    scale = max(abs(w) for w in (scale_of or want)) or 1.0
    return max(abs(g - w) for g, w in zip(got, want)) / scale


def _check_text(fmt: str, report, text: str) -> List[str]:
    if fmt == "csv":
        lines = text.split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "" \
                or len(lines) != len(report.rows) + 2:
            return ["CSV text does not have one line per row"]
        parsed = [tuple(float(x) for x in line.split(","))
                  for line in lines[1:-1]]
    else:
        obj = json.loads(text)
        if obj["window"] != list(report.window) \
                or obj["sup_error"] != report.sup_error:
            return ["JSON window or sup_error differs from the report"]
        parsed = [tuple(r) for r in obj["rows"]]
    if parsed != [tuple(r) for r in report.rows]:
        return [f"{fmt} rows differ from the report rows"]
    return []


def _exact_data(case) -> List[Tuple[int, object]]:
    """The values the exact solution takes by definition: initial values,
    boundary values, or the domain wall's y(0) = 1."""
    if case.name == "htr-cubic":
        return [(0, case.B0)]
    if case.name == "htr-domain-wall":
        return [(0, 1)]
    if case.name == "van-der-pol":
        return []                   # its exact column is re-iterated here
    return case.boundary_conditions()


def _check_exact(case, rows) -> List[str]:
    """The exact column solves the unexpanded recurrence on the window and
    takes the case's initial or boundary values."""
    exact = [complex(r[1], r[2]) for r in rows]
    scale = max(abs(v) for v in exact) or 1.0
    worst = max((abs(case.original_residual(exact.__getitem__, n))
                 for n in range(len(rows) - 2)), default=0.0)
    if worst > RTOL * scale:
        return [f"exact column leaves a residual of {worst:.3g} in the "
                "unexpanded recurrence"]
    for n, value in _exact_data(case):
        if abs(exact[n] - complex(value)) > RTOL * scale:
            return [f"exact column misses its data at n = {n}"]
    return []


def _check_closed(case, rows) -> List[str]:
    pub = published_answer(case)
    want = [complex(pub.evaluate(r[0])) for r in rows]
    dev = _close([complex(r[3], r[4]) for r in rows], want)
    if dev > RTOL:
        return [f"asymptotic column is {dev:.3g} (relative) from the "
                "published answer"]
    return []


def illustration_reference(case, order: int, hi: int) -> List[float]:
    """Order-K renormalized answer of y(n+2) + eps y(n+1) + y(n) = 0.

    The exact root of z^2 + eps z + 1 near i is i (sqrt(1 - eps^2/4) +
    i eps/2); the order-K amplitude rate is its Taylor polynomial in eps
    (the odd orders beyond the first add nothing).  Both conjugate modes are
    fitted to y(0) and y(1).
    """
    if case.name != "illustration":
        raise ValueError(f"no order-{order} reference for {case.name}")
    eps = float(case.epsilon)
    rate, coeff = 0.5j * eps, 1.0
    for j in range(1, order // 2 + 1):
        coeff *= (1.5 - j) / j          # binomial(1/2, j)
        rate += coeff * (-eps * eps / 4) ** j
    w = 1j * (1 + rate)
    re = float(case.init0) / 2
    amp = complex(re, (re * w.real - float(case.init1) / 2) / w.imag)
    return [2 * (amp * w ** n).real for n in range(hi + 1)]


def _check_illustration(case, order: int, rows) -> List[str]:
    want = illustration_reference(case, order, len(rows) - 1)
    dev = _close([complex(r[3], r[4]) for r in rows], want)
    if dev > RTOL:
        return [f"asymptotic column is {dev:.3g} (relative) from the "
                f"order-{order} renormalized answer"]
    return []


def van_der_pol_reference(case, hi: int) -> Tuple[List[float], List[float]]:
    """Exact iteration and the first-order renormalized answer.

    Projecting the order-1 forcing (1 - y(n+1)^2)(y(n+2) - y(n)) of
    y0 = A r^n + conj(A) r^-n onto r^n gives (r^2 - 1)(A - |A|^2 A), so the
    full-closure update is Delta A = eps A (1 - |A|^2) and the linear
    closure keeps Delta A = eps A.
    """
    eps, theta, a0 = float(case.epsilon), case.theta, complex(case.amp0)
    c = 2 * math.cos(theta)
    r = cmath.exp(1j * theta)
    ys = [2 * a0.real, 2 * (a0 * (1 + eps) * r).real]
    for n in range(hi - 1):
        w = 1 - ys[n + 1] ** 2
        ys.append((c * ys[n + 1] - (1 + eps * w) * ys[n]) / (1 - eps * w))
    amp, asym = a0, []
    for n in range(hi + 1):
        asym.append(2 * (amp * r ** n).real)
        nonlinear = abs(amp) ** 2 if case.closure == "full" else 0.0
        amp = amp + eps * amp * (1 - nonlinear)
    return ys[:hi + 1], asym


def _check_van_der_pol(case, closure, rows) -> List[str]:
    if closure != case.closure:
        return [f"job closure {closure} differs from the case's {case.closure}"]
    exact, asym = van_der_pol_reference(case, len(rows) - 1)
    problems = []
    if _close([r[1] for r in rows], exact) > RTOL:
        problems.append("exact column differs from the re-computed iteration")
    if _close([complex(r[3], r[4]) for r in rows], asym) > RTOL:
        problems.append(f"asymptotic column does not follow the {closure}-"
                        "closure amplitude flow")
    return problems


def reduction_reference(case, hi: int) -> List[Tuple[float, ...]]:
    """Rows of the default fast-slow pair Dx = -eps x y, Dy = -y + x^2 and
    its slow reduction Dc = -eps c^3 on the manifold y = x^2 + 2 eps x^4."""
    eps = float(case.epsilon)

    def manifold(x):
        return x * x + 2 * eps * x ** 4

    x, y, c = case.x0, manifold(case.x0), case.x0
    out = []
    for n in range(hi + 1):
        out.append((n, x, y, c, manifold(c), abs(x - c), abs(y - manifold(x))))
        x, y, c = x - eps * x * y, x * x, c - eps * c ** 3
    return out


def _check_reduction(case, rows) -> List[str]:
    if case.y0 is not None:
        return ["reduction reference assumes the start on the manifold"]
    ref = reduction_reference(case, len(rows) - 1)
    # |x - c| and |y - manifold(x)| cancel to far below x and y, so their
    # rounding is measured against the size of x and of y
    for col, scale_col in ((1, 1), (2, 2), (3, 3), (4, 4), (5, 1), (6, 2)):
        if _close([r[col] for r in rows], [r[col] for r in ref],
                  [r[scale_col] for r in ref]) > RTOL:
            return [f"reduction column {col} differs from the reference"]
    return []


def check_order_fit(points: Sequence[Tuple[float, float]], fitted: float) -> List[str]:
    """The order fit must be the least-squares slope of log(error) on
    log(parameter), or infinity when an error is exactly zero."""
    if any(e == 0.0 for _, e in points):
        return [] if fitted == math.inf else ["zero error but finite order"]
    want = within_slope(("", math.log(v), math.log(e)) for v, e in points)
    if not abs(fitted - want) <= RTOL * max(1.0, abs(want)):
        return [f"order fit {fitted!r} is not the least-squares slope {want!r}"]
    return []

