"""Tests of the benchmark itself: seeded generation, the report checks, the
span arithmetic and the metric definitions.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import math
import os
from fractions import Fraction

import checks
import metrics
import pytest
import tracing
import workloads
from renormrec import HtrDomainWall, Illustration, Reduction, VanDerPol, verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cases(workload, seed, round_index=0):
    return [(job.rung, repr(job.case), job.order, job.closure, job.fmt)
            for ladder in workloads.generate(workload, seed, round_index)
            for job in ladder.jobs]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_seeded(workload):
    assert _cases(workload, 7) == _cases(workload, 7)
    assert _cases(workload, 7) != _cases(workload, 8)
    assert _cases(workload, 7, 0) != _cases(workload, 7, 1)
    # the rung structure does not depend on the seed
    assert [c[0] for c in _cases(workload, 7)] \
        == [c[0] for c in _cases(workload, 8)]


def test_every_ladder_can_be_fitted():
    for workload in workloads.WORKLOADS:
        for ladder in workloads.generate(workload, 3, 0):
            params = [workloads.small_param(j.case) for j in ladder.jobs]
            assert len(ladder.jobs) >= 3
            assert len(set(params)) == len(params)


def _job(case, order=1, closure=None, fmt="json"):
    return workloads.Job(case, order, closure, fmt, "test#0")


def _perturbed(report, n, column, delta):
    rows = list(report.rows)
    row = list(rows[n])
    row[column] += delta
    rows[n] = tuple(row)
    return dataclasses.replace(report, rows=rows)


@pytest.mark.parametrize("job", [
    _job(Illustration(Fraction(1, 12), Fraction(2, 3), Fraction(-1, 5)),
         fmt="csv"),
    _job(Illustration(Fraction(1, 4), Fraction(1, 2), Fraction(1, 3)),
         order=4),
    _job(VanDerPol(0.9, Fraction(1, 60), "full", 0.01 + 0.005j),
         closure="full"),
    _job(VanDerPol(0.9, Fraction(1, 60), "linear", 0.01 + 0.005j),
         closure="linear"),
    _job(Reduction(Fraction(1, 40), x0=0.6)),
    _job(HtrDomainWall(lam=0.4)),
], ids=lambda j: f"{j.case.name}-K{j.order}-{j.closure}")
def test_check_accepts_the_report_and_rejects_a_perturbed_one(job):
    report = verify.case_report(job.case, order=job.order,
                                closure=job.closure)

    def text(r):
        return r.to_csv_text() if job.fmt == "csv" else r.to_json_text()

    assert checks.check_report(job, report, text(report)) == []
    scale = max(abs(r[3]) for r in report.rows)
    # a wrong asymptotic value, a wrong exact value, a wrong text
    bad_asym = _perturbed(report, len(report.rows) // 2, 3, 1e-6 * scale)
    assert checks.check_report(job, bad_asym, text(bad_asym))
    bad_exact = _perturbed(report, 3, 1, 1e-6 * scale)
    assert checks.check_report(job, bad_exact, text(bad_exact))
    assert checks.check_report(job, report, text(bad_asym))
    short = dataclasses.replace(report, rows=report.rows[:-1])
    assert checks.check_report(job, short, text(short))


def test_van_der_pol_check_tells_the_closures_apart():
    case = VanDerPol(0.9, Fraction(1, 60), "full", 0.02)
    linear = dataclasses.replace(case, closure="linear")
    report = verify.case_report(linear, closure="linear")
    # the linear-closure answer is not the full-closure flow
    assert checks.check_report(_job(case, closure="full"), report,
                               report.to_json_text())


def test_order_fit_check():
    pts = [(0.1, 0.02), (0.05, 0.011), (0.025, 0.0049)]
    fitted = verify.order_fit(pts)
    assert checks.check_order_fit(pts, fitted) == []
    assert checks.check_order_fit(pts, fitted * (1 + 1e-6))
    assert checks.check_order_fit([(0.1, 0.0)] + pts[1:], math.inf) == []


def test_self_time_subtracts_the_covered_part_of_children():
    S = tracing.Span
    spans = [S("report", 0.0, 10.0, None, 0),
             S("renorm.residual", 1.0, 5.0, 0, 0),
             S("renorm.evaluate", 1.5, 2.0, 1, 0),
             S("renorm.evaluate", 3.0, 4.5, 1, 0),
             S("verify.compare", 6.0, 9.0, 0, 0),
             S("renorm.evaluate", 6.0, 9.0, 4, 0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 0.5, 1.5, 0.0, 3.0]
    # overlapping or out-of-range children are counted once and clipped
    odd = [S("a", 0.0, 4.0, None, 0), S("b", -1.0, 2.0, 0, 0),
           S("c", 1.0, 3.0, 0, 0)]
    assert tracing.self_times(odd)[0] == 1.0


def _consistent(report, n, delta):
    """The report with exact value n moved by delta, and abs_err and
    sup_error recomputed, so only a check of the exact column can see it."""
    rows = [list(r) for r in report.rows]
    rows[n][1] += delta
    for r in rows:
        r[5] = abs(complex(r[1], r[2]) - complex(r[3], r[4]))
    rows = [tuple(r) for r in rows]
    return dataclasses.replace(report, rows=rows,
                               sup_error=max(r[5] for r in rows))


@pytest.mark.parametrize("case", [
    Illustration(Fraction(1, 12), Fraction(2, 3), Fraction(-1, 5)),
    HtrDomainWall(lam=0.2),
], ids=lambda c: c.name)
@pytest.mark.parametrize("n", [0, 2])
def test_check_rejects_a_wrong_exact_column(case, n):
    job = _job(case)
    report = verify.case_report(case)
    assert checks.check_report(job, report, report.to_json_text()) == []
    bad = _consistent(report, n, 1e-6)
    assert checks.check_report(job, bad, bad.to_json_text())


def test_tracing_times_case_report_in_place():
    originals = {attr: getattr(module, attr)
                 for module, attr, _ in tracing.CALLS}
    evaluate = tracing.GlobalSolution.evaluate
    tr = tracing.Tracer()
    for case, closure in ((Illustration(Fraction(1, 9)), None),
                          (VanDerPol(epsilon=Fraction(1, 40),
                                     closure="full"), "full"),
                          (HtrDomainWall(lam=0.4), None),
                          (Reduction(Fraction(1, 20)), None)):
        tr.report += 1
        tr.hi = case.window()
        with tracing.instrument(tr), tr.span("report"):
            traced = verify.case_report(case, closure=closure)
        plain = verify.case_report(case, closure=closure)
        assert traced.to_json_text() == plain.to_json_text()
    # the wrappers are gone again
    assert all(getattr(module, attr) is originals[attr]
               for module, attr, _ in tracing.CALLS)
    assert tracing.GlobalSolution.evaluate is evaluate
    # illustration at eps = 1/9: the residual scan evaluates n = 0..11 and
    # compare evaluates n = 0..9 again
    names = [s.name for s in tr.spans if s.report == 0]
    assert names == ["report", "renorm.expand", "renorm.collect",
                     "renorm.system", "renorm.flows", "renorm.assemble",
                     "renorm.assemble", "cases.oracle", "renorm.residual"] \
        + ["renorm.evaluate"] * 12 + ["verify.compare"] \
        + ["renorm.evaluate"] * 10
    m = tracing.layer_metrics(tr)
    assert m["renorm.expand.calls"] == 2
    assert 1.8 < m["renorm.evaluate.calls_per_point"] <= 2.0
    assert m["renorm.flows.steps"] > 0 and m["scalars.max_bits"] > 0
    assert m["cases.reduction.ms"] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert metrics.tail(range(1, 101)) == (90, 90.0, 10)
    assert metrics.tail(range(1, 100)) == (50, 50.0, 49)
    assert metrics.tail(range(1, 1011)) == (1000, 99.0, 10)
    assert metrics.tail(range(5)) == (4, 100.0, 0)


def test_cost_slope_is_a_within_ladder_slope():
    samples = []
    for family, scale, power in (("a", 1.0, 1.5), ("b", 40.0, 1.5)):
        for w in (10, 30, 100):
            for noise in (0.9, 1.0, 1.1):
                samples.append((family, f"{family}{w}", w,
                                scale * noise * w ** power))
    assert metrics.cost_slope(samples) == pytest.approx(1.5)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == metrics.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(workloads.WORKLOADS)
