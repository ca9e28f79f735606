"""renormrec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-window --seed 1 --seconds 35 --trace 0

Run it from the repository root; it imports the package from ``src/``.  One
report is ``verify.case_report`` on a generated case, the text of the report
(CSV or JSON) and ``verify.write_atomic`` into ``perfbench/out/``; each
ladder ends with ``verify.order_fit``.  Reports run in a closed loop, one
process, BLAS pinned to one thread.  Whole rounds of the workload run until
the next round would end after ``--seconds``.

Every report is checked (see checks.py), and round 0 is run again at the end
to check that the same inputs give byte-identical report texts.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each report
both untraced and traced (``case_report`` with spans around its calls into
each layer, see tracing.py), checks that tracing changes no report, and
prints the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object.  Exit status 2 means the
benchmark could not run (no source tree, bad arguments) and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
#: BLAS thread variables pinned before numpy is imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
#: extra set-ups in child processes, spread over the timed loop (the host's
#: speed changes over seconds, and set-ups made back to back all land in one
#: phase); setup_s is the median of these and this process's set-up
SETUP_PROBES = 8


class Sample(NamedTuple):
    family: str
    rung: str
    window: int
    seconds: float
    ok: bool


def parse_args(argv: Optional[List[str]]):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("exact-window", "deep-expansion",
                            "float-nonlinear"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def environment() -> Dict[str, object]:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def timed(fn, *args):
    """(seconds, result or None, error message or None)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
        err = None
    except Exception as exc:       # a failed report is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


class Bench:
    """One workload run: generation, timed reports, checks, metrics."""

    def __init__(self, workload: str, seed: int):
        from renormrec import verify
        import checks
        import workloads
        self.verify, self.checks, self.workloads = verify, checks, workloads
        self.workload, self.seed = workload, seed
        self.out_dir = os.path.join(OUT_DIR, workload)
        os.makedirs(self.out_dir, exist_ok=True)
        self.problems: List[str] = []
        self.round0_texts: List[str] = []

    def rounds(self, seconds: float, between=None):
        """Round indices and ladders, while the next round would end within
        ``seconds`` of the first round's start.  ``between(elapsed)`` runs
        after each round, and its time is not counted in ``seconds``."""
        t0 = time.perf_counter()
        r, last, paused = 0, 0.0, 0.0
        while r == 0 or time.perf_counter() - t0 - paused + last <= seconds:
            start = time.perf_counter()
            yield r, self.workloads.generate(self.workload, self.seed, r)
            last = time.perf_counter() - start
            r += 1
            if between is not None:
                p0 = time.perf_counter()
                between(p0 - t0 - paused)
                paused += time.perf_counter() - p0

    def path(self, li: int, ji: int, job) -> str:
        return os.path.join(self.out_dir, f"{li}-{ji}.{job.fmt}")

    def report(self, job, path: str):
        report = self.verify.case_report(job.case, order=job.order,
                                         closure=job.closure)
        return report, self.serialize(job, report, path)

    def serialize(self, job, report, path: str) -> str:
        text = report.to_csv_text() if job.fmt == "csv" \
            else report.to_json_text()
        self.verify.write_atomic(path, text)
        return text

    def judge(self, job, result, err) -> bool:
        problems = [err] if err else self.checks.check_report(job, *result)
        if problems:
            self.problems.append(f"{job.rung}: {problems[0]}")
        return not problems

    def fit(self, ladder, points, fit_fn) -> float:
        """Time the ladder's order fit; returns its seconds."""
        dt, order, err = timed(fit_fn, points)
        problems = [err] if err else self.checks.check_order_fit(points, order)
        if problems:
            self.problems.append(f"{ladder.family} order fit: {problems[0]}")
        return dt

    def warm_up(self) -> None:
        """One report per ladder of round 0 and one order fit, untimed."""
        ladders = self.workloads.generate(self.workload, self.seed, 0)
        for li, ladder in enumerate(ladders):
            job = ladder.jobs[0]
            self.report(job, self.path(li, 0, job))
        self.verify.order_fit([(0.1, 1.0), (0.2, 2.0), (0.4, 3.0)])

    def recheck_round0(self) -> None:
        """Criterion 10: the same inputs give byte-identical report texts."""
        ladders = self.workloads.generate(self.workload, self.seed, 0)
        jobs = [(li, ji, job) for li, ladder in enumerate(ladders)
                for ji, job in enumerate(ladder.jobs)]
        for (li, ji, job), before in zip(jobs, self.round0_texts):
            try:
                _, text = self.report(job, self.path(li, ji, job))
            except Exception as exc:
                text = f"{type(exc).__name__}: {exc}"
            if text != before:
                self.problems.append(f"{job.rung}: repeated report text "
                                     "is not byte-identical")

    # -- untraced run ----------------------------------------------------

    def measure(self, seconds: float, probe):
        """Samples of every report, per round the successful reports and the
        seconds of report and order-fit time, and SETUP_PROBES results of
        ``probe()``, made between rounds at even steps of the run."""
        samples: List[Sample] = []
        per_round = []
        setups: List[float] = []

        def between(elapsed):
            if elapsed >= (len(setups) + 1) * seconds / (SETUP_PROBES + 1):
                setups.append(probe())

        for r, ladders in self.rounds(seconds, between):
            ok_count, busy = 0, 0.0
            for li, ladder in enumerate(ladders):
                points = []
                for ji, job in enumerate(ladder.jobs):
                    dt, result, err = timed(self.report, job,
                                                 self.path(li, ji, job))
                    ok = self.judge(job, result, err)
                    samples.append(Sample(ladder.family, job.rung,
                                          job.case.window(), dt, ok))
                    ok_count += ok
                    busy += dt
                    if r == 0:
                        self.round0_texts.append(result[1] if result else err)
                    if ok:
                        points.append((self.workloads.small_param(job.case),
                                       result[0].sup_error))
                busy += self.fit(ladder, points, self.verify.order_fit)
            per_round.append((ok_count, busy))
        while len(setups) < SETUP_PROBES:
            setups.append(probe())
        return samples, per_round, setups

    # -- traced run ------------------------------------------------------

    def measure_traced(self, seconds: float):
        import tracing
        tr = tracing.Tracer()
        attempted, failed = 0, 0
        plain_time = traced_time = 0.0
        plain_ok = traced_ok = 0

        def traced(job, path):
            tr.hi = job.case.window()
            with tracing.instrument(tr), tr.span("report"):
                report = self.verify.case_report(job.case, order=job.order,
                                                 closure=job.closure)
                with tr.span("verify.serialize"):
                    text = self.serialize(job, report, path)
            tr.counts["verify.serialize.bytes"] += len(text.encode())
            return report, text

        def traced_fit(points):
            with tracing.instrument(tr):
                return self.verify.order_fit(points)

        for r, ladders in self.rounds(seconds):
            for li, ladder in enumerate(ladders):
                points = []
                for ji, job in enumerate(ladder.jobs):
                    path = self.path(li, ji, job)
                    tr.report += 1
                    # alternate which side runs first
                    if (r + ji) % 2 == 0:
                        dp, plain, perr = timed(self.report, job, path)
                        dt, trc, terr = timed(traced, job, path)
                    else:
                        dt, trc, terr = timed(traced, job, path)
                        dp, plain, perr = timed(self.report, job, path)
                    attempted += 2
                    ok_p = self.judge(job, plain, perr)
                    # tracing must not change the report
                    ok_t = not terr and plain is not None \
                        and trc[1] == plain[1] \
                        and trc[0].sup_error.hex() == plain[0].sup_error.hex()
                    if not ok_t:
                        self.problems.append(
                            f"{job.rung}: traced report differs from the "
                            f"untraced one ({terr or 'text or sup_error'})")
                    failed += (not ok_p) + (not ok_t)
                    if r == 0:
                        self.round0_texts.append(plain[1] if plain else perr)
                    plain_time += dp
                    traced_time += dt
                    plain_ok += ok_p
                    traced_ok += ok_t
                    if ok_p and ok_t:
                        points.append((self.workloads.small_param(job.case),
                                       plain[0].sup_error))
                plain_time += self.fit(ladder, points, self.verify.order_fit)
                tr.report += 1
                traced_time += self.fit(ladder, points, traced_fit)
        values = tracing.layer_metrics(tr)
        plain_rps = plain_ok / plain_time
        traced_rps = traced_ok / traced_time
        values.update({
            "trace.reports": traced_ok,
            "trace.reports_per_s": traced_rps,
            "trace.untraced_reports_per_s": plain_rps,
            "trace.overhead": 100 * (plain_rps / traced_rps - 1),
        })
        return values, attempted, failed


def setup_probe(args) -> float:
    """Set-up time of a fresh process: import, generation and warm-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=150, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(samples: List[Sample], per_round, setups: List[float]):
    """End-to-end metric values, and notes that explain some of them."""
    import metrics
    ok = [s for s in samples if s.ok]
    times_ms = [s.seconds * 1e3 for s in ok]
    tail_ms, pct, beyond = metrics.tail(times_ms)
    values = {
        "report_p50_ms": statistics.median(times_ms),
        "report_tail_ms": tail_ms,
        "reports_per_s": statistics.median(n / t for n, t in per_round),
        "cost_slope": metrics.cost_slope(
            (s.family, s.rung, s.window, s.seconds) for s in ok),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    notes = {
        "report_tail_ms": f"p{pct:g} of {len(ok)} successful reports, "
                          f"{beyond} beyond it",
        "reports_per_s": f"median over {len(per_round)} rounds; "
                         f"{len(ok)} successful reports in "
                         f"{sum(t for _, t in per_round):.3f} s in all",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
    }
    failed = len(samples) - len(ok)
    print(f"fail_ratio        {failed / len(samples):.6g}   "
          f"({failed} of {len(samples)} reports failed)")
    return values, notes


def main(argv: Optional[List[str]] = None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "renormrec", "__init__.py")):
        print(f"perfbench: no renormrec package under {src}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import renormrec
    if not os.path.abspath(renormrec.__file__).startswith(src):
        print(f"perfbench: renormrec imported from {renormrec.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import metrics

    bench = Bench(args.workload, args.seed)
    bench.warm_up()
    setup = time.perf_counter() - t_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        values, attempted, failed = bench.measure_traced(args.seconds)
        names, notes = metrics.PER_LAYER, {}
    else:
        samples, per_round, probes = bench.measure(
            args.seconds, lambda: setup_probe(args))
        attempted = len(samples)
        failed = sum(not s.ok for s in samples)
        values, notes = end_to_end(samples, per_round, [setup] + probes)
        names = metrics.END_TO_END
    bench.recheck_round0()
    for problem in bench.problems[:20]:
        print(f"! {problem}")
    for name, unit in names.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"{name:<34}{values[name]:>14.6g} {unit}{note}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
