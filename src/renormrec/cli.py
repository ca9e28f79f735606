"""Command-line front end: run cases, sweep parameter ladders, dump
solutions and verification reports.

Examples:

    renormrec run --case illustration --epsilon 0.05 --output csv
    renormrec run --case boundary-layer --ladder 0.04,0.02,0.01 --gate 'order>=1.7'
    renormrec run --case htr-domain-wall --lambda 0.2 --dump-solution
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .cases import CASE_REGISTRY, ManifoldResult, case_from_config
from .verify import VerificationReport, case_report, ladder_report, write_atomic

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_GATE = 2

_GATE_RE = re.compile(r"^(order|sup_error)\s*(>=|<=)\s*([-+0-9.eE]+)$")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; exit 2 is reserved for gate failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"argument error: {message}")


@dataclass
class RunConfig:
    case_name: Optional[str] = None
    config_path: Optional[str] = None
    overrides: Dict[str, object] = field(default_factory=dict)
    order: int = 1
    closure: Optional[str] = None
    window: Optional[int] = None
    ladder: Optional[List[Fraction]] = None
    output: str = "json"
    out_path: Optional[str] = None
    dump_solution: bool = False
    gate: Optional[str] = None


def _parse_number(text: str):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return float(text)


def build_parser() -> _Parser:
    p = _Parser(prog="renormrec",
                description="global asymptotic solutions of perturbed "
                            "recurrences, with verification against exact "
                            "iteration")
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one case end to end")
    run.add_argument("--case", dest="case_name",
                     help="case name (" + ", ".join(sorted(CASE_REGISTRY)) + ")")
    run.add_argument("--config", dest="config_path",
                     help="JSON config document {\"case\":..., \"params\":...}")
    run.add_argument("--epsilon", type=str)
    run.add_argument("--eta", type=str)
    run.add_argument("--lambda", dest="lam", type=str)
    run.add_argument("--theta", type=str)
    run.add_argument("--order", type=int, default=1,
                     help="perturbation expansion order (default 1)")
    run.add_argument("--closure", choices=("linear", "full"))
    run.add_argument("--window", type=int,
                     help="override the comparison window upper bound")
    run.add_argument("--ladder", type=str,
                     help="comma-separated parameter values to sweep")
    run.add_argument("--output", choices=("csv", "json"), default="json")
    run.add_argument("--out-path", dest="out_path")
    run.add_argument("--dump-solution", action="store_true")
    run.add_argument("--gate", type=str,
                     help="acceptance gate, e.g. 'order>=1.7' or "
                          "'sup_error<=1e-3'")
    return p


def config_from_args(args) -> RunConfig:
    cfg = RunConfig(case_name=args.case_name, config_path=args.config_path,
                    order=args.order, closure=args.closure,
                    window=args.window, output=args.output,
                    out_path=args.out_path,
                    dump_solution=args.dump_solution, gate=args.gate)
    for key in ("epsilon", "eta", "lam", "theta"):
        v = getattr(args, key, None)
        if v is not None:
            cfg.overrides[key] = _parse_number(v)
    if args.ladder:
        cfg.ladder = [_parse_number(tok) for tok in args.ladder.split(",")]
    return cfg


def _resolve_case(cfg: RunConfig):
    if cfg.config_path:
        with open(cfg.config_path) as fh:
            doc = json.load(fh)
        if cfg.case_name and cfg.case_name != doc.get("case"):
            raise ValueError("--case disagrees with the config document")
        case = case_from_config(doc)
    else:
        if not cfg.case_name:
            raise ValueError("either --case or --config is required")
        if cfg.case_name not in CASE_REGISTRY:
            raise ValueError(
                f"unknown case {cfg.case_name!r}; known: "
                + ", ".join(sorted(CASE_REGISTRY)))
        case = CASE_REGISTRY[cfg.case_name]()
    return case.with_params(**cfg.overrides)


def _eval_gate(gate: str, report: VerificationReport) -> bool:
    m = _GATE_RE.match(gate.strip())
    if not m:
        raise ValueError(f"cannot parse gate {gate!r}; expected "
                         "'order>=X' or 'sup_error<=X'")
    metric, op, threshold = m.group(1), m.group(2), float(m.group(3))
    if metric == "order":
        value = report.empirical_order
        if value is None:
            raise ValueError("gate on order needs a --ladder run")
    else:
        value = report.sup_error
    return value >= threshold if op == ">=" else value <= threshold


def _dump_solution_doc(report: VerificationReport) -> Dict[str, object]:
    """The solution behind ``report``, from the run that made the report."""
    doc: Dict[str, object] = {"case": report.case, "params": report.params}
    res = report.result
    if isinstance(res, ManifoldResult):
        doc["slow"] = list(res.slow)
        doc["manifold_samples"] = [[x, res.manifold_map(x)]
                                   for x, _ in res.full]
        return doc
    if res.expansion is not None:
        env = dict(res.case.amplitude_initials() or {})
        for p in res.global_solution.parts:
            env.setdefault(p.amp_name, p.flow.value(0))
        doc["orders"] = [yk.substitute(env).map_coeffs(
            lambda c: complex(c)).to_json_obj() for yk in res.expansion.orders]
    doc["samples"] = [[r[0], r[3], r[4]] for r in report.rows]
    doc["residual_scan"] = [[r[0], r[6]] for r in report.rows]
    return doc


def run(cfg: RunConfig) -> int:
    try:
        case = _resolve_case(cfg)
        if cfg.ladder:
            report, _ = ladder_report(case, cfg.ladder, order=cfg.order,
                                      closure=cfg.closure, window=cfg.window)
        else:
            report = case_report(case, order=cfg.order, closure=cfg.closure,
                                 window=cfg.window)
        out_path = cfg.out_path or f"report.{cfg.output}"
        text = report.to_csv_text() if cfg.output == "csv" \
            else report.to_json_text()
        write_atomic(out_path, text)
        written = [out_path]
        if cfg.dump_solution:
            dump_path = re.sub(r"\.(csv|json)$", "", out_path) \
                + ".solution.json"
            doc = _dump_solution_doc(report)
            write_atomic(dump_path,
                         json.dumps(doc, sort_keys=True, indent=1) + "\n")
            written.append(dump_path)
        order_txt = ("" if report.empirical_order is None
                     else f" empirical_order={report.empirical_order:.4g}")
        print(f"case={report.case} window=[{report.window[0]},"
              f"{report.window[1]}] sup_error={report.sup_error:.6g}"
              f"{order_txt} wrote {' '.join(written)}")
        if cfg.gate:
            if not _eval_gate(cfg.gate, report):
                print(f"gate failed: {cfg.gate}", file=sys.stderr)
                return EXIT_GATE
            print(f"gate passed: {cfg.gate}")
        return EXIT_OK
    except (ValueError, ArithmeticError, OSError, RuntimeError,
            NotImplementedError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR
    cfg = config_from_args(args)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
