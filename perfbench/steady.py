"""Steadiness mode: repeat each workload over several seeds and report the
spread of every end-to-end metric.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads exact-window --save a.json
    python3 perfbench/steady.py --runs 10 --baseline a.json

For each workload and metric it prints the median, the quartiles and their
distance as a share of the median, the bound in BENCHMARK.json, and a bound
derived from the spread: three times the largest spread over the workloads,
rounded up to a percent, at least 5% and at most 25% (setup_s always gets
25%, the largest bound).  A spread above a third of its bound is flagged.
With ``--baseline`` (a file written by ``--save``) it also flags every
median that is worse than the baseline's by more than the bound.  Runs are
sequential, one process at a time, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_BOUND = 0.25
MIN_BOUND = 0.05


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run\n"
                           + out.stdout)
    return {k: v["value"] for k, v in result["metrics"].items()}


def derived_bound(name: str, spreads: List[float]) -> float:
    if name == "setup_s":
        return MAX_BOUND
    return min(MAX_BOUND, max(MIN_BOUND, math.ceil(300 * max(spreads)) / 100))


def main() -> int:
    sys.path.insert(0, HERE)
    import metrics
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--save", help="write the measured values to this file")
    p.add_argument("--baseline", help="compare medians with a saved file")
    args = p.parse_args()

    values: Dict[str, Dict[str, List[float]]] = {}
    for workload in args.workloads.split(","):
        values[workload] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for name, v in run_once(workload, seed, args.seconds).items():
                values[workload].setdefault(name, []).append(v)
            print(f"# {workload} seed {seed} done", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(values, fh, indent=1)
    base = None
    if args.baseline:
        with open(args.baseline) as fh:
            base = json.load(fh)

    spreads: Dict[str, List[float]] = {}
    print(f"{'workload':<16}{'metric':<16}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'spread':>9}{'bound':>7}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        for workload, vals in values.items():
            med, q1, q3, share = metrics.spread(vals[name])
            spreads.setdefault(name, []).append(share)
            flags = ""
            if name != "setup_s" and share > bound / 3:
                flags += "  SPREAD>BOUND/3"
            if base is not None:
                old = metrics.spread(base[workload][name])[0]
                worse = (med - old) / old if m["better"] == "lower" \
                    else (old - med) / old
                flags += f"  vs baseline {worse:+.2%} worse"
                if worse > bound:
                    flags += " REGRESSION>BOUND"
            print(f"{workload:<16}{name:<16}{med:>12.6g}{q1:>12.6g}"
                  f"{q3:>12.6g}{share:>9.2%}{bound:>7.2f}{flags}")
    print("\nderived bounds:")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<16}{derived_bound(m['name'], spreads[m['name']]):.2f}"
              f"   (now {m['bound']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
