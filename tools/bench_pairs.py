"""Alternating base/change pairs of the benchmark, written as one JSON file.

    python3 tools/bench_pairs.py --base HEAD~1 --pairs 5 --seconds 35 \\
        --out BENCH_name.json [--workload exact-window ...] [--first-seed 101]

Runs the unchanged ``perfbench/run.py`` alternately on the base commit and
on the working tree, one process at a time, and keeps the last line of each
run's output (one JSON object).  The base runs in a clean export of the
commit (``git archive`` into a temporary directory, removed afterwards), so
nothing is checked out or registered in the repository.  Pair ``i`` gives
both sides the seed ``first_seed + i``; within a pair the side that runs
first alternates, and every workload runs once per pair, so a slow phase of
the host falls on both sides.

The output holds every run's metrics per pair, the per-metric medians and
quartiles of each side, how many pairs the change won (by the ``better``
direction in ``BENCHMARK.json``), the seeds, the commit ids and host notes.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("exact-window", "deep-expansion", "float-nonlinear")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, parent_dir: Optional[str]) -> str:
    """The committed files of ``rev`` in a new temporary directory."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    path = tempfile.mkdtemp(prefix="bench-base-", dir=parent_dir)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        if hasattr(tarfile, "data_filter"):
            tf.extractall(path, filter="data")
        else:
            tf.extractall(path)
    return path


def run_once(tree: str, workload: str, seed: int, seconds: float) -> Dict:
    """One ``perfbench/run.py`` run in ``tree``: its last JSON line, plus
    the wall time, or an ``error``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    out: Dict[str, object] = {"wall_s": round(time.perf_counter() - t0, 3)}
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        out["error"] = f"exit {proc.returncode}: {tail}"
        return out
    out.update(correct=doc["correct"], attempted=doc["attempted"],
               failed=doc["failed"])
    out["metrics"] = {k: v["value"] for k, v in doc["metrics"].items()}
    return out


def quartiles(xs: List[float]):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: List[Dict], better: Dict[str, str]) -> Dict:
    done = [p for p in pairs
            if "metrics" in p["base"] and "metrics" in p["change"]]
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in done]
        change = [p["change"]["metrics"][name] for p in done]
        if not base:
            continue
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        mb, mc = statistics.median(base), statistics.median(change)
        out[name] = {
            "better": direction,
            "base_median": mb, "change_median": mc,
            "base_quartiles": quartiles(base),
            "change_quartiles": quartiles(change),
            "relative_change": (mc - mb) / mb if mb else None,
            "change_wins": wins, "pairs": len(done),
        }
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD",
                   help="commit to compare against (default HEAD)")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="repeat to pick workloads (default: all three)")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--note", default="", help="free-text host note")
    p.add_argument("--tmp-dir", help="where to put the base export")
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"]
                  for m in json.load(fh)["end_to_end"]}
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g}",
        "base": {"rev": args.base, "commit": git("rev-parse", args.base)},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted": git("status", "--porcelain",
                                      "--untracked-files=no").splitlines()},
        "host": {"note": args.note, "platform": platform.platform(),
                 "python": platform.python_version(),
                 "cpus": os.cpu_count(), "load_avg_start": os.getloadavg()},
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "order": "pair i: seed first_seed + i; base first when i is even",
        "workloads": {w: {"pairs": []} for w in workloads},
    }
    base_tree = export(args.base, args.tmp_dir)
    try:
        for i in range(args.pairs):
            seed = args.first_seed + i
            sides = ("base", "change") if i % 2 == 0 else ("change", "base")
            for w in workloads:
                pair = {"seed": seed, "first": sides[0]}
                for side in sides:
                    tree = base_tree if side == "base" else ROOT
                    pair[side] = run_once(tree, w, seed, args.seconds)
                doc["workloads"][w]["pairs"].append(pair)
                p50 = [pair[s].get("metrics", {}).get("report_p50_ms")
                       for s in ("base", "change")]
                print(f"pair {i + 1}/{args.pairs} {w} seed {seed}: "
                      f"report_p50_ms {p50[0]} -> {p50[1]}", flush=True)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    for w in workloads:
        doc["workloads"][w]["summary"] = summarize(
            doc["workloads"][w]["pairs"], better)
    doc["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    doc["host"]["load_avg_end"] = os.getloadavg()
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
