"""Seeded workload generator.

A workload is a sequence of rounds; each round is a fixed set of ladders and
each ladder is a fixed list of rungs.  The seed (and the round index) only
picks the data on each rung: rational initial values, amplitudes, angles,
boundary data and a small jitter of the small parameter.  The rung structure
never depends on the seed, so every round costs about the same and the
per-report timing distribution keeps its shape from seed to seed.

Every round draws fresh inputs from its own stream, ``Random("<workload>/
<seed>/<round>")``, so round ``r`` can be regenerated on its own (the
determinism check re-runs round 0) and no two rounds hand the program the
same case.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from renormrec import (BoundaryLayer, HtrCubic, HtrDomainWall, Illustration,
                       Reduction, VanDerPol)


@dataclass(frozen=True)
class Job:
    """One report: ``case_report(case, order, closure)`` serialized as
    ``fmt``.  ``rung`` names the position in the workload design, the same in
    every round and for every seed."""

    case: object
    order: int
    closure: Optional[str]
    fmt: str
    rung: str


@dataclass(frozen=True)
class Ladder:
    """Rungs that sweep one small parameter; ``family`` groups the ladders
    whose rungs are comparable (same case kind, order and closure)."""

    family: str
    jobs: Tuple[Job, ...]


def small_param(case) -> float:
    """The value swept along a ladder (``case.ladder_param``)."""
    return float(getattr(case, case.ladder_param))


def _jitter(rng: random.Random, q: int, share: float = 0.02) -> int:
    return max(2, round(q * (1 + rng.uniform(-share, share))))


def _rational(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _ladder(family: str, cases, order: int, closure: Optional[str],
            fmt: str) -> Ladder:
    return Ladder(family, tuple(
        Job(c, order, closure, fmt, f"{family}#{i}")
        for i, c in enumerate(cases)))


# -- exact-window -------------------------------------------------------------

#: eta or eps = 1/q rungs, log-spaced from 10 to 300.  A round has 15
#: reports: with an odd count the median, and with 13.5 of 15 the 90th
#: percentile, falls inside one rung's samples, not between two rungs.
ILLUSTRATION_Q = (10, 18, 31, 55, 96, 170, 300)
CUBIC_Q = (10, 16, 26, 43, 70, 114, 185, 300)


def _exact_window(rng: random.Random) -> List[Ladder]:
    init0 = _rational(rng, 1, 99, 99) * rng.choice((1, -1))
    init1 = _rational(rng, -99, 99, 99)
    b0 = Fraction(rng.randint(5, 25), 100)
    return [
        _ladder("illustration",
                [Illustration(Fraction(1, _jitter(rng, q)), init0, init1)
                 for q in ILLUSTRATION_Q], 1, None, "csv"),
        _ladder("htr-cubic",
                [HtrCubic(Fraction(1, _jitter(rng, q)), b0) for q in CUBIC_Q],
                1, None, "csv"),
    ]


# -- deep-expansion -----------------------------------------------------------

DEEP_Q = (2, 3, 4, 6, 8)
DEEP_ORDERS = (1, 2, 3, 4, 5, 6)
#: one boundary-layer ladder per round, swept over eps = 1/q; its exact
#: evaluation is the costliest per point in this workload, so one ladder
#: keeps evaluation a minor layer here
LAYER_Q = (25, 50, 100)


def _deep_expansion(rng: random.Random) -> List[Ladder]:
    ladders = []
    for k in DEEP_ORDERS:
        init0 = _rational(rng, 1, 9, 9) * rng.choice((1, -1))
        init1 = _rational(rng, -9, 9, 9)
        ladders.append(_ladder(
            f"illustration-K{k}",
            [Illustration(Fraction(1, q), init0, init1) for q in DEEP_Q],
            k, None, "json"))
    n = rng.randint(10, 30)
    a = Fraction(rng.randint(3, 8), 2)
    b = Fraction(rng.randint(1, 3), 2)
    alpha = _rational(rng, 1, 9, 9)
    beta = _rational(rng, 1, 9, 9)
    ladders.append(_ladder(
        "boundary-layer",
        [BoundaryLayer(Fraction(1, q), a, b, n, alpha, beta) for q in LAYER_Q],
        1, None, "json"))
    return ladders


# -- float-nonlinear ----------------------------------------------------------

VDP_Q = (100, 180, 320, 560, 1000)
#: lam rungs in units of 1/400; every lam = k/400 with 32 <= k <= 160 lets
#: the domain-wall oracle converge, and lam = 0.075 already does not
WALL_K = (160, 112, 80, 56, 40, 32)
REDUCTION_Q = (50, 100, 200, 400, 800)
REDUCTION_LADDERS = 5


def _float_nonlinear(rng: random.Random) -> List[Ladder]:
    # theta away from the resonant angles 0, pi/2 and pi
    theta = rng.uniform(0.5, 1.3)
    amp = rng.uniform(0.003, 0.02) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    qs = [_jitter(rng, q) for q in VDP_Q]
    ladders = [
        _ladder(f"van-der-pol-{closure}",
                [VanDerPol(theta, Fraction(1, q), closure, amp) for q in qs],
                1, closure, "json")
        for closure in ("linear", "full")]
    walls = [min(160, max(32, k + rng.randint(-2, 2))) for k in WALL_K]
    ladders.append(_ladder("htr-domain-wall",
                           [HtrDomainWall(lam=k / 400) for k in walls],
                           1, None, "json"))
    for i in range(REDUCTION_LADDERS):
        x0 = rng.uniform(0.2, 0.8)
        qs = [_jitter(rng, q) for q in REDUCTION_Q]
        ladders.append(_ladder(f"reduction-{i}",
                               [Reduction(Fraction(1, q), x0=x0) for q in qs],
                               1, None, "json"))
    return ladders


WORKLOADS: Dict[str, Callable[[random.Random], List[Ladder]]] = {
    "exact-window": _exact_window,
    "deep-expansion": _deep_expansion,
    "float-nonlinear": _float_nonlinear,
}


def generate(workload: str, seed: int, round_index: int) -> List[Ladder]:
    """The ladders of one round; the same arguments give the same cases."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}/{round_index}"))
