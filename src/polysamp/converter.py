"""TV-to-infinity-distance converter and its parameter schedule.

Given an oracle that samples a distribution mu on the polytope K with
||mu - pi||_TV below a (tiny) target, the converter turns TV accuracy into
an infinity-distance guarantee: the output law nu satisfies

    sup over K of |log(nu / pi)| <= eps.

One conversion round: draw theta from the oracle, smooth it with a ball
perturbation Z = theta + delta * r * xi (xi uniform in the unit ball), map
through the stretch Z / (1 - delta), and, if the result stays inside K,
emit it with probability one half. The half-coin looks wasteful but makes
the iteration count itself carry a privacy guarantee (its law is squeezed
between (1/2)^t e^{+-eps/2}). If tau_max rounds all fail, fall back to a
uniform draw from the inscribed ball, which costs at most eps of
infinity-distance by construction of the schedule.

The schedule (``compute_params``) picks tau_max, delta, and the TV target
from (eps, L, r, R, d). The TV target is handled purely in log domain: at
the scheduled sizes it underflows float64 around d of a few dozen, and
nothing downstream ever needs the raw value, only its log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .geometry import Polytope, check_outer_radius, contains_many, sample_unit_ball_many

__all__ = [
    "ConverterParams",
    "SampleBatch",
    "compute_params",
    "convert_batch",
    "tau_statistics",
    "TauSummary",
]


@dataclass(frozen=True)
class ConverterParams:
    """Schedule for one converter configuration.

    eps: target infinity-distance (natural-log units), in (0, 1].
    delta: stretch/smoothing parameter, in (0, 1/2] on the standard path.
    tau_max: iteration cap of the rejection loop.
    delta_log: natural log of the TV accuracy the oracle must provide.
    """

    eps: float
    delta: float
    tau_max: int
    delta_log: float


@dataclass
class SampleBatch:
    """Vectorized converter outputs: points plus per-run provenance."""

    points: np.ndarray        # (n, d)
    tau: np.ndarray           # (n,) int, halting iteration (tau_max+1 on fallback)
    fallback: np.ndarray      # (n,) bool; erm's rows hold none/ball/center labels
    oracle_calls: np.ndarray  # (n,) int

    def __len__(self) -> int:
        return self.points.shape[0]


def compute_params(eps: float, L: float, r: float, R: float, d: int) -> ConverterParams:
    """Build the schedule, taking every constraint with equality.

    tau_max = ceil(5 d ln(R/r) + 5 L R + eps)
    delta   = eps / (512 tau_max max(d, L R))
    delta_log = ln(eps/64) - d ln(R / (delta r)) - L R

    The equalities make tau_max as small, delta as large, and the TV target
    as loose as the guarantee allows, which minimizes downstream work.
    A ceiling turns the real-valued tau_max expression into a loop count
    (and can only help, the constraint is one-sided).
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if L < 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    if not (0.0 < r <= R):
        raise ValueError("radii must satisfy 0 < r <= R")
    if d < 1:
        raise ValueError("dimension must be >= 1")

    tau_max = math.ceil(5.0 * d * math.log(R / r) + 5.0 * L * R + eps)
    delta = eps / (512.0 * tau_max * max(float(d), L * R))
    delta_log = math.log(eps / 64.0) - d * math.log(R / (delta * r)) - L * R
    return ConverterParams(eps=eps, delta=delta, tau_max=tau_max, delta_log=delta_log)


def convert_batch(
    P: Polytope,
    oracle_batch,
    params: ConverterParams,
    rng: np.random.Generator,
    n: int,
) -> SampleBatch:
    """Run the rejection loop for n independent conversions sharing one RNG.

    oracle_batch(k, rng) must return a (k, d) array of independent draws
    from mu. Each loop iteration requests draws only for the runs still
    alive, so the expected oracle load is about 2n draws. The draws need not
    be made on demand: the oracle may serve draws it made in advance (as
    ``dikin.WalkPool`` does, on its own generator), provided each is an
    independent draw from mu that no other request receives.
    """
    d = P.d
    dr = params.delta * P.r
    points = np.empty((n, d))
    tau = np.zeros(n, dtype=np.int64)
    fallback = np.zeros(n, dtype=bool)
    oracle_calls = np.zeros(n, dtype=np.int64)
    alive = np.arange(n)

    for i in range(1, params.tau_max + 1):
        k = alive.size
        if k == 0:
            break
        theta = np.atleast_2d(np.asarray(oracle_batch(k, rng), dtype=float))
        if theta.shape != (k, d):
            raise ContractViolation(
                f"batch oracle returned shape {theta.shape}, expected {(k, d)}"
            )
        if not np.all(contains_many(P, theta)):
            raise ContractViolation(
                "sampling oracle returned a point outside the polytope; its "
                "TV contract requires support inside K"
            )
        check_outer_radius(P, theta)
        xi = sample_unit_ball_many(rng, k, d)
        theta_hat = (theta + dr * xi) / (1.0 - params.delta)
        halt = contains_many(P, theta_hat) & (rng.random(k) < 0.5)
        if np.any(halt):
            done = alive[halt]
            points[done] = theta_hat[halt]
            tau[done] = i
            oracle_calls[done] = i
            alive = alive[~halt]

    if alive.size:
        points[alive] = P.center + P.r * sample_unit_ball_many(rng, alive.size, d)
        tau[alive] = params.tau_max + 1
        fallback[alive] = True
        oracle_calls[alive] = params.tau_max

    check_outer_radius(P, points)
    return SampleBatch(points=points, tau=tau, fallback=fallback, oracle_calls=oracle_calls)


# ---------------------------------------------------------------------------
# Iteration-count telemetry
# ---------------------------------------------------------------------------


@dataclass
class TauSummary:
    """Empirical law of the halting iteration tau over many runs.

    tail_geq[t] estimates P(tau >= t) for t = 1..10 (index 0 unused).
    survival[t] estimates P(tau > t), the probability that a run is still
    unresolved after t full iterations; the geometric sandwich
    (1/2)^t <= P(tau > t) <= (2/3)^t is a statement about this survival
    function (the half-coin alone forces the lower bound).
    sandwich_rows holds (t, lower_band, value, upper_band) with 3 sigma
    binomial slack folded into the bands; pmf_rows likewise for the
    runtime-privacy band (1/2)^t e^{-eps/2} <= P(tau = t) <= (1/2)^t e^{eps/2}
    when eps was supplied.
    """

    n: int
    mean: float
    tail_geq: np.ndarray
    survival: np.ndarray
    sandwich_ok: bool
    sandwich_rows: list[tuple[int, float, float, float]]
    pmf_ok: bool | None
    pmf_rows: list[tuple[int, float, float, float]]


BAND_T_MAX = 8  # largest t that tau_statistics' band checks cover


def _tau_array(runs) -> np.ndarray:
    taus = np.asarray(runs.tau if isinstance(runs, SampleBatch) else runs, dtype=np.int64)
    if not taus.size:
        raise ValueError("tau_statistics needs at least one run")
    return taus


def tau_statistics(runs, eps: float | None = None) -> TauSummary:
    """Summarize halting iterations and test them against the known bands.

    Parameters
    ----------
    runs : SampleBatch, or its tau array (any sequence of ints).
    eps : when given, also tests the runtime-privacy band on P(tau = t).

    The bands are checked for t = 1..BAND_T_MAX. The 3 sigma slack on every
    band uses the binomial deviation at the band endpoint, so the bands are
    deterministic given n.
    """
    taus = _tau_array(runs)
    n = taus.size
    mean = float(taus.mean())

    tail_geq = np.zeros(11)
    for t in range(1, 11):
        tail_geq[t] = float(np.mean(taus >= t))
    survival = np.zeros(11)
    for t in range(0, 10):
        survival[t] = float(np.mean(taus > t))

    def slack(p: float) -> float:
        p = min(max(p, 0.0), 1.0)
        return 3.0 * math.sqrt(p * (1.0 - p) / n)

    sandwich_rows = []
    sandwich_ok = True
    for t in range(1, BAND_T_MAX + 1):
        lo_band = 0.5**t - slack(0.5**t)
        hi_band = (2.0 / 3.0) ** t + slack((2.0 / 3.0) ** t)
        value = survival[t]
        sandwich_rows.append((t, lo_band, value, hi_band))
        if not (lo_band <= value <= hi_band):
            sandwich_ok = False

    pmf_rows: list[tuple[int, float, float, float]] = []
    pmf_ok: bool | None = None
    if eps is not None:
        pmf_ok = True
        for t in range(1, BAND_T_MAX + 1):
            center = 0.5**t
            lo_band = center * math.exp(-eps / 2.0) - slack(center * math.exp(-eps / 2.0))
            hi_band = center * math.exp(eps / 2.0) + slack(min(center * math.exp(eps / 2.0), 1.0))
            value = float(np.mean(taus == t))
            pmf_rows.append((t, lo_band, value, hi_band))
            if not (lo_band <= value <= hi_band):
                pmf_ok = False

    return TauSummary(
        n=n,
        mean=mean,
        tail_geq=tail_geq,
        survival=survival,
        sandwich_ok=sandwich_ok,
        sandwich_rows=sandwich_rows,
        pmf_ok=pmf_ok,
        pmf_rows=pmf_rows,
    )
