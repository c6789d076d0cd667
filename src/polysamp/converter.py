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

from .errors import ConfigError, ContractViolation
from .geometry import Polytope, check_outer_radius, contains_many, sample_unit_ball_many

__all__ = [
    "ConverterParams",
    "SampleBatch",
    "compute_params",
    "convert_batch",
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
    """Vectorized converter outputs: each run's point and halting round."""

    points: np.ndarray  # (n, d)
    tau: np.ndarray     # (n,) int, halting round (tau_max + 1 on fallback)
    tau_max: int

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def fallback(self) -> np.ndarray:  # (n,) bool
        return self.tau > self.tau_max

    @property
    def oracle_calls(self) -> np.ndarray:  # (n,) int, one draw per round
        return np.minimum(self.tau, self.tau_max)


def compute_params(eps: float, L: float, r: float, R: float, d: int) -> ConverterParams:
    """Build the schedule, taking every constraint with equality.

    tau_max = ceil(5 d ln(R/r) + 5 L R + eps)
    delta   = eps / (512 tau_max max(d, L R))
    delta_log = ln(eps/64) - d ln(R / (delta r)) - L R

    The equalities make tau_max as small, delta as large, and the TV target
    as loose as the guarantee allows, which minimizes downstream work.
    A ceiling turns the real-valued tau_max expression into a loop count
    (and can only help, the constraint is one-sided). A schedule that the
    float range cannot hold is a ConfigError naming the flag to change.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if L < 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    if not (0.0 < r <= R):
        raise ValueError("radii must satisfy 0 < r <= R")
    if d < 1:
        raise ValueError("dimension must be >= 1")

    at = f"in the schedule at eps = {eps!r}, L R = {L * R:g}, R/r = {R / r:g}"
    tau_raw = 5.0 * d * math.log(R / r) + 5.0 * L * R + eps
    if not tau_raw < math.inf:
        raise ConfigError(f"tau_max overflows {at}; lower L (--density) or R/r (--polytope)")
    tau_max = math.ceil(tau_raw)
    delta = eps / (512.0 * tau_max * max(float(d), L * R))
    if not delta * r > 0:
        raise ConfigError(f"delta r underflows to 0 {at}; raise --eps or lower L (--density)")
    delta_log = math.log(eps / 64.0) - d * math.log(R / (delta * r)) - L * R
    if not math.isfinite(delta_log):
        raise ConfigError(f"R / (delta r) overflows {at}; raise --eps or lower R/r (--polytope)")
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
    tau = np.full(n, params.tau_max + 1, dtype=np.int64)  # until a round halts
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
        done = alive[halt]
        points[done] = theta_hat[halt]
        tau[done] = i
        alive = alive[~halt]

    if alive.size:
        points[alive] = P.center + P.r * sample_unit_ball_many(rng, alive.size, d)

    check_outer_radius(P, points)
    return SampleBatch(points=points, tau=tau, tau_max=params.tau_max)

