"""Differentially private ERM over a polytope via the exponential mechanism.

The mechanism samples theta with probability proportional to
exp(-s * sum_i l_i(theta)), s = eps / (2 n L R), which is pure eps-DP for
the exact distribution; drawing from it with infinity-distance error at
most eps costs a second eps, so the end-to-end guarantee tested here is
the 2 eps one. Losses are linear (l_i(theta) = c_i . theta) so the optimal
value has an exact vertex-enumeration oracle.

The mechanism density is sampled through ``pipeline.plan_sampling``, with
the input checks, chunk streams and step-size tuner stream of ``sample``,
and ``private_erm_batch`` returns that run's rows as an ``ErmResult``: its
points are the thetas, its fallback labels derive from tau, and its plan
holds the (capped) schedule, T and eta.

A runtime cap keeps the sampling loop itself private: if the converter has
not halted after ``halting_threshold(inst)`` oracle calls, the output is
the polytope's inner-ball center instead of a data-dependent point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from math import ceil, log
from pathlib import Path

import numpy as np

from . import dikin, pipeline
from .density import LogDensity, exp_mechanism_density
from .errors import ConfigError
from .geometry import Polytope, parse_polytope_lines

__all__ = [
    "ErmInstance",
    "ErmResult",
    "load_erm_instance",
    "total_loss_density",
    "halting_threshold",
    "private_erm_batch",
    "enumerate_vertices",
]


@dataclass
class ErmInstance:
    """A private-ERM problem: linear losses c_i . theta on a polytope.

    Attributes:
        polytope: feasible region K.
        losses: (n, d) array, row i holding c_i.
        L: per-loss Lipschitz bound; every ||c_i||_2 must be <= L.
        eps_dp: privacy budget, in (0, 1] (the sampler's accuracy target
            shares this value, so larger budgets need a different split
            and are rejected).
    """

    polytope: Polytope
    losses: np.ndarray
    L: float
    eps_dp: float

    def __post_init__(self):
        self.losses = np.asarray(self.losses, dtype=float)
        if self.losses.ndim != 2 or self.losses.shape[1] != self.polytope.d:
            raise ConfigError("losses must be an (n, d) array matching the polytope")
        if self.losses.shape[0] < 1:
            raise ConfigError("need at least one loss")
        if not np.all(np.isfinite(self.losses)):
            raise ConfigError("loss vectors must be finite")
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ConfigError("per-loss Lipschitz bound L must be positive")
        norms = np.linalg.norm(self.losses, axis=1)
        if np.any(norms > self.L * (1 + 1e-12)):
            worst = float(norms.max())
            raise ConfigError(f"loss norm {worst:.6g} exceeds the declared bound L={self.L:.6g}")
        if not (0 < self.eps_dp <= 1):
            raise ConfigError(
                "eps_dp must be in (0, 1]; for a larger budget, spend 1 here and "
                "the remainder elsewhere (the sampler's accuracy share caps at 1)"
            )

    @property
    def n(self) -> int:
        return int(self.losses.shape[0])

    @property
    def d(self) -> int:
        return self.polytope.d


def load_erm_instance(path) -> ErmInstance:
    """Parse an ERM instance file.

    Layout: a polytope block (same format as polytope files), then a line
    with n, then n loss-vector lines, then a final line ``L eps``.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    lines = text.splitlines()
    P, pos = parse_polytope_lines(lines)

    def next_line(pos):
        while pos < len(lines):
            s = lines[pos].strip()
            if s and not s.startswith("#"):
                return s, pos + 1
            pos += 1
        raise ConfigError(f"{path}: unexpected end of file in ERM block")

    s, pos = next_line(pos)
    try:
        n = int(s)
    except ValueError:
        raise ConfigError(f"{path} line {pos}: expected loss count, got {s!r}") from None
    losses = np.empty((n, P.d))
    for i in range(n):
        s, pos = next_line(pos)
        parts = s.split()
        if len(parts) != P.d:
            raise ConfigError(f"{path} line {pos}: expected {P.d} loss coefficients")
        try:
            losses[i] = [float(v) for v in parts]
        except ValueError:
            raise ConfigError(f"{path} line {pos}: bad loss coefficient") from None
    s, pos = next_line(pos)
    parts = s.split()
    if len(parts) != 2:
        raise ConfigError(f"{path} line {pos}: expected 'L eps'")
    try:
        L, eps_dp = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{path} line {pos}: bad L/eps value") from None
    while pos < len(lines):
        if lines[pos].strip() and not lines[pos].strip().startswith("#"):
            raise ConfigError(f"{path} line {pos + 1}: trailing content after ERM block")
        pos += 1
    return ErmInstance(polytope=P, losses=losses, L=L, eps_dp=eps_dp)


def total_loss_density(inst: ErmInstance) -> LogDensity:
    """Sum of the losses as one density exponent.

    The declared Lipschitz constant is n * L (the privacy-relevant bound,
    which holds for any dataset with per-loss bound L), not the possibly
    smaller norm of the summed coefficient vector.
    """
    csum = inst.losses.sum(axis=0)
    return LogDensity(lambda X: X @ csum, L=inst.n * inst.L)


def halting_threshold(inst: ErmInstance) -> int:
    """Iteration cap ceil(10 ln max(d/eps, n eps/d, 3)) for the runtime-private loop."""
    d, n, eps = inst.d, inst.n, inst.eps_dp
    return ceil(10.0 * log(max(d / eps, n * eps / d, 3.0)))


FALLBACK_NONE = "none"
FALLBACK_BALL = "ball"
FALLBACK_CENTER = "center"


@dataclass
class ErmResult(pipeline.SamplingResult):
    """``private_erm_batch``'s rows; capped: the runtime cap lowered tau_max."""

    capped: bool

    @property
    def fallback(self) -> np.ndarray:  # (n,) FALLBACK_NONE, _BALL or _CENTER
        labels = np.full(len(self), FALLBACK_NONE, dtype="<U6")
        labels[super().fallback] = FALLBACK_CENTER if self.capped else FALLBACK_BALL
        return labels


def private_erm_batch(
    inst: ErmInstance,
    seed: int,
    n_runs: int,
    c_mix: float = dikin.ANALYSIS_CMIX,
    eta: float | None = None,
) -> ErmResult:
    """n_runs independent private ERM draws; run j is a pure function of
    (seed, j), drawn on the streams of ``sample``'s row j.

    ``result.plan`` carries the schedule the runs used, whose tau_max is at
    most ``halting_threshold``.

    c_mix defaults to 1 here (unlike the desk-scale sampling commands):
    the mechanism's scaled density is so flat that the full walk length is
    cheap, and privacy arguments want the real one.
    """
    P = inst.polytope
    g = exp_mechanism_density(total_loss_density(inst), inst.eps_dp, inst.n * inst.L, P.R)
    # the scaling must collapse to eps / (2R) no matter the dataset; anything
    # else means the sensitivity bookkeeping above went wrong
    assert math.isclose(g.L, inst.eps_dp / (2.0 * P.R), rel_tol=1e-12)
    plan = pipeline.plan_sampling(P, g, inst.eps_dp, n_runs, seed, c_mix, eta)
    t_halt = halting_threshold(inst)
    capped = t_halt < plan.params.tau_max
    if capped:
        plan = replace(plan, params=replace(plan.params, tau_max=t_halt))
    result = ErmResult(**vars(plan.collect()), capped=capped)
    # where the cap fired, the data-independent inner-ball center keeps the runtime private
    result.points[result.fallback == FALLBACK_CENTER] = plan.translation
    return result


# ---------------------------------------------------------------------------
# Exact utility accounting
# ---------------------------------------------------------------------------


# a vertex may violate a row by VERTEX_TOL * max |b|; vertices that round
# to the same multiple of VERTEX_TOL count as one
VERTEX_TOL = 1e-9


def enumerate_vertices(P: Polytope) -> np.ndarray:
    """All vertices of K by exhaustive facet intersection (d <= 3).

    Solves every d-subset of the constraint rows and keeps the feasible,
    deduplicated solutions. Exponential in d by design; the desk-scale
    utility oracle is the only caller.
    """
    if P.d > 3:
        raise ConfigError("vertex enumeration is for d <= 3")
    scale = max(1.0, float(np.abs(P.b).max()))
    verts = []
    for rows in combinations(range(P.m), P.d):
        A_s = P.A[list(rows)]
        b_s = P.b[list(rows)]
        try:
            v = np.linalg.solve(A_s, b_s)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(v)):
            continue
        if np.all(P.A @ v <= P.b + VERTEX_TOL * scale):
            verts.append(v)
    if not verts:
        raise ConfigError("no vertices found; polytope looks degenerate")
    V = np.array(verts)
    # Dedupe on a rounded key; exact duplicates arise whenever > d facets meet.
    _, keep = np.unique(np.round(V / VERTEX_TOL).astype(np.int64), axis=0, return_index=True)
    return V[np.sort(keep)]
