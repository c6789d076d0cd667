"""Differentially private ERM over a polytope via the exponential mechanism.

The mechanism samples theta with probability proportional to
exp(-s * sum_i l_i(theta)), s = eps / (2 n L R), which is pure eps-DP for
the exact distribution; drawing from it with infinity-distance error at
most eps costs a second eps, so the end-to-end guarantee tested here is
the 2 eps one. Losses are linear (l_i(theta) = c_i . theta) so the optimal
value has an exact vertex-enumeration oracle.

``mechanism_density`` is sampled through ``pipeline.plan_sampling``, with
the input checks, chunk streams and step-size tuner stream of ``sample``,
and ``private_erm_batch`` returns that run's rows as an ``ErmResult``: its
points are the thetas, its fallback labels derive from tau, and its plan
holds the (capped) schedule, T and eta.

A runtime cap keeps the sampling loop itself private: if the converter has
not halted after ``halting_threshold(inst)`` oracle calls, the output is
the polytope's inner-ball center instead of a data-dependent point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import ceil, log

import numpy as np

from . import dikin, geometry, pipeline
from .density import LogDensity
from .errors import ConfigError
from .geometry import Polytope, check_end, check_rows, data_rows, parse_polytope, row_floats

__all__ = [
    "ErmInstance",
    "ErmResult",
    "load_erm_instance",
    "mechanism_density",
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
        norms = geometry.scaled_row_norms(self.losses)
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

    Layout: a polytope block (``geometry.parse_polytope``), then a row with
    the loss count n, then n rows of d loss coefficients, then a final row
    ``L eps``. A count that the rows after it cannot hold is refused before
    anything is allocated.
    """
    rows = data_rows(path)
    P, used = parse_polytope(rows)
    check_rows(rows, used + 1, "no loss count")
    lineno, fields = rows[used]
    try:
        (n,) = map(int, fields)
    except ValueError:
        raise ConfigError(f"line {lineno}: expected loss count, got {' '.join(fields)!r}") from None
    if n < 1:
        raise ConfigError(f"line {lineno}: loss count must be positive, got {n}")
    first, end = used + 1, used + 1 + n
    check_rows(rows, end + 1, f"the loss count declares {n} loss rows and an 'L eps' row")
    losses = np.array([row_floats(row, P.d, "loss coefficients") for row in rows[first:end]])
    L, eps_dp = row_floats(rows[end], 2, "values 'L eps'")
    check_end(rows, end + 1, "ERM block")
    return ErmInstance(polytope=P, losses=losses, L=L, eps_dp=eps_dp)


def mechanism_density(inst: ErmInstance) -> LogDensity:
    """The mechanism's exponent theta -> s * sum_i c_i . theta, s = eps_dp / (2 n L R).

    n L bounds the sum's sensitivity for every dataset with per-loss bound L
    (the summed coefficients' own norm can be smaller), so the declared
    Lipschitz constant s n L is eps_dp / (2 R) whatever the data.
    """
    csum = inst.losses.sum(axis=0)
    L_total = float(inst.n * inst.L)
    s = inst.eps_dp / (2.0 * L_total * inst.polytope.R)
    return LogDensity(lambda X: s * (X @ csum), s * L_total, name="mechanism")


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
    g = mechanism_density(inst)
    plan = pipeline.plan_sampling(inst.polytope, g, inst.eps_dp, n_runs, seed, c_mix, eta)
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
