"""Differentially private ERM over a polytope via the exponential mechanism.

The mechanism samples theta with probability proportional to
exp(-s * sum_i l_i(theta)), s = eps / (2 n L R), which is pure eps-DP for
the exact distribution; drawing from it with infinity-distance error at
most eps costs a second eps, so the end-to-end guarantee tested here is
the 2 eps one. Losses are linear (l_i(theta) = c_i . theta) so the optimal
value has an exact vertex-enumeration oracle.

A runtime cap keeps the sampling loop itself private: if the converter has
not halted after ``halting_threshold(inst)`` oracle calls, the output is
the polytope's inner-ball center (the origin after normalization) instead
of a data-dependent point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from math import ceil, log
from pathlib import Path

import numpy as np

from . import converter, dikin
from .density import LogDensity, exp_mechanism_density, shifted
from .errors import ConfigError
from .geometry import Polytope, normalize, parse_polytope_lines

__all__ = [
    "ErmInstance",
    "ErmBatch",
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
    P, pos = parse_polytope_lines(lines, 0)

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
class ErmBatch:
    """Results of private ERM runs: thetas in original coordinates, aligned
    per-run telemetry arrays, and the settings the runs shared."""

    thetas: np.ndarray
    tau: np.ndarray
    fallback: np.ndarray  # '<U6' array of none/ball/center
    oracle_calls: np.ndarray
    t_halt: int
    params: converter.ConverterParams
    T: int
    eta: float

    def __len__(self) -> int:
        return self.thetas.shape[0]


def _mechanism_setup(inst: ErmInstance, c_mix: float, eta, rng):
    """Normalize, scale the loss sum, size the walk, and settle eta."""
    Pn, translation = normalize(inst.polytope)
    f_total = shifted(total_loss_density(inst), translation)
    g = exp_mechanism_density(f_total, inst.eps_dp, inst.n * inst.L, Pn.R)
    # the scaling must collapse to eps / (2R) no matter the dataset; anything
    # else means the sensitivity bookkeeping above went wrong
    assert math.isclose(g.L, inst.eps_dp / (2.0 * Pn.R), rel_tol=1e-12)
    params = converter.compute_params(inst.eps_dp, g.L, Pn.r, Pn.R, Pn.d)
    T = dikin.mixing_steps(Pn, g, inst.eps_dp, params.delta_log, c_mix)
    if eta is None:
        eta, _ = dikin.tune_eta(Pn, g, rng)
    return Pn, translation, g, params, T, float(eta)


def private_erm_batch(
    inst: ErmInstance,
    rng: np.random.Generator,
    n_runs: int,
    c_mix: float = 1.0,
    eta: float | None = None,
) -> ErmBatch:
    """n_runs independent private ERM draws sharing one walk configuration.

    c_mix defaults to 1 here (unlike the desk-scale sampling commands):
    the mechanism's scaled density is so flat that the full walk length is
    cheap, and privacy arguments want the real one.
    """
    Pn, translation, g, params, T, eta = _mechanism_setup(inst, c_mix, eta, rng)
    t_halt = halting_threshold(inst)
    capped = t_halt < params.tau_max
    run_params = replace(params, tau_max=t_halt) if capped else params
    # the walk draws on its own Philox stream, keyed by two draws taken from
    # rng: apart from the converter's draws and from any later call's walk
    key = rng.integers(2**64, size=2, dtype=np.uint64)
    pool = dikin.WalkPool(Pn, g, dikin.WalkConfig(eta=eta, T=T),
                          np.random.Generator(np.random.Philox(key=key)))
    batch = converter.convert_batch(Pn, pool, run_params, rng, n_runs)

    points = batch.points.copy()
    kinds = np.full(n_runs, FALLBACK_NONE, dtype="<U6")
    if capped:
        # The cap fired: a data-independent output keeps the runtime private.
        points[batch.fallback] = Pn.center
        kinds[batch.fallback] = FALLBACK_CENTER
    else:
        kinds[batch.fallback] = FALLBACK_BALL

    return ErmBatch(
        thetas=points + translation,
        tau=batch.tau.copy(),
        fallback=kinds,
        oracle_calls=batch.oracle_calls.copy(),
        t_halt=t_halt,
        params=params,
        T=T,
        eta=eta,
    )


# ---------------------------------------------------------------------------
# Exact utility accounting
# ---------------------------------------------------------------------------


def enumerate_vertices(P: Polytope, tol: float = 1e-9) -> np.ndarray:
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
        if np.all(P.A @ v <= P.b + tol * scale):
            verts.append(v)
    if not verts:
        raise ConfigError("no vertices found; polytope looks degenerate")
    V = np.array(verts)
    # Dedupe on a rounded key; exact duplicates arise whenever > d facets meet.
    _, keep = np.unique(np.round(V / max(tol, 1e-12)).astype(np.int64), axis=0, return_index=True)
    return V[np.sort(keep)]
