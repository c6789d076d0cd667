"""Ground-truth machinery for desk-scale verification.

Nothing here is fast or dimension-robust, and that is the point: these
routines are independent of the samplers they judge.

* ``ExactSampler`` draws exactly from pi proportional to exp(-f) on K by
  rejection from a bounding box, so it doubles as a zero-TV-error oracle
  for the converter.
* ``cell_masses`` integrates pi over a rectangular cell grid (tensor
  midpoint rule with dense subnodes, membership-masked) for d <= 3.
* ``sup_log_ratio`` and ``tv_estimate`` compare an empirical sample against
  cell masses. The binned sup-log-ratio UNDER-estimates the true sup of
  |log(nu/pi)| (binning averages the ratio), so acceptance tests only ever
  use it against upper-bound claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import LogDensity
from .errors import ConfigError, ContractViolation
from .geometry import Polytope, contains_many

__all__ = [
    "CellGrid",
    "ExactSampler",
    "box_bounds",
    "cell_masses",
    "histogram_counts",
    "sup_log_ratio",
    "SupLogRatio",
    "tv_estimate",
]

ACCEPTANCE_GUARD = 1e-4
PILOT_DRAWS = 4096  # box proposals that estimate the acceptance rate
DRAW_CHUNK = 500_000  # most box proposals in one round of ExactSampler.draw
MIN_EXPECTED = 100.0  # expected count n * mass that puts a cell in sup_log_ratio
WEIGHT_SLACK = 1e-9  # rounding allowed above 1 in an acceptance weight
# most subnodes a cell grid may integrate over: (bins * subnodes)^d above
# this is refused (d = 3 at 6 bins, diagnose's default, takes 7.1M)
QUADRATURE_POINTS = 2**26


def box_bounds(P: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounding box of K.

    Starts from center +- R (valid by the declared outer ball) and tightens
    each axis with any single-variable constraint rows, which recovers the
    exact box for axis-aligned polytopes.
    """
    lo = P.center - P.R
    hi = P.center + P.R
    for i in range(P.m):
        row = P.A[i]
        nz = np.flatnonzero(row)
        if nz.size == 1:
            j = int(nz[0])
            c = row[j]
            bound = P.b[i] / c
            if c > 0:
                hi[j] = min(hi[j], bound)
            else:
                lo[j] = max(lo[j], bound)
    return lo, hi


def _corner_radius(lo: np.ndarray, hi: np.ndarray, center: np.ndarray) -> float:
    """Largest distance from ``center`` to a corner of the box: the corner
    that takes the farther bound on every axis."""
    return float(np.linalg.norm(np.maximum(hi - center, center - lo)))


class ExactSampler:
    """Exact rejection sampler for pi on K, with a feasibility guard.

    A proposal x uniform in the bounding box is accepted with probability
    1{x in K} * exp(-(f(x) - f_lower)), where f_lower = f(center) - L * rho
    (rho the box circumradius) is a Lipschitz lower bound for f on the box,
    so the acceptance weight never exceeds 1 and accepted points are exactly
    pi-distributed. A weight above 1 (beyond rounding) proves the declared L
    too small, and the pilot or the draw that meets it raises
    ContractViolation. Construction runs a pilot of PILOT_DRAWS proposals and
    refuses instances whose estimated acceptance falls below
    ACCEPTANCE_GUARD (the whole design
    trades efficiency for exactness; a starved rejection loop means the
    instance is too large for an oracle, not that the oracle should adapt).
    """

    def __init__(self, P: Polytope, f: LogDensity, rng: np.random.Generator):
        if P.d > 8:
            raise ConfigError("rejection oracle is a desk-scale tool (d <= 8)")
        self.P = P
        self.f = f
        self.lo, self.hi = box_bounds(P)
        rho = _corner_radius(self.lo, self.hi, P.center)
        self.f_lower = f(P.center) - f.L * rho

        acc = self._accept_probs(self._propose(rng, PILOT_DRAWS))
        self.pilot_acceptance = float(acc.mean())
        if self.pilot_acceptance < ACCEPTANCE_GUARD:
            raise ConfigError(
                f"rejection acceptance ~{self.pilot_acceptance:.2e} is below the "
                f"{ACCEPTANCE_GUARD:.0e} guard; use a smaller instance (or a tighter box) "
                "for the exact oracle"
            )

    def _propose(self, rng: np.random.Generator, k: int) -> np.ndarray:
        U = rng.random((k, self.P.d))
        # lo + (hi - lo) * U by columns: a broadcast length-d row is slow
        for col, lo, span in zip(U.T, self.lo, self.hi - self.lo):
            col *= span
            col += lo
        return U

    def _accept_probs(self, X: np.ndarray) -> np.ndarray:
        member = contains_many(self.P, X)
        if not member.any():
            return np.zeros(X.shape[0])
        # with every proposal in K (always so for a box) skip gather and scatter
        every = member.all()
        w = np.exp(-(self.f.eval_many(X if every else X.compress(member, axis=0)) - self.f_lower))
        worst = float(w.max())
        if worst > 1 + WEIGHT_SLACK:
            raise ContractViolation(
                f"rejection weight {worst:.6g} exceeds 1: density "
                f"'{self.f.name}' varies faster than its declared L={self.f.L:g}"
            )
        if every:
            return w
        probs = np.zeros(X.shape[0])
        probs[member] = w
        return probs

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n exact draws from pi, shape (n, d)."""
        out = np.empty((n, self.P.d))
        got = 0
        rate = max(self.pilot_acceptance, ACCEPTANCE_GUARD)
        while got < n:
            want = n - got
            k = min(DRAW_CHUNK, int(want / rate * 1.2) + 64)
            X = self._propose(rng, k)
            accept = rng.random(k) < self._accept_probs(X)
            taken = X.compress(accept, axis=0)[:want]
            out[got : got + taken.shape[0]] = taken
            got += taken.shape[0]
        return out


# ---------------------------------------------------------------------------
# Cell grids and quadrature
# ---------------------------------------------------------------------------


@dataclass
class CellGrid:
    """Rectangular cell grid over (a box covering) K with cell masses.

    masses is flattened in C order over the per-axis cell indices and sums
    to 1 over the cells that intersect K.
    """

    lo: np.ndarray
    hi: np.ndarray
    nbins: np.ndarray  # per-axis cell counts, int
    masses: np.ndarray  # (prod(nbins),)

    @property
    def d(self) -> int:
        return self.lo.size

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.nbins))

    def included(self, n: int) -> np.ndarray:
        """Mask of the cells whose expected count n * mass reaches
        MIN_EXPECTED; ValueError when no cell does."""
        included = n * self.masses >= MIN_EXPECTED
        if not np.any(included):
            raise ValueError(
                f"no cell reaches the expected-count threshold {MIN_EXPECTED}; "
                "increase the sample size or coarsen the grid"
            )
        return included

    def cell_index(self, X) -> np.ndarray:
        """Flattened cell index of each point; points must lie in the box."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        span = self.hi - self.lo
        tol = 1e-9 * np.maximum(span, 1.0)
        if np.any(X < self.lo - tol) or np.any(X > self.hi + tol):
            raise ValueError("sample outside the grid box")
        frac = (X - self.lo) / span
        idx = np.clip((frac * self.nbins).astype(np.int64), 0, self.nbins - 1)
        return np.ravel_multi_index(tuple(idx.T), tuple(self.nbins))

    def cell_centers(self) -> np.ndarray:
        """(n_cells, d) array of cell midpoints, C order."""
        axes = [
            self.lo[j] + (np.arange(self.nbins[j]) + 0.5) * (self.hi[j] - self.lo[j]) / self.nbins[j]
            for j in range(self.d)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def _resolve_grid_spec(P: Polytope, grid_spec):
    if isinstance(grid_spec, CellGrid):
        return grid_spec.lo.copy(), grid_spec.hi.copy(), grid_spec.nbins.copy()
    if np.isscalar(grid_spec):
        lo, hi = box_bounds(P)
        nbins = np.full(P.d, int(grid_spec), dtype=np.int64)
    else:
        lo, hi, nbins = grid_spec
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        nbins = np.asarray(nbins, dtype=np.int64).ravel()
    if np.any(nbins < 1):
        raise ConfigError("grid needs at least one cell per axis")
    if np.any(hi <= lo):
        raise ConfigError("grid bounds must satisfy lo < hi")
    return lo, hi, nbins


def cell_masses(P: Polytope, f: LogDensity, grid_spec, subnodes: int = 32) -> CellGrid:
    """Integrate pi over every grid cell (tensor midpoint rule).

    Parameters
    ----------
    grid_spec : int, or (lo, hi, nbins) arrays, or a CellGrid to reuse.
        An int means that many cells per axis over the polytope's bounding
        box.
    subnodes : midpoint subnodes per axis per cell (>= 32 keeps the d=1
        closed-form comparisons at the 1e-6 level used in tests).

    Masses are exp(-f) integrated with the membership indicator, then
    normalized to sum 1. All-zero masses (grid misses K), or a grid of more
    than QUADRATURE_POINTS subnodes, raise ConfigError.
    """
    if P.d > 3:
        raise ConfigError("cell quadrature is for d <= 3")
    if subnodes < 32:
        raise ConfigError("need at least 32 subnodes per axis per cell")
    lo, hi, nbins = _resolve_grid_spec(P, grid_spec)
    d = P.d
    points = math.prod(int(k) * subnodes for k in nbins)
    if points > QUADRATURE_POINTS:
        raise ConfigError(
            f"cell grid needs {points} quadrature points, more than {QUADRATURE_POINTS}: "
            "use fewer bins"
        )

    # All subnode coordinates along each axis, cell-major.
    axis_pts = []
    for j in range(d):
        total = int(nbins[j]) * subnodes
        axis_pts.append(lo[j] + (np.arange(total) + 0.5) * (hi[j] - lo[j]) / total)

    masses = np.zeros(tuple(int(k) for k in nbins))
    shift = f(P.center)  # one shift for every block, so normalization is exact
    # Block over first-axis cells to bound memory at subnodes * prod(rest).
    for i0 in range(int(nbins[0])):
        block_axes = [axis_pts[0][i0 * subnodes : (i0 + 1) * subnodes]] + axis_pts[1:]
        mesh = np.meshgrid(*block_axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        weights = np.zeros(pts.shape[0])
        member = contains_many(P, pts)
        if np.any(member):
            vals = f.eval_many(pts[member])
            weights[member] = np.exp(-(vals - shift))
        # Fold subnode axes back onto their cells.
        shape = [subnodes] + [v for j in range(1, d) for v in (int(nbins[j]), subnodes)]
        folded = weights.reshape(shape)
        masses[i0] = folded.sum(axis=tuple(i for i in range(len(shape)) if i % 2 == 0))

    flat = masses.ravel()
    total = flat.sum()
    if total <= 0:
        raise ConfigError("grid does not intersect the polytope (all cell masses zero)")
    flat = flat / total
    grid = CellGrid(lo=lo, hi=hi, nbins=nbins, masses=flat)
    assert abs(grid.masses.sum() - 1.0) < 1e-9
    return grid


def histogram_counts(samples, grid: CellGrid) -> np.ndarray:
    """Per-cell sample counts (samples may be a SampleBatch or an array)."""
    pts = getattr(samples, "points", samples)
    idx = grid.cell_index(pts)
    return np.bincount(idx, minlength=grid.n_cells).astype(np.int64)


@dataclass
class SupLogRatio:
    """Binned sup-log-ratio statistic with per-cell slack.

    stat is the max over included cells of |log(freq/mass)| (inf when an
    included cell got no samples); cells/mass/count/log_ratio/sigma are
    aligned arrays over the included cells; excluded lists (index, mass,
    count) for cells whose expected count fell below the inclusion
    threshold. sigma is the delta-method deviation of log(freq/mass),
    sqrt((1-p)/(n p)).
    """

    stat: float
    n: int
    cells: np.ndarray
    mass: np.ndarray
    count: np.ndarray
    log_ratio: np.ndarray
    sigma: np.ndarray
    excluded: list = field(default_factory=list)

    def passes(self, extra: float = 0.0, sigmas: float = 3.0) -> bool:
        """Every included cell within ``extra + sigmas * sigma`` of log 0."""
        return bool(np.all(np.abs(self.log_ratio) <= extra + sigmas * self.sigma))

    def max_z(self) -> float:
        """Largest |log_ratio| / sigma over included cells."""
        return float(np.max(np.abs(self.log_ratio) / self.sigma))


def sup_log_ratio(samples, grid: CellGrid) -> SupLogRatio:
    """Compare empirical cell frequencies against exact cell masses.

    A cell enters the statistic iff its expected count n * mass reaches
    ``MIN_EXPECTED``; the rest are excluded and reported (an excluded cell
    means the sample size cannot resolve that cell, not that it passed).
    Included cells with zero observed count yield an infinite statistic,
    the division-by-zero sentinel.
    """
    counts = histogram_counts(samples, grid)
    pts = getattr(samples, "points", samples)
    n = np.atleast_2d(pts).shape[0]

    included = grid.included(n)
    excluded = [
        (int(c), float(grid.masses[c]), int(counts[c]))
        for c in np.flatnonzero(~included)
    ]

    cells = np.flatnonzero(included)
    mass = grid.masses[cells]
    count = counts[cells]
    freq = count / n
    with np.errstate(divide="ignore"):
        log_ratio = np.where(count > 0, np.log(np.maximum(freq, 1e-300) / mass), -np.inf)
    sigma = np.sqrt((1.0 - mass) / (n * mass))
    stat = float(np.max(np.abs(log_ratio)))
    return SupLogRatio(
        stat=stat,
        n=n,
        cells=cells,
        mass=mass,
        count=count,
        log_ratio=log_ratio,
        sigma=sigma,
        excluded=excluded,
    )


def tv_estimate(samples, grid: CellGrid) -> float:
    """Binned total-variation estimate: half the L1 gap between empirical
    frequencies and cell masses. A lower bound on the true TV distance
    (binning can only hide discrepancy), always in [0, 1]."""
    counts = histogram_counts(samples, grid)
    pts = getattr(samples, "points", samples)
    n = np.atleast_2d(pts).shape[0]
    freq = counts / n
    return float(0.5 * np.sum(np.abs(freq - grid.masses)))
