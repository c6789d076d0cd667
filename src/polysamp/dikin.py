"""Metropolized Dikin walk with the logarithmic barrier.

The walk is the total-variation-accurate sampling oracle the converter
consumes. At a strictly interior point x the log-barrier Hessian

    H(x) = sum_i a_i a_i^T / (b_i - a_i . x)^2

defines the local ellipsoid; the proposal is Gaussian with covariance
(eta^2 / d) * H(x)^{-1}, and a full Metropolis-Hastings correction (including
the log-det term of the position-dependent proposal) makes exp(-f) restricted
to the polytope the stationary law. Correctness rests on the detailed-balance
identity, which the tests check to 1e-8 in log space against a one-chain
reference walk kept in the test suite; speed rests on tuning eta to a sane
acceptance band.

``run_chains_batch`` advances many independent chains in lockstep, for any
d, with elementwise numpy kernels over the chain axis (structure of arrays).
Each chain's Hessian H, log det H and f(x) are cached and overwritten only on
accepted moves, and a step runs one Cholesky factorization (see
``_Barrier``). Every step runs in row blocks of at most ``BLOCK`` chains over
preallocated buffers. The blocks are there for BLAS threading: on a whole
1e5-chain batch OpenBLAS spreads the skinny products ``Y @ A.T`` and
``(1/S**2) @ a`` over every core, which doubled the CPU time of the step
without making it faster; on a block it runs them on the calling thread, and
the block's scratch stays in cache. The random draws and the f evaluations
still cover the whole batch, so the result does not depend on the blocking.

``WalkPool`` is how the samplers consume the walk: it runs the batch path in
blocks of fresh warm-started chains on its own generator and serves the
converter's per-round requests from the endpoints it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .density import LogDensity
from .geometry import Polytope, all_rows, sample_unit_ball_many

__all__ = [
    "WalkConfig",
    "run_chains_batch",
    "warm_start_many",
    "mixing_steps",
    "tune_eta",
    "WalkPool",
]


@dataclass
class WalkConfig:
    """Walk hyperparameters.

    eta: proposal radius multiplier (the Gaussian proposal covariance is
         (eta^2/d) H(x)^{-1}). Default 0.1; see ``tune_eta``.
    T: Metropolis steps per independent sample.
    """

    eta: float = 0.1
    T: int = 1

    def __post_init__(self) -> None:
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValueError("step scale eta must be positive")
        if self.T < 0:
            raise ValueError("step count T must be >= 0")


def warm_start_many(P: Polytope, rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform draws from the inscribed ball (the walk's warm starts)."""
    return P.center + P.r * sample_unit_ball_many(rng, n, P.d)


def mixing_steps(P: Polytope, f: LogDensity, delta_log: float, c_mix: float) -> int:
    """Step budget per independent sample.

    T = max(1, ceil(c_mix * (m^2 d^3 + m^2 d L^2 R^2) * (log w - delta_log)))
    with warmness log w = d log(R/r) + R L. delta_log is the natural log of
    the TV target and is consumed in log domain only (the target itself
    underflows long before d gets interesting).
    """
    if not (0 < c_mix < math.inf):
        raise ValueError(f"c_mix must be finite and positive, got {c_mix!r}")
    if not np.isfinite(delta_log):
        raise ValueError("delta_log must be finite")
    d, m = P.d, P.m
    L, R, r = f.L, P.R, P.r
    log_w = d * math.log(R / r) + R * L
    poly = m * m * d**3 + m * m * d * L * L * R * R
    return max(1, math.ceil(c_mix * poly * (log_w - delta_log)))


# ---------------------------------------------------------------------------
# Vectorized lockstep chains
# ---------------------------------------------------------------------------

# Chains per row block of a step. A block keeps each BLAS product small
# enough that OpenBLAS runs it on the calling thread (on 1e5 chains the
# threaded products burnt a second core for no wall-clock gain) and keeps
# the block's scratch arrays in cache.
BLOCK = 4096

# A start is refused when a pivot L_jj^2 of its Hessian is at most
# PIVOT_FLOOR * H_jj, 8 ulps: within the rounding error of the operations
# that made it (near-facet starts left noise of up to 3 ulps; starts in a
# 1e-7 slab kept every pivot above 60 ulps).
PIVOT_FLOOR = 2.0**-49


def _row_blocks(n: int) -> list[slice]:
    """Row blocks of at most BLOCK chains (BLOCK + 1 for the last one).

    A lone trailing row is folded into the block before it: numpy evaluates
    a one-row matmul through a different BLAS routine, whose rounding can
    differ from that of the many-row product.
    """
    edges = list(range(0, n, BLOCK)) + [n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> partial:
    """A call that sets out to the sum over k of a[..., k, :] * b[k, :]. A
    sum of one term is a plain product: faster than einsum, same bits."""
    if len(b) == 1:
        return partial(np.multiply, a[..., 0, :], b[0], out=out)
    return partial(np.einsum, "...kn,kn->...n", a, b, out=out)


def _scratch(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading elements of a flat buffer as a C-contiguous array."""
    return buf[: math.prod(shape)].reshape(shape)


class _Barrier:
    """One row block of k chains for any d: their barrier data, and the
    algebra on it, vectorized over the chains (structure of arrays).

    ``state`` holds the barrier data at the chain points and ``prop`` at
    the proposals, one row per number: log det H; H packed, its lower
    triangle taken column by column, so that column j from the diagonal
    down is one slice of rows; and the dense (d, d, k) Cholesky factor L,
    of which only the lower triangle is used. An accepted move is one
    masked copy from ``prop`` to ``state``.

    Each entry of H is one ``(1/S**2) @ (a_i * a_j)`` product. ``factor``
    builds L column by column, each column one sum over the columns before
    it, and log det H is the sum of the logs of the pivots, so for d = 1 it
    is log(h) itself. A step runs one factorization: that of H(y), which
    gives log det H(y) and is kept as the chain's L when the move is
    accepted. log det H and the quadratic forms feed only the Metropolis
    test: how they round can move an output byte only where U lands within
    a rounding error of the acceptance probability, so one algebra serves
    every d.

    Every view a step works on is made here, once: numpy makes a new view
    object on every indexing, and on a small block that costs more than
    the arithmetic.
    """

    def __init__(self, walk: "_Walk", sl: slice, A: np.ndarray, S0: np.ndarray):
        k, d = sl.stop - sl.start, walk.d
        lower = [(i, j) for j in range(d) for i in range(j, d)]
        rows, cols = (np.array(ix) for ix in zip(*lower))
        self.coef = np.ascontiguousarray((A[:, rows] * A[:, cols]).T)[:, :, None]
        starts = np.cumsum([0] + [d - j for j in range(d)])
        column = [slice(lo, hi) for lo, hi in zip(starts[:-1], starts[1:])]
        E = len(lower)
        size = 1 + E + d * d

        self.state, self.prop = np.zeros((size, k)), np.zeros((size, k))
        self.ld, self.ldy = self.state[0], self.prop[0]
        H, Hy = self.state[1 : 1 + E], self.prop[1 : 1 + E]
        self.hy00, self.Hy3 = Hy[0], Hy[:, :, None]
        self.Hdiag, self.Ldiag = 1 + starts[:-1], self.state[1 + E :: d + 1]

        # per-chain arrays of the walk, and this block's share of its scratch
        self.G, self.U, self.Y = walk.G[sl], walk.U[sl], walk.Y[sl]
        self.x, self.y = list(walk.X[:, sl]), list(walk.Y[sl].T)
        self.fx, self.fy = walk.fx[sl], walk.fy[sl]
        self.dq, self.inside = walk.dq[sl], walk.inside[sl]
        self.S, self.b = walk.S[:k], walk.bB[:k]
        self.flags, self.accept = walk.flags[:k], walk.accept[:k]
        self.moved = _scratch(walk.movedbuf, size, k)  # accept, once per state row
        z, v = _scratch(walk.zbuf, d, k), _scratch(walk.vbuf, d, k)
        t = _scratch(walk.tbuf, max(d, 2), k)
        vv = _scratch(walk.vvbuf, E, k)
        self.z, self.zs, self.vs, self.t = z, list(z), list(v), list(t)
        self.logs = t[1:d]  # log pivots 1..d-1

        L, Ly = (a[1 + E :].reshape(d, d, k) for a in (self.state, self.prop))
        self.factor_y = self._factor_plan(column, Hy, Ly, t)
        self.solve = [  # L^T z = g by back substitution
            (
                _dot(L[j + 1 :, j], z[j + 1 :], out=z[j]) if j + 1 < d else None,
                self.G[:, j], z[j], L[j, j],
            )
            for j in reversed(range(d))
        ]
        self.outer = [  # v_i v_j, i >= j; a lone diagonal entry is a square
            partial(np.multiply, v[j:], v[j], out=vv[col])
            if j + 1 < d
            else partial(np.square, v[j], out=vv[col][0])
            for j, col in enumerate(column)
        ]
        self.vv = vv
        self.weights = np.where(rows == cols, 1.0, 2.0)[:, None] if d > 1 else None
        self.qx = _dot(H, vv, out=t[0])
        self.qy = _dot(Hy, vv, out=self.dq)

        # the barrier data at the starting points
        np.square(S0, out=self.S)
        np.divide(1.0, self.S, out=self.S)
        self.at_proposals()
        self.state[...] = self.prop

    def factors(self) -> bool:
        """Whether H at the chain points is finite and every pivot clears
        PIVOT_FLOOR. A chain whose factor is nan would reject every
        proposal, and one whose pivot is rounding noise would barely move."""
        return bool(
            np.isfinite(self.state).all()
            and (np.square(self.Ldiag) > PIVOT_FLOOR * self.state[self.Hdiag]).all()
        )

    @staticmethod
    def _factor_plan(column, H, L, t) -> list[tuple]:
        plan = []
        for j, col in enumerate(column):
            c = t[j : len(column)] if j else H[col]
            dot = _dot(L[j:, :j], L[j, :j], out=c) if j else None
            below = L[j + 1 :, j] if j + 1 < len(column) else None
            plan.append((dot, H[col], c, c[0], c[1:], L[j, j], below))
        return plan

    def at_proposals(self) -> None:
        """H(y), its factor and log det H(y), from W = 1/S**2 in S. H(y) is
        a stack of matrix-vector products: each entry gets the same BLAS
        call, and bits, as W @ (a_i * a_j)."""
        np.matmul(self.S, self.coef, out=self.Hy3)
        self.factor(self.factor_y)
        self.logdet()

    @staticmethod
    def factor(plan) -> None:
        """H = L L^T, leaving pivot j >= 1 (L[j, j]**2 before the square
        root) in t[j]. A pivot that is not positive gives a nan factor,
        which the Metropolis test rejects."""
        for dot, h, c, pivot, rest, ljj, below in plan:
            if dot:
                dot()
                np.subtract(h, c, out=c)
            np.sqrt(pivot, out=ljj)
            if below is not None:
                np.divide(rest, ljj, out=below)

    def logdet(self) -> None:
        """log det H(y) from the pivots ``factor`` left behind."""
        np.log(self.hy00, out=self.ldy)
        if len(self.logs):
            np.log(self.logs, out=self.logs)
            self.ldy += np.sum(self.logs, axis=0, out=self.t[0])

    def sample(self) -> None:
        """z with L^T z = g, for the rows g of G and the factor L of H(x)."""
        for dot, g, z, ljj in self.solve:
            if dot:
                dot()
                np.subtract(g, z, out=z)
                np.divide(z, ljj, out=z)
            else:
                np.divide(g, ljj, out=z)

    def dquad(self) -> None:
        """dq = v^T H(y) v - v^T H(x) v for v = y - x."""
        for product in self.outer:
            product()
        if self.weights is not None:
            self.vv *= self.weights  # off-diagonal terms count twice
        qx = self.qx()
        self.qy()
        np.subtract(self.dq, qx, out=self.dq)


def run_chains_batch(
    P: Polytope,
    f: LogDensity,
    cfg: WalkConfig,
    X0: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Advance n independent chains T steps each, in lockstep.

    Parameters
    ----------
    X0 : (n, d) array of strictly interior starting points, at each of
        which the barrier Hessian must be finite and factor with every
        pivot above the rounding floor (``_Barrier.factors``).

    Returns
    -------
    (X, accepts)
        Final points, shape (n, d), and the total number of accepted moves
        across all chains and steps (acceptance rate = accepts / (n * T)).
    """
    X = np.array(X0, dtype=float, copy=True)
    if X.ndim != 2 or X.shape[1] != P.d:
        raise ValueError(f"X0 must be (n, {P.d})")
    S = P.b - X @ P.A.T
    if np.any(S <= 0):
        raise ValueError("all chains must start strictly inside the polytope")
    walk = _Walk(P, f, cfg, X, S)
    if not all(blk.factors() for blk in walk.blocks):
        raise ValueError("the barrier Hessian does not factor at some starting point")
    return walk.run(rng)


class _Walk:
    """The lockstep walk, in row blocks over preallocated buffers: one
    ``_Barrier`` per block, the same code for every d.

    A step draws G and U for the whole batch first, so the random stream does
    not depend on the blocking. Every f evaluation covers the whole batch,
    exactly as an unblocked step makes it, and a blocked BLAS product gets a
    one-row block only when the batch has one row (see ``_row_blocks``).

    Slacks of proposals that leave K are not patched: their Hessian entries
    are junk (inf or nan), and the accept mask, which requires an interior
    proposal, keeps them out of the chain state.
    """

    def __init__(self, P: Polytope, f: LogDensity, cfg: WalkConfig, X: np.ndarray, S: np.ndarray):
        n, d = X.shape
        self.n, self.d, self.f, self.T = n, d, f, cfg.T
        self.AT = P.A.T
        self.scale = cfg.eta / math.sqrt(d)
        self.qcoef = d / (2.0 * cfg.eta**2)

        # per chain: coordinates, f, the step's draws and proposals
        self.X = X.T.copy()
        self.fx = f.eval_many(X)
        self.G = np.empty((n, d))
        self.U = np.empty(n)
        self.Y = np.empty((n, d))
        self.fy = np.empty(n)
        self.dq = np.empty(n)  # qcoef (v^T H(y) v - v^T H(x) v)
        self.inside = np.empty(n, dtype=bool)

        # scratch shared by the blocks
        slices = _row_blocks(n)
        rows = max((sl.stop - sl.start for sl in slices), default=0)
        E = d * (d + 1) // 2
        self.S = np.empty((rows, P.m))
        self.bB = np.tile(P.b, (rows, 1))  # b - S broadcast over short rows is slow
        self.flags = np.empty((rows, P.m), dtype=bool)
        self.accept = np.empty(rows, dtype=bool)
        self.movedbuf = np.empty((1 + E + d * d) * rows, dtype=bool)
        self.zbuf, self.vbuf = np.empty(d * rows), np.empty(d * rows)
        self.tbuf, self.vvbuf = np.empty(max(d, 2) * rows), np.empty(E * rows)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self.blocks = [_Barrier(self, sl, P.A, S[sl]) for sl in slices]

    def run(self, rng: np.random.Generator) -> tuple[np.ndarray, int]:
        accepts = 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for _ in range(self.T):
                rng.standard_normal(out=self.G)
                rng.random(out=self.U)
                n_in = sum(self._propose(blk) for blk in self.blocks)
                if n_in == 0:
                    continue
                if n_in == self.n:
                    self.fy[:] = self.f.eval_many(self.Y)
                else:
                    self.fy[self.inside] = self.f.eval_many(np.compress(self.inside, self.Y, axis=0))
                accepts += sum(self._accept(blk) for blk in self.blocks)
        return self.X.T.copy(), int(accepts)

    def _propose(self, blk: _Barrier) -> int:
        """Proposal, its barrier data, and the quadratic-form term of
        log alpha for one block; returns the number of interior proposals."""
        S = blk.S
        blk.sample()
        blk.z *= self.scale
        for x, z, y in zip(blk.x, blk.zs, blk.y):
            np.add(x, z, out=y)
        np.matmul(blk.Y, self.AT, out=S)
        np.subtract(blk.b, S, out=S)
        np.greater(S, 0.0, out=blk.flags)
        n_in = np.count_nonzero(all_rows(blk.flags, blk.inside))

        np.square(S, out=S)
        np.divide(1.0, S, out=S)
        blk.at_proposals()
        for x, y, v in zip(blk.x, blk.y, blk.vs):
            np.subtract(y, x, out=v)
        blk.dquad()
        blk.dq *= self.qcoef
        return n_in

    @staticmethod
    def _accept(blk: _Barrier) -> int:
        """Metropolis test for one block; moves accepted chains in place and
        returns their number."""
        la = np.subtract(blk.fx, blk.fy, out=blk.t[0])
        half = np.subtract(blk.ldy, blk.ld, out=blk.t[1])
        half *= 0.5
        la += half
        la -= blk.dq
        # U < exp(min(la, 0)) needs no clip: where la > 0, exp(la) > 1 > U
        np.exp(la, out=la)
        accept = np.less(blk.U, la, out=blk.accept)
        accept &= blk.inside
        n_acc = np.count_nonzero(accept)
        if n_acc:
            for x, y in zip(blk.x, blk.y):
                np.putmask(x, accept, y)
            np.putmask(blk.fx, accept, blk.fy)
            # every barrier row in one masked copy, not one numpy call each
            np.copyto(blk.moved, accept)
            np.putmask(blk.state, blk.moved, blk.prop)
        return n_acc


# eta tuning: the first eta, the target acceptance band, each pilot
# round's chains and steps, and the most rounds before giving up
TUNE_ETA0 = 0.1
TUNE_BAND = (0.3, 0.7)
PILOT_CHAINS = 64
PILOT_STEPS = 500
PILOT_ROUNDS = 24


def tune_eta(P: Polytope, f: LogDensity, rng: np.random.Generator) -> tuple[float, float]:
    """Tune the step scale until pilot acceptance lands in ``TUNE_BAND``.

    Each round walks PILOT_CHAINS warm-started chains PILOT_STEPS steps,
    starting from eta = TUNE_ETA0. Doubling/halving walks eta toward the
    band; once the band is bracketed the search bisects in log space.
    Acceptance is monotone decreasing in eta for these walks, so this
    terminates quickly in practice.

    Returns (eta, acceptance_rate). Raises RuntimeError if the band cannot
    be hit within PILOT_ROUNDS (which indicates a degenerate instance).
    """
    lo, hi = TUNE_BAND
    eta = TUNE_ETA0
    small = None  # largest eta seen with acceptance above the band
    big = None    # smallest eta seen with acceptance below the band
    for _ in range(PILOT_ROUNDS):
        cfg = WalkConfig(eta=eta, T=PILOT_STEPS)
        X0 = warm_start_many(P, rng, PILOT_CHAINS)
        _, acc_count = run_chains_batch(P, f, cfg, X0, rng)
        acc = acc_count / (PILOT_CHAINS * PILOT_STEPS)
        if lo <= acc <= hi:
            return eta, acc
        if acc > hi:
            small = eta if small is None else max(small, eta)
        else:
            big = eta if big is None else min(big, eta)
        if small is not None and big is not None:
            eta = math.sqrt(small * big)
        elif acc > hi:
            eta *= 2.0
        else:
            eta /= 2.0
    raise RuntimeError(
        f"step-scale tuning did not reach acceptance in [{lo}, {hi}] "
        f"within {PILOT_ROUNDS} pilot rounds (last eta={eta:g})"
    )


# ---------------------------------------------------------------------------
# Draw pool
# ---------------------------------------------------------------------------


class WalkPool:
    """Walk endpoints made in blocks ahead of demand, served in order.

    ``pool(k, rng)`` is an oracle for ``converter.convert_batch``. Each
    endpoint is a fresh chain from a warm start, so draws made early are as
    i.i.d. as draws made on demand; the pool walks on its own generator and
    ignores rng. Short of k endpoints, it walks ``2k - held`` new chains in
    one lockstep call (2k: the expected remaining demand of k runs under the
    half-coin) and keeps the rest for later requests. chain_steps and
    accepts count the work of every walk it ran.
    """

    def __init__(self, P: Polytope, f: LogDensity, cfg: WalkConfig, rng: np.random.Generator):
        self.P, self.f, self.cfg, self.rng = P, f, cfg, rng
        self.held = np.empty((0, P.d))
        self.chain_steps = 0
        self.accepts = 0

    def __call__(self, k: int, rng: np.random.Generator | None) -> np.ndarray:
        if self.held.shape[0] < k:
            fresh = 2 * k - self.held.shape[0]
            X0 = warm_start_many(self.P, self.rng, fresh)
            X, accepts = run_chains_batch(self.P, self.f, self.cfg, X0, self.rng)
            self.held = np.concatenate([self.held, X])
            self.chain_steps += fresh * self.cfg.T
            self.accepts += accepts
        out, self.held = self.held[:k], self.held[k:]
        return out
