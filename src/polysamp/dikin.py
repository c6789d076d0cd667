"""Metropolized Dikin walk with the logarithmic barrier.

The walk is the total-variation-accurate sampling oracle the converter
consumes. At a strictly interior point x the log-barrier Hessian

    H(x) = sum_i a_i a_i^T / (b_i - a_i . x)^2

defines the local ellipsoid; the proposal is Gaussian with covariance
(eta^2 / d) * H(x)^{-1}, and a full Metropolis-Hastings correction (including
the log-det term of the position-dependent proposal) makes exp(-f) restricted
to the polytope the stationary law. Correctness rests on the detailed-balance
identity, which the tests check to 1e-8 in log space; speed rests on tuning
eta to a sane acceptance band.

Two execution paths:

* scalar functions (``propose``, ``accept_prob``, ``run_chain``) that follow
  the contracts one step at a time and recompute Hessians from scratch,
* ``run_chains_batch``, which advances many independent chains in lockstep
  with vectorized numpy kernels. All the large acceptance runs go through
  the batch path.

For d <= 2 the batch path uses the closed-form Cholesky factor of the 1x1 or
2x2 Hessian. Each chain's Hessian entries, log det H and f(x) are cached and
overwritten only on accepted moves, and every step runs in row blocks of at
most ``BLOCK`` chains over preallocated buffers. The blocks are there for
BLAS threading: on a whole 1e5-chain batch OpenBLAS spreads the skinny
products ``Y @ A.T`` and ``(1/S**2) @ a`` over every core, which doubled the
CPU time of the step without making it faster; on a block it runs them on
the calling thread, and the block's scratch stays in cache. The random draws
and the f evaluations still cover the whole batch, so the result is
bit-identical to the unblocked step. Higher d runs the unblocked step with
np.linalg's batched factorizations.

``WalkPool`` is how the samplers consume the walk: it runs the batch path in
blocks of fresh warm-started chains on its own generator and serves the
converter's per-round requests from the endpoints it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import LogDensity
from .geometry import Polytope, all_rows, margin, sample_unit_ball, sample_unit_ball_many

__all__ = [
    "ChainState",
    "WalkConfig",
    "barrier_hessian",
    "propose",
    "accept_prob",
    "run_chain",
    "run_chains_batch",
    "warm_start",
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
    seed: optional RNG seed recorded for provenance (callers pass explicit
          generators to the step functions).
    """

    eta: float = 0.1
    T: int = 1
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValueError("step scale eta must be positive")
        if self.T < 0:
            raise ValueError("step count T must be >= 0")


@dataclass
class ChainState:
    """Current point of one chain plus its cached barrier data."""

    x: np.ndarray
    H: np.ndarray
    logdetH: float
    steps: int = 0
    accepts: int = 0


def barrier_hessian(P: Polytope, x) -> tuple[np.ndarray, float]:
    """Log-barrier Hessian and its log determinant at an interior point.

    Raises ValueError when any slack b_i - a_i . x is nonpositive; callers
    must keep the chain strictly inside the polytope.
    """
    x = np.ravel(np.asarray(x, dtype=float))
    s = P.b - P.A @ x
    if np.any(s <= 0):
        raise ValueError("barrier Hessian requested at a non-interior point")
    scaled = P.A / s[:, None]
    H = scaled.T @ scaled
    # Cholesky also certifies positive definiteness.
    L = np.linalg.cholesky(H)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return H, logdet


def init_chain(P: Polytope, x0) -> ChainState:
    x0 = np.ravel(np.asarray(x0, dtype=float)).copy()
    if margin(P, x0) <= 0:
        raise ValueError("chain must start strictly inside the polytope")
    H, logdet = barrier_hessian(P, x0)
    return ChainState(x=x0, H=H, logdetH=logdet)


def propose(state: ChainState, cfg: WalkConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw y = x + (eta/sqrt(d)) z with z ~ N(0, H(x)^{-1})."""
    d = state.x.size
    g = rng.standard_normal(d)
    L = np.linalg.cholesky(state.H)
    z = np.linalg.solve(L.T, g)
    return state.x + (cfg.eta / math.sqrt(d)) * z


def log_proposal_density(P: Polytope, u, v, cfg: WalkConfig) -> float:
    """log q(u -> v) up to the constant that cancels in Metropolis ratios:
    0.5 * logdet H(u) - (d / (2 eta^2)) (v-u)^T H(u) (v-u)."""
    u = np.ravel(np.asarray(u, dtype=float))
    v = np.ravel(np.asarray(v, dtype=float))
    H, logdet = barrier_hessian(P, u)
    diff = v - u
    d = u.size
    return 0.5 * logdet - (d / (2.0 * cfg.eta**2)) * float(diff @ H @ diff)


def accept_prob(P: Polytope, f: LogDensity, x, y, cfg: WalkConfig) -> float:
    """Metropolis-Hastings acceptance probability for the move x -> y.

    Zero for proposals outside the open polytope (those are rejections, not
    errors); otherwise min(1, e^{f(x)-f(y)} q(y->x)/q(x->y)).
    """
    x = np.ravel(np.asarray(x, dtype=float))
    y = np.ravel(np.asarray(y, dtype=float))
    if margin(P, y) <= 0:
        return 0.0
    log_ratio = (f(x) - f(y)) + log_proposal_density(P, y, x, cfg) - log_proposal_density(P, x, y, cfg)
    return float(min(1.0, math.exp(min(log_ratio, 0.0))))


def run_chain(P: Polytope, f: LogDensity, cfg: WalkConfig, x0, rng: np.random.Generator) -> np.ndarray:
    """Run T Metropolis steps from x0 and return the final point."""
    state = run_chain_state(P, f, cfg, x0, rng)
    return state.x


def run_chain_state(P: Polytope, f: LogDensity, cfg: WalkConfig, x0, rng: np.random.Generator) -> ChainState:
    """Like ``run_chain`` but returns the full ChainState (counters included)."""
    state = init_chain(P, x0)
    for _ in range(cfg.T):
        y = propose(state, cfg, rng)
        alpha = accept_prob(P, f, state.x, y, cfg)
        state.steps += 1
        # always consume the coin so the stream position is a function of
        # the step count alone, matching the batched runner draw for draw
        u = rng.random()
        if alpha > 0.0 and u < alpha:
            state.x = y
            state.H, state.logdetH = barrier_hessian(P, y)
            state.accepts += 1
    return state


def warm_start(P: Polytope, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the inscribed ball (the walk's warm start)."""
    return P.center + P.r * sample_unit_ball(rng, P.d)


def warm_start_many(P: Polytope, rng: np.random.Generator, n: int) -> np.ndarray:
    return P.center + P.r * sample_unit_ball_many(rng, n, P.d)


def mixing_steps(P: Polytope, f: LogDensity, eps: float, delta_log: float, c_mix: float) -> int:
    """Step budget per independent sample.

    T = max(1, ceil(c_mix * (m^2 d^3 + m^2 d L^2 R^2) * (log w - delta_log)))
    with warmness log w = d log(R/r) + R L. delta_log is the natural log of
    the TV target and is consumed in log domain only (the target itself
    underflows long before d gets interesting). eps is accepted for
    interface symmetry with the schedule and sanity-checked, nothing more;
    the step count depends on the TV target, not on eps directly.
    """
    if not (eps > 0):
        raise ValueError("eps must be positive")
    if not (c_mix > 0):
        raise ValueError("c_mix must be positive")
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
#
# The batch path keeps, for every chain: the current point, its Hessian, log
# det H, and f(x). d <= 2 runs in ``_LowDimWalk``, higher d in ``_run_nd``.

# Chains per row block of the d <= 2 step. A block keeps each BLAS product
# small enough that OpenBLAS runs it on the calling thread (on 1e5 chains the
# threaded products burnt a second core for no wall-clock gain) and keeps
# the block's scratch arrays in cache.
BLOCK = 4096


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


class _Barrier1D:
    """d = 1: H is the scalar h = sum_i a_i^2 / s_i^2."""

    def __init__(self, A: np.ndarray):
        self.coef = (A[:, 0] ** 2,)

    @staticmethod
    def logdet(H, out, tmp):
        return np.log(H[0], out=out)

    @staticmethod
    def sample(H, G, z, tmp):
        """z = L^{-T} g with L = sqrt(h)."""
        np.sqrt(H[0], out=tmp[0])
        np.divide(G[:, 0], tmp[0], out=z[0])

    @staticmethod
    def dquad(Hx, Hy, V, out, tmp):
        """out = v^T H(y) v - v^T H(x) v for v = y - x."""
        v2 = np.square(V[0], out=tmp[0])
        qx = np.multiply(Hx[0], v2, out=tmp[1])
        np.multiply(Hy[0], v2, out=out)
        return np.subtract(out, qx, out=out)


class _Barrier2D:
    """d = 2: H = [[h11, h12], [h12, h22]] with a closed-form Cholesky factor."""

    def __init__(self, A: np.ndarray):
        self.coef = (A[:, 0] ** 2, A[:, 0] * A[:, 1], A[:, 1] ** 2)

    @staticmethod
    def logdet(H, out, tmp):
        h11, h12, h22 = H
        np.multiply(h11, h22, out=out)
        out -= np.square(h12, out=tmp[0])
        return np.log(out, out=out)

    @staticmethod
    def sample(H, G, z, tmp):
        """Solve L^T z = g for the Cholesky factor L of H."""
        h11, h12, h22 = H
        l11 = np.sqrt(h11, out=tmp[0])
        l21 = np.divide(h12, l11, out=tmp[1])
        l22 = np.square(l21, out=tmp[2])
        np.subtract(h22, l22, out=l22)
        np.sqrt(l22, out=l22)
        z1, z2 = z
        np.divide(G[:, 1], l22, out=z2)
        np.multiply(l21, z2, out=z1)
        np.subtract(G[:, 0], z1, out=z1)
        np.divide(z1, l11, out=z1)

    @staticmethod
    def _quad(H, V, v00, v11, out, tmp):
        # h11 v0^2 + 2 h12 v0 v1 + h22 v1^2, summed left to right
        h11, h12, h22 = H
        np.multiply(h11, v00, out=out)
        cross = np.multiply(h12, 2.0, out=tmp)
        cross *= V[0]
        cross *= V[1]
        out += cross
        out += np.multiply(h22, v11, out=tmp)
        return out

    @classmethod
    def dquad(cls, Hx, Hy, V, out, tmp):
        """out = v^T H(y) v - v^T H(x) v for v = y - x."""
        v00 = np.square(V[0], out=tmp[0])
        v11 = np.square(V[1], out=tmp[1])
        qx = cls._quad(Hx, V, v00, v11, tmp[2], tmp[3])
        cls._quad(Hy, V, v00, v11, out, tmp[3])
        return np.subtract(out, qx, out=out)


class _BarrierND:
    def __init__(self, A: np.ndarray):
        self.A = A

    def compute(self, S: np.ndarray):
        W = 1.0 / S**2  # (n, m)
        H = np.einsum("nm,mi,mj->nij", W, self.A, self.A, optimize=True)
        L = np.linalg.cholesky(H)
        return (H, L)

    def logdet(self, rep) -> np.ndarray:
        return 2.0 * np.sum(np.log(np.diagonal(rep[1], axis1=1, axis2=2)), axis=1)

    def sample(self, rep, G: np.ndarray) -> np.ndarray:
        Lt = np.transpose(rep[1], (0, 2, 1))
        return np.linalg.solve(Lt, G[..., None])[..., 0]

    def quad(self, rep, V: np.ndarray) -> np.ndarray:
        return np.einsum("ni,nij,nj->n", V, rep[0], V, optimize=True)

    @staticmethod
    def where(mask, new, old):
        m = mask[:, None, None]
        return tuple(np.where(m, n, o) for n, o in zip(new, old))


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
    X0 : (n, d) array of strictly interior starting points.

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
    if P.d <= 2:
        return _LowDimWalk(P, f, cfg, X, S).run(rng)
    return _run_nd(P, f, cfg, X, S, rng)


class _Block:
    """Views of one row block: its slice of every per-chain array, and the
    leading rows of the shared per-block scratch."""

    def __init__(self, walk: "_LowDimWalk", sl: slice):
        k = sl.stop - sl.start
        self.G, self.U, self.Y = walk.G[sl], walk.U[sl], walk.Y[sl]
        self.x = [a[sl] for a in walk.x]
        self.Ycols = [walk.Y[sl, j] for j in range(walk.d)]
        self.H = [a[sl] for a in walk.H]
        self.Hy = [a[sl] for a in walk.Hy]
        self.ld, self.ldy = walk.ld[sl], walk.ldy[sl]
        self.fx, self.fy = walk.fx[sl], walk.fy[sl]
        self.dq, self.inside = walk.dq[sl], walk.inside[sl]
        self.S, self.b, self.flags = walk.S[:k], walk.bB[:k], walk.flags[:k]
        self.z = [a[:k] for a in walk.z]
        self.v = [a[:k] for a in walk.v]
        self.tmp = [a[:k] for a in walk.tmp]
        self.accept = walk.accept[:k]


class _LowDimWalk:
    """The d <= 2 lockstep walk over preallocated buffers.

    A step draws G and U for the whole batch first, so the random stream does
    not depend on the blocking. Every f evaluation covers the whole batch,
    exactly as an unblocked step makes it, and a blocked BLAS product gets a
    one-row block only when the batch has one row (see ``_row_blocks``).
    Points and accept counts are therefore bit-identical to those of the
    unblocked step.

    Slacks of proposals that leave K are not patched: their Hessian entries
    are junk (inf or nan), and the accept mask, which requires an interior
    proposal, keeps them out of the chain state.
    """

    def __init__(self, P: Polytope, f: LogDensity, cfg: WalkConfig, X: np.ndarray, S: np.ndarray):
        n, d = X.shape
        self.n, self.d, self.f, self.T = n, d, f, cfg.T
        self.ops = _Barrier1D(P.A) if d == 1 else _Barrier2D(P.A)
        self.AT = P.A.T
        self.scale = cfg.eta / math.sqrt(d)
        self.qcoef = d / (2.0 * cfg.eta**2)

        # chain state: coordinates, Hessian entries, log det H, f
        W = 1.0 / S**2
        self.H = [W @ c for c in self.ops.coef]
        self.ld = self.ops.logdet(self.H, np.empty(n), [np.empty(n)])
        self.fx = f.eval_many(X)
        self.x = [X[:, j].copy() for j in range(d)]

        # the same at the proposals, plus the step's draws
        self.G = np.empty((n, d))
        self.U = np.empty(n)
        self.Y = np.empty((n, d))
        self.Hy = [np.empty(n) for _ in self.H]
        self.ldy = np.empty(n)
        self.fy = np.empty(n)
        self.dq = np.empty(n)  # qcoef (v^T H(y) v - v^T H(x) v)
        self.inside = np.empty(n, dtype=bool)

        slices = _row_blocks(n)
        rows = max((sl.stop - sl.start for sl in slices), default=0)
        self.S = np.empty((rows, P.m))
        self.bB = np.tile(P.b, (rows, 1))  # b - S broadcast over short rows is slow
        self.flags = np.empty((rows, P.m), dtype=bool)
        self.z = [np.empty(rows) for _ in range(d)]
        self.v = [np.empty(rows) for _ in range(d)]
        self.tmp = [np.empty(rows) for _ in range(4)]
        self.accept = np.empty(rows, dtype=bool)
        self.blocks = [_Block(self, sl) for sl in slices]

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
        return np.stack(self.x, axis=1), int(accepts)

    def _propose(self, blk: _Block) -> int:
        """Proposal, its Hessian and log det, and the quadratic-form term of
        log alpha for one block; returns the number of interior proposals."""
        ops, z, t, S = self.ops, blk.z, blk.tmp, blk.S
        ops.sample(blk.H, blk.G, z, t)
        for x, zj, y in zip(blk.x, z, blk.Ycols):
            zj *= self.scale
            np.add(x, zj, out=y)
        np.matmul(blk.Y, self.AT, out=S)
        np.subtract(blk.b, S, out=S)
        np.greater(S, 0.0, out=blk.flags)
        n_in = np.count_nonzero(all_rows(blk.flags, blk.inside))

        np.square(S, out=S)
        np.divide(1.0, S, out=S)
        for c, h in zip(ops.coef, blk.Hy):
            np.matmul(S, c, out=h)
        ops.logdet(blk.Hy, blk.ldy, t)
        for x, y, v in zip(blk.x, blk.Ycols, blk.v):
            np.subtract(y, x, out=v)
        ops.dquad(blk.H, blk.Hy, blk.v, blk.dq, t)
        blk.dq *= self.qcoef
        return n_in

    @staticmethod
    def _accept(blk: _Block) -> int:
        """Metropolis test for one block; moves accepted chains in place and
        returns their number."""
        la = np.subtract(blk.fx, blk.fy, out=blk.tmp[0])
        half = np.subtract(blk.ldy, blk.ld, out=blk.tmp[1])
        half *= 0.5
        la += half
        la -= blk.dq
        # U < exp(min(la, 0)) needs no clip: where la > 0, exp(la) > 1 > U
        np.exp(la, out=la)
        accept = np.less(blk.U, la, out=blk.accept)
        accept &= blk.inside
        n_acc = np.count_nonzero(accept)
        if n_acc:
            for x, y in zip(blk.x, blk.Ycols):
                np.putmask(x, accept, y)
            np.putmask(blk.fx, accept, blk.fy)
            np.putmask(blk.ld, accept, blk.ldy)
            for h, hy in zip(blk.H, blk.Hy):
                np.putmask(h, accept, hy)
        return n_acc


def _run_nd(P, f, cfg, X, S, rng):
    """The d >= 3 step: batched np.linalg factorizations over all chains."""
    n, d = X.shape
    A, b = P.A, P.b
    ops = _BarrierND(A)
    rep = ops.compute(S)
    logdet_x = ops.logdet(rep)
    fx = f.eval_many(X)
    scale = cfg.eta / math.sqrt(d)
    qcoef = d / (2.0 * cfg.eta**2)
    accepts = 0

    for _ in range(cfg.T):
        G = rng.standard_normal((n, d))
        U = rng.random(n)
        Y = X + scale * ops.sample(rep, G)

        SY = b - Y @ A.T
        interior = np.all(SY > 0, axis=1)
        if not np.any(interior):
            continue

        # Hessian pieces at the proposal; slacks of rejected rows are
        # patched to 1 so the vectorized math stays finite, then masked out.
        SY_safe = np.where(interior[:, None], SY, 1.0)
        rep_y = ops.compute(SY_safe)
        logdet_y = ops.logdet(rep_y)

        fy = np.array(fx)  # placeholder values for non-interior proposals
        fy[interior] = f.eval_many(Y[interior])

        diff = Y - X
        q_x = ops.quad(rep, diff)     # (y-x)^T H(x) (y-x)
        q_y = ops.quad(rep_y, diff)   # (x-y)^T H(y) (x-y); sign squares away

        log_alpha = (fx - fy) + 0.5 * (logdet_y - logdet_x) - qcoef * (q_y - q_x)
        accept = interior & (U < np.exp(np.minimum(log_alpha, 0.0)))
        if not np.any(accept):
            continue

        accepts += int(np.count_nonzero(accept))
        X = np.where(accept[:, None], Y, X)
        fx = np.where(accept, fy, fx)
        logdet_x = np.where(accept, logdet_y, logdet_x)
        rep = ops.where(accept, rep_y, rep)

    return X, accepts


def tune_eta(
    P: Polytope,
    f: LogDensity,
    rng: np.random.Generator,
    eta0: float = 0.1,
    band: tuple[float, float] = (0.3, 0.7),
    pilot_steps: int = 500,
    pilot_chains: int = 64,
    max_rounds: int = 24,
) -> tuple[float, float]:
    """Tune the step scale until pilot acceptance lands in ``band``.

    Doubling/halving walks eta toward the band; once the band is bracketed
    the search bisects in log space. Acceptance is monotone decreasing in
    eta for these walks, so this terminates quickly in practice.

    Returns (eta, acceptance_rate). Raises RuntimeError if the band cannot
    be hit within max_rounds (which indicates a degenerate instance).
    """
    lo, hi = band
    eta = float(eta0)
    small = None  # largest eta seen with acceptance above the band
    big = None    # smallest eta seen with acceptance below the band
    for _ in range(max_rounds):
        cfg = WalkConfig(eta=eta, T=pilot_steps)
        X0 = warm_start_many(P, rng, pilot_chains)
        _, acc_count = run_chains_batch(P, f, cfg, X0, rng)
        acc = acc_count / (pilot_chains * pilot_steps)
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
        f"within {max_rounds} pilot rounds (last eta={eta:g})"
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
