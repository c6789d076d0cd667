"""Independent oracles for the test suite.

The schedule evaluators here recompute the parameter formulas with
50-digit Decimal arithmetic, sharing no code with the package (that is the
point: they catch transcription slips in the float pipeline). The closed
forms cover exp(-s theta) on an interval, which is where every d=1
ground-truth comparison comes from. The one-chain Dikin walk and the
former production kernels further down are the references the package's
vectorized kernels are checked against. The last section holds small
geometry, density and ERM functions that only tests call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal, getcontext
from itertools import product

import numpy as np

from polysamp import converter, dikin, oracle
from polysamp.density import LogDensity
from polysamp.dp import ErmInstance, enumerate_vertices
from polysamp.geometry import Polytope, _check_dim

getcontext().prec = 50


def dec_schedule(eps: float, L: float, r: float, R: float, d: int) -> dict:
    """Converter parameter schedule, evaluated in high precision.

    Returns tau_raw/delta/delta_log as floats (rounded from 50-digit
    Decimals) plus the integer tau_max.
    """
    eps_d, L_d, r_d, R_d = (Decimal(v) for v in (eps, L, r, R))
    d_d = Decimal(d)
    tau_raw = 5 * d_d * (R_d / r_d).ln() + 5 * L_d * R_d + eps_d
    tau_max = int(tau_raw.to_integral_value(rounding=ROUND_CEILING))
    delta = eps_d / (512 * tau_max * max(d_d, L_d * R_d))
    delta_log = (eps_d / 64).ln() - d_d * (R_d / (delta * r_d)).ln() - L_d * R_d
    return {
        "tau_raw": float(tau_raw),
        "tau_max": tau_max,
        "delta": float(delta),
        "delta_log": float(delta_log),
    }


def check_settings(params: converter.ConverterParams, L: float, r: float, R: float, d: int) -> bool:
    """Do the three schedule constraints hold for this geometry?

    ``converter.compute_params`` satisfies them by construction (with
    equality, so the comparisons are non-strict).
    """
    ok_tau = params.tau_max >= 5.0 * d * math.log(R / r) + 5.0 * L * R + params.eps
    ok_delta = params.delta <= params.eps / (512.0 * params.tau_max * max(float(d), L * R))
    ok_dlog = params.delta_log <= math.log(params.eps / 64.0) - d * math.log(R / (params.delta * r)) - L * R
    return bool(ok_tau and ok_delta and ok_dlog and 0.0 < params.eps <= 1.0)


def dec_mixing(m: int, d: int, L: float, r: float, R: float, delta_log: float, c_mix: float) -> int:
    """Walk length T = max(1, ceil(c_mix poly(m,d) (log w - delta_log)))."""
    L_d, r_d, R_d = Decimal(L), Decimal(r), Decimal(R)
    m_d, d_d = Decimal(m), Decimal(d)
    poly = m_d**2 * d_d**3 + m_d**2 * d_d * (L_d * R_d) ** 2
    logw = d_d * (R_d / r_d).ln() + L_d * R_d
    raw = Decimal(c_mix) * poly * (logw - Decimal(delta_log))
    return max(1, int(raw.to_integral_value(rounding=ROUND_CEILING)))


# ---------------------------------------------------------------------------
# Closed forms for pi proportional to exp(-s theta) on [a, b]
# ---------------------------------------------------------------------------


def exp_interval_masses(s: float, lo: float, hi: float, nbins: int) -> np.ndarray:
    """Exact normalized cell masses of exp(-s theta) over a uniform grid."""
    edges = np.linspace(lo, hi, nbins + 1)
    if s == 0:
        raw = np.diff(edges)
    else:
        raw = (np.exp(-s * edges[:-1]) - np.exp(-s * edges[1:])) / s
    return raw / raw.sum()


def exp_interval_cdf(s: float, a: float, b: float, x: float) -> float:
    """P(theta <= x) under exp(-s theta) restricted to [a, b]."""
    if s == 0:
        return (x - a) / (b - a)
    return (math.exp(-s * a) - math.exp(-s * x)) / (math.exp(-s * a) - math.exp(-s * b))


def exp_interval_mean(s: float, a: float, b: float) -> float:
    """E[theta] under exp(-s theta) on [a, b]."""
    if s == 0:
        return 0.5 * (a + b)
    za = math.exp(-s * a)
    zb = math.exp(-s * b)
    # integral of theta e^{-s theta} = ((a + 1/s) za - (b + 1/s) zb) / s
    num = ((a + 1 / s) * za - (b + 1 / s) * zb) / s
    return num / ((za - zb) / s)


def mech_mean_symmetric(k: float) -> float:
    """E[theta] for exp(-k theta) on [-1, 1]: 1/k - coth(k)."""
    if k == 0:
        return 0.0
    return 1.0 / k - math.cosh(k) / math.sinh(k)


# ---------------------------------------------------------------------------
# Polytope builders
# ---------------------------------------------------------------------------


def box_polytope(half: float, d: int, r: float | None = None, R: float | None = None) -> Polytope:
    """[-half, half]^d with an honest (or caller-supplied) r and R."""
    A = np.vstack([np.eye(d), -np.eye(d)])
    b = np.full(2 * d, half)
    if r is None:
        r = half
    if R is None:
        R = half * math.sqrt(d)
    return Polytope(A, b, np.zeros(d), r, R)


def segment(r: float = 1.0, R: float = 2.0) -> Polytope:
    """K = [-1, 1] with the declared radii used by the worked examples."""
    return Polytope(np.array([[1.0], [-1.0]]), np.ones(2), np.zeros(1), r, R)


def square(R: float = 2.0) -> Polytope:
    """K = [-1, 1]^2, R declared loosely as in the worked examples."""
    return box_polytope(1.0, 2, r=1.0, R=R)


def random_polytope(rng: np.random.Generator, d: int, m_extra: int | None = None) -> Polytope:
    """A bounded random polytope with certified inner and outer balls.

    A box [-W, W]^d keeps it bounded (so R = W sqrt(d) is honest); extra
    random half-spaces are pushed out far enough that a ball of radius r0
    around the origin stays inside. Total facets stay <= 12.
    """
    W = float(rng.uniform(0.5, 2.0))
    r0 = W * float(rng.uniform(0.2, 0.8))
    if m_extra is None:
        m_extra = int(rng.integers(0, 12 - 2 * d + 1))
    rows = [np.eye(d), -np.eye(d)]
    offs = [np.full(d, W), np.full(d, W)]
    if m_extra:
        dirs = rng.standard_normal((m_extra, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # slack beyond r0 so the inner ball never touches these facets
        push = r0 + rng.uniform(0.05, 1.5, size=m_extra) * W
        rows.append(dirs)
        offs.append(push)
    A = np.vstack(rows)
    b = np.concatenate(offs)
    return Polytope(A, b, np.zeros(d), r0, W * math.sqrt(d))


def uniform_in_polytope(P: Polytope, rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points in K by rejection from the bounding box (tests only)."""
    from polysamp.geometry import contains_many
    from polysamp.oracle import box_bounds

    lo, hi = box_bounds(P)
    out = np.empty((n, P.d))
    got = 0
    while got < n:
        X = lo + (hi - lo) * rng.random((4 * n + 64, P.d))
        X = X[contains_many(P, X)]
        take = min(n - got, X.shape[0])
        out[got : got + take] = X[:take]
        got += take
    return out


# ---------------------------------------------------------------------------
# Reference one-chain walk
# ---------------------------------------------------------------------------
#
# The Metropolized Dikin walk one step at a time, straight from its
# definition, recomputing every Hessian from scratch. ``dikin.run_chains_batch``
# consumes the random stream draw for draw like ``run_chain_state``, so a
# one-chain batch must retrace its trajectory.


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


def propose(state: ChainState, cfg: dikin.WalkConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw y = x + (eta/sqrt(d)) z with z ~ N(0, H(x)^{-1})."""
    d = state.x.size
    g = rng.standard_normal(d)
    L = np.linalg.cholesky(state.H)
    z = np.linalg.solve(L.T, g)
    return state.x + (cfg.eta / math.sqrt(d)) * z


def log_proposal_density(P: Polytope, u, v, cfg: dikin.WalkConfig) -> float:
    """log q(u -> v) up to the constant that cancels in Metropolis ratios:
    0.5 * logdet H(u) - (d / (2 eta^2)) (v-u)^T H(u) (v-u)."""
    u = np.ravel(np.asarray(u, dtype=float))
    v = np.ravel(np.asarray(v, dtype=float))
    H, logdet = barrier_hessian(P, u)
    diff = v - u
    d = u.size
    return 0.5 * logdet - (d / (2.0 * cfg.eta**2)) * float(diff @ H @ diff)


def accept_prob(P: Polytope, f, x, y, cfg: dikin.WalkConfig) -> float:
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


def run_chain(P: Polytope, f, cfg: dikin.WalkConfig, x0, rng: np.random.Generator) -> np.ndarray:
    """Run T Metropolis steps from x0 and return the final point."""
    state = run_chain_state(P, f, cfg, x0, rng)
    return state.x


def run_chain_state(P: Polytope, f, cfg: dikin.WalkConfig, x0, rng: np.random.Generator) -> ChainState:
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


# ---------------------------------------------------------------------------
# Reference lockstep walk
# ---------------------------------------------------------------------------
#
# The straightforward whole-batch kernel that ``dikin.run_chains_batch``
# replaced for d <= 2, kept verbatim: the blocked production kernel must
# reproduce its points and accept counts bit for bit.


class _Barrier1D:
    def __init__(self, A: np.ndarray):
        self.a2 = (A[:, 0] ** 2)  # (m,)

    def compute(self, S: np.ndarray):
        return ((1.0 / S**2) @ self.a2,)  # h (n,)

    def logdet(self, rep) -> np.ndarray:
        return np.log(rep[0])

    def sample(self, rep, G: np.ndarray) -> np.ndarray:
        return G / np.sqrt(rep[0])[:, None]

    def quad(self, rep, V: np.ndarray) -> np.ndarray:
        return rep[0] * V[:, 0] ** 2

    @staticmethod
    def where(mask, new, old):
        return (np.where(mask, new[0], old[0]),)


class _Barrier2D:
    def __init__(self, A: np.ndarray):
        self.a11 = A[:, 0] ** 2
        self.a12 = A[:, 0] * A[:, 1]
        self.a22 = A[:, 1] ** 2

    def compute(self, S: np.ndarray):
        W = 1.0 / S**2
        return (W @ self.a11, W @ self.a12, W @ self.a22)

    def logdet(self, rep) -> np.ndarray:
        h11, h12, h22 = rep
        return np.log(h11 * h22 - h12**2)

    def sample(self, rep, G: np.ndarray) -> np.ndarray:
        # Solve L^T z = g for the closed-form 2x2 Cholesky factor of H.
        h11, h12, h22 = rep
        l11 = np.sqrt(h11)
        l21 = h12 / l11
        l22 = np.sqrt(h22 - l21**2)
        z2 = G[:, 1] / l22
        z1 = (G[:, 0] - l21 * z2) / l11
        return np.stack([z1, z2], axis=1)

    def quad(self, rep, V: np.ndarray) -> np.ndarray:
        h11, h12, h22 = rep
        return h11 * V[:, 0] ** 2 + 2.0 * h12 * V[:, 0] * V[:, 1] + h22 * V[:, 1] ** 2

    @staticmethod
    def where(mask, new, old):
        return tuple(np.where(mask, n, o) for n, o in zip(new, old))


def _barrier_ops(A: np.ndarray):
    return _Barrier1D(A) if A.shape[1] == 1 else _Barrier2D(A)


def reference_run_chains_batch(
    P: Polytope,
    f,
    cfg: dikin.WalkConfig,
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
    n, d = X.shape
    A, b = P.A, P.b

    S = b - X @ A.T
    if np.any(S <= 0):
        raise ValueError("all chains must start strictly inside the polytope")

    ops = _barrier_ops(A)
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


# ---------------------------------------------------------------------------
# Reference membership, ball and rejection kernels
# ---------------------------------------------------------------------------
#
# The one-liners that the column-wise kernels of ``geometry`` and the
# in-place proposals of ``oracle.ExactSampler`` replaced, kept verbatim: the
# production kernels must give the same bits.


def reference_contains_many(P: Polytope, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.all(X @ P.A.T <= P.b, axis=1)


def reference_sample_unit_ball_many(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    g = rng.standard_normal((n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = rng.random(n) ** (1.0 / d)
    return g * radii[:, None]


def reference_exact_draw(sampler, rng: np.random.Generator, n: int) -> np.ndarray:
    """``ExactSampler.draw`` with its former proposal and weight code (the
    weight <= 1 check left out)."""
    P, f = sampler.P, sampler.f
    out = np.empty((n, P.d))
    got = 0
    rate = max(sampler.pilot_acceptance, oracle.ACCEPTANCE_GUARD)
    while got < n:
        want = n - got
        k = min(500_000, int(want / rate * 1.2) + 64)
        X = sampler.lo + (sampler.hi - sampler.lo) * rng.random((k, P.d))
        member = reference_contains_many(P, X)
        probs = np.zeros(k)
        if np.any(member):
            probs[member] = np.exp(-(f.eval_many(X[member]) - sampler.f_lower))
        accept = rng.random(k) < probs
        taken = X[accept][:want]
        out[got : got + taken.shape[0]] = taken
        got += taken.shape[0]
    return out


def reference_corner_radius(lo: np.ndarray, hi: np.ndarray, center: np.ndarray) -> float:
    """``oracle._corner_radius`` as the loop over all 2^d corners it was."""
    worst = 0.0
    for corner in product(*zip(lo, hi)):
        worst = max(worst, float(np.linalg.norm(np.array(corner) - center)))
    return worst


# ---------------------------------------------------------------------------
# Reference CSV row writers
# ---------------------------------------------------------------------------
#
# The per-row loops that ``cli._write_rows`` replaced in the sample, diagnose
# and erm commands, kept verbatim: the blocked writer must produce the same
# string for the same arrays.


def _csv_float(x: float) -> str:
    return repr(float(x))


def reference_sample_rows(out, points, tau, fallback, oracle_calls) -> None:
    for i in range(len(points)):
        xs = ",".join(_csv_float(v) for v in points[i])
        out.write(f"{i},{xs},{tau[i]},{int(fallback[i])},{oracle_calls[i]}\n")


def reference_diagnose_rows(out, centers, masses, counts, n, lr, sg, incl) -> None:
    for c in range(len(masses)):
        ms = ",".join(_csv_float(v) for v in centers[c])
        out.write(
            f"{c},{ms},{_csv_float(masses[c])},{counts[c]},"
            f"{_csv_float(counts[c] / n)},{_csv_float(lr[c])},{_csv_float(sg[c])},"
            f"{int(incl[c])}\n"
        )


def reference_erm_rows(out, thetas, tau, fallback, oracle_calls, gaps) -> None:
    for i in range(len(thetas)):
        xs = ",".join(_csv_float(v) for v in thetas[i])
        out.write(
            f"{i},{xs},{tau[i]},{fallback[i]},"
            f"{oracle_calls[i]},{_csv_float(gaps[i])}\n"
        )


def repr_edge_floats() -> np.ndarray:
    """Doubles at the edges of the CSV writer's exact path, with both signs.

    Powers of two across its range, the three nearest neighbours on each
    side of short decimals, its range ends, values that lie halfway between
    two shortest candidates (repr rounds those half to even), and zero,
    nan, inf, subnormals and the extremes.
    """
    short = np.array([0.1, 0.3, 1e-4, 1e15, 9999999999999998.0, 1e16])
    neighbours, up, down = [], short, short
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        neighbours += [up, down]
    halfway = 2.0**50 + np.array([0.25, 0.75, 1.25, 2.75])
    halfway = np.concatenate([halfway, [562949953421312.25, 562949953421312.75, 999999999999999.75]])
    special = np.array([0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, np.finfo(float).max])
    x = np.concatenate([np.ldexp(1.0, np.arange(-14, 55)), short, *neighbours, halfway, special])
    return np.concatenate([x, -x])


# ---------------------------------------------------------------------------
# Functions only tests call
# ---------------------------------------------------------------------------


def contains(P: Polytope, theta) -> bool:
    """Exact membership test: A theta <= b componentwise (closed polytope)."""
    theta = _check_dim(P, np.ravel(np.asarray(theta, dtype=float)))
    return bool(np.all(P.A @ theta <= P.b))


def margin(P: Polytope, theta) -> float:
    """Signed distance from theta to the nearest facet plane.

    Returns
    -------
    float
        min_i (b_i - a_i . theta) / ||a_i||. Negative outside K; theta lies
        in the s-interior of K iff the result is >= s.
    """
    theta = _check_dim(P, np.ravel(np.asarray(theta, dtype=float)))
    return float(np.min((P.b - P.A @ theta) / P.row_norms))


def margin_many(P: Polytope, X) -> np.ndarray:
    """Vectorized ``margin`` for an (n, d) array of points."""
    X = _check_dim(P, np.atleast_2d(np.asarray(X, dtype=float)))
    return np.min((P.b - X @ P.A.T) / P.row_norms, axis=1)




def sample_unit_ball(rng: np.random.Generator, d: int) -> np.ndarray:
    """One point uniform on the closed unit ball in d dimensions.

    Gaussian direction normalized to the sphere, radius U**(1/d). No
    rejection loop, exact in any dimension.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    g = rng.standard_normal(d)
    g /= np.linalg.norm(g)
    return g * rng.random() ** (1.0 / d)




def utility_gap(inst: ErmInstance, theta_hat: np.ndarray) -> float:
    """Excess total loss of theta_hat over the exact polytope minimum.

    The total loss is linear, so the minimum sits at a vertex and the
    exhaustive enumeration is exact. Nonnegative up to solver roundoff.
    """
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    if not contains(inst.polytope, theta_hat):
        raise ValueError("theta_hat is outside the feasible polytope")
    csum = inst.losses.sum(axis=0)
    vertices = enumerate_vertices(inst.polytope)
    best = float(np.min(vertices @ csum))
    return float(theta_hat @ csum - best)


class CountingDensity(LogDensity):
    """f as it is, counting the points it evaluates, for tests that compare
    how many evaluations two code paths make."""

    def __init__(self, f: LogDensity):
        super().__init__(f._fn, f.L, f.name)
        self.count = 0

    def eval_many(self, X) -> np.ndarray:
        vals = super().eval_many(X)
        self.count += vals.shape[0]
        return vals


def loss_sum(C) -> LogDensity:
    """Sum of linear losses: f(theta) = sum_i c_i . theta for rows c_i of C.

    The Lipschitz constant is ||sum_i c_i||_2 (exact for the sum); private
    ERM code uses the looser bound n * max ||c_i|| for sensitivity instead,
    because privacy must hold for every neighboring dataset, not just the
    observed one.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    total = C.sum(axis=0)
    return LogDensity(lambda X, _c=total: X @ _c, float(np.linalg.norm(total)), name="loss_sum")
