"""Independent oracles for the test suite.

The schedule evaluators here recompute the parameter formulas with
50-digit Decimal arithmetic, sharing no code with the package (that is the
point: they catch transcription slips in the float pipeline). The closed
forms cover exp(-s theta) on an interval, which is where every d=1
ground-truth comparison comes from. The one-chain Dikin walk and the
former production kernels further down are the references the package's
vectorized kernels are checked against; the former eta search is the
reference for ``dikin.search_eta``. ``tau_statistics`` checks the halting
iterations against the paper's bands on their law. The last section holds
small geometry, density and ERM functions that only tests call.
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
from polysamp.geometry import Polytope, _check_dim, contains_many

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


def exp_interval_cdf(s: float, a: float, b: float, x):
    """P(theta <= x) under exp(-s theta) restricted to [a, b], for a float
    or an array x (0 below a, 1 above b)."""
    x = np.clip(x, a, b)
    if s == 0:
        return (x - a) / (b - a)
    return (np.exp(-s * a) - np.exp(-s * x)) / (np.exp(-s * a) - np.exp(-s * b))


def mech_mean_symmetric(k: float) -> float:
    """E[theta] for exp(-k theta) on [-1, 1]: 1/k - coth(k)."""
    if k == 0:
        return 0.0
    return 1.0 / k - math.cosh(k) / math.sinh(k)


def converter_law_1d(s: float, eps: float, mu_cdf, stretch: bool = True, R: float = 2.0, kinks=()):
    """(z, log(nu(z) / pi(z))) for the converter's output law nu on the
    segment K = [-1, 1] (r = 1 about 0, declared outer radius R), with pi
    proportional to exp(-s x) and an oracle whose law mu has the CDF mu_cdf
    (vectorized, continuous, and smooth but at -1, 1 and kinks).

    A round draws theta from mu and W = theta + delta r xi, xi uniform on
    [-1, 1], so W has density g(w) = (F_mu(w + delta r) - F_mu(w - delta r))
    / (2 delta r). It halts at Z = W / (1 - delta) (Z = W without the
    stretch) when Z lies in K and a fair coin says so: at density q(z) =
    (1 - delta) g((1 - delta) z) / 2 on K, with probability p, the integral
    of q. After tau_max rounds the fallback draws from the inscribed ball,
    uniform on K here, so

        nu = q (1 - (1 - p)^tau_max) / p + (1 - p)^tau_max / 2.

    p is a Gauss-Legendre sum between the points where q is not smooth. z
    is a uniform grid, geometric grids down to 1e-12 from both ends, and a
    fine grid across each ramp of q, where g's window passes a kink of F_mu.
    """
    params = converter.compute_params(eps, abs(s), 1.0, R, 1)
    dr = params.delta
    shrink = 1.0 - params.delta if stretch else 1.0

    def q(z):
        w = shrink * z
        return shrink * (mu_cdf(w + dr) - mu_cdf(w - dr)) / (4.0 * dr)

    ramps = (np.array([-1.0, 1.0, *kinks])[:, None] + [-dr, dr]) / shrink
    edges = np.unique(np.clip(np.append(ramps, [-1.0, 1.0]), -1.0, 1.0))
    nodes, weights = np.polynomial.legendre.leggauss(32)
    mid, half = (edges[1:] + edges[:-1]) / 2.0, np.diff(edges) / 2.0
    p = float(np.sum(weights[:, None] * half * q(mid + half * nodes[:, None])))

    ends = 10.0 ** np.linspace(-12.0, 0.0, 241)
    fine = ramps.mean(axis=1)[:, None] + np.linspace(-2.0 * dr, 2.0 * dr, 201)
    z = np.concatenate([np.linspace(-1.0, 1.0, 20001), ends - 1.0, 1.0 - ends, fine.ravel()])
    z = np.unique(z[np.abs(z) <= 1.0])
    miss = (1.0 - p) ** params.tau_max
    nu = q(z) * (1.0 - miss) / p + miss / 2.0
    pi = np.full(z.shape, 0.5) if s == 0 else s * np.exp(-s * z) / (math.exp(s) - math.exp(-s))
    return z, np.log(nu / pi)


def converter_law_2d(c, half, eps: float, R: float, stretch: bool = True, spot: float = 0.0):
    """(z, log(nu(z) / pi(z))) for the converter's output law nu on the box
    K = [-h1, h1] x [-h2, h2] (half = (h1, h2); inscribed radius r = min h
    about 0, declared outer radius R), with pi proportional to exp(-c . x)
    and an oracle whose law is mu = (1 - spot) pi + spot delta_0.

    A round draws theta from mu and W = theta + rho xi, rho = delta r, xi
    uniform on the unit disk, so W has density g(w) = mu(B(w, rho)) /
    (pi rho^2). It halts at Z = W / (1 - delta) (Z = W without the stretch)
    when Z lies in K and a fair coin says so: at density q(z) = (1 - delta)^2
    g((1 - delta) z) / 2 on K, with probability p, the integral of q. After
    tau_max rounds the fallback draws uniformly from the inscribed disk, so

        nu = q (1 - (1 - p)^tau_max) / p + (1 - p)^tau_max 1{|z| <= r} / (pi r^2).

    pi's mass of B(w, rho) clipped to K is one Gauss-Legendre axis over the
    disk's chords, x1 = w1 + rho sin(phi), with each chord's integral in
    closed form, split where a chord end crosses a facet; pi's normalizing
    constant is closed form. p is a tensor Gauss-Legendre sum over panels
    split where q has kinks; delta_0's share of it is exactly 1/2. z is the
    tensor product, per axis, of a uniform grid and geometric grids down to
    1e-12 from both facets: it approaches every facet and every corner.
    """
    c, h = np.asarray(c, dtype=float), np.asarray(half, dtype=float)
    r = float(h.min())
    params = converter.compute_params(eps, float(np.linalg.norm(c)), r, R, 2)
    rho = params.delta * r
    shrink = 1.0 - params.delta if stretch else 1.0
    nodes, weights = np.polynomial.legendre.leggauss(16)

    def seg(cj, a, b):  # the integral of exp(-cj y) over [a, b], a <= b
        return b - a if cj == 0 else np.exp(-cj * a) * -np.expm1(-cj * (b - a)) / cj

    Z = seg(c[0], -h[0], h[0]) * seg(c[1], -h[1], h[1])

    def q_pi(z):  # q for mu = pi
        w1, w2 = (shrink * z.T)[:, :, None, None]  # (points, 1, 1) each
        lo = np.arcsin(np.clip((-h[0] - w1) / rho, -1.0, 1.0))
        hi = np.arcsin(np.clip((h[0] - w1) / rho, -1.0, 1.0))
        k1, k2 = (np.arccos(np.clip(gap / rho, 0.0, 1.0)) for gap in (h[1] - w2, h[1] + w2))
        edges = np.sort(np.clip(np.concatenate([lo, hi, k1, -k1, k2, -k2], axis=1), lo, hi), axis=1)
        mid, width = (edges[:, 1:] + edges[:, :-1]) / 2.0, (edges[:, 1:] - edges[:, :-1]) / 2.0
        phi = mid + width * nodes  # (points, pieces, nodes)
        arm = rho * np.cos(phi)  # half the chord at x1, and dx1 / dphi
        x1, top, bot = w1 + rho * np.sin(phi), w2 + arm, w2 - arm
        mass = arm * np.exp(-c[0] * x1) * seg(c[1], np.maximum(bot, -h[1]), np.minimum(top, h[1]))
        disk = np.sum(weights * width * mass, axis=(1, 2)) / Z
        return shrink**2 * disk / (2.0 * math.pi * rho**2)

    def axis(hj):  # Gauss-Legendre nodes and weights on [-hj, hj], split at q's kinks
        edges = np.unique(np.clip([-hj, -(hj - rho) / shrink, (hj - rho) / shrink, hj], -hj, hj))
        mid, width = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
        return (mid[:, None] + width[:, None] * nodes).ravel(), (width[:, None] * weights).ravel()

    (x, wx), (y, wy) = axis(h[0]), axis(h[1])
    panel = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1).reshape(-1, 2)
    p = (1.0 - spot) * float(np.sum(np.outer(wx, wy).ravel() * q_pi(panel))) + spot / 2.0

    ends = 10.0 ** np.linspace(-12.0, 0.0, 49)
    grids = [np.unique(np.r_[np.linspace(-hj, hj, 41), ends - hj, hj - ends]) for hj in h]
    z = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, 2)
    at_spot = np.hypot(*(shrink * z.T)) <= rho
    q = (1.0 - spot) * q_pi(z) + spot * at_spot * shrink**2 / (2.0 * math.pi * rho**2)
    miss = (1.0 - p) ** params.tau_max
    nu = q * (1.0 - miss) / p + miss * (np.hypot(*z.T) <= r) / (math.pi * r * r)
    return z, np.log(nu * Z / np.exp(-z @ c))


# ---------------------------------------------------------------------------
# Iteration-count bands
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


def _tau_array(taus) -> np.ndarray:
    taus = np.asarray(taus, dtype=np.int64)
    if not taus.size:
        raise ValueError("tau_statistics needs at least one run")
    return taus


def tau_statistics(taus, eps: float | None = None) -> TauSummary:
    """Summarize halting iterations and test them against the known bands.

    Parameters
    ----------
    taus : the runs' tau array (any sequence of ints).
    eps : when given, also tests the runtime-privacy band on P(tau = t).

    The bands are checked for t = 1..BAND_T_MAX. The 3 sigma slack on every
    band uses the binomial deviation at the band endpoint, so the bands are
    deterministic given n.
    """
    taus = _tau_array(taus)
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
# Reference eta search
# ---------------------------------------------------------------------------


def reference_search_eta(pilot) -> tuple[float, float]:
    """The climb from eta = 0.1, one pilot per round, that
    ``dikin.search_eta`` replaced, kept verbatim but for taking
    pilot(eta) -> acceptance. On monotone acceptance curves the production
    search returns its eta or a larger one in band."""
    lo, hi = dikin.TUNE_BAND
    eta = 0.1
    small = None  # largest eta seen with acceptance above the band
    big = None    # smallest eta seen with acceptance below the band
    for _ in range(dikin.PILOT_ROUNDS):
        acc = pilot(eta)
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
        f"within {dikin.PILOT_ROUNDS} pilot rounds (last eta={eta:g})"
    )


# ---------------------------------------------------------------------------
# Reference membership, ball and rejection kernels
# ---------------------------------------------------------------------------
#
# The one-liners that the column-wise kernels of ``geometry`` and the
# in-place proposals of ``oracle.ExactSampler`` replaced, kept verbatim, and
# the per-cell quadrature loop that ``oracle.cell_masses`` replaced: the
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


def reference_cell_masses(P: Polytope, f: LogDensity, bins: int, subnodes: int = 32) -> oracle.CellGrid:
    """``oracle.cell_masses`` as the loop over first-axis cells it was, one
    numpy block per cell, with the axis-0 subnodes made up front (subnodes
    is ``oracle.SUBNODES`` there)."""
    lo, hi = oracle.box_bounds(P)
    d = P.d
    axis_pts = []
    for j in range(d):
        total = bins * subnodes
        axis_pts.append(lo[j] + (np.arange(total) + 0.5) * (hi[j] - lo[j]) / total)

    masses = np.zeros((bins,) * d)
    shift = f(P.center)
    for i0 in range(bins):
        block_axes = [axis_pts[0][i0 * subnodes : (i0 + 1) * subnodes]] + axis_pts[1:]
        mesh = np.meshgrid(*block_axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        weights = np.zeros(pts.shape[0])
        member = contains_many(P, pts)
        if np.any(member):
            vals = f.eval_many(pts[member])
            weights[member] = np.exp(-(vals - shift))
        shape = [subnodes] + [bins, subnodes] * (d - 1)
        folded = weights.reshape(shape)
        masses[i0] = folded.sum(axis=tuple(i for i in range(len(shape)) if i % 2 == 0))

    flat = masses.ravel()
    return oracle.CellGrid(lo=lo, hi=hi, bins=bins, masses=flat / flat.sum())


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
    return float(np.min((P.b - P.A @ theta) / np.linalg.norm(P.A, axis=1)))


def margin_many(P: Polytope, X) -> np.ndarray:
    """Vectorized ``margin`` for an (n, d) array of points."""
    X = _check_dim(P, np.atleast_2d(np.asarray(X, dtype=float)))
    return np.min((P.b - X @ P.A.T) / np.linalg.norm(P.A, axis=1), axis=1)




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
