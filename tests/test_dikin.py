import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import margin, margin_many
from polysamp import dikin, dp, pipeline
from polysamp.density import linear, norm1, uniform
from polysamp.errors import ConfigError
from polysamp.geometry import Polytope, box, contains_many
from polysamp.pipeline import POOL_STREAM, rng_stream, run_sampling


def test_hessian_at_center_of_square(sq):
    H, logdet = helpers.barrier_hessian(sq, [0.0, 0.0])
    # each opposing facet pair contributes 1/(1-x)^2 + 1/(1+x)^2 = 2 at 0
    np.testing.assert_allclose(H, 2.0 * np.eye(2), atol=1e-14)
    assert logdet == pytest.approx(math.log(4.0))


def test_hessian_off_center_value(sq):
    H, _ = helpers.barrier_hessian(sq, [0.5, 0.0])
    np.testing.assert_allclose(H, np.diag([40.0 / 9.0, 2.0]), rtol=1e-14)


def test_hessian_logdet_against_eigensolver(rng):
    """Cholesky log-determinant vs an independent eigenvalue computation."""
    for _ in range(10):
        d = int(rng.integers(1, 4))
        P = helpers.random_polytope(rng, d)
        X = helpers.uniform_in_polytope(P, rng, 10)
        for x in X:
            H, logdet = helpers.barrier_hessian(P, x)
            ref = float(np.sum(np.log(np.linalg.eigvalsh(H))))
            assert abs(logdet - ref) <= 1e-8


def test_hessian_requires_interior(sq):
    with pytest.raises(ValueError):
        helpers.barrier_hessian(sq, [1.0, 0.0])
    with pytest.raises(ValueError):
        helpers.barrier_hessian(sq, [2.0, 0.0])


def test_proposal_moments(sq):
    rng = np.random.default_rng(7)
    x = np.array([0.3, -0.2])
    cfg = dikin.WalkConfig(eta=0.5)
    state = helpers.init_chain(sq, x)
    draws = np.array([helpers.propose(state, cfg, rng) for _ in range(50_000)])
    H, _ = helpers.barrier_hessian(sq, x)
    target_cov = (cfg.eta**2 / 2.0) * np.linalg.inv(H)
    se = np.sqrt(np.diag(target_cov) / draws.shape[0])
    np.testing.assert_allclose(draws.mean(axis=0), x, atol=3.5 * se.max())
    np.testing.assert_allclose(np.cov(draws.T), target_cov, rtol=0.05, atol=2e-3)


def test_log_proposal_density_closed_form(sq):
    cfg = dikin.WalkConfig(eta=0.4)
    v = np.array([0.1, -0.2])
    # at the center H = 2I, logdet = log 4
    expected = 0.5 * math.log(4.0) - (2.0 / (2 * 0.4**2)) * (2.0 * v @ v)
    assert helpers.log_proposal_density(sq, np.zeros(2), v, cfg) == pytest.approx(expected)


def test_accept_prob_zero_outside(sq):
    cfg = dikin.WalkConfig(eta=0.5)
    assert helpers.accept_prob(sq, uniform(), [0.0, 0.0], [1.0, 0.0], cfg) == 0.0
    assert helpers.accept_prob(sq, uniform(), [0.0, 0.0], [1.5, 0.0], cfg) == 0.0


def test_accept_prob_symmetric_uniform_is_one(sq):
    # H(x) = H(y) by symmetry, f constant: the ratio is exactly 1
    cfg = dikin.WalkConfig(eta=0.5)
    x = np.array([0.25, 0.1])
    assert helpers.accept_prob(sq, uniform(), x, -x, cfg) == pytest.approx(1.0)


def test_accept_prob_matches_manual_ratio(sq):
    cfg = dikin.WalkConfig(eta=0.7)
    f = linear([1.0, -0.5])
    x = np.array([0.2, 0.3])
    y = np.array([-0.4, 0.1])
    log_ratio = (
        f(x)
        - f(y)
        + helpers.log_proposal_density(sq, y, x, cfg)
        - helpers.log_proposal_density(sq, x, y, cfg)
    )
    expected = min(1.0, math.exp(log_ratio))
    assert helpers.accept_prob(sq, f, x, y, cfg) == pytest.approx(expected, rel=1e-12)


def _log_accept(P, f, x, y, cfg):
    """log of the acceptance probability, kept in log space (no underflow)."""
    s = (
        f(x)
        - f(y)
        + helpers.log_proposal_density(P, y, x, cfg)
        - helpers.log_proposal_density(P, x, y, cfg)
    )
    return min(0.0, s)


def test_detailed_balance_residual(rng):
    """pi(x) q(x->y) a(x->y) = pi(y) q(y->x) a(y->x), checked in log space."""
    polys = [helpers.square(), helpers.random_polytope(rng, 2), helpers.box_polytope(1.0, 3)]
    cfg = dikin.WalkConfig(eta=0.6)
    for P in polys:
        densities = [uniform(), linear(rng.standard_normal(P.d)), norm1(0.5, P.d)]
        X = helpers.uniform_in_polytope(P, rng, 40)
        Y = helpers.uniform_in_polytope(P, rng, 40)
        for f in densities:
            for x, y in zip(X, Y):
                la_xy = _log_accept(P, f, x, y, cfg)
                la_yx = _log_accept(P, f, y, x, cfg)
                lhs = -f(x) + helpers.log_proposal_density(P, x, y, cfg) + la_xy
                rhs = -f(y) + helpers.log_proposal_density(P, y, x, cfg) + la_yx
                assert abs(lhs - rhs) <= 1e-8
                # the shipped probability agrees with the log-space value
                assert helpers.accept_prob(P, f, x, y, cfg) == pytest.approx(
                    math.exp(la_xy), rel=1e-12
                )


def test_run_chain_zero_steps_returns_start(sq, rng):
    x0 = np.array([0.4, -0.4])
    out = helpers.run_chain(sq, uniform(), dikin.WalkConfig(eta=0.5, T=0), x0, rng)
    np.testing.assert_array_equal(out, x0)


def test_run_chain_rejects_exterior_start(sq, rng):
    with pytest.raises(ValueError):
        helpers.run_chain(sq, uniform(), dikin.WalkConfig(T=1), [1.5, 0.0], rng)


def test_run_chain_stays_interior_and_counts(sq):
    rng = np.random.default_rng(3)
    cfg = dikin.WalkConfig(eta=0.8, T=200)
    state = helpers.run_chain_state(sq, uniform(), cfg, np.zeros(2), rng)
    assert state.steps == 200
    assert 0 < state.accepts <= 200
    assert margin(sq, state.x) > 0


def test_run_chain_deterministic(sq):
    cfg = dikin.WalkConfig(eta=0.8, T=50)
    a = helpers.run_chain(sq, uniform(), cfg, np.zeros(2), np.random.default_rng(11))
    b = helpers.run_chain(sq, uniform(), cfg, np.zeros(2), np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)


def test_batch_matches_scalar_chain():
    """The vectorized runner consumes the stream exactly like the scalar
    loop, so a single-chain batch must reproduce the scalar trajectory."""
    for d in (1, 2, 3):
        P = helpers.box_polytope(1.0, d)
        f = linear(np.linspace(0.5, 1.0, d))
        cfg = dikin.WalkConfig(eta=0.7, T=50)
        x0 = np.full(d, 0.1)
        scalar_state = helpers.run_chain_state(P, f, cfg, x0, rng_stream(99, 0))
        X, accepts = dikin.run_chains_batch(P, f, cfg, x0[None, :], rng_stream(99, 0))
        np.testing.assert_allclose(X[0], scalar_state.x, atol=1e-9)
        assert accepts == scalar_state.accepts


class _Replay:
    """One chain's share of a batch's draws, served in the order the
    one-chain walk asks for them: d normals, then one uniform, per step."""

    def __init__(self, G: np.ndarray, U: np.ndarray):
        self.G, self.U, self.step = G, U, 0

    def standard_normal(self, d):
        assert d == self.G.shape[1]
        return self.G[self.step]

    def random(self):
        u = self.U[self.step]
        self.step += 1
        return u


@pytest.mark.parametrize("n", (1, dikin.BLOCK + 1))
@pytest.mark.parametrize("d", (3, 4, 5, 8, 10))
def test_batch_matches_scalar_chain_on_random_polytopes(d, n):
    """Off the axes, H has off-diagonal entries, so every entry of the
    column Cholesky is checked: each chain of the batch, fed its own share
    of the batch's draws, must retrace the one-chain reference walk."""
    rng = np.random.default_rng(700 + d)
    P = helpers.random_polytope(rng, d, m_extra=2 * d)
    f = linear(rng.standard_normal(d) / math.sqrt(d))
    cfg = dikin.WalkConfig(eta=0.6, T=4)
    X0 = dikin.warm_start_many(P, rng, n)
    X, accepts = dikin.run_chains_batch(P, f, cfg, X0, np.random.default_rng(d))

    draws = np.random.default_rng(d)
    G, U = np.empty((cfg.T, n, d)), np.empty((cfg.T, n))
    for step in range(cfg.T):
        G[step] = draws.standard_normal((n, d))
        U[step] = draws.random(n)
    want = 0
    for i in range(n):
        state = helpers.run_chain_state(P, f, cfg, X0[i], _Replay(G[:, i], U[:, i]))
        np.testing.assert_allclose(X[i], state.x, rtol=0, atol=1e-9)
        want += state.accepts
    assert accepts == want
    assert 0 < accepts < n * cfg.T or n == 1  # the batch also saw rejections


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 6),
    width=st.floats(1e-7, 1e-1),
    dup=st.integers(0, 3),
    eta=st.floats(0.05, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_survives_degenerate_geometry(d, width, dup, eta, seed):
    """Duplicate facets and a thin slab make H ill-conditioned, so a
    Cholesky pivot can round to zero or below. The walk must reject such
    proposals, not raise, every chain must stay strictly inside, and the
    chains must still move."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    A = np.vstack([np.eye(d), -np.eye(d), u, -u])
    b = np.concatenate([np.ones(2 * d), [width, width]])
    idx = rng.integers(0, len(A), dup)
    A, b = np.vstack([A, A[idx]]), np.concatenate([b, b[idx]])
    P = Polytope(A, b, np.zeros(d), width / 2, math.sqrt(d))
    X0 = dikin.warm_start_many(P, rng, 50)
    f = linear(rng.standard_normal(d))
    X, accepts = dikin.run_chains_batch(P, f, dikin.WalkConfig(eta=eta, T=20), X0, rng)
    assert X.shape == (50, d)
    assert np.all(P.b - X @ P.A.T > 0)
    assert 0 < accepts <= 50 * 20


@pytest.mark.parametrize(
    "d, gap",
    [
        (1, 1e-170), (2, 1e-150), (3, 1e-150), (4, 1e-150), (5, 1e-150), (8, 1e-150),
        (2, 1e-10), (2, 1e-128),  # pivots of rounding noise, 0.7 and 1.5 ulps of H_22
    ],
)
def test_batch_refuses_start_whose_hessian_does_not_factor(d, gap):
    """At slack gap from the facet a.x <= 0, 1/slack**2 overflows (d = 1)
    or dwarfs the other terms of H so that a pivot is rounding noise, at or
    below the pivot floor (d >= 2). That chain could not move, so the walk
    refuses the start rather than return it as a sample."""
    a = np.ones(d) / math.sqrt(d)
    A = np.vstack([np.eye(d), -np.eye(d), a])
    P = Polytope(A, np.append(np.ones(2 * d), 0.0), np.full(d, -0.5), 0.25, math.sqrt(d))
    X0 = dikin.warm_start_many(P, np.random.default_rng(0), 5)
    X0 = np.vstack([X0, np.append(-gap, np.zeros(d - 1))])
    assert np.all(P.b - X0 @ P.A.T > 0)
    with pytest.raises(ValueError, match="does not factor"):
        dikin.run_chains_batch(P, uniform(), dikin.WalkConfig(eta=0.5, T=5), X0, np.random.default_rng(1))


def _polygon(m: int, rng: np.random.Generator) -> Polytope:
    """m facets at distance 1 from the origin with jittered, non-axis-aligned
    normals; every angular gap stays below pi, so the polygon is bounded."""
    angles = 2 * math.pi * (np.arange(m) + rng.uniform(0.0, 0.8, m)) / m + 0.3
    A = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    gaps = np.diff(np.append(angles, angles[0] + 2 * math.pi))
    return Polytope(A, np.ones(m), np.zeros(2), 1.0, 1.0 / math.cos(gaps.max() / 2))


@pytest.mark.parametrize(
    "case, n",
    [
        ("segment", 300),
        ("square", 300),
        ("polygon5", 300),
        ("polygon8", 300),
        ("polygon5", 2 * dikin.BLOCK + 1),  # two blocks, the lone last row folded in
        ("square", dikin.BLOCK + 7),
        ("segment", dikin.BLOCK + 7),
    ],
)
def test_batch_bit_identical_to_reference(case, n):
    """The blocked d <= 2 kernel reproduces the unblocked whole-batch kernel
    (tests/helpers.py) exactly: same points to the bit, same accept count,
    and f evaluated at the same number of points."""
    rng = np.random.default_rng(41)
    P, c = {
        "segment": (helpers.segment(), [0.8]),
        "square": (helpers.square(), None),
        "polygon5": (_polygon(5, rng), [0.6, -0.9]),
        "polygon8": (_polygon(8, rng), [-0.3, 0.4]),
    }[case]
    X0 = dikin.warm_start_many(P, rng, n)
    # eta this large sends a good share of proposals out of K
    cfg = dikin.WalkConfig(eta=3.0, T=25)
    runs = []
    for kernel in (helpers.reference_run_chains_batch, dikin.run_chains_batch):
        f = helpers.CountingDensity(uniform() if c is None else linear(c))
        X, accepts = kernel(P, f, cfg, X0, np.random.default_rng(42))
        runs.append((X, accepts, f.count))
    (X_ref, acc_ref, calls_ref), (X_new, acc_new, calls_new) = runs
    assert np.array_equal(X_new, X_ref)
    assert acc_new == acc_ref and type(acc_new) is int  # a float ratio of it reaches CLI output
    assert calls_new == calls_ref
    assert 0 < acc_ref < n * cfg.T
    assert calls_ref < n * (cfg.T + 1)  # some proposals left K unevaluated


def test_batch_stays_interior_and_deterministic(sq):
    cfg = dikin.WalkConfig(eta=0.8, T=100)
    X0 = dikin.warm_start_many(sq, np.random.default_rng(5), 256)
    X1, acc1 = dikin.run_chains_batch(sq, uniform(), cfg, X0, np.random.default_rng(6))
    X2, acc2 = dikin.run_chains_batch(sq, uniform(), cfg, X0, np.random.default_rng(6))
    np.testing.assert_array_equal(X1, X2)
    assert acc1 == acc2
    assert np.all(margin_many(sq, X1) > 0)
    assert np.all(contains_many(sq, X1))


def test_batch_rejects_exterior_start(sq, rng):
    X0 = np.array([[0.0, 0.0], [1.5, 0.0]])
    with pytest.raises(ValueError):
        dikin.run_chains_batch(sq, uniform(), dikin.WalkConfig(T=1), X0, rng)


def test_batch_uniform_square_moments(sq):
    # equilibrium sanity: from a uniform start the chain must stay uniform
    rng = np.random.default_rng(17)
    X0 = helpers.uniform_in_polytope(sq, rng, 4000)
    cfg = dikin.WalkConfig(eta=0.8, T=100)
    X, _ = dikin.run_chains_batch(sq, uniform(), cfg, X0, rng)
    se_mean = math.sqrt(1.0 / 3.0 / 4000)  # Var of U(-1,1) is 1/3
    np.testing.assert_allclose(X.mean(axis=0), [0.0, 0.0], atol=4 * se_mean)
    np.testing.assert_allclose(X.var(axis=0), [1 / 3, 1 / 3], rtol=0.1)


def test_warm_start_in_inscribed_ball(rng):
    # an off-center polytope: warm starts must cluster around its center
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([3.0, 2.0, -1.0, 0.0])  # box [1,3] x [0,2]
    P = Polytope(A, b, np.array([2.0, 1.0]), 1.0, 2.0)
    X = dikin.warm_start_many(P, rng, 500)
    assert np.all(np.linalg.norm(X - P.center, axis=1) <= P.r + 1e-12)
    assert np.all(margin_many(P, X) >= -1e-12)
    single = helpers.warm_start(P, rng)
    assert np.linalg.norm(single - P.center) <= P.r


def test_mixing_steps_worked_value(sq):
    f = linear([1.0, 0.0])
    sched = helpers.dec_schedule(0.5, 1.0, 1.0, 2.0, 2)
    T = dikin.mixing_steps(sq, f, sched["delta_log"], 1.0)
    assert T == 8360
    assert T == helpers.dec_mixing(4, 2, 1.0, 1.0, 2.0, sched["delta_log"], 1.0)


def test_mixing_steps_scales_with_cmix(sq):
    f = linear([1.0, 0.0])
    sched = helpers.dec_schedule(0.5, 1.0, 1.0, 2.0, 2)
    T1 = dikin.mixing_steps(sq, f, sched["delta_log"], 1.0)
    T2 = dikin.mixing_steps(sq, f, sched["delta_log"], 2.0)
    assert abs(T2 - 2 * T1) <= 1
    assert dikin.mixing_steps(sq, f, sched["delta_log"], 1e-12) == 1


def test_mixing_steps_validates(sq):
    f = uniform()
    for c_mix in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="c_mix must be finite and positive"):
            dikin.mixing_steps(sq, f, -10.0, c_mix)


def test_tune_eta_reaches_band(sq):
    eta, acc = dikin.tune_eta(sq, uniform(), np.random.default_rng(23))
    assert 0.3 <= acc <= 0.7
    assert eta > 0
    eta2, acc2 = dikin.tune_eta(sq, uniform(), np.random.default_rng(23))
    assert eta == eta2 and acc == acc2


def _searched(search, curve):
    """(result or None if the search gave up, pilots run) of a search over
    the acceptance curve."""
    etas = []

    def pilot(eta):
        etas.append(eta)
        return curve(eta)

    try:
        return search(pilot), len(etas)
    except (RuntimeError, ValueError):
        return None, len(etas)


def _logistic(mid, slope):
    return lambda eta: 1.0 / (1.0 + math.exp(slope * math.log(eta / mid)))


def _steps(edges, levels):
    # levels[i] on [edges[i - 1], edges[i]); falls as eta grows
    return lambda eta: levels[int(np.searchsorted(edges, eta, side="right"))]


_curves = st.one_of(
    st.builds(
        _logistic,
        st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        st.floats(0.2, 30.0),
    ),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3, unique=True).flatmap(
        lambda es: st.builds(
            _steps,
            st.just(sorted(10.0**e for e in es)),
            st.lists(st.floats(0.0, 1.0), min_size=len(es) + 1, max_size=len(es) + 1).map(
                lambda ls: sorted(ls, reverse=True)
            ),
        )
    ),
)


@settings(max_examples=400, deadline=None)
@given(_curves)
def test_search_eta_returns_the_climbs_eta_on_monotone_curves(curve):
    """The search from 0.8 with its descent returns what the climb from 0.1
    returns, in 2 pilots where that is 0.8 or 1.6. It runs at most 3
    pilots more than the climb (descending to 0.1 where the climb starts
    there), so where the climb needs more than PILOT_ROUNDS - 3 either may
    give up alone."""
    want, ref_pilots = _searched(helpers.reference_search_eta, curve)
    got, pilots = _searched(dikin.search_eta, curve)
    assert pilots <= ref_pilots + 3
    if want is not None and (got is not None or ref_pilots <= dikin.PILOT_ROUNDS - 3):
        assert got == want
    if want is not None and want[0] in (0.8, 1.6):
        assert pilots == 2


def test_search_eta_gives_up_with_a_config_error():
    # acceptance jumps over the band at eta = 1: no eta reads in band
    pilots = []

    def pilot(eta):
        pilots.append(eta)
        return 0.9 if eta < 1.0 else 0.1

    with pytest.raises(ConfigError, match=r"within 24 pilot rounds \(last eta=.*, acceptance 0\.[19]00\)"):
        dikin.search_eta(pilot)
    assert len(pilots) == dikin.PILOT_ROUNDS


def _tuned(monkeypatch, run):
    """(eta, acceptance, pilots) of the tuning that run() starts; the walk
    that would follow it is not run."""

    class Tuned(Exception):
        pass

    tune, walk = dikin.tune_eta, dikin.run_chains_batch
    pilots = []

    def counted_walk(*args):
        pilots.append(args[2])
        return walk(*args)

    with monkeypatch.context() as patch:

        def tune_only(P, f, rng):
            patch.setattr(dikin, "run_chains_batch", counted_walk)
            raise Tuned(*tune(P, f, rng))

        patch.setattr(dikin, "tune_eta", tune_only)
        with pytest.raises(Tuned) as info:
            run()
    eta, acc = info.value.args
    assert all(cfg.T == dikin.PILOT_STEPS for cfg in pilots)
    return eta, acc, len(pilots)


def _erm_bench_instance():
    """The erm-d2 benchmark's instance at seed 1: the square, five
    unit-norm linear losses drawn from the seed, eps_dp 0.5."""
    C = np.random.default_rng(1).standard_normal((5, 2))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    return dp.ErmInstance(helpers.square(), C, L=1.0, eps_dp=0.5)


@pytest.mark.parametrize(
    "seed, acc", [(1, 0.652191162109375), (2, 0.64556884765625), (5, 0.646942138671875)]
)
def test_tuned_eta_pinned_on_the_benchmark_erm_instance(seed, acc, monkeypatch):
    inst = _erm_bench_instance()
    got = _tuned(monkeypatch, lambda: dp.private_erm_batch(inst, seed, 1000, c_mix=0.25))
    assert got == (0.8, acc, 2)


def test_tuned_eta_pinned_on_the_readme_examples(monkeypatch):
    # erm on the README's instance file at seed 11, and the Python API run
    inst = dp.ErmInstance(box([-1.0], [1.0], r=1.0, R=1.0), np.ones((5, 1)), L=1.0, eps_dp=0.5)
    got = _tuned(monkeypatch, lambda: dp.private_erm_batch(inst, 11, 3))
    assert got == (1.6, 0.533660888671875, 2)
    P, f = box([-1.0, -1.0], [1.0, 1.0]), linear(np.array([1.0, 0.0]))
    got = _tuned(monkeypatch, lambda: run_sampling(P, f, eps=0.5, n=10_000, seed=7))
    assert got == (0.8, 0.63189697265625, 2)


def test_walk_config_validation():
    with pytest.raises(ValueError):
        dikin.WalkConfig(eta=0.0)
    with pytest.raises(ValueError):
        dikin.WalkConfig(eta=0.5, T=-1)


# ---------------------------------------------------------------------------
# Draw pool
# ---------------------------------------------------------------------------


def test_pool_serves_refill_walks_in_order(sq):
    """Requests of 10, 4, 3, 8 and 30 draws get, in order, the rows of the
    walks the pool ran on its own stream: 20 chains for the first request,
    2*8 - 3 = 13 for the fourth and 2*30 - 8 = 52 for the fifth. The
    caller's generator is left untouched."""
    f, cfg = linear([0.5, -0.3]), dikin.WalkConfig(eta=0.8, T=20)
    pool = dikin.WalkPool(sq, f, cfg, rng_stream(5, POOL_STREAM))
    caller = np.random.default_rng(0)
    state = caller.bit_generator.state
    served = [pool(k, caller) for k in (10, 4, 3, 8, 30)]
    assert caller.bit_generator.state == state

    rng = rng_stream(5, POOL_STREAM)
    walks, accepts = [], 0
    for fresh in (20, 13, 52):
        X, acc = dikin.run_chains_batch(sq, f, cfg, dikin.warm_start_many(sq, rng, fresh), rng)
        walks.append(X)
        accepts += acc
    assert [s.shape for s in served] == [(10, 2), (4, 2), (3, 2), (8, 2), (30, 2)]
    assert np.array_equal(np.concatenate(served), np.concatenate(walks)[:55])
    assert pool.chain_steps == 85 * cfg.T
    assert pool.accepts == accepts
    assert pool.held.shape == (30, 2)


def test_pool_refills_once_when_short(sq, monkeypatch):
    """A request larger than what the pool holds runs exactly one walk, of
    2k - held chains; a request the pool can cover runs none."""
    walked = []
    walk = dikin.run_chains_batch

    def counting_walk(P, f, cfg, X0, rng):
        walked.append(X0.shape[0])
        return walk(P, f, cfg, X0, rng)

    monkeypatch.setattr(dikin, "run_chains_batch", counting_walk)
    pool = dikin.WalkPool(sq, uniform(), dikin.WalkConfig(eta=0.8, T=5), rng_stream(3, POOL_STREAM))
    pool(6, None)  # empty: walks 12
    pool(4, None)  # holds 6: no walk
    assert walked == [12]
    pool(7, None)  # holds 2: walks 2*7 - 2 = 12
    assert walked == [12, 12]
    assert pool.held.shape[0] == 7


def test_pool_full_chunk_depends_on_seed_and_chunk_only(seg, monkeypatch):
    """With the pool, a full chunk's rows still depend only on (seed, chunk):
    the first two chunks of 64 runs are the same whatever n is."""
    monkeypatch.setattr(pipeline, "CHUNK", 64)
    runs = [
        run_sampling(seg, linear([0.8]), eps=0.5, n=n, seed=9, c_mix=0.01, eta=1.0)
        for n in (128, 197)
    ]
    for field in ("points", "tau"):
        a, b = (getattr(r, field) for r in runs)
        assert np.array_equal(a, b[:128]), field
    assert runs[0].plan.T > 1
    assert 0 < runs[0].plan.accepts < runs[0].plan.chain_steps
