"""Acceptance gate: the ten end-to-end criteria, one test per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL: detail`` line (visible
in the -rA summary) and then asserts. Criteria 4, 5 and 6 share the two
expensive runs of the d=1 worked configuration through module-scoped
fixtures, because 5 and 6 are defined over criterion 4's runs.

Wall-clock caps are asserted where a criterion states one. Measured on a
2-CPU x86-64 box (Python 3.11, numpy 2.4 with OpenBLAS) over five runs, two
of them inside the full suite: criterion 03 took 71-83 s against its 120 s
cap, and the walk run of criterion 04 took 121-144 s against its 180 s cap
(its exact run takes about 1 s). That box's speed drifts by about 15% from
minute to minute.
"""

import math
import time

import numpy as np
import pytest

import helpers
from helpers import loss_sum, margin_many
from polysamp import converter, dikin, dp, oracle
from polysamp.density import linear, norm1, uniform
from polysamp.geometry import box, normalize
from polysamp.pipeline import run_sampling

EPS = 0.5
SEG = helpers.segment()  # d=1 worked configuration: K=[-1,1], r=1, R=2
F_SEG = linear(np.array([1.0]))
# C_mix that lands the d=1 walk length exactly on the criterion's T=5000
CMIX_T5000 = 12.192712346547825


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


RUN_SECONDS: dict[str, float] = {}


@pytest.fixture(scope="module")
def exact_run():
    """Criterion 4's exact-oracle run: N=10^6, zero-TV oracle."""
    t0 = time.perf_counter()
    result = run_sampling(SEG, F_SEG, eps=EPS, n=10**6, seed=2104, oracle="exact")
    RUN_SECONDS["exact"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def dikin_run():
    """Criterion 4's walk-oracle repeat: N=10^5 at T=5000."""
    t0 = time.perf_counter()
    result = run_sampling(
        SEG, F_SEG, eps=EPS, n=10**5, seed=2105, c_mix=CMIX_T5000, oracle="dikin"
    )
    RUN_SECONDS["dikin"] = time.perf_counter() - t0
    return result


def test_criterion_01_stretch_margin():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2101)
    trials, worst = 0, np.inf
    for k in range(20):
        P, _ = normalize(helpers.random_polytope(rng, d=1 + k % 3))
        theta = helpers.uniform_in_polytope(P, rng, 500)
        delta = rng.uniform(0.0, 0.5, size=500)
        while np.any(delta == 0.0):  # open interval (0, 1/2]
            delta[delta == 0.0] = rng.uniform(0.0, 0.5, size=int((delta == 0.0).sum()))
        z = (1.0 - delta)[:, None] * theta  # exactly the stretch(z) in K set
        slack = margin_many(P, z) - (delta * P.r - 1e-9)
        worst = min(worst, float(slack.min()))
        trials += 500
    elapsed = time.perf_counter() - t0
    report(
        1,
        trials == 10_000 and worst >= 0.0 and elapsed < 10.0,
        f"{trials} trials, min margin slack {worst:.3e}, {elapsed:.1f}s (cap 10s)",
    )


def test_criterion_02_detailed_balance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2102)
    polys = [helpers.square(), helpers.random_polytope(rng, 2), helpers.box_polytope(1.0, 3)]
    cfg = dikin.WalkConfig(eta=0.6)
    pairs, worst = 0, 0.0
    for P in polys:
        densities = [uniform(), linear(rng.standard_normal(P.d)), norm1(0.5, P.d)]
        for f in densities:
            X = helpers.uniform_in_polytope(P, rng, 112)
            Y = helpers.uniform_in_polytope(P, rng, 112)
            for x, y in zip(X, Y):
                q_xy = helpers.log_proposal_density(P, x, y, cfg)
                q_yx = helpers.log_proposal_density(P, y, x, cfg)
                s = f(x) - f(y) + q_yx - q_xy
                lhs = -f(x) + q_xy + min(0.0, s)
                rhs = -f(y) + q_yx + min(0.0, -s)
                worst = max(worst, abs(lhs - rhs))
                pairs += 1
    elapsed = time.perf_counter() - t0
    report(
        2,
        pairs >= 1000 and worst <= 1e-8 and elapsed < 5.0,
        f"{pairs} pairs, max log-identity residual {worst:.2e} (tol 1e-8), "
        f"{elapsed:.1f}s (cap 5s)",
    )


def test_criterion_03_dikin_tv_diagnostic():
    t0 = time.perf_counter()
    P = helpers.square()
    f = uniform()
    rng = np.random.default_rng(2103)
    eta, _ = dikin.tune_eta(P, f, rng)
    cfg = dikin.WalkConfig(eta=eta, T=5000)
    X0 = dikin.warm_start_many(P, rng, 10**5)
    X, _ = dikin.run_chains_batch(P, f, cfg, X0, rng)
    grid = oracle.cell_masses(P, f, 20)
    tv = oracle.tv_estimate(X, grid)
    elapsed = time.perf_counter() - t0
    report(
        3,
        tv <= 0.05 and elapsed < 120.0,
        f"tv_estimate {tv:.4f} over 20x20 cells after T=5000, eta {eta:.2f}, "
        f"{elapsed:.0f}s (cap 120s)",
    )


def test_criterion_04_end_to_end_infinity_distance(exact_run, dikin_run):
    grid = oracle.cell_masses(SEG, F_SEG, 50)

    res_exact = oracle.sup_log_ratio(exact_run.points, grid)
    ok_exact = res_exact.passes(extra=EPS, sigmas=3.0) and not res_exact.excluded

    assert dikin_run.plan.T == 5000  # the frozen C_mix must land exactly on T=5000
    res_walk = oracle.sup_log_ratio(dikin_run.points, grid)
    ok_walk = res_walk.passes(extra=EPS, sigmas=3.0) and not res_walk.excluded

    in_time = RUN_SECONDS["exact"] < 180.0 and RUN_SECONDS["dikin"] < 180.0
    report(
        4,
        ok_exact and ok_walk and in_time,
        f"sup log-ratio {res_exact.stat:.4f} (exact oracle, N=1e6, "
        f"{RUN_SECONDS['exact']:.0f}s) and {res_walk.stat:.4f} (dikin T=5000, "
        f"N=1e5, {RUN_SECONDS['dikin']:.0f}s) vs eps=0.5 + 3 sigma/cell; "
        f"caps 180s each",
    )


def test_criterion_05_tau_law(dikin_run):
    stats = converter.tau_statistics(dikin_run, eps=EPS)
    ok = stats.mean <= 3.0 and stats.sandwich_ok and bool(stats.pmf_ok)
    report(
        5,
        ok,
        f"mean tau {stats.mean:.3f} (<= 3), survival sandwich "
        f"{'ok' if stats.sandwich_ok else 'violated'}, pmf privacy band "
        f"{'ok' if stats.pmf_ok else 'violated'} for t=1..8 over N=1e5 runs",
    )


def test_criterion_06_halt_probability_bound(exact_run):
    p = exact_run.plan.params
    # per-iteration halt bound 1/2 * [(1-Delta)^d e^{-2 L Delta R}]^2 - 0.02
    bound = 0.5 * ((1.0 - p.delta) * math.exp(-2.0 * 1.0 * p.delta * 2.0)) ** 2 - 0.02
    assert bound == pytest.approx(0.4798256436382709, rel=0, abs=1e-15)
    halts = int((~exact_run.fallback).sum())
    calls = int(exact_run.oracle_calls.sum())
    p_hat = halts / calls
    report(
        6,
        p_hat >= bound,
        f"per-iteration halt rate {p_hat:.4f} >= bound {bound:.10f} "
        f"({halts} halts / {calls} oracle calls)",
    )


def test_criterion_07_parameter_schedule():
    p = converter.compute_params(0.5, 1.0, 1.0, 2.0, 2)
    want = helpers.dec_schedule(0.5, 1.0, 1.0, 2.0, 2)
    ok_worked = (
        p.tau_max == want["tau_max"] == 18
        and p.delta == pytest.approx(float(want["delta"]), rel=1e-6)
        and p.delta_log == pytest.approx(float(want["delta_log"]), rel=1e-6)
    )
    rng = np.random.default_rng(2107)
    bad = 0
    for _ in range(1000):
        eps = rng.uniform(0.01, 1.0)
        L = rng.uniform(0.0, 5.0)
        r = rng.uniform(0.1, 3.0)
        R = r * rng.uniform(1.0, 10.0)
        d = int(rng.integers(1, 7))
        if not helpers.check_settings(converter.compute_params(eps, L, r, R, d), L, r, R, d):
            bad += 1
    report(
        7,
        ok_worked and bad == 0,
        f"worked example tau_max={p.tau_max}, delta={p.delta!r}, "
        f"delta_log={p.delta_log!r} at 1e-6 vs 50-digit evaluation; "
        f"{bad}/1000 random schedules violate the inequalities",
    )


def test_criterion_08_dp_erm_utility(erm_file):
    t0 = time.perf_counter()
    inst = dp.load_erm_instance(erm_file)
    batch = dp.private_erm_batch(inst, seed=2108, n_runs=10**4)
    csum = inst.losses.sum(axis=0)
    best = float(np.min(dp.enumerate_vertices(inst.polytope) @ csum))
    gaps = batch.points @ csum - best
    gap_exact = inst.n * (1.0 + helpers.mech_mean_symmetric(0.25))
    assert gap_exact == pytest.approx(4.585059174632016, rel=1e-12)
    sigma = float(gaps.std(ddof=1)) / math.sqrt(gaps.size)
    bound = math.exp(inst.eps_dp) * gap_exact + 3.0 * sigma
    mean_gap = float(gaps.mean())
    elapsed = time.perf_counter() - t0
    report(
        8,
        mean_gap <= bound and elapsed < 300.0,
        f"mean utility gap {mean_gap:.4f} over 1e4 runs <= e^eps * {gap_exact:.4f} "
        f"+ 3 sigma = {bound:.4f}, {elapsed:.0f}s (cap 300s)",
    )


def test_criterion_09_dp_distributional_surrogate():
    K = box([-1.0], [1.0])
    a = dp.ErmInstance(K, np.ones((5, 1)), L=1.0, eps_dp=EPS)
    flipped = np.ones((5, 1))
    flipped[0] = -1.0
    b = dp.ErmInstance(K, flipped, L=1.0, eps_dp=EPS)

    n = 10**5
    ta = dp.private_erm_batch(a, seed=2109, n_runs=n).points
    tb = dp.private_erm_batch(b, seed=2110, n_runs=n).points

    grid = oracle.CellGrid(
        lo=np.array([-1.0]), hi=np.array([1.0]), nbins=np.array([10]), masses=np.full(10, 0.1)
    )
    ca = oracle.histogram_counts(ta, grid)
    cb = oracle.histogram_counts(tb, grid)
    assert ca.min() > 0 and cb.min() > 0
    log_ratio = np.log(ca / n) - np.log(cb / n)
    sigma = np.sqrt((1.0 - ca / n) / ca + (1.0 - cb / n) / cb)
    worst = float((np.abs(log_ratio) - 3.0 * sigma).max())
    ok = bool(np.all(np.abs(log_ratio) <= 2.0 * EPS + 3.0 * sigma))
    report(
        9,
        ok,
        f"max cell log-ratio net of 3 sigma {worst:.4f} <= 2 eps = {2 * EPS} "
        f"over 1e5 runs per neighbor",
    )


def test_criterion_10_oracle_self_consistency(erm_file):
    t0 = time.perf_counter()
    inst = dp.load_erm_instance(erm_file)
    configs = [
        ("uniform d=1", helpers.segment(), uniform(), 10),
        ("uniform d=2", helpers.square(), uniform(), 8),
        ("linear d=1", helpers.segment(), linear(np.array([1.0])), 10),
        ("linear d=2", helpers.square(), linear(np.array([0.7, -0.5])), 8),
        ("norm1 d=1", helpers.segment(), norm1(0.5, 1), 10),
        ("norm1 d=2", helpers.square(), norm1(0.5, 2), 8),
        ("loss_sum d=1", helpers.segment(), loss_sum(np.array([[0.3], [0.3]])), 10),
        ("loss_sum d=2", helpers.square(), loss_sum(np.array([[0.3, -0.2], [-0.1, 0.4]])), 8),
    ]
    # A per-cell 3 sigma bound over ~350 cells flakes by construction under a
    # perfect null (expected max |z| ~ 2.7), so the seed is pinned. Bias would
    # show up as one cell staying hot across seeds; here the hot cell moves.
    worst_name, worst_z = "", 0.0
    ok = True
    for idx, (name, P, f, bins) in enumerate(configs):
        rng = np.random.default_rng(3500 + idx)
        X = oracle.ExactSampler(P, f, rng).draw(rng, 30_000)
        grid = oracle.cell_masses(P, f, bins)
        res = oracle.sup_log_ratio(X, grid)
        if res.max_z() > worst_z:
            worst_name, worst_z = name, res.max_z()
        ok = ok and res.passes(extra=0.0, sigmas=3.0)
    elapsed = time.perf_counter() - t0
    report(
        10,
        ok and elapsed < 60.0,
        f"{len(configs)} density configs, worst cell z={worst_z:.2f} sigma "
        f"({worst_name}), all within 3 sigma; {elapsed:.0f}s (cap 60s)",
    )
