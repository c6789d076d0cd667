"""Private ERM wrapper: instance parsing, mechanism wiring, utility accounting."""

import math

import numpy as np
import pytest

from polysamp import oracle
from polysamp.dp import (
    FALLBACK_BALL,
    FALLBACK_CENTER,
    FALLBACK_NONE,
    ErmInstance,
    enumerate_vertices,
    halting_threshold,
    load_erm_instance,
    private_erm_batch,
    total_loss_density,
)
from polysamp.errors import ConfigError
from polysamp.geometry import box, contains_many
from polysamp.pipeline import CHUNK

import helpers
from helpers import contains, utility_gap


def unit_losses(n: int, d: int = 1) -> np.ndarray:
    return np.ones((n, d))


def small_instance(eps: float = 0.5) -> ErmInstance:
    return ErmInstance(
        polytope=box([-1.0], [1.0]),
        losses=unit_losses(5),
        L=1.0,
        eps_dp=eps,
    )


# ---------------------------------------------------------------------------
# Instance validation and parsing
# ---------------------------------------------------------------------------


def test_instance_accepts_valid():
    inst = small_instance()
    assert inst.n == 5
    assert inst.d == 1


def test_instance_rejects_norm_over_bound():
    with pytest.raises(ConfigError, match="exceeds the declared bound"):
        ErmInstance(box([-1.0], [1.0]), np.array([[1.5]]), L=1.0, eps_dp=0.5)


def test_instance_rejects_large_eps_with_guidance():
    with pytest.raises(ConfigError, match="spend 1 here"):
        ErmInstance(box([-1.0], [1.0]), unit_losses(3), L=1.0, eps_dp=2.0)


def test_instance_rejects_shape_mismatch():
    with pytest.raises(ConfigError, match="matching the polytope"):
        ErmInstance(box([-1.0], [1.0]), np.ones((3, 2)), L=2.0, eps_dp=0.5)


def test_instance_rejects_empty_and_nonfinite():
    with pytest.raises(ConfigError, match="at least one loss"):
        ErmInstance(box([-1.0], [1.0]), np.ones((0, 1)), L=1.0, eps_dp=0.5)
    with pytest.raises(ConfigError, match="finite"):
        ErmInstance(box([-1.0], [1.0]), np.array([[np.nan]]), L=1.0, eps_dp=0.5)
    with pytest.raises(ConfigError, match="positive"):
        ErmInstance(box([-1.0], [1.0]), np.zeros((2, 1)), L=0.0, eps_dp=0.5)


def test_load_erm_instance_round_trip(erm_file):
    inst = load_erm_instance(erm_file)
    assert inst.d == 1
    assert inst.n == 5
    assert np.array_equal(inst.losses, np.ones((5, 1)))
    assert inst.L == 1.0
    assert inst.eps_dp == 0.5


def test_load_erm_instance_error_lines(tmp_path):
    base = "1 2 1.0 1.0\n1 1\n-1 1\n0\n"
    p = tmp_path / "bad_count.txt"
    p.write_text(base + "five\n1 1\n1 0.5\n")
    with pytest.raises(ConfigError, match="line 5.*loss count"):
        load_erm_instance(p)

    p = tmp_path / "bad_width.txt"
    p.write_text(base + "2\n1 2\n1\n1 0.5\n")
    with pytest.raises(ConfigError, match="line 6.*1 loss coefficients"):
        load_erm_instance(p)

    p = tmp_path / "bad_tail.txt"
    p.write_text(base + "1\n1\n1 0.5\nleftover\n")
    with pytest.raises(ConfigError, match="line 8.*trailing"):
        load_erm_instance(p)

    p = tmp_path / "truncated.txt"
    p.write_text(base + "2\n1\n")
    with pytest.raises(ConfigError, match="unexpected end"):
        load_erm_instance(p)


# ---------------------------------------------------------------------------
# Density and schedule plumbing
# ---------------------------------------------------------------------------


def test_total_loss_density_uses_privacy_bound():
    # two opposing losses sum to zero, but the declared constant stays n * L
    inst = ErmInstance(box([-1.0], [1.0]), np.array([[1.0], [-1.0]]), L=1.0, eps_dp=0.5)
    f = total_loss_density(inst)
    assert f.L == 2.0
    assert f(np.array([0.7])) == pytest.approx(0.0)


def test_total_loss_density_values():
    inst = small_instance()
    f = total_loss_density(inst)
    assert f.L == 5.0
    assert f(np.array([0.2])) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "n,d,eps,want",
    [
        (5, 1, 0.5, 11),   # max(2, 2.5, 3) = 3 -> ceil(10 ln 3)
        (2, 2, 1.0, 11),   # the constant-3 floor branch
        (100, 3, 0.1, 35), # d/eps = 30 dominates -> ceil(10 ln 30)
    ],
)
def test_halting_threshold(n, d, eps, want):
    inst = ErmInstance(
        polytope=box([-1.0] * d, [1.0] * d),
        losses=np.zeros((n, d)) + 1.0 / math.sqrt(d),
        L=1.0,
        eps_dp=eps,
    )
    assert halting_threshold(inst) == want


# ---------------------------------------------------------------------------
# The mechanism end to end
# ---------------------------------------------------------------------------


def test_private_erm_single_run(erm_file):
    inst = load_erm_instance(erm_file)
    run = private_erm_batch(inst, seed=11, n_runs=1)
    assert len(run) == 1
    assert contains(inst.polytope, run.thetas[0])
    assert run.t_halt == 11
    assert run.params.tau_max == 2
    assert run.T == 56
    assert run.eta > 0
    if run.fallback[0] == FALLBACK_NONE:
        assert run.oracle_calls[0] == run.tau[0]
    else:
        assert run.fallback[0] == FALLBACK_BALL  # t_halt=11 >= tau_max=2: no cap
        assert run.tau[0] == run.params.tau_max + 1


def test_private_erm_deterministic(erm_file):
    inst = load_erm_instance(erm_file)
    a = private_erm_batch(inst, seed=12, n_runs=1, eta=1.5).thetas
    b = private_erm_batch(inst, seed=12, n_runs=1, eta=1.5).thetas
    assert np.array_equal(a, b)


def test_private_erm_batch_kinds_and_support(erm_file):
    inst = load_erm_instance(erm_file)
    batch = private_erm_batch(inst, seed=13, n_runs=2000, eta=1.5)
    assert len(batch) == 2000
    assert np.all(contains_many(inst.polytope, batch.thetas))
    kinds = set(batch.fallback.tolist())
    assert kinds <= {FALLBACK_NONE, FALLBACK_BALL}
    # tau_max = 2 makes ball fallbacks routine (survival ~ 1/4)
    assert FALLBACK_BALL in kinds
    fb = batch.fallback == FALLBACK_BALL
    assert np.all(batch.tau[fb] == batch.params.tau_max + 1)
    assert np.all(batch.oracle_calls[fb] == batch.params.tau_max)
    live = ~fb
    assert np.all(batch.tau[live] == batch.oracle_calls[live])


ERM_COLUMNS = ("thetas", "tau", "fallback", "oracle_calls")


def test_private_erm_batch_tuner_stays_off_the_output_streams(erm_file):
    # eta is tuned on the reserved tuner stream, so a run that tunes eta
    # emits the same rows as a run handed the eta it tuned
    inst = load_erm_instance(erm_file)
    tuned = private_erm_batch(inst, seed=19, n_runs=500)
    given = private_erm_batch(inst, seed=19, n_runs=500, eta=tuned.eta)
    for name in ERM_COLUMNS:
        assert np.array_equal(getattr(tuned, name), getattr(given, name)), name


def test_private_erm_batch_full_chunk_independent_of_n(erm_file):
    # runs live on their chunk's streams: a full chunk's rows depend on the
    # seed and the chunk index, not on how many runs follow it
    inst = load_erm_instance(erm_file)
    one = private_erm_batch(inst, seed=20, n_runs=CHUNK)
    more = private_erm_batch(inst, seed=20, n_runs=CHUNK + 37)
    assert len(more) == CHUNK + 37
    for name in ERM_COLUMNS:
        assert np.array_equal(getattr(one, name), getattr(more, name)[:CHUNK]), name


def test_private_erm_capped_center_fallback():
    # an under-declared inner ball inflates tau_max past t_halt, so the
    # runtime cap engages and failed runs return the data-independent center
    inst = ErmInstance(
        polytope=box([-1.0], [1.0], r=0.1),
        losses=unit_losses(5),
        L=1.0,
        eps_dp=0.5,
    )
    t_halt = halting_threshold(inst)
    batch = private_erm_batch(inst, seed=14, n_runs=20000, eta=1.5)
    assert batch.params.tau_max > t_halt  # 14 > 11: the cap is active
    capped = batch.fallback == FALLBACK_CENTER
    assert capped.sum() >= 1  # survival ~ 2^-11 over 20000 runs
    assert FALLBACK_BALL not in set(batch.fallback.tolist())
    assert np.all(batch.thetas[capped] == 0.0)  # box center in original coords
    assert np.all(batch.tau[capped] == t_halt + 1)
    assert np.all(batch.oracle_calls[capped] == t_halt)


def test_private_erm_zero_losses_is_near_uniform():
    # c = 0 gives a flat mechanism density; the output law must stay within
    # the advertised e^{+-eps} band of uniform on every resolvable cell
    inst = ErmInstance(
        polytope=box([-1.0], [1.0]),
        losses=np.zeros((4, 1)),
        L=1.0,
        eps_dp=0.5,
    )
    batch = private_erm_batch(inst, seed=15, n_runs=20000, eta=1.5)
    grid = oracle.cell_masses(inst.polytope, total_loss_density(inst), 10)
    res = oracle.sup_log_ratio(batch.thetas, grid)
    assert res.passes(extra=inst.eps_dp, sigmas=3.0)


def test_neighboring_instances_log_ratio_smoke():
    # flipping one loss (datasets differing in one record): the end-to-end
    # output laws must stay within e^{2 eps} on every resolvable cell
    K = box([-1.0], [1.0])
    eps = 0.5
    a = ErmInstance(K, unit_losses(5), L=1.0, eps_dp=eps)
    flipped = unit_losses(5)
    flipped[0] = -1.0
    b = ErmInstance(K, flipped, L=1.0, eps_dp=eps)

    n = 10000
    ta = private_erm_batch(a, seed=16, n_runs=n, eta=1.5).thetas
    tb = private_erm_batch(b, seed=17, n_runs=n, eta=1.5).thetas

    lo, hi = np.array([-1.0]), np.array([1.0])
    grid = oracle.CellGrid(lo=lo, hi=hi, nbins=np.array([5]), masses=np.full(5, 0.2))
    ca = oracle.histogram_counts(ta, grid)
    cb = oracle.histogram_counts(tb, grid)
    assert ca.min() > 0 and cb.min() > 0
    log_ratio = np.log(ca / n) - np.log(cb / n)
    sigma = np.sqrt((1.0 - ca / n) / ca + (1.0 - cb / n) / cb)
    assert np.all(np.abs(log_ratio) <= 2.0 * eps + 3.0 * sigma)


# ---------------------------------------------------------------------------
# Exact utility accounting
# ---------------------------------------------------------------------------


def test_enumerate_vertices_square(sq):
    V = enumerate_vertices(sq)
    assert V.shape == (4, 2)
    want = {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
    assert {tuple(v) for v in np.round(V, 9)} == want


def test_enumerate_vertices_dedupes_redundant_rows():
    # duplicate the x <= 1 facet: row pairs that meet at the same corner
    # must not produce duplicate vertices
    A = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
    from polysamp.geometry import Polytope

    P = Polytope(A, b, center=np.zeros(2), r=1.0, R=math.sqrt(2.0))
    V = enumerate_vertices(P)
    assert V.shape == (4, 2)


def test_enumerate_vertices_dimension_guard():
    with pytest.raises(ConfigError, match="d <= 3"):
        enumerate_vertices(box([-1.0] * 4, [1.0] * 4))


def test_utility_gap_zero_at_argmin():
    inst = small_instance()
    # total loss 5 * theta on [-1, 1] is minimized at theta = -1
    assert utility_gap(inst, np.array([-1.0])) == pytest.approx(0.0, abs=1e-12)
    assert utility_gap(inst, np.array([1.0])) == pytest.approx(10.0)
    assert utility_gap(inst, np.array([0.0])) == pytest.approx(5.0)


def test_utility_gap_matches_corner_brute_force():
    rng = np.random.default_rng(18)
    losses = rng.uniform(-0.7, 0.7, size=(6, 2))
    inst = ErmInstance(box([-1.0, -1.0], [1.0, 1.0]), losses, L=1.0, eps_dp=0.5)
    csum = losses.sum(axis=0)
    corners = np.array([[sx, sy] for sx in (-1, 1) for sy in (-1, 1)], dtype=float)
    best = float(np.min(corners @ csum))
    theta = np.array([0.3, -0.4])
    assert utility_gap(inst, theta) == pytest.approx(float(theta @ csum) - best, abs=1e-12)


def test_utility_gap_rejects_outside_point():
    inst = small_instance()
    with pytest.raises(ValueError, match="outside"):
        utility_gap(inst, np.array([1.5]))


def test_utility_gap_frozen_example(erm_file):
    # mean over the mechanism law has gap E[5(theta+1)] = 5(1 + 1/k - coth k)
    inst = load_erm_instance(erm_file)
    k = 0.25
    mean_theta = helpers.mech_mean_symmetric(k)
    gap_exact = 5.0 * (mean_theta + 1.0)
    assert gap_exact == pytest.approx(4.585059174632016, rel=1e-12)
    assert math.exp(0.5) * gap_exact == pytest.approx(7.559484588634579, rel=1e-12)
