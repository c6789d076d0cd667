"""Brute-force verification machinery: exact sampler, cell quadrature, stats."""

import math

import numpy as np
import pytest

import helpers
from polysamp import oracle
from polysamp.density import LogDensity, linear, norm1, uniform
from polysamp.errors import ConfigError, ContractViolation
from polysamp.geometry import Polytope, box, contains_many
from polysamp.pipeline import run_sampling
from polysamp.oracle import (
    CellGrid,
    ExactSampler,
    box_bounds,
    cell_masses,
    histogram_counts,
    sup_log_ratio,
    tv_estimate,
)


def diamond(scale: float = 1.0, R: float | None = None) -> Polytope:
    """|x| + |y| <= scale; no axis-aligned rows, so box_bounds cannot tighten."""
    A = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    b = np.full(4, scale)
    r = scale / math.sqrt(2.0)
    return Polytope(A, b, center=np.zeros(2), r=r, R=scale if R is None else R)


def triangle() -> Polytope:
    """Vertices (0,0), (1,0), (0,1)."""
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    return Polytope(A, b, center=np.array([0.25, 0.25]), r=0.25, R=0.8)


# ---------------------------------------------------------------------------
# Bounding box and exact sampler
# ---------------------------------------------------------------------------


def test_box_bounds_exact_for_axis_aligned(sq):
    lo, hi = box_bounds(sq)
    assert np.array_equal(lo, [-1.0, -1.0])
    assert np.array_equal(hi, [1.0, 1.0])


def test_box_bounds_falls_back_to_outer_ball_for_diagonal_rows():
    P = diamond(1.0)
    lo, hi = box_bounds(P)
    # no single-variable rows: the box is center +- R, which here is also tight
    assert np.array_equal(lo, [-1.0, -1.0])
    assert np.array_equal(hi, [1.0, 1.0])


def test_box_bounds_tightens_off_center_box():
    P = box([1.0, 0.0], [3.0, 2.0])
    lo, hi = box_bounds(P)
    assert np.allclose(lo, [1.0, 0.0])
    assert np.allclose(hi, [3.0, 2.0])


def test_corner_radius_matches_corner_loop():
    """The farthest corner takes the farther bound on every axis: same bits
    as the norm of every corner, on boxes of mixed scales, d = 1..8."""
    rng = np.random.default_rng(17)
    for d in range(1, 9):
        for _ in range(200):
            scale = 10.0 ** rng.integers(-6, 7, d)
            lo = -rng.random(d) * scale
            hi = rng.random(d) * scale
            center = lo + (hi - lo) * rng.random(d)
            want = helpers.reference_corner_radius(lo, hi, center)
            assert oracle._corner_radius(lo, hi, center) == want


def test_exact_sampler_uniform_box_accepts_everything(sq, rng):
    s = ExactSampler(sq, uniform(), rng)
    assert s.pilot_acceptance == 1.0
    X = s.draw(rng, 1000)
    assert X.shape == (1000, 2)
    assert np.all(contains_many(sq, X))


def test_exact_sampler_guard_trips_on_starved_instance(rng):
    # a tiny diamond with a loosely declared outer ball: the bounding box is
    # center +- 10 while K has area 2e-4, so acceptance ~ 5e-7
    P = diamond(0.01, R=10.0)
    with pytest.raises(ConfigError, match="guard"):
        ExactSampler(P, uniform(), rng)


def test_exact_sampler_dimension_guard(rng):
    P = box([-1.0] * 9, [1.0] * 9)
    with pytest.raises(ConfigError, match="d <= 8"):
        ExactSampler(P, uniform(), rng)


def test_exact_sampler_matches_closed_form_cdf(seg):
    # f(theta) = theta on [-1, 1]: P(theta <= 0) = e/(e - 1/e) (frozen below)
    rng = np.random.default_rng(101)
    X = ExactSampler(seg, linear(np.array([1.0])), rng).draw(rng, 20000)
    p = 0.7310585786300049
    phat = float(np.mean(X[:, 0] <= 0.0))
    assert abs(phat - p) <= 3.0 * math.sqrt(p * (1.0 - p) / 20000)


def test_exact_sample_single_draw(seg, rng):
    X = ExactSampler(seg, linear(np.array([1.0])), rng).draw(rng, 1)
    assert X.shape == (1, 1)
    assert -1.0 <= X[0, 0] <= 1.0


def test_exact_sampler_deterministic(seg):
    f = linear(np.array([1.0]))
    a = ExactSampler(seg, f, np.random.default_rng(7)).draw(np.random.default_rng(8), 100)
    b = ExactSampler(seg, f, np.random.default_rng(7)).draw(np.random.default_rng(8), 100)
    assert np.array_equal(a, b)


def test_exact_sampler_rejects_under_declared_lipschitz(sq):
    # f = 5 x1 declared with L = 0.1: weights above 1 would be treated as 1,
    # giving mean x1 near -0.40 where pi has about -0.80
    f = LogDensity(lambda X: 5.0 * X[:, 0], L=0.1, name="steep")
    with pytest.raises(ContractViolation, match="declared L=0.1"):
        ExactSampler(sq, f, np.random.default_rng(3))
    with pytest.raises(ContractViolation, match="declared L=0.1"):
        run_sampling(sq, f, eps=0.5, n=100, seed=3, oracle="exact")


@pytest.mark.parametrize("shape", ("square", "triangle"))
def test_exact_sampler_draw_matches_reference(shape, sq):
    # every box proposal lies in the square; some miss the triangle
    P = sq if shape == "square" else triangle()
    f = helpers.CountingDensity(linear(np.array([1.0, 0.5])))
    s = ExactSampler(P, f, np.random.default_rng(1))
    inside = contains_many(P, s._propose(np.random.default_rng(2), 1000))
    assert inside.all() == (shape == "square")
    before = f.count
    got = s.draw(np.random.default_rng(5), 3000)
    got_evals = f.count - before
    want = helpers.reference_exact_draw(s, np.random.default_rng(5), 3000)
    assert np.array_equal(got, want)
    assert got_evals == f.count - before - got_evals


def test_exact_sampler_draw_checks_weights(sq):
    # the pilot sees an honest f; the density steepens before the draw. On
    # the square every proposal is in K, so this is the no-gather path.
    slope = [0.1]
    f = LogDensity(lambda X: slope[0] * X[:, 0], L=0.1, name="steepening")
    s = ExactSampler(sq, f, np.random.default_rng(3))
    slope[0] = 5.0
    with pytest.raises(ContractViolation, match="exceeds 1"):
        s.draw(np.random.default_rng(4), 1000)


# ---------------------------------------------------------------------------
# Cell quadrature
# ---------------------------------------------------------------------------


def test_cell_masses_uniform_square_equal(sq):
    grid = cell_masses(sq, uniform(), 10)
    assert grid.n_cells == 100
    assert np.allclose(grid.masses, 0.01, rtol=0, atol=1e-12)
    assert grid.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_cell_masses_matches_exponential_closed_form(seg):
    grid = cell_masses(seg, linear(np.array([1.0])), 16)
    want = helpers.exp_interval_masses(1.0, -1.0, 1.0, 16)
    assert np.allclose(grid.masses, want, rtol=1e-6, atol=1e-12)


def test_cell_masses_subnode_refinement_converges(seg):
    f = linear(np.array([1.0]))
    coarse = cell_masses(seg, f, 8)
    fine = helpers.reference_cell_masses(seg, f, 8, subnodes=64)
    assert oracle.SUBNODES == 32
    assert np.max(np.abs(coarse.masses - fine.masses)) < 1e-7


@pytest.mark.parametrize("block_points", (2**12, oracle.BLOCK_POINTS, 2**26))
def test_cell_masses_same_bits_as_the_per_cell_loop(block_points, monkeypatch):
    # blocks of whole first-axis cells sum each cell's nodes as the per-cell
    # loop did, whatever the block size
    monkeypatch.setattr(oracle, "BLOCK_POINTS", block_points)
    rng = np.random.default_rng(18)
    cases = [
        (helpers.segment(), (50, 2000)),
        (helpers.square(), (1, 20)),
        (box([-1.0] * 3, [2.0] * 3), (3,)),
    ]
    cases += [(helpers.random_polytope(rng, d), bins) for d, bins in ((1, (7,)), (2, (9,)), (3, (4,)))]
    for P, bin_counts in cases:
        for f in (uniform(), linear(np.linspace(0.5, 1.5, P.d)), norm1(1.0, P.d)):
            for bins in bin_counts:
                want = helpers.reference_cell_masses(P, f, bins)
                got = cell_masses(P, f, bins)
                assert np.array_equal(got.masses, want.masses), (P.d, f.name, bins)
                assert np.array_equal(got.lo, want.lo) and np.array_equal(got.hi, want.hi)
                assert got.bins == want.bins


def test_cell_masses_membership_masking():
    # uniform triangle inside its own bounding box: cells fully outside K get
    # zero mass, fully inside cells get area/total, and everything sums to 1
    # (the redundant rows x <= 1 and y <= 1 make that box [0, 1]^2)
    T = triangle()
    P = Polytope(np.vstack([T.A, np.eye(2)]), np.append(T.b, [1.0, 1.0]), T.center, T.r, T.R)
    grid = cell_masses(P, uniform(), 4)
    assert np.array_equal(grid.lo, [0.0, 0.0]) and np.array_equal(grid.hi, [1.0, 1.0])
    m = grid.masses.reshape(4, 4)
    assert m[3, 3] == 0.0  # cell [0.75,1]^2 misses the triangle entirely
    # fully inside cell: (1/16) / (1/2), up to the midpoint staircase on the
    # diagonal boundary (the normalizer measures the hypotenuse at subnode
    # resolution, a ~0.8% effect at 4 cells x 32 subnodes)
    assert m[0, 0] == pytest.approx(0.125, rel=0.01)
    assert grid.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_cell_masses_symmetry(sq):
    # f = x is flat in y, so masses are symmetric under the y flip
    grid = cell_masses(sq, linear(np.array([1.0, 0.0])), 8)
    m = grid.masses.reshape(8, 8)
    assert np.allclose(m, m[:, ::-1], rtol=1e-12)
    # and monotone decreasing in x
    col = m.sum(axis=1)
    assert np.all(np.diff(col) < 0)


def test_cell_masses_guards(sq, seg):
    with pytest.raises(ConfigError, match="d <= 3"):
        cell_masses(box([-1.0] * 4, [1.0] * 4), uniform(), 4)
    with pytest.raises(ConfigError, match="at least one cell"):
        cell_masses(seg, uniform(), 0)
    # a slab 1/32 wide inside [-1, 1]^2, lying between two diagonals of the
    # one-cell grid's nodes (spaced 1/16 apart): no node falls in K
    s, w = 1.0 / 32.0, 1.0 / 64.0
    A = np.vstack([np.eye(2), -np.eye(2), [[1.0, -1.0], [-1.0, 1.0]]])
    b = np.array([1.0, 1.0, 1.0, 1.0, s + w, w - s])
    slab = Polytope(A, b, center=np.array([s / 2, -s / 2]), r=0.9 * w / math.sqrt(2.0), R=2.0)
    with pytest.raises(ConfigError, match="does not intersect"):
        cell_masses(slab, uniform(), 1)


def test_cell_masses_refuses_grids_over_the_point_budget(seg, sq):
    # refused before any allocation: (bins * subnodes)^d over 2^26
    for P, bins in ((sq, 257), (sq, 100_000), (box([-1.0] * 3, [1.0] * 3), 13), (seg, 2**21 + 1)):
        with pytest.raises(ConfigError, match="quadrature points"):
            cell_masses(P, uniform(), bins)
    assert (6 * 32) ** 3 <= oracle.QUADRATURE_POINTS  # diagnose's d = 3 default


# ---------------------------------------------------------------------------
# CellGrid indexing and histograms
# ---------------------------------------------------------------------------


def test_cell_index_edges_and_outside(seg):
    grid = cell_masses(seg, uniform(), 4)
    idx = grid.cell_index(np.array([[-1.0], [-0.50001], [0.0], [1.0]]))
    assert idx.tolist() == [0, 0, 2, 3]  # the top edge clips into the last cell
    with pytest.raises(ValueError, match="outside the grid"):
        grid.cell_index(np.array([[1.5]]))


def test_cell_centers_layout(sq):
    grid = cell_masses(sq, uniform(), 2)
    centers = grid.cell_centers()
    assert centers.shape == (4, 2)
    assert np.allclose(centers[0], [-0.5, -0.5])
    assert np.allclose(centers[1], [-0.5, 0.5])  # C order: last axis fastest
    assert np.allclose(centers[3], [0.5, 0.5])


def test_histogram_counts_sum(sq, rng):
    grid = cell_masses(sq, uniform(), 5)
    X = helpers.uniform_in_polytope(sq, rng, 3000)
    counts = histogram_counts(X, grid)
    assert counts.sum() == 3000
    assert counts.shape == (25,)


# ---------------------------------------------------------------------------
# sup-log-ratio and TV statistics
# ---------------------------------------------------------------------------


def test_sup_log_ratio_self_consistency(seg):
    f = linear(np.array([1.0]))
    rng = np.random.default_rng(202)
    X = ExactSampler(seg, f, rng).draw(rng, 20000)
    grid = cell_masses(seg, f, 20)
    res = sup_log_ratio(X, grid)
    assert res.excluded == []  # every cell has expected count >= 100 here
    assert res.passes(extra=0.0, sigmas=3.0)
    assert res.stat < 0.1
    assert tv_estimate(X, grid) < 0.02


def test_sup_log_ratio_zero_count_sentinel(sq):
    grid = cell_masses(sq, uniform(), 4)
    X = np.tile([0.9, 0.9], (5000, 1))  # everything in one corner cell
    res = sup_log_ratio(X, grid)
    assert math.isinf(res.stat)
    assert not res.passes()
    assert np.isneginf(res.log_ratio).any()


def test_sup_log_ratio_exclusion_threshold(seg):
    # slope 3 on [-1,1] spreads masses over two decades; with n = 2000 the
    # lightest cells fall under the default threshold and must be excluded
    f = linear(np.array([3.0]))
    grid = cell_masses(seg, f, 10)
    rng = np.random.default_rng(303)
    X = ExactSampler(seg, f, rng).draw(rng, 2000)
    res = sup_log_ratio(X, grid)
    assert len(res.excluded) > 0
    assert len(res.excluded) + res.cells.size == grid.n_cells
    for idx, mass, count in res.excluded:
        assert 2000 * mass < 100


def test_sup_log_ratio_all_excluded_raises(seg):
    grid = cell_masses(seg, uniform(), 10)
    X = np.zeros((50, 1))
    with pytest.raises(ValueError, match="threshold"):
        sup_log_ratio(X, grid)


def test_sup_log_ratio_sigma_formula(seg):
    grid = cell_masses(seg, uniform(), 4)
    X = np.random.default_rng(404).uniform(-1, 1, size=(1000, 1))
    res = sup_log_ratio(X, grid)
    assert np.allclose(res.sigma, np.sqrt((1 - res.mass) / (1000 * res.mass)))


def test_tv_estimate_bounds_and_disjoint(sq):
    grid = cell_masses(sq, uniform(), 4)
    concentrated = np.tile([0.9, 0.9], (1000, 1))
    tv = tv_estimate(concentrated, grid)
    assert tv == pytest.approx(1.0 - 1.0 / 16.0, abs=1e-9)
    assert 0.0 <= tv <= 1.0


def test_tv_estimate_small_for_matching_sample(sq):
    rng = np.random.default_rng(505)
    X = helpers.uniform_in_polytope(sq, rng, 20000)
    grid = cell_masses(sq, uniform(), 5)
    assert tv_estimate(X, grid) < 0.05
