"""Converter schedule, rejection loop, and iteration-count telemetry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from polysamp import converter
from helpers import check_settings, tau_statistics
from polysamp.converter import (
    ConverterParams,
    compute_params,
    convert_batch,
)
from polysamp.errors import ContractViolation
from polysamp.geometry import box, contains_many


# ---------------------------------------------------------------------------
# Parameter schedule
# ---------------------------------------------------------------------------


def test_schedule_worked_example_d2():
    # eps=0.5, L=1, r=1, R=2, d=2 (the square configuration)
    p = compute_params(0.5, 1.0, 1.0, 2.0, 2)
    assert p.tau_max == 18
    assert p.delta == pytest.approx(2.712673611111111e-05, rel=0, abs=0)
    assert p.delta_log == pytest.approx(-29.268306113150633, rel=0, abs=0)


def test_schedule_worked_example_d1():
    p = compute_params(0.5, 1.0, 1.0, 2.0, 1)
    assert p.tau_max == 14
    assert p.delta == pytest.approx(3.487723214285714e-05, rel=0, abs=0)
    assert p.delta_log == pytest.approx(-17.80885376025422, rel=0, abs=0)


def test_schedule_dp_scaled_config():
    # the mechanism density after loss rescaling: L=eps/(2R) with r=R=1
    p = compute_params(0.5, 0.25, 1.0, 1.0, 1)
    assert p.tau_max == 2
    assert p.delta == pytest.approx(0.5 / 1024.0, rel=0, abs=0)
    assert p.delta_log == pytest.approx(-12.726649250079015, rel=0, abs=0)


@pytest.mark.parametrize(
    "eps,L,r,R,d",
    [(0.5, 1.0, 1.0, 2.0, 2), (0.5, 1.0, 1.0, 2.0, 1), (0.5, 0.25, 1.0, 1.0, 1), (0.125, 3.0, 0.5, 4.0, 3)],
)
def test_schedule_matches_decimal_oracle(eps, L, r, R, d):
    p = compute_params(eps, L, r, R, d)
    want = helpers.dec_schedule(eps, L, r, R, d)
    assert p.tau_max == want["tau_max"]
    assert p.delta == pytest.approx(float(want["delta"]), rel=1e-12)
    assert p.delta_log == pytest.approx(float(want["delta_log"]), rel=1e-6)


def test_schedule_degenerate_ball():
    # L=0 and r=R kill both log and Lipschitz terms; only eps survives the ceil
    p = compute_params(0.75, 0.0, 1.0, 1.0, 1)
    assert p.tau_max == 1
    assert p.delta == pytest.approx(0.75 / 512.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(eps=0.0),
        dict(eps=1.5),
        dict(eps=-0.1),
        dict(L=-1.0),
        dict(r=0.0),
        dict(r=3.0),  # r > R
        dict(d=0),
    ],
)
def test_schedule_rejects_bad_inputs(kwargs):
    base = dict(eps=0.5, L=1.0, r=1.0, R=2.0, d=2)
    base.update(kwargs)
    with pytest.raises(ValueError):
        compute_params(base["eps"], base["L"], base["r"], base["R"], base["d"])


def test_check_settings_accepts_schedule_and_rejects_perturbations():
    p = compute_params(0.5, 1.0, 1.0, 2.0, 2)
    assert check_settings(p, 1.0, 1.0, 2.0, 2)
    import dataclasses

    assert not check_settings(dataclasses.replace(p, tau_max=p.tau_max - 1), 1.0, 1.0, 2.0, 2)
    assert not check_settings(dataclasses.replace(p, delta=p.delta * 1.01), 1.0, 1.0, 2.0, 2)
    assert not check_settings(dataclasses.replace(p, delta_log=p.delta_log + 0.1), 1.0, 1.0, 2.0, 2)
    assert not check_settings(dataclasses.replace(p, eps=1.5), 1.0, 1.0, 2.0, 2)


@settings(max_examples=200, deadline=None)
@given(
    eps=st.floats(0.01, 1.0),
    L=st.floats(0.0, 5.0),
    r=st.floats(0.1, 3.0),
    ratio=st.floats(1.0, 10.0),
    d=st.integers(1, 6),
)
def test_schedule_always_satisfies_constraints(eps, L, r, ratio, d):
    R = r * ratio
    p = compute_params(eps, L, r, R, d)
    assert check_settings(p, L, r, R, d)
    assert p.tau_max >= 1
    assert 0.0 < p.delta <= 0.5
    assert p.delta_log < 0.0


# ---------------------------------------------------------------------------
# Rejection loop
# ---------------------------------------------------------------------------


def _repeat(point):
    """A batch oracle whose every draw is ``point``."""
    return lambda k, rng: np.tile(point, (k, 1))


def test_identity_pipeline_passes_point_through():
    # delta = 0 makes both the smoothing and the stretch the identity map:
    # every run that halts returns the oracle draw bitwise, whatever the coin
    P = helpers.square()
    point = np.array([0.25, -0.5])
    params = ConverterParams(eps=0.5, delta=0.0, tau_max=3, delta_log=-30.0)
    batch = convert_batch(P, _repeat(point), params, np.random.default_rng(0), n=64)
    halted = ~batch.fallback
    assert halted.sum() > 48  # each run misses three coins with chance 1/8
    assert np.all(batch.points[halted] == point)
    assert np.any(batch.tau[halted] == 1) and np.any(batch.tau[halted] > 1)


def test_oracle_point_outside_polytope_is_contract_violation(seg):
    params = compute_params(0.5, 1.0, 1.0, 2.0, 1)
    with pytest.raises(ContractViolation, match="outside the polytope"):
        convert_batch(seg, _repeat([1.5]), params, np.random.default_rng(1), n=4)


def test_oracle_point_beyond_declared_radius_is_contract_violation():
    # a square whose declared circumradius understates the true one: a draw
    # near the corner is inside K but outside B(center, R)
    P = box([-1.0, -1.0], [1.0, 1.0], R=1.1)
    params = compute_params(0.5, 0.0, 1.0, 1.1, 2)
    with pytest.raises(ContractViolation, match="radius"):
        convert_batch(P, _repeat([0.99, 0.99]), params, np.random.default_rng(2), n=4)


def test_forced_fallback_lands_in_inscribed_ball(sq):
    # a corner draw, pushed outward by the stretch, never lands back in K:
    # every run exhausts its rounds and falls back to the inscribed ball
    params = compute_params(0.5, 1.0, 1.0, 2.0, 2)
    batch = convert_batch(sq, _repeat([1.0, 1.0]), params, np.random.default_rng(3), n=50)
    assert np.all(batch.tau == params.tau_max + 1)
    assert np.all(np.linalg.norm(batch.points - sq.center, axis=1) <= sq.r + 1e-12)
    assert np.all(contains_many(sq, batch.points))


def test_fallback_and_oracle_calls_derive_from_tau():
    # a run that halts on round t made t oracle calls; one that falls back
    # (tau = tau_max + 1) made tau_max
    batch = converter.SampleBatch(np.zeros((4, 1)), np.array([1, 2, 3, 4]), tau_max=3)
    assert batch.fallback.tolist() == [False, False, False, True]
    assert batch.oracle_calls.tolist() == [1, 2, 3, 3]


@pytest.mark.parametrize(
    "P, want",
    [
        # on the segment xi <= -1/2 has chance 1/4, then the coin
        (helpers.segment(), 1.0 / 8.0),
        # in the square's corner xi_1, xi_2 <= -1/2 cuts off area
        # pi/12 - sqrt(3)/4 + 1/4 of the unit disk, then the coin
        (helpers.square(), (math.pi / 12.0 - math.sqrt(3.0) / 4.0 + 0.25) / math.pi / 2.0),
    ],
    ids=["segment", "square_corner"],
)
def test_halt_share_at_the_stretch_scale(P, want):
    # an oracle fixed delta r / 2 inside each boundary it is near: after the
    # stretch by 1 / (1 - delta) a draw stays in K only where each xi_j is
    # at most -1/2; without the stretch the shares would be 3/8 and 0.317
    params = compute_params(0.5, 1.0, P.r, P.R, P.d)
    theta = np.full(P.d, 1.0 - params.delta * P.r / 2.0)
    batch = convert_batch(P, _repeat(theta), params, np.random.default_rng(1), n=20000)
    calls = int(batch.oracle_calls.sum())
    share = (~batch.fallback).sum() / calls
    assert abs(share - want) <= 5.0 * math.sqrt(want * (1.0 - want) / calls)


# (eps, s, R) for f = s x on the segment [-1, 1] with r = 1: the README's
# run, a steeper density, a density that falls the other way and looser
# outer radii; every eps is below log 2, the deficit without the stretch
_LAW_CASES = [(0.5, 1.0, 2.0), (0.25, 2.0, 2.0), (0.1, -1.0, 4.0), (0.5, 3.0, 8.0)]


def _pi_cdf(s):
    return lambda x: helpers.exp_interval_cdf(s, -1.0, 1.0, x)


@pytest.mark.parametrize("eps, s, R", _LAW_CASES)
def test_converter_law_is_eps_close_pointwise(eps, s, R):
    # the exact oracle: sup |log nu / pi| is 1.8e-4 at the README's eps = 0.5
    _, log_ratio = helpers.converter_law_1d(s, eps, _pi_cdf(s), R=R)
    assert np.abs(log_ratio).max() <= eps


@pytest.mark.parametrize("eps, s, R", _LAW_CASES)
def test_converter_law_with_a_one_spot_oracle(eps, s, R):
    # mu = (1 - t) pi + t U[0, 1e-9] is TV-close to pi by t, the schedule's
    # target exp(delta_log), and holds all its error in one spot
    t = math.exp(compute_params(eps, abs(s), 1.0, R, 1).delta_log)
    pi_cdf = _pi_cdf(s)

    def mu_cdf(x):
        return (1.0 - t) * pi_cdf(x) + t * np.clip(x / 1e-9, 0.0, 1.0)

    _, log_ratio = helpers.converter_law_1d(s, eps, mu_cdf, R=R, kinks=(0.0, 1e-9))
    assert np.abs(log_ratio).max() <= eps


@pytest.mark.parametrize("eps, s, R", _LAW_CASES)
def test_converter_law_without_the_stretch_breaks(eps, s, R):
    # the smoothing ball hangs over the boundary, so an end keeps about
    # half of pi's density there: |log nu / pi| reaches log 2 > eps
    z, log_ratio = helpers.converter_law_1d(s, eps, _pi_cdf(s), stretch=False, R=R)
    worst = np.argmax(np.abs(log_ratio))
    assert abs(z[worst]) == 1.0
    assert np.abs(log_ratio[worst]) > eps


def test_batch_oracle_shape_violation(sq):
    params = compute_params(0.5, 0.0, 1.0, 2.0, 2)

    def bad_oracle(k, rng):
        return np.zeros((k, 3))

    with pytest.raises(ContractViolation, match="shape"):
        convert_batch(sq, bad_oracle, params, np.random.default_rng(5), n=4)


def test_batch_semantics(sq):
    params = compute_params(0.5, 0.0, 1.0, 2.0, 2)
    rng = np.random.default_rng(6)
    batch = convert_batch(
        sq, lambda k, r: helpers.uniform_in_polytope(sq, r, k), params, rng, n=4000
    )
    assert len(batch) == 4000
    assert batch.points.shape == (4000, 2)
    assert np.all(contains_many(sq, batch.points))
    assert np.all((batch.tau >= 1) & (batch.tau <= params.tau_max + 1))
    fb = batch.fallback
    # with tau_max = 8 here, the fallback rate sits near 2^-8
    assert fb.mean() <= 0.02
    # halting iterations hug the geometric(1/2) law
    stats = tau_statistics(batch.tau, eps=params.eps)
    assert stats.mean <= 3.0
    assert stats.sandwich_ok


def test_batch_deterministic(sq):
    params = compute_params(0.5, 0.0, 1.0, 2.0, 2)
    oracle = lambda k, r: helpers.uniform_in_polytope(sq, r, k)
    a = convert_batch(sq, oracle, params, np.random.default_rng(7), n=200)
    b = convert_batch(sq, oracle, params, np.random.default_rng(7), n=200)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.tau, b.tau)


# ---------------------------------------------------------------------------
# Iteration-count telemetry
# ---------------------------------------------------------------------------


def test_tau_statistics_hand_values():
    stats = tau_statistics([1, 1, 2, 3])
    assert stats.n == 4
    assert stats.mean == pytest.approx(1.75)
    assert stats.tail_geq[1] == 1.0
    assert stats.tail_geq[2] == 0.5
    assert stats.tail_geq[3] == 0.25
    assert stats.tail_geq[4] == 0.0
    assert stats.survival[0] == 1.0
    assert stats.survival[1] == 0.5
    assert stats.survival[2] == 0.25
    assert stats.survival[3] == 0.0


def test_tau_statistics_geometric_self_test():
    rng = np.random.default_rng(9)
    taus = rng.geometric(0.5, size=20000)
    stats = tau_statistics(taus.tolist(), eps=0.5)
    assert stats.sandwich_ok
    assert stats.pmf_ok
    assert stats.mean == pytest.approx(2.0, abs=0.05)
    assert len(stats.sandwich_rows) == 8
    assert len(stats.pmf_rows) == 8
    for t, lo, value, hi in stats.sandwich_rows:
        assert lo <= value <= hi


def test_tau_statistics_flags_constant_law():
    # a source that always halts at the first iteration violates the
    # survival sandwich at t = 1 (P(tau > 1) should be near one half)
    stats = tau_statistics([1] * 5000)
    assert not stats.sandwich_ok
    t, lo, value, hi = stats.sandwich_rows[0]
    assert t == 1
    assert value == 0.0
    assert lo > 0.0


def test_tau_statistics_without_eps_skips_pmf():
    stats = tau_statistics([1, 2, 1, 4])
    assert stats.pmf_ok is None
    assert stats.pmf_rows == []


def test_tau_statistics_rejects_empty():
    with pytest.raises(ValueError):
        tau_statistics([])
