import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loss_sum
from polysamp.density import (
    LogDensity,
    exp_mechanism_density,
    linear,
    norm1,
    parse_density,
    shifted,
    uniform,
)
from polysamp.errors import ConfigError


def test_uniform_is_zero_everywhere(rng):
    f = uniform()
    assert f.L == 0.0
    X = rng.standard_normal((50, 3))
    np.testing.assert_array_equal(f.eval_many(X), np.zeros(50))
    assert f([1.0, 2.0, 3.0]) == 0.0


def test_linear_values_and_constant():
    f = linear([3.0, -4.0])
    assert f.L == pytest.approx(5.0)
    assert f([1.0, 1.0]) == pytest.approx(-1.0)
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    np.testing.assert_allclose(f.eval_many(X), [3.0, -4.0, -2.0])


def test_norm1_values_and_constant():
    f = norm1(2.0, 3)
    assert f.L == pytest.approx(2.0 * math.sqrt(3))
    assert f([1.0, -1.0, 0.5]) == pytest.approx(5.0)


def test_loss_sum_matches_sum_of_linears():
    C = np.array([[1.0, 0.0], [0.5, 0.5], [-0.25, 1.0]])
    f = loss_sum(C)
    g = [linear(c) for c in C]
    X = np.array([[0.3, -0.7], [1.0, 1.0]])
    np.testing.assert_allclose(f.eval_many(X), sum(gi.eval_many(X) for gi in g))
    assert f.L == pytest.approx(np.linalg.norm(C.sum(axis=0)))


def test_eval_many_validates(rng):
    f = linear([1.0, 1.0])
    with pytest.raises(ValueError):
        f.eval_many(np.ones((3, 3)))  # wrong width
    bad = LogDensity(lambda X: np.full(X.shape[0], np.nan), L=0.0)
    with pytest.raises(ValueError):
        bad.eval_many(np.ones((2, 2)))


def test_shifted_translates_argument():
    f = linear([2.0, 0.0])
    g = shifted(f, [1.0, 5.0])
    assert g.L == f.L
    assert g([0.0, 0.0]) == pytest.approx(f([1.0, 5.0]))


def test_shifted_zero_is_identity_path():
    f = norm1(1.0, 2)
    g = shifted(f, [0.0, 0.0])
    X = np.array([[0.25, -0.75]])
    np.testing.assert_array_equal(g.eval_many(X), f.eval_many(X))


def test_exp_mechanism_scale_identity():
    # returned constant is exactly f.L * eps / (2 L_total R)
    f = linear([3.0])
    g = exp_mechanism_density(f, eps=0.5, L_total=3.0, R=2.0)
    assert g.L == f.L * (0.5 / (2 * 3.0 * 2.0))
    assert g.L == pytest.approx(0.5 / (2 * 2.0))  # = eps/(2R) when L_total = f.L
    assert g([1.0]) == pytest.approx((0.5 / 12.0) * 3.0)


def test_exp_mechanism_validation():
    f = linear([1.0])
    for bad in (dict(eps=0.0), dict(L_total=0.0), dict(R=0.0), dict(eps=-1.0)):
        kwargs = dict(eps=0.5, L_total=1.0, R=1.0)
        kwargs.update(bad)
        with pytest.raises(ConfigError):
            exp_mechanism_density(f, **kwargs)


def test_parse_density_kinds():
    assert parse_density("uniform", 3).L == 0.0
    f = parse_density("linear:1,-2,2", 3)
    assert f.L == pytest.approx(3.0)
    assert f([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    g = parse_density("norm1:0.5", 2)
    assert g.L == pytest.approx(0.5 * math.sqrt(2))


def test_parse_density_errors():
    with pytest.raises(ConfigError):
        parse_density("gaussian:1", 2)
    with pytest.raises(ConfigError):
        parse_density("linear:1,2", 3)  # arity mismatch
    with pytest.raises(ConfigError):
        parse_density("linear:a,b", 2)
    with pytest.raises(ConfigError):
        parse_density("norm1:-1", 2)


@settings(max_examples=150, deadline=None)
@given(
    ax=st.floats(-2, 2),
    ay=st.floats(-2, 2),
    bx=st.floats(-2, 2),
    by=st.floats(-2, 2),
)
def test_declared_lipschitz_bounds_hold(ax, ay, bx, by):
    x = np.array([ax, ay])
    y = np.array([bx, by])
    gap = np.linalg.norm(x - y)
    for f in (uniform(), linear([1.5, -0.5]), norm1(0.7, 2)):
        assert abs(f(x) - f(y)) <= f.L * gap + 1e-9
