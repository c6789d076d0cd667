import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import contains, margin, margin_many, sample_unit_ball
from polysamp.errors import ConfigError, ContractViolation
from polysamp.geometry import (
    Polytope,
    _row_norms,
    all_rows,
    box,
    check_outer_radius,
    contains_many,
    load_polytope,
    normalize,
    parse_polytope_lines,
    sample_unit_ball_many,
)


def test_polytope_basic_properties(sq):
    assert sq.d == 2
    assert sq.m == 4
    assert sq.r == 1.0
    assert sq.R == 2.0
    np.testing.assert_array_equal(sq.center, np.zeros(2))


def test_polytope_validation_rejects_bad_shapes():
    A = np.eye(2)
    with pytest.raises(ConfigError):
        Polytope(A, np.ones(3), np.zeros(2), 0.5, 1.0)
    with pytest.raises(ConfigError):
        Polytope(A, np.ones(2), np.zeros(3), 0.5, 1.0)
    with pytest.raises(ConfigError):
        Polytope(np.zeros((2, 2)), np.ones(2), np.zeros(2), 0.5, 1.0)  # zero rows


def test_polytope_validation_radii(sq):
    A, b = sq.A, sq.b
    with pytest.raises(ConfigError):
        Polytope(A, b, np.zeros(2), 0.0, 1.0)  # r must be positive
    with pytest.raises(ConfigError):
        Polytope(A, b, np.zeros(2), 1.0, 0.5)  # R < r
    with pytest.raises(ConfigError):
        Polytope(A, b, np.zeros(2), 1.1, 2.0)  # inner ball not certified
    # center close enough to a facet that the r-ball pokes out
    with pytest.raises(ConfigError):
        Polytope(A, b, np.array([0.5, 0.0]), 1.0, 2.0)
    # non-finite entries
    with pytest.raises(ConfigError):
        Polytope(A, np.array([1.0, np.inf, 1.0, 1.0]), np.zeros(2), 0.5, 2.0)


def test_contains_and_margin(sq):
    assert contains(sq, [0.0, 0.0])
    assert contains(sq, [1.0, 1.0])  # boundary counts as inside
    assert not contains(sq, [1.0 + 1e-12, 0.0])
    assert margin(sq, [0.0, 0.0]) == 1.0
    assert margin(sq, [0.3, -0.2]) == pytest.approx(0.7)
    assert margin(sq, [1.5, 0.0]) == pytest.approx(-0.5)


def test_margin_uses_row_norms():
    # a scaled constraint row must not change the geometric margin
    A = np.array([[2.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([2.0, 1.0, 1.0, 1.0])
    P = Polytope(A, b, np.zeros(2), 1.0, 2.0)
    assert margin(P, [0.0, 0.0]) == pytest.approx(1.0)


def test_contains_many_matches_scalar(sq, rng):
    X = rng.uniform(-1.5, 1.5, size=(200, 2))
    many = contains_many(sq, X)
    assert many.dtype == bool
    for i in range(20):
        assert many[i] == contains(sq, X[i])
    np.testing.assert_allclose(margin_many(sq, X[:20]), [margin(sq, x) for x in X[:20]])


@pytest.mark.parametrize("m", range(1, 10))
def test_contains_many_matches_reference(m, rng):
    # m in {1, 2, 4, 8} compares each row's flags as one integer; other m,
    # and flags that are not C-contiguous, take np.all
    A = rng.standard_normal((m, 3))
    P = Polytope(A, np.linalg.norm(A, axis=1), np.zeros(3), 1.0, 10.0)
    X = rng.uniform(-2.0, 2.0, size=(1001, 3))
    X[::7] = np.nan
    X[1::11, 2] = np.nan
    want = helpers.reference_contains_many(P, X)
    assert 0 < want.sum() < want.size
    for Y in (X, np.asfortranarray(X), X[::-2], X[:1], X[:0]):
        got = contains_many(P, Y)
        assert got.dtype == bool
        assert np.array_equal(got, helpers.reference_contains_many(P, Y))
    flags = rng.random((50, m)) < 0.8
    for F in (flags, np.asfortranarray(flags), flags[::2], flags[:, ::-1]):
        assert np.array_equal(all_rows(F), np.all(F, axis=1))


@pytest.mark.parametrize("d", range(1, 11))
def test_row_norms_and_ball_draws_match_numpy_norm(d, rng):
    # d >= 8 keeps numpy's pairwise sum; below, the column loop must agree
    X = rng.standard_normal((999, d)) * 10.0 ** rng.integers(-3, 4, size=(999, d))
    for Y in (X, np.asfortranarray(X)):
        assert np.array_equal(_row_norms(Y), np.linalg.norm(Y, axis=1))
    got = sample_unit_ball_many(np.random.default_rng(d), 999, d)
    want = helpers.reference_sample_unit_ball_many(np.random.default_rng(d), 999, d)
    assert np.array_equal(got, want)


def test_normalize_recenters_and_preserves_radii():
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([2.0, 1.5, 0.0, 0.5])  # box [0,2] x [-0.5,1.5], center (1, 0.5)
    P = Polytope(A, b, np.array([1.0, 0.5]), 1.0, 2.0)
    Pn, t = normalize(P)
    np.testing.assert_array_equal(t, [1.0, 0.5])
    np.testing.assert_array_equal(Pn.center, np.zeros(2))
    assert Pn.r == P.r and Pn.R == P.R
    x = np.array([0.3, -0.9])
    assert contains(Pn, x) == contains(P, x + t)
    assert margin(Pn, x) == pytest.approx(margin(P, x + t))


def test_stretch_margin_guarantee_small(rng):
    """Points whose stretch lands in K sit delta*r deep inside K."""
    for _ in range(20):
        d = int(rng.integers(1, 4))
        P = helpers.random_polytope(rng, d)
        Pn, _ = normalize(P)
        theta = helpers.uniform_in_polytope(Pn, rng, 50)
        delta = rng.uniform(1e-6, 0.5, size=50)
        Z = (1.0 - delta)[:, None] * theta
        assert np.all(margin_many(Pn, Z) >= delta * Pn.r - 1e-9)


def test_sample_unit_ball_radius_law(rng):
    X = sample_unit_ball_many(rng, 20000, 3)
    norms = np.linalg.norm(X, axis=1)
    assert norms.max() <= 1.0
    # ||x||^d is Uniform(0,1) for a uniform ball draw
    u = norms**3
    assert abs(u.mean() - 0.5) < 3 * math.sqrt(1 / 12 / 20000)
    single = sample_unit_ball(rng, 3)
    assert single.shape == (3,)
    assert np.linalg.norm(single) <= 1.0


def test_check_outer_radius(sq):
    check_outer_radius(sq, np.array([[1.0, 1.0]]))  # within R=2
    with pytest.raises(ContractViolation):
        check_outer_radius(sq, np.array([[2.5, 0.0]]))


def test_parse_round_trip(tmp_path, square_file):
    P = load_polytope(square_file)
    assert (P.d, P.m, P.r, P.R) == (2, 4, 1.0, 2.0)
    np.testing.assert_array_equal(P.b, np.ones(4))


def test_parse_skips_comments_and_blanks(seg_file):
    P = load_polytope(seg_file)
    assert P.d == 1 and P.m == 2


def test_parse_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 1.0 2.0\n1 1\n-1 oops\n0\n")
    with pytest.raises(ConfigError, match="line 3"):
        load_polytope(bad)

    short = tmp_path / "short.txt"
    short.write_text("2 1 0.5 1.0\n1 0 1\n")
    with pytest.raises(ConfigError):
        load_polytope(short)

    trailing = tmp_path / "trailing.txt"
    trailing.write_text("1 2 1.0 2.0\n1 1\n-1 1\n0\nleftover\n")
    with pytest.raises(ConfigError, match="trailing"):
        load_polytope(trailing)

    nan = tmp_path / "nan.txt"
    nan.write_text("1 2 1.0 2.0\n1 nan\n-1 1\n0\n")
    with pytest.raises(ConfigError):
        load_polytope(nan)


def test_parse_polytope_lines_offset():
    lines = ["# header", "1 2 1.0 2.0", "1 1", "-1 1", "0", "extra stuff"]
    P, nxt = parse_polytope_lines(lines, 0)
    assert P.d == 1
    assert lines[nxt] == "extra stuff"


def test_box_helper():
    P = box([-1, -2], [3, 2])
    assert contains(P, [3.0, 2.0])
    assert not contains(P, [3.1, 0.0])
    assert P.r == pytest.approx(2.0)  # min half-side
    assert P.R == pytest.approx(math.hypot(2.0, 2.0))
    np.testing.assert_array_equal(P.center, [1.0, 0.0])


@settings(max_examples=150, deadline=None)
@given(
    x=st.floats(-3, 3),
    y=st.floats(-3, 3),
)
def test_contains_iff_margin_nonnegative(x, y):
    P = helpers.square()
    theta = np.array([x, y])
    assert contains(P, theta) == (margin(P, theta) >= 0)

