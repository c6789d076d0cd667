"""Polytope geometry: membership, ball sampling.

A polytope is the closed set K = {x : A x <= b} together with a certified
inscribed ball B(center, r) (verified at construction) and a declared
circumscribed radius R with K contained in B(center, R) (a caller promise,
spot-checked wherever points are sampled). All the sampling machinery in the
other modules works relative to these two radii.

Convention: the polytope is closed, so boundary points are members and
``contains_many`` applies ``A x <= b`` with no tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractViolation

# Rows with smaller Euclidean norm than this are rejected at construction;
# facet distances divide by the row norm and a near-zero normal is a
# degenerate constraint, not a facet.
ROW_NORM_FLOOR = 1e-12

# Relative slack for the outer-radius spot check. Points are produced by
# arithmetic that can land a whisker outside the closed ball.
_OUTER_TOL = 1e-9


class Polytope:
    """Constraint polytope K = {x : A x <= b} with certified inner ball.

    Parameters
    ----------
    A : (m, d) array
        Constraint normals, one facet per row. Rows must be nonzero.
    b : (m,) array
        Constraint offsets.
    center : (d,) array
        Center of the inscribed ball.
    r : float
        Inscribed-ball radius; B(center, r) inside K is checked exactly
        at construction.
    R : float
        Declared circumscribed radius: the caller promises K is contained
        in B(center, R). Not verified here (that would take one LP per
        vertex); sampling code spot-checks every point it produces and
        raises ContractViolation when the promise fails.
    """

    __slots__ = ("A", "b", "center", "r", "R", "row_norms")

    def __init__(self, A, b, center, r, R):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        center = np.asarray(center, dtype=float).ravel()
        if A.ndim != 2:
            raise ConfigError("constraint matrix must be 2-D")
        m, d = A.shape
        if b.shape != (m,):
            raise ConfigError(f"offset vector has length {b.size}, expected {m}")
        if center.shape != (d,):
            raise ConfigError(f"center has length {center.size}, expected {d}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(center))):
            raise ConfigError("polytope data must be finite")
        r = float(r)
        R = float(R)
        if not (r > 0 and np.isfinite(r)):
            raise ConfigError("inner radius r must be positive and finite")
        if not (R >= r and np.isfinite(R)):
            raise ConfigError("outer radius R must satisfy R >= r")

        row_norms = np.linalg.norm(A, axis=1)
        if np.any(row_norms < ROW_NORM_FLOOR):
            raise ConfigError("degenerate constraint row (norm below 1e-12)")

        # Certify the inner ball: distance from center to every facet plane
        # must be at least r. Exact comparison, no tolerance; callers that
        # compute r from the same distances get equality bit for bit.
        slacks = (b - A @ center) / row_norms
        if np.any(slacks < r):
            worst = int(np.argmin(slacks))
            raise ConfigError(
                f"inner ball not contained in polytope: facet {worst} is at "
                f"distance {slacks[worst]:.6g} < r = {r:.6g} from the center"
            )

        self.A = A
        self.b = b
        self.center = center
        self.r = r
        self.R = R
        self.row_norms = row_norms

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def __repr__(self) -> str:
        return f"Polytope(d={self.d}, m={self.m}, r={self.r:g}, R={self.R:g})"


def _check_dim(P: Polytope, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != P.d:
        raise ValueError(f"point has dimension {theta.shape[-1]}, polytope has {P.d}")
    return theta


# Flags of a row with m = 1, 2, 4 or 8 entries, all set, read as one integer.
_ALL_SET = {m: np.array(int("01" * m, 16), dtype=f"<u{m}") for m in (1, 2, 4, 8)}


def all_rows(flags: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.all(flags, axis=1) for a 2-D bool array. For m in _ALL_SET on
    C-contiguous flags each row is compared as one integer: the axis-1
    reduction costs about 25 ns per row on such short rows."""
    m = flags.shape[1]
    if m not in _ALL_SET or not flags.flags.c_contiguous:
        return np.all(flags, axis=1, out=out)
    word = flags.view(_ALL_SET[m].dtype).reshape(-1)
    return np.equal(word, _ALL_SET[m], out=out)


def contains_many(P: Polytope, X) -> np.ndarray:
    """Vectorized membership for an (n, d) array of points."""
    X = _check_dim(P, np.atleast_2d(np.asarray(X, dtype=float)))
    return all_rows(X @ P.A.T <= P.b)


def normalize(P: Polytope) -> tuple[Polytope, np.ndarray]:
    """Translate the polytope so the inscribed ball sits at the origin.

    Membership is preserved under the shift: x is in the result iff
    x + translation is in P. Distances to the facets are unchanged, and because
    the declared outer ball is centered at the inner-ball center, both radii
    carry over unchanged.

    Returns
    -------
    (Polytope, ndarray)
        The recentered polytope and the translation vector (the original
        center), so original coordinates are ``x + translation``.
    """
    translation = P.center.copy()
    shifted = Polytope(P.A, P.b - P.A @ P.center, np.zeros(P.d), P.r, P.R)
    return shifted, translation


def _row_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=1), bit for bit: for d < 8 numpy adds a row's
    squares left to right, as this column loop does; from 8 on it sums
    pairwise, so numpy's norm is kept there."""
    if X.shape[1] >= 8:
        return np.linalg.norm(X, axis=1)
    return np.sqrt(sum(np.square(col) for col in X.T))


def sample_unit_ball_many(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """(n, d) array of independent draws, uniform on the closed unit ball.

    Gaussian directions normalized to the sphere, radii U**(1/d). No
    rejection loop, exact in any dimension.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    g = rng.standard_normal((n, d))
    g /= _row_norms(g)[:, None]
    g *= (rng.random(n) ** (1.0 / d))[:, None]
    return g


def check_outer_radius(P: Polytope, X) -> None:
    """Spot check the declared outer ball on sampled points.

    K inside B(center, R) is a caller promise the constructor cannot verify
    cheaply, so every sampling path funnels its points through here; a point
    of K outside the ball proves the declaration wrong and aborts the run.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dist = _row_norms(X - P.center)
    bound = P.R * (1.0 + _OUTER_TOL)
    if np.any(dist > bound):
        worst = float(np.max(dist))
        raise ContractViolation(
            f"sampled point at distance {worst:.6g} from the center exceeds "
            f"the declared outer radius R = {P.R:.6g}; the polytope "
            "declaration is inconsistent"
        )


def parse_polytope_lines(lines: list[str], offset: int = 0) -> tuple[Polytope, int]:
    """Parse a polytope block from pre-split text lines.

    Block layout: header ``d m r R``, then m constraint rows ``a_1 ... a_d b``,
    then one center row ``c_1 ... c_d``. Values are decimal floats; NaN and
    infinities are rejected. Blank lines and ``#`` comments are skipped.

    Parameters
    ----------
    lines : list of str
        All lines of the file.
    offset : int
        Index into ``lines`` where this block starts.

    Returns
    -------
    (Polytope, int)
        The parsed polytope and the index of the first line after the block
        (useful for files that embed a polytope inside a larger format).
    """

    def fail(lineno: int, msg: str) -> ConfigError:
        return ConfigError(f"line {lineno + 1}: {msg}")

    def next_data_line(i: int) -> int:
        while i < len(lines):
            stripped = lines[i].strip()
            if stripped and not stripped.startswith("#"):
                return i
            i += 1
        raise ConfigError("unexpected end of polytope block")

    def floats(i: int, expect: int, what: str) -> np.ndarray:
        try:
            vals = np.array([float(tok) for tok in lines[i].split()], dtype=float)
        except ValueError as exc:
            raise fail(i, f"could not parse {what}: {exc}") from None
        if vals.size != expect:
            raise fail(i, f"{what}: expected {expect} values, got {vals.size}")
        if not np.all(np.isfinite(vals)):
            raise fail(i, f"{what}: NaN/Inf not allowed")
        return vals

    i = next_data_line(offset)
    header = lines[i].split()
    if len(header) != 4:
        raise fail(i, "header must be 'd m r R'")
    try:
        d, m = int(header[0]), int(header[1])
        r, R = float(header[2]), float(header[3])
    except ValueError as exc:
        raise fail(i, f"bad header: {exc}") from None
    if d < 1 or m < 1:
        raise fail(i, "d and m must be positive integers")
    if not (np.isfinite(r) and np.isfinite(R)):
        raise fail(i, "r and R must be finite")

    A = np.empty((m, d))
    b = np.empty(m)
    for k in range(m):
        i = next_data_line(i + 1)
        row = floats(i, d + 1, f"constraint row {k + 1}")
        A[k] = row[:d]
        b[k] = row[d]
    i = next_data_line(i + 1)
    center = floats(i, d, "center row")

    try:
        poly = Polytope(A, b, center, r, R)
    except ConfigError as exc:
        raise ConfigError(f"invalid polytope ending at line {i + 1}: {exc}") from None
    return poly, i + 1


def load_polytope(path) -> Polytope:
    """Read a polytope from a text file (see ``parse_polytope_lines``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    poly, end = parse_polytope_lines(lines, 0)
    for j in range(end, len(lines)):
        if lines[j].strip() and not lines[j].strip().startswith("#"):
            raise ConfigError(f"line {j + 1}: trailing content after polytope block")
    return poly


def box(lo, hi, r: float | None = None, R: float | None = None) -> Polytope:
    """Axis-aligned box as a polytope, mostly for tests and demos.

    The inscribed ball radius defaults to half the smallest side, the outer
    radius to the circumradius (half-diagonal), both about the box center.
    """
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if lo.shape != hi.shape or np.any(hi <= lo):
        raise ConfigError("box needs lo < hi componentwise")
    d = lo.size
    A = np.vstack([np.eye(d), -np.eye(d)])
    b = np.concatenate([hi, -lo])
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    if r is None:
        r = float(np.min(half))
    if R is None:
        R = float(np.linalg.norm(half))
    return Polytope(A, b, center, r, R)
