"""Polytope geometry: membership, ball sampling.

A polytope is the closed set K = {x : A x <= b} together with a certified
inscribed ball B(center, r) (verified at construction) and a declared
circumscribed radius R with K contained in B(center, R) (a caller promise,
spot-checked wherever points are sampled). All the sampling machinery in the
other modules works relative to these two radii.

Convention: the polytope is closed, so boundary points are members and
``contains_many`` applies ``A x <= b`` with no tolerance.

The text format of both input files lives here too (``data_rows`` onward):
``dp`` reads an ERM instance's loss block through the same helpers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractViolation

# Rows with smaller Euclidean norm than this are rejected at construction;
# facet distances divide by the row norm and a near-zero normal is a
# degenerate constraint, not a facet.
ROW_NORM_FLOOR = 1e-12

# Entries, at least, in one flat compare of contains_many: broadcasting b
# over rows of a few entries costs about 3x as much.
_FLAT_COMPARE = 512

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
        Constraint right-hand sides.
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

    __slots__ = ("A", "b", "center", "r", "R", "AT", "b_rows")

    def __init__(self, A, b, center, r, R):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        center = np.asarray(center, dtype=float).ravel()
        if A.ndim != 2:
            raise ConfigError("constraint matrix must be 2-D")
        m, d = A.shape
        if b.shape != (m,):
            raise ConfigError(f"right-hand side b has length {b.size}, expected {m}")
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

        row_norms = scaled_row_norms(A)
        for i in np.flatnonzero(np.isinf(row_norms)):
            raise ConfigError(f"the norm of facet {i}'s normal overflows")
        if np.any(row_norms < ROW_NORM_FLOOR):
            raise ConfigError("degenerate constraint row (norm below 1e-12)")

        # Certify the inner ball: distance from center to every facet plane
        # must be at least r. Exact comparison, no tolerance; callers that
        # compute r from the same distances get equality bit for bit. A nan
        # slack, from products that overflow to inf - inf, certifies nothing.
        slacks = (b - A @ center) / row_norms
        if not np.all(slacks >= r):
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
        # for contains_many: a C-contiguous A^T, on which a many-row product
        # runs about 4x faster than through the transposed view, and b over
        # enough rows that comparing against it is one long flat loop
        self.AT = np.ascontiguousarray(A.T)
        self.b_rows = np.tile(b, -(-_FLAT_COMPARE // m))

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def __repr__(self) -> str:
        return f"Polytope(d={self.d}, m={self.m}, r={self.r:g}, R={self.R:g})"


def scaled_row_norms(A: np.ndarray) -> np.ndarray:
    """np.linalg.norm(A, axis=1), but a row whose squares overflow (entries above
    about 1e154) is taken as s * norm(row / s), s its largest |entry|."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(A, axis=1)
        for i in np.flatnonzero(np.isinf(norms)):
            s = np.abs(A[i]).max()
            norms[i] = s * np.linalg.norm(A[i] / s)
    return norms


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
    """Vectorized membership for an (n, d) array of points.

    Many rows take the product through ``P.AT`` and compare its flat
    entries against ``P.b_rows``, a whole tile of rows at a time, then the
    remainder; the bits are those of ``X @ P.A.T <= P.b``. One row keeps
    that product: through the copy numpy makes it with gemm, not gemv, and
    the last bit can differ.
    """
    X = _check_dim(P, np.atleast_2d(np.asarray(X, dtype=float)))
    if len(X) < 2:
        return all_rows(X @ P.A.T <= P.b)
    S = X @ P.AT
    flags = np.empty(S.shape, dtype=bool)
    s, out, b = S.reshape(-1), flags.reshape(-1), P.b_rows
    whole = s.size - s.size % b.size
    np.less_equal(s[:whole].reshape(-1, b.size), b, out=out[:whole].reshape(-1, b.size))
    np.less_equal(s[whole:], b[: s.size - whole], out=out[whole:])
    return all_rows(flags)


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


def data_rows(path) -> list[tuple[int, list[str]]]:
    """The data rows of a polytope or ERM instance file, read as UTF-8:
    (line number, whitespace-split fields) for every line that is neither
    blank nor a ``#`` comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    rows = enumerate(map(str.split, lines), 1)
    return [(lineno, fields) for lineno, fields in rows if fields and not fields[0].startswith("#")]


def row_floats(row: tuple[int, list[str]], expect: int, what: str) -> list[float]:
    """The expect finite floats of one data row; a ConfigError naming its
    line if it has another count, a field that is not a float, or NaN/Inf."""
    lineno, fields = row
    if len(fields) != expect:
        raise ConfigError(f"line {lineno}: expected {expect} {what}, got {len(fields)}")
    try:
        vals = [float(tok) for tok in fields]
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: could not parse {what}: {exc}") from None
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"line {lineno}: {what}: NaN/Inf not allowed")
    return vals


def check_rows(rows: list, count: int, what: str) -> None:
    """Refuse rows that end before the first count, which a block declares."""
    if len(rows) < count:
        where = f"line {rows[-1][0]}: " if rows else ""
        raise ConfigError(f"{where}unexpected end of file: {what}")


def check_end(rows: list, used: int, what: str) -> None:
    """Refuse data rows after the first used ones, which hold the block."""
    if len(rows) > used:
        raise ConfigError(f"line {rows[used][0]}: trailing content after {what}")


def parse_polytope(rows: list[tuple[int, list[str]]]) -> tuple[Polytope, int]:
    """(Polytope, rows_used) from the block that starts ``data_rows``'s rows.

    Block layout: header ``d m r R``, then m constraint rows ``a_1 ... a_d b``,
    then one center row ``c_1 ... c_d``. Values are decimal floats; NaN and
    infinities are rejected. A header that declares more rows than follow
    is refused before anything is allocated. rows_used is m + 2, where a
    format that embeds a polytope (``dp``'s) goes on.
    """
    check_rows(rows, 1, "no polytope header")
    lineno, header = rows[0]
    if len(header) != 4:
        raise ConfigError(f"line {lineno}: header must be 'd m r R'")
    try:
        d, m = int(header[0]), int(header[1])
        r, R = float(header[2]), float(header[3])
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad header: {exc}") from None
    if d < 1 or m < 1:
        raise ConfigError(f"line {lineno}: d and m must be positive integers")
    check_rows(rows, m + 2, f"the header declares m = {m} constraint rows and a center row")

    facets = enumerate(rows[1 : m + 1], 1)
    block = np.array([row_floats(row, d + 1, f"values in constraint row {k}") for k, row in facets])
    lineno = rows[m + 1][0]
    center = row_floats(rows[m + 1], d, "values in the center row")
    try:
        # copies: A feeds every walk product, so it stays C-contiguous
        poly = Polytope(block[:, :d].copy(), block[:, d].copy(), center, r, R)
    except ConfigError as exc:
        raise ConfigError(f"invalid polytope ending at line {lineno}: {exc}") from None
    return poly, m + 2


def load_polytope(path) -> Polytope:
    """Read a polytope file: one ``parse_polytope`` block and nothing after it."""
    rows = data_rows(path)
    poly, used = parse_polytope(rows)
    check_end(rows, used, "polytope block")
    return poly


def box(lo, hi) -> Polytope:
    """Axis-aligned box as a polytope, mostly for tests and demos.

    The inscribed ball radius is half the smallest side, the outer radius
    the circumradius (half-diagonal), both about the box center.
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
    return Polytope(A, b, center, float(np.min(half)), float(np.linalg.norm(half)))
