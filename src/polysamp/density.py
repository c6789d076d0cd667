"""Log-density oracles: convex f with a declared Lipschitz constant.

The target distribution is always pi proportional to exp(-f) restricted to
the polytope. Code in this package never needs normalizing constants, just
f values, so a LogDensity is a vectorized evaluator plus the constant L
that the parameter schedule consumes. A LogDensity holds no mutable state:
any number of walks, samplers and forked chunk workers can share one.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


class LogDensity:
    """Wraps f: R^d -> R (natural-log units) with Lipschitz metadata.

    Args:
        fn: vectorized callable mapping an (n, d) array to an (n,) array of
            f values. Must be pure.
        L: declared Lipschitz constant of f in the Euclidean norm. Declared,
            not estimated: every formula downstream consumes it as an input.
        name: short label used in telemetry and error messages.
    """

    def __init__(self, fn, L: float, name: str = "custom"):
        if L < 0 or not np.isfinite(L):
            raise ConfigError("Lipschitz constant must be finite and nonnegative")
        self._fn = fn
        self.L = float(L)
        self.name = name

    def eval_many(self, X) -> np.ndarray:
        """Evaluate f at each row of X."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            X = np.atleast_2d(X)
        vals = np.asarray(self._fn(X), dtype=float).ravel()
        if vals.shape[0] != X.shape[0]:
            raise ValueError(
                f"density '{self.name}' returned {vals.shape[0]} values for "
                f"{X.shape[0]} points"
            )
        if not np.isfinite(vals).all():
            raise ValueError(f"density '{self.name}' returned non-finite values")
        return vals

    def __call__(self, theta) -> float:
        """Evaluate f at a single point."""
        return float(self.eval_many(np.ravel(np.asarray(theta, dtype=float))[None, :])[0])

    def __repr__(self) -> str:
        return f"LogDensity({self.name}, L={self.L:g})"


def shifted(g: LogDensity, t) -> LogDensity:
    """Reparameterize under a translation: returns theta -> g(theta + t).

    Companion to geometry.normalize; the Lipschitz constant is unchanged.
    A zero shift reuses g's evaluator as it is.
    """
    t = np.asarray(t, dtype=float).ravel()
    if np.all(t == 0):
        shifted_fn = g._fn
    else:
        base = g._fn

        def shifted_fn(X, _base=base, _t=t):
            return _base(X + _t)

    return LogDensity(shifted_fn, g.L, name=f"{g.name}+shift")


# ---------------------------------------------------------------------------
# Built-in density kinds (selectable from config / CLI)
# ---------------------------------------------------------------------------


def uniform() -> LogDensity:
    """f identically zero: the uniform distribution on the polytope."""
    return LogDensity(lambda X: np.zeros(X.shape[0]), 0.0, name="uniform")


def linear(c) -> LogDensity:
    """f(theta) = c . theta; Lipschitz constant ||c||_2."""
    c = np.asarray(c, dtype=float).ravel()
    if not np.all(np.isfinite(c)):
        raise ConfigError("linear density coefficients must be finite")
    with np.errstate(over="ignore"):  # an overflowing norm is refused as L = inf
        L = float(np.linalg.norm(c))
    return LogDensity(lambda X, _c=c: X @ _c, L, name="linear")


def norm1(level: float, d: int) -> LogDensity:
    """f(theta) = level * ||theta||_1, convex with Euclidean Lipschitz
    constant level * sqrt(d) (the stored constant is the correct one for
    the Euclidean norm, not the coefficient)."""
    level = float(level)
    if level < 0 or not np.isfinite(level):
        raise ConfigError("norm1 level must be finite and nonnegative")
    return LogDensity(
        lambda X, _a=level: _a * np.sum(np.abs(X), axis=1),
        level * float(np.sqrt(d)),
        name="norm1",
    )


def parse_density(spec: str, d: int) -> LogDensity:
    """Parse the CLI density grammar: ``uniform`` | ``linear:c1,...,cd`` |
    ``norm1:LEVEL``."""
    spec = spec.strip()
    if spec == "uniform":
        return uniform()
    if spec.startswith("linear:"):
        try:
            c = [float(tok) for tok in spec[len("linear:"):].split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad linear density spec '{spec}': {exc}") from None
        if len(c) != d:
            raise ConfigError(
                f"linear density has {len(c)} coefficients but the polytope is {d}-dimensional"
            )
        return linear(c)
    if spec.startswith("norm1:"):
        try:
            level = float(spec[len("norm1:"):])
        except ValueError as exc:
            raise ConfigError(f"bad norm1 density spec '{spec}': {exc}") from None
        return norm1(level, d)
    raise ConfigError(
        f"unknown density spec '{spec}' (expected uniform | linear:c1,..,cd | norm1:LEVEL)"
    )
