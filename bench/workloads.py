"""The benchmark's workloads: generated inputs, CLI argv and output checks.

Each workload is one ``python -m polysamp`` invocation. The inputs are a
function of the workload seed alone: the seed goes to ``--seed`` and, for
ERM, also draws the loss vectors. Sizes are chosen so one process takes a
few seconds on a 2-CPU box, which lets a run repeat it several times and
report medians. Why each workload is in the benchmark is recorded in
BENCHMARK.json. The walk workloads walk-d1 and walk-d5 are not listed
there: on the 2-CPU reference box their run-to-run spread came too close
to the bound, so they are kept for runs by hand (``--workload walk-d1``)
and for the smoke mode.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = "0.5"
# criterion 04's c_mix with T cut by ten: lands the d=1 walk on T=500
CMIX_T500 = "1.2192712346547825"
# A quarter of erm's default c_mix=1: T=903 instead of 3,610 on the d=2
# instance. The walk still runs long on small batches, and a process takes
# about 2 s instead of 6, so a run holds enough of them for a steady median.
CMIX_ERM = "0.25"

SEGMENT = "1 2 1.0 2.0\n1 1\n-1 1\n0\n"
SQUARE = "2 4 1.0 2.0\n1 0 1\n-1 0 1\n0 1 1\n0 -1 1\n0 0\n"


def cube(d: int) -> str:
    """[-1, 1]^d with r = 1 and the honest circumradius sqrt(d)."""
    rows = []
    for i in range(d):
        for sign in (1, -1):
            rows.append(" ".join(str(sign if j == i else 0) for j in range(d)) + " 1")
    return f"{d} {2 * d} 1.0 {math.sqrt(d)!r}\n" + "\n".join(rows) + "\n" + " ".join(["0"] * d) + "\n"


def erm_instance(seed: int, n_losses: int = 5) -> str:
    """The d=2 square with unit-norm linear losses drawn from the seed, eps_dp 0.5."""
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((n_losses, 2))
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    losses = "".join(f"{float(a)!r} {float(b)!r}\n" for a, b in C)
    return f"{SQUARE}{n_losses}\n{losses}1 {EPS}\n"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    polytope(seed) is the text of the --polytope file (for erm, the
    instance file). n and smoke_n are the output sizes of a measured run
    and of the smoke mode; bins, when set, turns on criterion 04's
    infinity-distance check with that many grid cells per axis.
    """

    name: str
    command: str
    polytope: Callable[[int], str]
    density: str | None
    n: int
    smoke_n: int
    extra: tuple[str, ...] = ()
    bins: int | None = None

    def argv(self, polytope: Path, n: int, seed: int, out: Path) -> list[str]:
        args = [self.command, "--polytope", str(polytope)]
        if self.density is not None:
            args += ["--density", self.density, "--eps", EPS]
        return args + [*self.extra, "--n", str(n), "--seed", str(seed), "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "walk-d1",
            "sample",
            lambda seed: SEGMENT,
            "linear:1",
            n=16384,
            smoke_n=64,
            extra=("--cmix", CMIX_T500),
            bins=50,
        ),
        Workload(
            "walk-d5",
            "sample",
            lambda seed: cube(5),
            "linear:0.3,0.3,0.3,0.3,0.3",
            n=1024,
            smoke_n=32,
        ),
        Workload(
            "exact-csv",
            "sample",
            lambda seed: SQUARE,
            "linear:1,0",
            n=200_000,
            smoke_n=1000,
            extra=("--oracle", "exact"),
            bins=20,
        ),
        Workload(
            "erm-d2",
            "erm",
            erm_instance,
            None,
            n=1000,
            smoke_n=10,
            extra=("--cmix", CMIX_ERM),
        ),
    )
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

ERM_FALLBACKS = {"none", "ball", "center"}


def _read_csv(path: Path) -> tuple[list[str], list[tuple[str, ...]]]:
    """Header fields and the columns of the data rows (comment lines dropped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    if not lines:
        return [], []
    rows = [line.split(",") for line in lines[1:]]
    width = len(lines[0].split(","))
    if any(len(r) != width for r in rows):
        raise ValueError("ragged CSV rows")
    return lines[0].split(","), list(zip(*rows)) if rows else [()] * width


def check_output(w: Workload, polytope: Path, out: Path, n: int, statistical: bool) -> list[str]:
    """Problems found in one output file; an empty list means it passed.

    Checks the row count and feasibility of every point, then per workload
    the infinity-distance statistic (criterion 04's rule, when ``statistical``)
    or the ERM fallback labels and utility gaps.
    """
    # imported here: polysamp is importable once run.py has put src/ on the path
    from polysamp import dp, oracle
    from polysamp.density import parse_density
    from polysamp.geometry import contains_many, load_polytope

    problems = []
    try:
        header, cols = _read_csv(out)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    rows = len(cols[0]) if cols else 0
    if rows != n:
        return [f"row count {rows} != n {n}"]
    if list(cols[0]) != [str(i) for i in range(n)]:
        problems.append("index column is not 0..n-1")

    P = dp.load_erm_instance(polytope).polytope if w.command == "erm" else load_polytope(polytope)
    X = np.array(cols[1 : 1 + P.d], dtype=float).T
    if not np.all(contains_many(P, X)):
        problems.append(f"{int(np.sum(~contains_many(P, X)))} points outside the polytope")

    if w.command == "erm":
        labels = set(cols[header.index("fallback")])
        if not labels <= ERM_FALLBACKS:
            problems.append(f"unknown fallback labels {sorted(labels - ERM_FALLBACKS)}")
        gaps = np.array(cols[header.index("gap")], dtype=float)
        if not (np.all(np.isfinite(gaps)) and np.all(gaps >= -1e-9)):
            problems.append(f"utility gap not finite and >= -1e-9 (min {gaps.min()!r})")
    elif statistical and w.bins is not None:
        grid = oracle.cell_masses(P, parse_density(w.density, P.d), w.bins)
        report = oracle.sup_log_ratio(X, grid)
        if report.excluded:
            problems.append(f"{len(report.excluded)} cells excluded from the sup-log-ratio")
        if not report.passes(extra=float(EPS), sigmas=3.0):
            problems.append(f"sup log-ratio {report.stat:.4f} fails eps + 3 sigma")
    return problems
