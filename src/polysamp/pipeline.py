"""End-to-end sampling runs: normalize, size the walk, convert, translate back.

Determinism contract: every run is a pure function of (seed, run index).
Runs are processed in fixed-size chunks; chunk j's converter draws from the
Philox stream keyed (seed, j), and with the walk oracle chunk j's walk draws
come from its own draw pool on stream (seed, POOL_STREAM + j). Auxiliary
consumers (the step-size tuner, the exact sampler's pilot) use a reserved
stream id far above any chunk index. Output is therefore byte-identical for
any worker count, and a worker pool only changes wall-clock time.

``plan_sampling`` does the set-up (normalize, schedule, T, eta, oracle) and
returns a ``SamplingPlan``, whose ``chunks()`` runs the chunks and yields
their rows in chunk order. A caller that handles each chunk as it comes
holds O(workers * CHUNK) rows at a time, whatever n is; the CLI's ``sample``
also keeps up to F chunks waiting on its F forked CSV formatters, so
O((workers + F) * CHUNK). ``collect()`` gathers every chunk into one
batch, for ``run_sampling`` and ``dp.private_erm_batch``.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import converter, dikin
from .density import LogDensity, shifted
from .errors import ConfigError
from .geometry import Polytope, normalize
from .oracle import ExactSampler

__all__ = [
    "CHUNK",
    "POOL_STREAM",
    "rng_stream",
    "SamplingPlan",
    "SamplingResult",
    "plan_sampling",
    "run_sampling",
]

CHUNK = 8192
AUX_STREAM = 1 << 62  # tuner/pilot stream; chunk indices stay far below this
POOL_STREAM = 1 << 61  # chunk j's walk draws use POOL_STREAM + j
MAX_SEED = 2**63


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream); streams never collide."""
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _ordered(fn, count: int, workers: int) -> Iterator:
    """fn(0), ..., fn(count - 1) in order, with at most ``workers`` calls
    started ahead of the result being consumed."""
    if workers == 1 or count == 1:
        yield from map(fn, range(count))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque(pool.submit(fn, j) for j in range(min(workers, count)))
        for j in range(workers, count + workers):
            result = ahead.popleft().result()
            if j < count:
                ahead.append(pool.submit(fn, j))
            yield result


@dataclass
class SamplingPlan:
    """A sampling run after set-up, before any chunk has run.

    chain_steps and accepts sum the walk work of the chunks the latest
    ``chunks()`` iteration has yielded (both stay 0 for the exact oracle).
    """

    polytope: Polytope  # normalized
    density: LogDensity  # shifted to normalized coordinates
    translation: np.ndarray
    params: converter.ConverterParams
    seed: int
    n: int
    workers: int
    chunk: int
    chunk_oracle: Callable[[int], Callable] = field(repr=False)
    T: int | None = None
    eta: float | None = None
    tune_acceptance: float | None = None
    chain_steps: int = 0
    accepts: int = 0

    def _run_chunk(self, j: int):
        start = j * self.chunk
        oracle_batch = self.chunk_oracle(j)
        batch = converter.convert_batch(
            self.polytope,
            oracle_batch,
            self.params,
            rng_stream(self.seed, j),
            min(self.chunk, self.n - start),
        )
        batch.points += self.translation
        return batch, oracle_batch

    @property
    def n_chunks(self) -> int:
        return (self.n + self.chunk - 1) // self.chunk

    def chunks(self) -> Iterator[converter.SampleBatch]:
        """Run the chunks and yield each one's rows in chunk order, with
        points in the caller's original coordinates.

        With workers > 1, at most ``workers`` chunks run ahead of the one
        just yielded, so finished chunks never pile up.
        """
        self.chain_steps = self.accepts = 0
        for batch, oracle_batch in _ordered(self._run_chunk, self.n_chunks, self.workers):
            self.chain_steps += getattr(oracle_batch, "chain_steps", 0)
            self.accepts += getattr(oracle_batch, "accepts", 0)
            yield batch

    def collect(self) -> converter.SampleBatch:
        """Run the chunks and return all n rows in original coordinates,
        filled into one preallocated array per column."""
        points = np.empty((self.n, self.polytope.d))
        tau = np.empty(self.n, dtype=np.int64)
        fallback = np.empty(self.n, dtype=bool)
        oracle_calls = np.empty(self.n, dtype=np.int64)
        start = 0
        for batch in self.chunks():
            sl = slice(start, start + len(batch))
            points[sl] = batch.points
            tau[sl] = batch.tau
            fallback[sl] = batch.fallback
            oracle_calls[sl] = batch.oracle_calls
            start = sl.stop
        return converter.SampleBatch(points, tau, fallback, oracle_calls)


@dataclass
class SamplingResult:
    """What a sampling run produced, plus everything needed to audit it.

    points are in the caller's original coordinates; tau, fallback and
    oracle_calls align with them row by row. chain_steps and accepts sum
    the walk work of every chunk (both 0 for the exact oracle).
    """

    points: np.ndarray
    tau: np.ndarray
    fallback: np.ndarray
    oracle_calls: np.ndarray
    params: converter.ConverterParams
    translation: np.ndarray
    polytope: Polytope  # normalized
    density: LogDensity  # shifted to normalized coordinates
    oracle_kind: str
    seed: int
    c_mix: float
    T: int | None = None
    eta: float | None = None
    tune_acceptance: float | None = None
    chain_steps: int = 0
    accepts: int = 0

    def __len__(self) -> int:
        return self.points.shape[0]

    def batch(self) -> converter.SampleBatch:
        """Telemetry view in normalized coordinates (for tau_statistics)."""
        return converter.SampleBatch(
            points=self.points - self.translation,
            tau=self.tau,
            fallback=self.fallback,
            oracle_calls=self.oracle_calls,
        )


def plan_sampling(
    P: Polytope,
    f: LogDensity,
    eps: float,
    n: int,
    seed: int,
    c_mix: float = 1e-4,
    eta: float | None = None,
    oracle: str = "dikin",
    workers: int = 1,
    chunk: int = CHUNK,
) -> SamplingPlan:
    """Set up a run of n samples with infinity-distance target eps.

    Args:
        oracle: "dikin" for the production walk, "exact" for the rejection
            oracle (desk-scale ground truth; ignores c_mix and eta).
        workers: threads that run chunks. Any value yields the same
            output. Threads overlap only where numpy releases the GIL, so
            they save little time (README). They only sample: the CLI's
            ``sample`` formats its CSV in forked processes instead, one per
            usable CPU and at most 2, forked before the first thread starts.
    """
    if n < 1:
        raise ConfigError("sample count must be at least 1")
    if not (0 <= seed < MAX_SEED):
        raise ConfigError(f"seed must be in [0, {MAX_SEED})")
    if workers < 1 or chunk < 1:
        raise ConfigError("workers and chunk size must be positive")

    Pn, translation = normalize(P)
    fn = shifted(f, translation)
    params = converter.compute_params(eps, fn.L, Pn.r, Pn.R, Pn.d)

    T = eta_used = acc = None
    if oracle == "dikin":
        T = dikin.mixing_steps(Pn, fn, eps, params.delta_log, c_mix)
        if eta is None:
            eta_used, acc = dikin.tune_eta(Pn, fn, rng_stream(seed, AUX_STREAM))
        else:
            eta_used = float(eta)
        cfg = dikin.WalkConfig(eta=eta_used, T=T)

        def chunk_oracle(j):
            return dikin.WalkPool(Pn, fn, cfg, rng_stream(seed, POOL_STREAM + j))

    elif oracle == "exact":
        sampler = ExactSampler(Pn, fn, rng_stream(seed, AUX_STREAM))

        def chunk_oracle(j):
            return lambda k, rng: sampler.draw(rng, k)

    else:
        raise ConfigError(f"unknown oracle kind {oracle!r} (expected dikin or exact)")

    return SamplingPlan(
        polytope=Pn,
        density=fn,
        translation=translation,
        params=params,
        seed=seed,
        n=n,
        workers=workers,
        chunk=chunk,
        chunk_oracle=chunk_oracle,
        T=T,
        eta=eta_used,
        tune_acceptance=acc,
    )


def run_sampling(
    P: Polytope,
    f: LogDensity,
    eps: float,
    n: int,
    seed: int,
    c_mix: float = 1e-4,
    eta: float | None = None,
    oracle: str = "dikin",
    workers: int = 1,
    chunk: int = CHUNK,
) -> SamplingResult:
    """Draw n samples with infinity-distance target eps, all in memory: the
    rows of ``plan_sampling(...).collect()``, with the plan's settings."""
    plan = plan_sampling(P, f, eps, n, seed, c_mix, eta, oracle, workers, chunk)
    rows = plan.collect()
    return SamplingResult(
        points=rows.points,
        tau=rows.tau,
        fallback=rows.fallback,
        oracle_calls=rows.oracle_calls,
        params=plan.params,
        translation=plan.translation,
        polytope=plan.polytope,
        density=plan.density,
        oracle_kind=oracle,
        seed=seed,
        c_mix=c_mix,
        T=plan.T,
        eta=plan.eta,
        tune_acceptance=plan.tune_acceptance,
        chain_steps=plan.chain_steps,
        accepts=plan.accepts,
    )
