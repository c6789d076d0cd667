"""End-to-end sampling runs: normalize, size the walk, convert, translate back.

Determinism contract: every run is a pure function of (seed, run index).
Runs are processed in fixed-size chunks; chunk j's converter draws from the
Philox stream keyed (seed, j), and with the walk oracle chunk j's walk draws
come from its own draw pool on stream (seed, POOL_STREAM + j). Auxiliary
consumers (the step-size tuner, the exact sampler's pilot) use a reserved
stream id far above any chunk index. Output is therefore byte-identical
however the chunks are shared out between processes.

``plan_sampling`` does the set-up (normalize, schedule, T, eta, oracle) and
returns a ``SamplingPlan``. Its ``chunks()`` runs the chunks in W processes,
the caller's and W - 1 forked chunk workers, and yields each chunk's rows
(a ``converter.SampleBatch``, its points and tau), or what a ``render``
function made of them in the process that ran the chunk, in chunk order
(the CLI's ``sample`` renders CSV text). A caller that handles each chunk
as it comes holds O(W * CHUNK) rows at a time, whatever n is. ``collect()``
gathers every chunk into one ``SamplingResult``: the rows, with the plan
that made them attached, so a run's settings (params, T, eta) and walk
counters live on the plan alone. ``run_sampling`` returns it.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
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
# The largest W measured (on a 2-CPU box). Each worker costs a fork, a
# process and a chunk in flight, so more wait for a measurement that pays.
MAX_WORKERS = 2


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream); streams never collide."""
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _worker_count(n_chunks: int) -> int:
    """W, the processes that run n_chunks chunks: one per CPU this process
    may run on, at most one per chunk and MAX_WORKERS. 1 (no fork) without
    fork or sched_getaffinity, or while other threads run: a fork copies
    only the calling thread, so a lock another thread holds stays locked."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(MAX_WORKERS, len(os.sched_getaffinity(0)), n_chunks)


@dataclass
class SamplingPlan:
    """A sampling run after set-up, before any chunk has run.

    chain_steps and accepts sum the walk work of the chunks the latest
    ``chunks()`` iteration has yielded (both stay 0 for the exact oracle).
    """

    polytope: Polytope  # normalized
    translation: np.ndarray
    params: converter.ConverterParams
    seed: int
    n: int
    chunk_oracle: Callable[[int], Callable] = field(repr=False)
    T: int | None = None
    eta: float | None = None
    chain_steps: int = 0
    accepts: int = 0

    def _run_chunk(self, j: int, render: Callable | None = None) -> tuple:
        """Chunk j as (payload, chain_steps, accepts): the payload is its
        rows, points in the caller's original coordinates, or
        render(start, rows) with start the index of its first row."""
        start = j * CHUNK
        oracle_batch = self.chunk_oracle(j)
        batch = converter.convert_batch(
            self.polytope,
            oracle_batch,
            self.params,
            rng_stream(self.seed, j),
            min(CHUNK, self.n - start),
        )
        batch.points += self.translation
        payload = batch if render is None else render(start, batch)
        steps = getattr(oracle_batch, "chain_steps", 0)
        return payload, steps, getattr(oracle_batch, "accepts", 0)

    def _work(self, w: int, workers: int, render, conn, parent_ends) -> None:
        """Forked worker w of ``workers``: send ``_run_chunk``'s result for
        chunks w, w + workers, ... on conn, or the Exception one raised.

        parent_ends are the parent's pipe ends this process inherited, its
        own among them; they are closed first, so that conn breaks when the
        parent dies. fd 1 goes to /dev/null, so that a reader of the
        parent's stdout sees EOF as soon as the parent dies, not when this
        process finishes a chunk.
        """
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the parent's to handle
        for end in parent_ends:
            end.close()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        with contextlib.suppress(BrokenPipeError):  # the parent is gone
            for j in range(w, self.n_chunks, workers):
                try:
                    result = self._run_chunk(j, render)
                except Exception as exc:
                    conn.send(exc)
                    return
                conn.send(result)

    @property
    def n_chunks(self) -> int:
        return (self.n + CHUNK - 1) // CHUNK

    def chunks(self, render: Callable | None = None) -> Iterator:
        """Run the chunks and yield, in chunk order, each one's rows (a
        ``converter.SampleBatch``, points in the caller's original
        coordinates) or, given render, render(start, rows), made in the
        process that ran the chunk.

        W = ``_worker_count(n_chunks)`` processes share the chunks: this
        one runs chunks 0, W, 2W, ... and W - 1 workers, forked on the
        first ``next``, run the others, worker w chunks w, w + W, ....
        A worker's send waits while its pipe is full, so each process
        holds the chunk it runs and at most one it hands on, and memory is
        O(W * CHUNK) rows. A chunk that raises raises here at its place in
        the order, after the chunks before it have been yielded. No worker
        outlives the generator, also when it raises or is closed early; a
        worker whose parent dies exits when it next sends.
        """
        self.chain_steps = self.accepts = 0
        workers = _worker_count(self.n_chunks)
        conns, procs = [None], []
        try:
            if workers > 1:
                import multiprocessing  # only runs that fork pay for the import

                ctx = multiprocessing.get_context("fork")
                for w in range(1, workers):
                    conn, child_end = ctx.Pipe(duplex=False)
                    conns.append(conn)
                    args = (w, workers, render, child_end, conns[1:])
                    procs.append(ctx.Process(target=self._work, args=args, daemon=True))
                    procs[-1].start()
                    child_end.close()
            for j in range(self.n_chunks):
                if j % workers == 0:
                    result = self._run_chunk(j, render)
                else:
                    try:
                        result = conns[j % workers].recv()
                    except EOFError:
                        raise RuntimeError(f"the worker for chunk {j} exited without it") from None
                    if isinstance(result, Exception):
                        raise result
                payload, chain_steps, accepts = result
                self.chain_steps += chain_steps
                self.accepts += accepts
                yield payload
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.join()
            for conn in conns[1:]:
                conn.close()

    def collect(self) -> SamplingResult:
        """Run the chunks and return all n rows in original coordinates,
        filled into one preallocated array per column, with this plan."""
        points = np.empty((self.n, self.polytope.d))
        tau = np.empty(self.n, dtype=np.int64)
        start = 0
        for batch in self.chunks():
            sl = slice(start, start + len(batch))
            points[sl] = batch.points
            tau[sl] = batch.tau
            start = sl.stop
        return SamplingResult(points, tau, self.params.tau_max, plan=self)


@dataclass
class SamplingResult(converter.SampleBatch):
    """Every row of a run, in the caller's original coordinates, and the
    plan that made them: its params, T and eta, and its walk counters for
    these rows."""

    plan: SamplingPlan


def plan_sampling(
    P: Polytope,
    f: LogDensity,
    eps: float,
    n: int,
    seed: int,
    c_mix: float = dikin.DESK_CMIX,
    eta: float | None = None,
    oracle: str = "dikin",
) -> SamplingPlan:
    """Set up a run of n samples with infinity-distance target eps.

    Args:
        oracle: "dikin" for the production walk, "exact" for the rejection
            oracle (desk-scale ground truth; checks c_mix, ignores it and eta).
    """
    if n < 1:
        raise ConfigError("sample count must be at least 1")
    if not (0 <= seed < MAX_SEED):
        raise ConfigError(f"seed must be in [0, {MAX_SEED})")
    dikin.check_cmix(c_mix)

    Pn, translation = normalize(P)
    fn = shifted(f, translation)
    params = converter.compute_params(eps, fn.L, Pn.r, Pn.R, Pn.d)

    T = eta_used = None
    if oracle == "dikin":
        T = dikin.mixing_steps(Pn, fn, params.delta_log, c_mix)
        if eta is None:
            eta_used, _ = dikin.tune_eta(Pn, fn, rng_stream(seed, AUX_STREAM))
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
        translation=translation,
        params=params,
        seed=seed,
        n=n,
        chunk_oracle=chunk_oracle,
        T=T,
        eta=eta_used,
    )


def run_sampling(
    P: Polytope,
    f: LogDensity,
    eps: float,
    n: int,
    seed: int,
    c_mix: float = dikin.DESK_CMIX,
    eta: float | None = None,
    oracle: str = "dikin",
) -> SamplingResult:
    """Draw n samples with infinity-distance target eps, all in memory."""
    return plan_sampling(P, f, eps, n, seed, c_mix, eta, oracle).collect()
