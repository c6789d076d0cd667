"""Outside-in tracing of one polysamp process, and the per-layer metrics.

``install`` wraps the functions each layer's callers look up, from the
benchmark's side: nothing under ``src/`` changes. Each wrapped call records
a span ``[id, name, start_ns, end_ns, parent_id, attrs]``; spans stay in
memory until the process ends. ``layer_metrics`` turns one process's spans
into the per-layer numbers.

The benchmark runs every workload with one worker, so spans of one process
never overlap except by nesting, and a span's self time is its duration
minus the durations of its children.
"""

from __future__ import annotations

import argparse
import functools
import time
from collections import defaultdict

# Names whose values must repeat exactly between two traced runs at one seed.
REPEATED_COUNTS = (
    "dikin.chain_steps",
    "dikin.lockstep_steps",
    "converter.rounds",
    "converter.oracle_draws",
    "density.f_evals",
)

SMALL_BATCH = 1024  # walk calls with fewer chains count as small batches
TAIL_ROUND = 7  # converter rounds from this one on form the tail


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, attrs=None):
        """fn wrapped in a span; attrs(args, kwargs, result) adds a dict to it."""
        spans, stack, clock = self.spans, self._stack, time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(span[0])
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported polysamp in spans."""
    from polysamp import cli, converter, density, dikin, dp, oracle

    def patch(owner, attr, name, attrs=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, attrs))

    # cli: the commands, and every parsing step they make
    patch(cli, "cmd_sample", "cli.cmd")
    patch(cli, "cmd_erm", "cli.cmd")
    patch(cli, "load_polytope", "cli.parse")
    patch(cli, "parse_density", "cli.parse")
    patch(dp, "load_erm_instance", "cli.parse")
    patch(argparse.ArgumentParser, "parse_args", "cli.parse")

    patch(cli, "run_sampling", "pipeline.run_sampling")
    patch(dp, "private_erm_batch", "dp.private_erm_batch", lambda a, k, r: {
        "center": int((r.fallback == dp.FALLBACK_CENTER).sum()),
        "ball": int((r.fallback == dp.FALLBACK_BALL).sum()),
    })
    patch(dp, "enumerate_vertices", "dp.enumerate_vertices")

    patch(dikin, "tune_eta", "dikin.tune_eta")
    patch(dikin, "run_chains_batch", "dikin.run_chains_batch", lambda a, k, r: {
        "n": int(a[3].shape[0]), "T": int(a[2].T), "accepts": int(r[1]),
    })

    # convert_batch's oracle argument is a closure: wrap it per call so each
    # converter round gets a span carrying its alive count
    convert = converter.convert_batch
    round_span = functools.partial(tracer.wrap, name="converter.round",
                                   attrs=lambda a, k, r: {"k": int(a[0])})

    def convert_batch(P, oracle_batch, *args, **kwargs):
        return convert(P, round_span(oracle_batch), *args, **kwargs)

    converter.convert_batch = tracer.wrap(convert_batch, "converter.convert_batch", lambda a, k, r: {
        "n": len(r), "fallbacks": int(r.fallback.sum()),
    })
    patch(converter, "contains_many", "geometry.check")
    patch(converter, "check_outer_radius", "geometry.check")
    patch(oracle, "contains_many", "geometry.check")

    patch(oracle.ExactSampler, "__init__", "oracle.pilot", lambda a, k, r: {
        "accept": a[0].pilot_acceptance,
    })
    patch(oracle.ExactSampler, "draw", "oracle.draw", lambda a, k, r: {"n": len(r)})
    patch(density.LogDensity, "eval_many", "density.eval_many", lambda a, k, r: {"rows": len(r)})


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], n: int, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced process (all but the trace.* ones,
    which compare traced and untraced processes).

    A layer absent from the workload reports 0. Walk calls made by
    ``tune_eta`` are its pilots: they count toward tuning, not the walk.
    """
    children = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
        named[s[1]].append(s)

    def dur(s) -> float:
        return (s[3] - s[2]) * 1e-9

    def total(name: str) -> float:
        return sum(dur(s) for s in named[name])

    def self_time(name: str) -> float:
        return sum(dur(s) - sum(dur(c) for c in children[s[0]]) for s in named[name])

    def inside(s, name: str) -> bool:
        while s[4] >= 0:
            s = spans[s[4]]
            if s[1] == name:
                return True
        return False

    def setup(caller: str) -> float:
        starts = [s[2] for s in named["converter.convert_batch"]]
        return (min(starts) - named[caller][0][2]) * 1e-9 if starts and named[caller] else 0.0

    calls = named["dikin.run_chains_batch"]
    walks = [s for s in calls if not inside(s, "dikin.tune_eta")]
    walk_s = sum(dur(s) for s in walks)
    chain_steps = sum(s[5]["n"] * s[5]["T"] for s in walks)
    lockstep_steps = sum(s[5]["T"] for s in walks)
    T = max((s[5]["T"] for s in walks), default=0)

    converts = named["converter.convert_batch"]
    rounds = named["converter.round"]
    draws = sum(s[5]["k"] for s in rounds)
    fallbacks = sum(s[5]["fallbacks"] for s in converts)
    tail = sum(
        dur(r)
        for c in converts
        for i, r in enumerate((x for x in children[c[0]] if x[1] == "converter.round"), 1)
        if i >= TAIL_ROUND
    )

    pilots = named["oracle.pilot"]
    drawn = sum(s[5]["n"] for s in named["oracle.draw"])
    evals = named["density.eval_many"]
    f_evals = sum(s[5]["rows"] for s in evals)
    walk_evals = sum(s[5]["rows"] for s in evals if not inside(s, "dikin.tune_eta"))
    erm = named["dp.private_erm_batch"]
    format_s = self_time("cli.cmd")

    metrics = {
        "cli.parse_s": total("cli.parse"),
        "cli.format_s": format_s,
        "cli.format_ns_per_row": _ratio(format_s, n) * 1e9,
        "cli.bytes_out": bytes_out,
        "pipeline.setup_s": setup("pipeline.run_sampling"),
        "pipeline.self_s": self_time("pipeline.run_sampling"),
        "pipeline.chunks": sum(inside(c, "pipeline.run_sampling") for c in converts),
        "dikin.tune_s": total("dikin.tune_eta"),
        "dikin.tune_pilots": len(calls) - len(walks),
        "dikin.walk_s": walk_s,
        "dikin.walk_calls": len(walks),
        "dikin.T": T,
        "dikin.chain_steps": chain_steps,
        "dikin.lockstep_steps": lockstep_steps,
        "dikin.accept_rate": _ratio(sum(s[5]["accepts"] for s in walks), chain_steps),
        "dikin.small_batch_share": _ratio(
            sum(dur(s) for s in walks if s[5]["n"] < SMALL_BATCH), walk_s
        ),
        "dikin.chain_step_ns": _ratio(walk_s, chain_steps) * 1e9,
        "dikin.lockstep_us": _ratio(walk_s, lockstep_steps) * 1e6,
        "converter.self_s": self_time("converter.convert_batch"),
        "converter.rounds": len(rounds),
        "converter.oracle_draws": draws,
        "converter.draws_per_sample": _ratio(draws, n),
        "converter.halt_ratio": _ratio(sum(s[5]["n"] for s in converts) - fallbacks, draws),
        "converter.fallbacks": fallbacks,
        "converter.tail_share": _ratio(tail, total("converter.round")),
        "oracle.pilot_s": total("oracle.pilot"),
        "oracle.pilot_accept": pilots[0][5]["accept"] if pilots else 0.0,
        "oracle.draw_s": total("oracle.draw"),
        "oracle.draw_ns": _ratio(total("oracle.draw"), drawn) * 1e9,
        "density.f_evals": f_evals,
        "density.f_evals_per_sample": _ratio(f_evals, n),
        # params estimates 3T evaluations per sample, tuning not included
        "density.f_evals_vs_est": _ratio(walk_evals, n * 3 * T),
        "density.eval_s": total("density.eval_many"),
        "dp.setup_s": setup("dp.private_erm_batch"),
        "dp.vertex_enum_s": total("dp.enumerate_vertices"),
        "dp.center_fallbacks": sum(s[5]["center"] for s in erm),
        "dp.ball_fallbacks": sum(s[5]["ball"] for s in erm),
        "geometry.check_s": total("geometry.check"),
    }
    return {name: float(v) for name, v in metrics.items()}
