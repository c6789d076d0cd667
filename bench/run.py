"""polysamp's benchmark: each workload is the CLI a user would run, timed end to end.

Run from the repository root:

    python3 bench/run.py --workload exact-csv --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --smoke

A run is a closed loop with one client: it starts one fresh
``python -m polysamp`` process (through bench/child.py, which adds the
first-convert timestamp and, when traced, the layer spans), waits for it to
exit, and starts the next, until the next would end past ``--seconds``.

--trace 0 reports the end-to-end metrics, medians over the run's processes:
    wall_s         process launch to exit, output file closed
    setup_s        launch to the first converter.convert_batch call
    samples_per_s  n / (wall_s - setup_s)
    peak_rss_mb    peak resident memory of the process
--trace 1 alternates traced and untraced processes and reports the
per-layer metrics (bench/tracing.py) plus the tracing overhead.

Outputs are checked outside the timed region: every process of a run must
exit 0 and write the same bytes; the first output is parsed and checked
(row count, feasibility, and per workload the infinity-distance statistic
or the ERM fallbacks and gaps); traced runs must repeat their counts
exactly. fail_rate is failed / attempted processes: it is printed, and the
result carries it as "failed" and "attempted" rather than as a metric,
because on a healthy run it reads 0.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give each metric with
its unit, the sample count and the environment.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import WORKLOADS, Workload, check_output

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_build") / "polysamp-bench"
BLAS_THREADS = 1  # every workload is a single-threaded baseline

TIER1_NOTE = (
    "tier-1 is red on the 2-CPU reference box (Python 3.11.7, numpy 2.4.6): "
    "166 passed, 2 failed; criteria 03 and 04 exceed their wall-clock caps"
)


@dataclass
class Proc:
    """One finished polysamp process."""

    code: int
    wall_s: float
    setup_s: float
    rss_mb: float
    digest: str
    spans: list | None
    stderr: str


@dataclass
class RunSet:
    """The processes of one run of one workload at one seed."""

    w: Workload
    seed: int
    n: int
    work: Path
    env: dict
    procs: list[Proc] = field(default_factory=list)

    def launch(self, trace: bool) -> Proc:
        k = len(self.procs)
        out = self.work / f"out-{k}.csv"
        result = self.work / f"result-{k}.json"
        argv = self.w.argv(self.work / "input.txt", self.n, self.seed, out)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result), str(int(trace)), "--", *argv]
        with open(self.work / "stderr.txt", "w+", encoding="utf-8") as err:
            t0 = time.monotonic_ns()
            child = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     stderr=err, env=self.env)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                # interrupted: leave no polysamp process running behind the harness
                child.kill()
                child.wait()
                raise
            t1 = time.monotonic_ns()
            child.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        stamp, spans = None, None
        if child.returncode == 0:
            with open(result, encoding="utf-8") as fh:
                data = json.load(fh)
            stamp, spans = data["first_convert_ns"], data["spans"] if trace else None
        digest = ""
        if out.exists():
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            # the first output is kept for the content checks
            if k > 0:
                out.unlink()
        proc = Proc(
            code=child.returncode,
            wall_s=(t1 - t0) * 1e-9,
            setup_s=(stamp - t0) * 1e-9 if stamp is not None else float("nan"),
            rss_mb=usage.ru_maxrss / 1024.0,
            digest=digest,
            spans=spans,
            stderr=stderr,
        )
        self.procs.append(proc)
        return proc

    def failures(self, statistical: bool) -> dict[int, str]:
        """Why each failed process failed, by process index (empty: all passed)."""
        bad = {k: f"exit {p.code}: {p.stderr.strip()[-300:]}"
               for k, p in enumerate(self.procs) if p.code != 0}
        if bad:
            return bad
        first = self.procs[0]
        bad = {k: "output bytes differ from process 0"
               for k, p in enumerate(self.procs) if p.digest != first.digest}
        problems = check_output(self.w, self.work / "input.txt", self.work / "out-0.csv",
                                self.n, statistical)
        if problems:
            # every output has the same bytes, so every process fails the check
            return {k: "; ".join(problems) for k in range(len(self.procs))}
        return bad


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    return env


def environment(env: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "tier1": TIER1_NOTE,
    }


def median(values) -> float:
    values = [v for v in values if v == v]
    return statistics.median(values) if values else float("nan")


def timed_loop(rs: RunSet, seconds: float, plan, min_rounds: int) -> None:
    """Launch plan(i) processes for round i until the next round would overrun."""
    start = time.monotonic()
    i = 0
    while True:
        t0 = time.monotonic()
        for trace in plan(i):
            rs.launch(trace)
        i += 1
        spent = time.monotonic() - start
        if i >= min_rounds and spent + (time.monotonic() - t0) > seconds:
            return


def end_to_end(procs: list[Proc], n: int) -> dict[str, float]:
    return {
        "wall_s": median(p.wall_s for p in procs),
        "setup_s": median(p.setup_s for p in procs),
        "samples_per_s": median(n / (p.wall_s - p.setup_s) for p in procs),
        "peak_rss_mb": median(p.rss_mb for p in procs),
    }


def per_layer(rs: RunSet) -> tuple[dict[str, float], dict[int, str]]:
    """Per-layer medians over the traced processes, and the traced processes
    whose counts differ from the first traced process's."""
    traced = [k for k, p in enumerate(rs.procs) if p.spans is not None]
    plain = [p for p in rs.procs if p.spans is None]
    size = (rs.work / "out-0.csv").stat().st_size
    each = {k: tracing.layer_metrics(rs.procs[k].spans, rs.n, size) for k in traced}
    first = each[traced[0]]
    metrics = {name: median(m[name] for m in each.values()) for name in first}
    mismatches = {}
    for k, m in each.items():
        differ = [f"{name} {m[name]!r} != {first[name]!r}"
                  for name in tracing.REPEATED_COUNTS if m[name] != first[name]]
        if differ:
            mismatches[k] = "counts do not repeat: " + ", ".join(differ)
    metrics.update((name, first[name]) for name in tracing.REPEATED_COUNTS)
    traced_wall = median(rs.procs[k].wall_s for k in traced)
    plain_wall = median(p.wall_s for p in plain)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
    # the spans outlive the run's work directory, one row per span with its process index
    with open(rs.work.parent / f"spans-{rs.w.name}-{rs.seed}.json", "w", encoding="utf-8") as fh:
        json.dump([[k, *s] for k, p in enumerate(rs.procs) if p.spans for s in p.spans], fh)
    return metrics, mismatches


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path, units: dict,
        smoke: bool = False):
    """One run of one workload; returns the result object and the environment.

    units maps the metric names to report onto their units.
    """
    work = root / WORK_DIR / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = child_env(root)
        rs = RunSet(w, seed, w.smoke_n if smoke else w.n, work, env)
        (work / "input.txt").write_text(w.polytope(seed), encoding="utf-8")
        if trace:
            # alternate which side goes first; the counts need two traced processes
            timed_loop(rs, seconds, lambda i: (i % 2 == 1, i % 2 == 0), 1 if smoke else 2)
        else:
            timed_loop(rs, seconds, lambda i: (False,), 1 if smoke else 3)
        failures = rs.failures(statistical=not smoke)
        ok = [p for p in rs.procs if p.code == 0]
        metrics = {}
        if trace:
            if not failures:
                metrics, failures = per_layer(rs)
        elif ok:
            metrics = end_to_end(ok, rs.n)
        # a metric the run could not measure reads 0; "correct" is then false
        metrics = {name: metrics.get(name, 0.0) for name in units}
        result = {
            "correct": not failures,
            "attempted": len(rs.procs),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        for k, why in sorted(failures.items()):
            print(f"{w.name}: process {k} failed: {why}", file=sys.stderr)
        return result, environment(env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(name: str, result: dict, env: dict) -> None:
    print(f"{name:10s} env {json.dumps(env, sort_keys=True)}")
    print(f"{name:10s} {'samples':28s} {result['attempted']} processes")
    print(f"{name:10s} {'fail_rate':28s} {result['failed'] / result['attempted']!r} ratio")
    for metric, m in result["metrics"].items():
        print(f"{name:10s} {metric:28s} {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload once at a tiny n, untraced and traced")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    root = Path.cwd()
    if not (root / "src" / "polysamp" / "__init__.py").is_file():
        print("bench: run from the repository root (src/polysamp not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # compile once up front so no timed process pays for writing bytecode
    for package in (root / "src" / "polysamp", BENCH_DIR):
        compileall.compile_dir(package, quiet=1)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        trace: {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        for trace in (False, True)
    }

    if args.smoke:
        correct = True
        for w in WORKLOADS.values():
            for trace in (False, True):
                result, env = run(w, args.seed, 0.0, trace, root, units[trace], smoke=True)
                report(w.name, result, env)
                correct = correct and result["correct"]
        return 0 if correct else 1

    w = WORKLOADS[args.workload]
    result, env = run(w, args.seed, args.seconds, bool(args.trace), root, units[bool(args.trace)])
    report(w.name, result, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
