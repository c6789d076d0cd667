"""Command-line front end.

Commands:
    params    print the parameter schedule a run would use
    sample    draw N points, write a CSV (coordinates + telemetry per row)
    diagnose  run a sampling pass and compare it against the exact cell
              masses (d <= 3): sup-log-ratio, TV estimate, tau statistics
    erm       run the private ERM pipeline on an instance file

Exit codes: 0 ok, 2 configuration error, 3 contract violation (an internal
invariant tripped at runtime, e.g. an oracle point outside the polytope),
141 the output's reader closed the pipe (128 + SIGPIPE, with no traceback).

Every output file starts with comment lines carrying a config hash (over
input file bytes and resolved options), the package version, and a hash of
the derived parameters, so runs can be matched to their configuration
without trusting file names. No timestamps: byte-identical reruns are the
determinism contract.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import os
import signal
import stat
import sys
from collections import deque
from pathlib import Path

import numpy as np

from . import __version__, converter, dikin, dp, oracle
from .density import parse_density
from .errors import ConfigError, ContractViolation
from .geometry import load_polytope
from .pipeline import plan_sampling, run_sampling

DESK_CMIX = 1e-4
ANALYSIS_CMIX = 1.0
ROW_BLOCK = 4096  # CSV rows per write: bounds the formatting buffer


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _file_digest(path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _config_hash(args) -> str:
    digest = _file_digest(args.polytope) if args.polytope else "none"
    parts = [f"cmd={args.command}", f"polytope={digest}"]
    for key in ("density", "eps", "seed", "n", "cmix", "eta", "oracle", "bins"):
        if hasattr(args, key):
            parts.append(f"{key}={getattr(args, key)!r}")
    return _hash("|".join(parts))


def _params_hash(params: converter.ConverterParams, T) -> str:
    return _hash(
        f"eps={params.eps!r}|delta={params.delta!r}|tau_max={params.tau_max}"
        f"|delta_log={params.delta_log!r}|T={T}"
    )


def _write_header(out, args, params: converter.ConverterParams, T) -> None:
    """The config hash, version and params hash lines that start every output."""
    out.write(f"# config_hash={_config_hash(args)}\n")
    out.write(f"# version={__version__}\n")
    out.write(f"# params_hash={_params_hash(params, T)}\n")


def _resolve_cmix(args, default: float) -> float:
    if args.cmix is not None:
        return args.cmix
    return ANALYSIS_CMIX if args.paper_constants else default


@contextlib.contextmanager
def _open_out(path):
    """The output stream: stdout when path is None, else a file.

    A new file, or an existing regular file with one link, is written to a
    temporary file beside it, which replaces path only when the command
    succeeds: a failed run leaves no partial file and an existing one
    untouched. The file gets the mode a plain open would give it. Any other
    target (a symlink, FIFO or device such as /dev/stdout) is opened and
    written directly. A target that cannot be opened is a ConfigError.
    """
    if path is None:
        yield sys.stdout
        return
    tmp = None
    try:
        try:
            st = os.lstat(path)
        except FileNotFoundError:
            st = None
        if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
            out = open(path, "w", newline="\n")
        else:
            head, tail = os.path.split(path)
            tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
            # mode 0o666 under the umask, as open() creates files (tempfile
            # would use 0o600); an existing target's mode is copied instead
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    if tmp is None:
        with out:
            yield out
        return
    try:
        with open(fd, "w", newline="\n") as out:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            yield out
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# str(i) for the small ints of tau, fallback and oracle_calls: a lookup is faster
_SMALL_INTS = np.array([str(i) for i in range(1024)], dtype=object)


def _cells(col: np.ndarray) -> tuple[str, list]:
    """One column slice as (conversion, values) for a %-template: %r gives
    a float's repr, %d and %s print ints as str does, bools as 0/1."""
    kind = col.dtype.kind
    if kind == "f":
        return "%r", col.tolist()
    if kind == "b":
        col, kind = col.view(np.uint8), "u"
    if kind in "iu" and col.min() >= 0 and col.max() < _SMALL_INTS.size:
        return "%s", _SMALL_INTS[col].tolist()
    return ("%d" if kind in "iu" else "%s"), col.tolist()


def _row_blocks(*columns):
    """CSV text of equal-length 1-D columns, one string per ROW_BLOCK rows.

    Each block fills one row template, repeated, from its columns' values,
    so memory stays flat in the row count. repr of a float is the shortest
    string that round-trips: reruns stay byte-identical.
    """
    n, k = len(columns[0]), len(columns)
    for start in range(0, n, ROW_BLOCK):
        rows = min(ROW_BLOCK, n - start)
        values = [None] * (rows * k)
        conversions = []
        for j, col in enumerate(columns):
            conversion, values[j::k] = _cells(col[start : start + rows])
            conversions.append(conversion)
        template = ",".join(conversions) + "\n"
        yield (template * rows) % tuple(values)


def _write_rows(out, *columns) -> None:
    """Write columns as CSV rows, one ``out.write`` per block."""
    for block in _row_blocks(*columns):
        out.write(block)


# The largest F measured (on a 2-CPU box). Each formatter costs a fork, a
# process and a chunk in flight, so more wait for a measurement that pays.
MAX_FORMATTERS = 2


def _formatter_count(n_chunks: int) -> int:
    """F, the processes that format a run of n_chunks chunks: one per CPU
    this process may run on, at most one per chunk and MAX_FORMATTERS.
    1 formats in-process."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(MAX_FORMATTERS, len(os.sched_getaffinity(0)), n_chunks)


def _format_loop(conn, parent_ends) -> None:
    """A forked formatter: columns in, the text ``_write_rows`` would write
    for them out, until the parent's end of conn closes, which it does when
    the parent is done or dies, or the parent ends the process.

    parent_ends are the parent's pipe ends this process inherited, its own
    among them; they are closed first, else conn would never see EOF.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the parent's to handle
    for end in parent_ends:
        end.close()
    with contextlib.suppress(EOFError, BrokenPipeError):
        while True:
            conn.send("".join(_row_blocks(*conn.recv())))


@contextlib.contextmanager
def _chunk_writer(out, formatters: int):
    """``write(*columns)``, which puts one chunk's rows on out in call order.

    With formatters == 1 each call runs ``_write_rows``. Otherwise that many
    processes, forked on entry (before the caller starts any thread: a fork
    copies only the calling thread), turn chunks into text while the caller
    makes the next ones, and at most ``formatters`` chunks wait formatted
    but unwritten. If the caller's body raises an Exception, the chunks it
    passed before are written before the error propagates; a
    KeyboardInterrupt drops them. On exit no formatter is left running, and
    if the caller dies without exiting, its formatters see their pipes close
    and exit.
    """
    if formatters == 1:
        yield lambda *columns: _write_rows(out, *columns)
        return
    import multiprocessing  # only runs that fork pay for the import

    ctx = multiprocessing.get_context("fork")
    idle, pending, procs = [], deque(), []

    def write_oldest():
        conn = pending.popleft()
        try:
            out.write(conn.recv())
        except BaseException:
            pending.clear()  # nothing may follow a chunk that did not go out
            raise
        idle.append(conn)

    def write(*columns):
        if not idle:
            write_oldest()
        conn = idle.pop()
        conn.send(columns)
        pending.append(conn)

    try:
        out.flush()  # a child must not inherit buffered bytes
        for _ in range(formatters):
            conn, child_end = ctx.Pipe()
            args = (child_end, [*idle, conn])
            proc = ctx.Process(target=_format_loop, args=args, daemon=True)
            proc.start()
            procs.append(proc)
            child_end.close()
            idle.append(conn)
        try:
            yield write
        except Exception:
            with contextlib.suppress(Exception):  # the first error is the one to report
                while pending:
                    write_oldest()
            raise
        while pending:
            write_oldest()
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()


def _load_inputs(args):
    """Polytope + density resolution, including the erm:FILE density kind."""
    spec = args.density
    if spec.startswith("erm:"):
        inst = dp.load_erm_instance(spec[4:])
        f = dp.total_loss_density(inst)
        P = load_polytope(args.polytope) if args.polytope else inst.polytope
        if P.d != inst.d:
            raise ConfigError("polytope dimension does not match the ERM instance")
        return P, f
    if args.polytope is None:
        raise ConfigError("--polytope is required")
    P = load_polytope(args.polytope)
    return P, parse_density(spec, P.d)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_params(args) -> int:
    P, f = _load_inputs(args)
    c_mix = _resolve_cmix(args, DESK_CMIX)
    params = converter.compute_params(args.eps, f.L, P.r, P.R, P.d)
    T = dikin.mixing_steps(P, f, args.eps, params.delta_log, c_mix)
    lines = [
        f"d = {P.d}",
        f"m = {P.m}",
        f"L = {f.L!r}",
        f"r = {P.r!r}",
        f"R = {P.R!r}",
        f"eps = {args.eps!r}",
        f"tau_max = {params.tau_max}",
        f"delta = {params.delta!r}",
        f"delta_log_e = {params.delta_log!r}",
        f"delta_log_10 = {params.delta_log / math.log(10)!r}",
        f"c_mix = {c_mix!r}",
        f"T = {T}",
        f"est_f_evals = {3 * T}",
        f"params_hash = {_params_hash(params, T)}",
        f"config_hash = {_config_hash(args)}",
    ]
    print("\n".join(lines))
    return 0


def cmd_sample(args) -> int:
    P, f = _load_inputs(args)
    with _open_out(args.out) as out:
        plan = plan_sampling(
            P,
            f,
            eps=args.eps,
            n=args.n,
            seed=args.seed,
            c_mix=_resolve_cmix(args, DESK_CMIX),
            eta=args.eta,
            oracle=args.oracle,
            workers=args.workers,
        )
        _write_header(out, args, plan.params, plan.T)
        coords = ",".join(f"x{j + 1}" for j in range(P.d))
        out.write(f"index,{coords},tau,fallback,oracle_calls\n")
        with _chunk_writer(out, _formatter_count(plan.n_chunks)) as write:
            # each chunk is handed on as soon as it is made, then dropped
            start = 0
            for batch in plan.chunks():
                stop = start + len(batch)
                write(
                    np.arange(start, stop),
                    *batch.points.T,
                    batch.tau,
                    batch.fallback,
                    batch.oracle_calls,
                )
                start = stop
    return 0


def cmd_diagnose(args) -> int:
    P, f = _load_inputs(args)
    if P.d > 3:
        raise ConfigError("diagnose compares against cell quadrature and needs d <= 3")
    with _open_out(args.out) as out:
        c_mix = _resolve_cmix(args, DESK_CMIX)
        result = run_sampling(
            P,
            f,
            eps=args.eps,
            n=args.n,
            seed=args.seed,
            c_mix=c_mix,
            eta=args.eta,
            oracle=args.oracle,
            workers=args.workers,
        )
        bins = args.bins if args.bins is not None else {1: 50, 2: 20, 3: 6}[P.d]
        grid = oracle.cell_masses(result.polytope, result.density, bins)
        normalized = result.points - result.translation
        counts = oracle.histogram_counts(normalized, grid)
        report = oracle.sup_log_ratio(normalized, grid)
        tv = oracle.tv_estimate(normalized, grid)
        stats = converter.tau_statistics(result.batch(), eps=args.eps)

        # acceptance of the walk that made the draws (nan when no walk ran)
        acceptance = result.accepts / result.chain_steps if result.chain_steps else float("nan")

        _write_header(out, args, result.params, result.T)
        out.write(f"# n={args.n}\n")
        out.write(f"# oracle={result.oracle_kind}\n")
        out.write(f"# T={result.T}\n")
        out.write(f"# eta={result.eta!r}\n")
        out.write(f"# acceptance={acceptance!r}\n")
        out.write(f"# tv_estimate={tv!r}\n")
        out.write(f"# sup_log_ratio={report.stat!r}\n")
        out.write(f"# sup_max_z={report.max_z()!r}\n")
        out.write(f"# excluded_cells={len(report.excluded)}\n")
        out.write(f"# tau_mean={stats.mean!r}\n")
        out.write(f"# fallback_rate={float(np.mean(result.fallback))!r}\n")
        for t in range(1, len(stats.tail_geq)):
            out.write(f"# tau_tail_geq_{t}={float(stats.tail_geq[t])!r}\n")
        mids = ",".join(f"mid{j + 1}" for j in range(P.d))
        out.write(f"cell,{mids},mass,count,freq,log_ratio,sigma,included\n")
        incl = np.zeros(grid.n_cells, dtype=bool)
        incl[report.cells] = True
        lr = np.full(grid.n_cells, np.nan)
        sg = np.full(grid.n_cells, np.nan)
        lr[report.cells] = report.log_ratio
        sg[report.cells] = report.sigma
        _write_rows(
            out,
            np.arange(grid.n_cells),
            *grid.cell_centers().T,
            grid.masses,
            counts,
            counts / len(result),
            lr,
            sg,
            incl,
        )
    return 0


def cmd_erm(args) -> int:
    inst = dp.load_erm_instance(args.polytope)
    with _open_out(args.out) as out:
        c_mix = _resolve_cmix(args, ANALYSIS_CMIX)
        batch = dp.private_erm_batch(inst, args.seed, args.n, c_mix=c_mix, eta=args.eta)
        csum = inst.losses.sum(axis=0)
        best = float(np.min(dp.enumerate_vertices(inst.polytope) @ csum))
        gaps = batch.thetas @ csum - best

        _write_header(out, args, batch.params, batch.T)
        out.write(f"# t_halt={batch.t_halt}\n")
        out.write(f"# eta={batch.eta!r}\n")
        out.write(f"# mean_gap={float(gaps.mean())!r}\n")
        coords = ",".join(f"theta{j + 1}" for j in range(inst.d))
        out.write(f"index,{coords},tau,fallback,oracle_calls,gap\n")
        _write_rows(
            out,
            np.arange(len(batch)),
            *batch.thetas.T,
            batch.tau,
            batch.fallback,
            batch.oracle_calls,
            gaps,
        )
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sp, *, density: bool = True, eps: bool = True, sampling: bool = True):
    """The shared flags; sampling=False leaves out those only a run uses
    (--seed, --n, --eta), for ``params``, which samples nothing."""
    sp.add_argument("--polytope", help="polytope (or ERM instance) file")
    if density:
        sp.add_argument(
            "--density",
            default="uniform",
            help="uniform | linear:c1,..,cd | norm1:LEVEL | erm:FILE",
        )
    if eps:
        sp.add_argument("--eps", type=float, required=True, help="infinity-distance target")
    if sampling:
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--n", type=int, default=1, help="number of output points")
        sp.add_argument("--eta", type=float, default=None, help="walk step size (default: auto-tune)")
    sp.add_argument("--cmix", type=float, default=None, help="mixing-time prefactor override")
    sp.add_argument(
        "--paper-constants",
        action="store_true",
        help="use C_mix=1 (the analysis constant) instead of the desk default",
    )


_WORKERS_HELP = "threads that sample chunks (same output at any count; they save little time)"


def _add_output(sp, *, workers: str | None = _WORKERS_HELP):
    """--out for the commands that write a CSV; --workers, with this help,
    for those that run their chunks through ``plan_sampling``."""
    sp.add_argument("--out", default=None, help="output file (default: stdout)")
    if workers:
        sp.add_argument("--workers", type=int, default=1, help=workers)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polysamp",
        description="Sample log-concave densities on polytopes with a bounded "
        "infinity-distance error.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("params", help="print the derived parameter schedule")
    _add_common(sp, sampling=False)

    sp = sub.add_parser("sample", help="draw N points to CSV")
    _add_common(sp)
    formatting = "; CSV rows are formatted in forked processes, one per usable CPU, at most 2"
    _add_output(sp, workers=_WORKERS_HELP + formatting)
    sp.add_argument("--oracle", choices=("dikin", "exact"), default="dikin")

    sp = sub.add_parser("diagnose", help="compare a run against exact cell masses (d <= 3)")
    _add_common(sp)
    _add_output(sp)
    sp.add_argument("--oracle", choices=("dikin", "exact"), default="dikin")
    sp.add_argument("--bins", type=int, default=None, help="grid cells per axis")

    sp = sub.add_parser("erm", help="differentially private ERM on an instance file")
    _add_common(sp, density=False, eps=False)
    _add_output(sp, workers=None)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "erm" and args.polytope is None:
        print("config error: erm needs --polytope INSTANCE_FILE", file=sys.stderr)
        return 2
    handler = {
        "params": cmd_params,
        "sample": cmd_sample,
        "diagnose": cmd_diagnose,
        "erm": cmd_erm,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed the pipe (``| head -1``): end as SIGPIPE would; if
        # it was stdout's, drop what stdout buffers, or exit reports the flush
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 128 + signal.SIGPIPE
    except ValueError as exc:
        # ConfigError subclasses ValueError; bare ValueErrors reaching this
        # point are domain checks on argv-derived scalars (eps, n, seed, ...)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
