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

CSV rows are made a block at a time in numpy (``_row_blocks``): ints print
as str, bools as 0/1 and floats as their repr. A float with 1e-4 <= |x| <
1e16 gets repr's shortest round-trip digits from exact integer and IEEE
arithmetic; the values that arithmetic does not settle (halfway ties, those
whose rounding interval is lopsided or ends on an integer, zeros, nan, inf,
values outside that range) go through repr itself, so every float field is
repr's by construction.
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
from pathlib import Path

import numpy as np

from . import __version__, converter, dikin, dp, oracle, pipeline
from .density import parse_density
from .errors import ConfigError, ContractViolation
from .geometry import load_polytope
from .pipeline import plan_sampling, run_sampling

ROW_BLOCK = 4096  # CSV rows per write: bounds the formatting buffer


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _file_digest(path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _config_hash(args) -> str:
    parts = [f"cmd={args.command}", f"polytope={_file_digest(args.polytope)}"]
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
    return dikin.check_cmix(args.cmix if args.cmix is not None else default)


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


# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------
#
# A block of rows is laid out as a (rows, width) uint8 array: each column's
# field followed by "," (by "\n" after the last). A value's text fills its
# field with NUL in every byte it does not use, so deleting the NULs leaves
# the CSV text. Fields are built from lookup tables as little-endian words.

_U4 = np.dtype("<u4")
_U8 = np.dtype("<u8")
_SIGN = np.uint64(1 << 63)
_EXPONENT = np.uint64(0x7FF << 52)
_SIGNIFICAND = np.uint64((1 << 52) - 1)


def _digits4() -> np.ndarray:
    """The four ASCII digits of 0..9999, one word each, in three rows of
    10000: all four digits; leading zeros as NUL (0 is four NULs); leading
    zeros as NUL but 0 as "0". An int's groups above its last take row 1,
    and its last group row 2, when the groups above them are all zero."""
    n = np.arange(10000, dtype=np.uint16)
    ascii4 = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1).astype(np.uint8) + 48
    significant = n[:, None] >= np.array([1000, 100, 10, 1], dtype=np.uint16)
    rows = [ascii4, ascii4 * significant, ascii4 * (significant | (np.arange(4) == 3))]
    return np.stack(rows).view(_U4).ravel()


_DIGITS4 = _digits4()
_POW10 = np.cumprod(np.full(22, 10.0)) / 10.0  # 10^0 .. 10^21, each exact
_HALF_ULP = _POW10 * 2.0**-53  # times the binade of x: half an ulp of x, times 10^k
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)

# A float's 24-byte field: byte 0 its sign, bytes 1-5 "0.000", byte 6 free
# and bytes 7-23 its 17 digits. point = 17 - k is where repr puts the
# decimal point (-3 .. 16), and tables have a row per point (row point + 3).
# _PREFIX keeps "0." and -point zeros when point <= 0. When point >= 1 the
# integer digits (bytes 7 .. 6 + point) move down one byte and "." goes to
# byte 6 + point.
_KEEP24 = ((np.arange(24) < np.arange(25)[:, None]) * np.uint8(255)).view(_U8)  # row j: bytes < j
_POINTS = np.arange(-3, 17)
_PREFIX = np.zeros((_POINTS.size, 8), np.uint8)
_PREFIX[:, 1:6] = np.frombuffer(b"0.000", np.uint8)
_PREFIX = _PREFIX.view(_U8)[:, 0] & _KEEP24[np.where(_POINTS <= 0, 3 - _POINTS, 0), 0]
_INT_PART = np.where((_POINTS >= 1)[:, None], _KEEP24[np.clip(7 + _POINTS, 7, 24)] & ~_KEEP24[7], 0)
_DOT = np.zeros((_POINTS.size, 24), np.uint8)
_DOT[_POINTS >= 1, 6 + _POINTS[_POINTS >= 1]] = ord(".")
_DOT = _DOT.view(_U8)

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into halves


def _split(a):
    t = _SPLIT * a
    high = t - (t - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _times_pow10(a, k):
    """a 10^k exactly, as hi + lo (Dekker's product)."""
    hi = a * _POW10[k]
    ah, al = _split(a)
    ph, pl = _POW10_HIGH[k], _POW10_LOW[k]
    return hi, al * pl - (((hi - ah * ph) - al * ph) - ah * pl)


def _float_text(x: np.ndarray) -> np.ndarray:
    """repr of each float64 of x, as a (len(x), 24) uint8 field.

    For finite 1e-4 <= |x| < 1e16 whose significand is not a power of two,
    the digits are found exactly. s = |x| 10^k lies in [1e16, 1e17); every
    number strictly within h, half an ulp of x times 10^k, of s reads back
    as x, and repr's digits are those of the number in that interval with
    the fewest significant digits, the one nearest s among them. The
    interval is symmetric, so that number is unique unless s lies halfway
    between two candidates. Only +, -, *, floor, ceil and integer
    operations decide a digit (log10 only guesses k, which is then checked
    exactly), so the bytes are the same on any IEEE-754 machine.

    The rest go through repr itself: such halfway ties, intervals with an
    integer end (whose end can be a shorter number that x's rounding
    takes), zero, nan, inf, powers of two (whose interval is lopsided) and
    every value outside the range, which repr writes in scientific notation.
    """
    n = len(x)
    bits = x.view(np.uint64)
    a = (bits & ~_SIGN).view(np.float64)
    exact = (a >= 1e-4) & (a < 1e16) & (bits & _SIGNIFICAND != 0)
    # a stand-in keeps the arithmetic below finite (and the zero search short)
    a[~exact] = 0.7853981633974483
    # k = 16 - floor(log10 a), with log10 only a guess: fix it where s is
    # outside [1e16, 1e17); what stays outside goes through repr
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _times_pow10(a, k)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += low[fix].astype(np.int64) - high[fix]
        hi[fix], lo[fix] = _times_pow10(a[fix], k[fix])
    # s = whole + frac exactly, with frac in [0, 1)
    t = np.floor(lo)
    whole = hi.astype(np.int64) + t.astype(np.int64)
    frac = lo - t
    h = (a.view(np.uint64) & _EXPONENT).view(np.float64) * _HALF_ULP[k]
    upper, lower = frac + h, frac - h
    # the integers strictly inside the interval are (top - width, top], and
    # the roundest of them is a multiple of 10^zeros: as width <= 23, that
    # takes more than two zeros only where top % 100 < width
    top = whole + (np.ceil(upper).astype(np.int64) - 1)
    width = top - whole - np.floor(lower).astype(np.int64)
    tens = top // 10
    hundreds = tens // 10
    zeros = (top - 10 * tens < width).astype(np.int64)
    live = np.flatnonzero(top - 100 * hundreds < width)
    zeros[live] = 2
    cut = hundreds[live]
    while live.size:
        more = cut // 10
        zero = cut == 10 * more
        live, cut = live[zero], more[zero]
        zeros[live] += 1
    # the multiple of q nearest s, whole + step
    q = _POW10_INT[zeros]
    r = whole - whole // q * q
    gap = (q - 2 * r).astype(np.float64)  # exact wherever it decides
    step = np.where(2 * frac > gap, q - r, -r)
    exact &= 2 * frac != gap
    exact &= (whole >= 10**16) & (whole < 10**17)
    exact &= (upper != np.ceil(upper)) & (lower != np.floor(lower))
    digits = whole + step
    carry = digits == 10**17
    digits[carry] = 10**16
    point = 17 - k + carry
    row = point + 3

    text = np.empty((n, 6), _U4)
    words = text.view(_U8)
    upper8 = digits // 10**8
    lead = upper8 // 10**8
    sign = (bits >> 63) * np.uint64(ord("-"))
    words[:, 0] = _PREFIX[row] | sign | (lead.astype(np.uint64) + ord("0")) << 56
    for j, group in ((2, upper8 - lead * 10**8), (4, digits - upper8 * 10**8)):
        high4 = group // 10**4
        text[:, j] = _DIGITS4[high4]
        text[:, j + 1] = _DIGITS4[group - high4 * 10**4]
    if (point >= 1).any():
        moving = np.take(_INT_PART, row, axis=0)
        moved = (words & moving) >> 8
        moved[:, :2] |= (words[:, 1:] & moving[:, 1:]) << 56
        words &= ~moving
        words |= moved | np.take(_DOT, row, axis=0)
    words &= np.take(_KEEP24, 7 + np.maximum(17 - zeros, point + 1), axis=0)
    text = text.view(np.uint8)

    others = np.flatnonzero(~exact)
    if others.size:
        reprs = np.array([repr(v).encode() for v in x[others].tolist()], dtype="S24")
        text[others] = reprs.view(np.uint8).reshape(-1, 24)
    return text


def _int_text(col: np.ndarray) -> np.ndarray:
    """str of each int of col, which are all non-negative (indices, counts
    and bools), as a (len(col), width) uint8 field: the digits right-aligned."""
    magnitude = col.astype(np.uint64)
    width = len(str(magnitude.max()))
    groups = -(-width // 4)
    text = np.empty((len(col), groups), _U4)
    for g in range(groups - 1, -1, -1):
        above = magnitude // 10000
        table = np.uint64(20000 if g == groups - 1 else 10000)  # see _digits4
        text[:, g] = _DIGITS4[magnitude - above * 10000 + (above == 0) * table]
        magnitude = above
    return text.view(np.uint8)[:, 4 * groups - width :]


def _column_text(col: np.ndarray) -> np.ndarray:
    kind = col.dtype.kind
    if kind == "f":
        return _float_text(col.astype(np.float64))
    if kind in "biu":
        return _int_text(col)
    return col.astype("S").view(np.uint8).reshape(len(col), -1)  # ASCII labels


def _row_blocks(*columns):
    """CSV text of equal-length 1-D columns, one string per ROW_BLOCK rows.

    Memory stays flat in the row count. Floats print as repr (the shortest
    string that round-trips), ints as str and bools as 0/1, so reruns stay
    byte-identical.
    """
    n = len(columns[0])
    for start in range(0, n, ROW_BLOCK):
        fields = [_column_text(col[start : start + ROW_BLOCK]) for col in columns]
        ends = np.cumsum([field.shape[1] + 1 for field in fields])
        block = np.empty((len(fields[0]), ends[-1]), np.uint8)
        for field, end in zip(fields, ends):
            block[:, end - 1 - field.shape[1] : end - 1] = field
        block[:, ends - 1] = ord(",")
        block[:, -1] = ord("\n")
        yield block.tobytes().translate(None, b"\0").decode("ascii")


def _write_rows(out, *columns) -> None:
    """Write columns as CSV rows, one ``out.write`` per block."""
    for block in _row_blocks(*columns):
        out.write(block)


def _sample_rows(start: int, batch: converter.SampleBatch) -> str:
    """The CSV text of ``sample``'s rows for one chunk, whose first row is
    row start: run in the process that made the chunk."""
    return "".join(
        _row_blocks(
            np.arange(start, start + len(batch)),
            *batch.points.T,
            batch.tau,
            batch.fallback,
            batch.oracle_calls,
        )
    )


def _load_inputs(args):
    """The polytope and density of --polytope and --density."""
    P = load_polytope(args.polytope)
    return P, parse_density(args.density, P.d)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_params(args) -> int:
    P, f = _load_inputs(args)
    c_mix = _resolve_cmix(args, dikin.DESK_CMIX)
    params = converter.compute_params(args.eps, f.L, P.r, P.R, P.d)
    T = dikin.mixing_steps(P, f, params.delta_log, c_mix)
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
            c_mix=_resolve_cmix(args, dikin.DESK_CMIX),
            eta=args.eta,
            oracle=args.oracle,
        )
        _write_header(out, args, plan.params, plan.T)
        coords = ",".join(f"x{j + 1}" for j in range(P.d))
        out.write(f"index,{coords},tau,fallback,oracle_calls\n")
        out.flush()  # a forked chunk worker must not inherit buffered bytes
        # each chunk's text is written as soon as it is made, then dropped;
        # closing ends the chunk workers also when a write raises
        with contextlib.closing(plan.chunks(_sample_rows)) as texts:
            for text in texts:
                out.write(text)
    return 0


def cmd_diagnose(args) -> int:
    P, f = _load_inputs(args)
    if P.d > 3:
        raise ConfigError("diagnose compares against cell quadrature and needs d <= 3")
    with _open_out(args.out) as out:
        # a bad --cmix or --eps is refused before the quadrature, and a grid
        # that is absurd or too fine for --n draws before sampling
        c_mix = _resolve_cmix(args, dikin.DESK_CMIX)
        converter.compute_params(args.eps, f.L, P.r, P.R, P.d)
        bins = args.bins if args.bins is not None else {1: 50, 2: 20, 3: 6}[P.d]
        grid = oracle.cell_masses(P, f, bins)
        need = grid.min_n()
        if args.n < need:
            raise ConfigError(
                f"no cell reaches the expected-count threshold {oracle.MIN_EXPECTED} "
                f"at --n {args.n}; the heaviest cell needs --n {need} or more "
                "(or coarsen the grid)"
            )
        result = run_sampling(
            P,
            f,
            eps=args.eps,
            n=args.n,
            seed=args.seed,
            c_mix=c_mix,
            eta=args.eta,
            oracle=args.oracle,
        )
        plan = result.plan
        counts = oracle.histogram_counts(result.points, grid)
        report = oracle.sup_log_ratio(result.points, grid)
        tv = oracle.tv_estimate(result.points, grid)
        tau = result.tau

        # acceptance of the walk that made the draws (nan when no walk ran)
        acceptance = plan.accepts / plan.chain_steps if plan.chain_steps else float("nan")

        _write_header(out, args, plan.params, plan.T)
        out.write(f"# n={args.n}\n")
        out.write(f"# oracle={args.oracle}\n")
        out.write(f"# T={plan.T}\n")
        out.write(f"# eta={plan.eta!r}\n")
        out.write(f"# acceptance={acceptance!r}\n")
        out.write(f"# tv_estimate={tv!r}\n")
        out.write(f"# sup_log_ratio={report.stat!r}\n")
        out.write(f"# sup_max_z={report.max_z()!r}\n")
        out.write(f"# excluded_cells={len(report.excluded)}\n")
        out.write(f"# tau_mean={float(tau.mean())!r}\n")
        out.write(f"# fallback_rate={float(np.mean(result.fallback))!r}\n")
        for t in range(1, 11):
            out.write(f"# tau_tail_geq_{t}={float(np.mean(tau >= t))!r}\n")
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
    # enumeration refuses d > 3, so it comes before the walk, not after it
    csum = inst.losses.sum(axis=0)
    best = float(np.min(dp.enumerate_vertices(inst.polytope) @ csum))
    with _open_out(args.out) as out:
        c_mix = _resolve_cmix(args, dikin.ANALYSIS_CMIX)
        result = dp.private_erm_batch(inst, args.seed, args.n, c_mix=c_mix, eta=args.eta)
        gaps = result.points @ csum - best

        _write_header(out, args, result.plan.params, result.plan.T)
        out.write(f"# t_halt={dp.halting_threshold(inst)}\n")
        out.write(f"# eta={result.plan.eta!r}\n")
        out.write(f"# mean_gap={float(gaps.mean())!r}\n")
        coords = ",".join(f"theta{j + 1}" for j in range(inst.d))
        out.write(f"index,{coords},tau,fallback,oracle_calls,gap\n")
        _write_rows(
            out,
            np.arange(len(result)),
            *result.points.T,
            result.tau,
            result.fallback,
            result.oracle_calls,
            gaps,
        )
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sp, *, density: bool = True, eps: bool = True, sampling: bool = True):
    """The shared flags; sampling=False leaves out those only a run uses
    (--seed, --n, --eta), for ``params``, which samples nothing."""
    sp.add_argument("--polytope", required=True, help="polytope (or ERM instance) file")
    if density:
        sp.add_argument(
            "--density",
            default="uniform",
            help="uniform | linear:c1,..,cd | norm1:LEVEL",
        )
    if eps:
        sp.add_argument("--eps", type=float, required=True, help="infinity-distance target")
    if sampling:
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--n", type=int, default=1, help="number of output points")
        sp.add_argument("--eta", type=float, default=None, help="walk step size (default: auto-tune)")
    sp.add_argument("--cmix", type=float, default=None, help="mixing-time prefactor (analysis: 1)")


def _add_output(sp):
    """--out, for the commands that write a CSV."""
    sp.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polysamp",
        description="Sample log-concave densities on polytopes with a bounded "
        "infinity-distance error.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("params", help="print the derived parameter schedule")
    _add_common(sp, sampling=False)

    sp = sub.add_parser(
        "sample",
        help="draw N points to CSV",
        description=f"Draw N points to CSV. Chunks of {pipeline.CHUNK} rows are sampled "
        f"and formatted in one process per usable CPU, at most {pipeline.MAX_WORKERS}; "
        "the bytes do not depend on the count.",
    )
    _add_common(sp)
    _add_output(sp)
    sp.add_argument("--oracle", choices=("dikin", "exact"), default="dikin")

    sp = sub.add_parser("diagnose", help="compare a run against exact cell masses (d <= 3)")
    _add_common(sp)
    _add_output(sp)
    sp.add_argument("--oracle", choices=("dikin", "exact"), default="dikin")
    sp.add_argument("--bins", type=int, default=None, help="grid cells per axis")

    sp = sub.add_parser("erm", help="differentially private ERM on an instance file")
    _add_common(sp, density=False, eps=False)
    _add_output(sp)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
