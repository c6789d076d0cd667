"""CLI behavior: output formats, exit codes, and the determinism contract."""

import contextlib
import hashlib
import io
import math
import multiprocessing
import os
import re
import select
import shlex
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from polysamp import cli, dikin, oracle
from polysamp.density import parse_density, uniform
from polysamp.errors import ContractViolation
from polysamp.geometry import contains_many, load_polytope
from polysamp.pipeline import CHUNK, SamplingPlan


def run_cli(argv, capsys) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            out[k] = v
    return out


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """Split CLI CSV output into (comment fields, header, data rows)."""
    comments, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            k, v = line[1:].strip().split("=", 1)
            comments[k] = v
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def test_params_worked_example(square_file, capsys):
    code, out, _ = run_cli(
        [
            "params",
            "--polytope",
            str(square_file),
            "--density",
            "linear:1,0",
            "--eps",
            "0.5",
            "--cmix",
            "1",
        ],
        capsys,
    )
    assert code == 0
    kv = parse_kv(out)
    assert kv["d"] == "2"
    assert kv["m"] == "4"
    assert kv["tau_max"] == "18"
    assert kv["delta"] == "2.712673611111111e-05"
    assert kv["delta_log_e"] == "-29.268306113150633"
    assert kv["c_mix"] == "1.0"
    assert kv["T"] == "8360"
    assert kv["est_f_evals"] == str(3 * 8360)
    assert float(kv["delta_log_10"]) == pytest.approx(-29.268306113150633 / np.log(10.0))


def test_params_hash_round_trips_into_sample(seg_file, capsys):
    # the dikin path: params predicts the same (schedule, T) the run uses
    argv_common = ["--polytope", str(seg_file), "--density", "linear:1", "--eps", "0.5"]
    code, out, _ = run_cli(["params", *argv_common], capsys)
    assert code == 0
    want = parse_kv(out)["params_hash"]

    code, out, _ = run_cli(["sample", *argv_common, "--n", "5", "--eta", "1.0"], capsys)
    assert code == 0
    comments, _, _ = parse_csv(out)
    assert comments["params_hash"] == want


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("params", "--out", "params.txt"),
        ("params", "--workers", "2"),
        ("params", "--seed", "5"),
        ("params", "--n", "100"),
        ("params", "--eta", "0.3"),
        ("erm", "--workers", "3"),
    ],
)
def test_flags_a_command_would_ignore_are_rejected(
    command, flag, value, square_file, erm_file, tmp_path, capsys, monkeypatch
):
    # params only prints: these flags would do nothing (its --seed, --n and
    # --eta would only move config_hash), so argparse refuses them (exit 2)
    # before any work is done; no command has --workers, since the worker
    # count comes from the usable CPUs
    monkeypatch.chdir(tmp_path)
    polytope = erm_file if command == "erm" else square_file
    argv = [command, "--polytope", str(polytope)] + (["--eps", "0.5"] if command == "params" else [])
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({square_file.name, erm_file.name})


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_deterministic_rerun(seg_file, capsys):
    argv = [
        "sample",
        "--polytope",
        str(seg_file),
        "--density",
        "linear:1",
        "--eps",
        "0.5",
        "--oracle",
        "exact",
        "--n",
        "64",
        "--seed",
        "3",
    ]
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    code, second, _ = run_cli(argv, capsys)
    assert code == 0
    assert first == second


def _sample_worker_outputs(polytope, tmp_path, capsys, pin_cpus, *oracle_args) -> list[bytes]:
    """`sample` output bytes with one usable CPU and with two, so in one
    process and in two."""
    outs = []
    for cpus in (1, 2):
        pin_cpus(cpus)
        path = tmp_path / f"w{cpus}.csv"
        code, _, _ = run_cli(
            [
                "sample",
                "--polytope",
                str(polytope),
                "--eps",
                "0.5",
                *oracle_args,
                "--n",
                "9000",
                "--seed",
                "7",
                "--out",
                str(path),
            ],
            capsys,
        )
        assert code == 0
        outs.append(path.read_bytes())
    return outs


def test_sample_worker_count_invariance(square_file, tmp_path, capsys, pin_cpus):
    outs = _sample_worker_outputs(square_file, tmp_path, capsys, pin_cpus, "--oracle", "exact")
    # chunked runs are seeded per chunk index: the worker count cannot matter
    assert outs[0] == outs[1]


def test_sample_walk_worker_count_invariance(square_file, tmp_path, capsys, pin_cpus):
    # n = 9000 > CHUNK makes two chunks, each walking T=35 steps per draw on
    # its own pool stream
    assert 9000 > CHUNK
    outs = _sample_worker_outputs(
        square_file, tmp_path, capsys, pin_cpus, "--oracle", "dikin", "--cmix", "0.01"
    )
    assert outs[0] == outs[1]


# sha256 of `sample --oracle exact --n 20000 --seed 3` on the square, taken
# before the row-template writer and the column-wise membership, norm and
# proposal kernels: 20000 rows make two full chunks and a partial third
PINNED_SAMPLE_SHA256 = "763197d211fdd8a6795e98884308d1814a57e432e7665fc2c0880b234d1ba9ab"


@pytest.mark.parametrize("cpus", ("1", "2"))
def test_sample_pinned_bytes(cpus, square_file, tmp_path, capsys, pin_cpus):
    pin_cpus(int(cpus))
    out = tmp_path / "s.csv"
    argv = ["sample", "--polytope", str(square_file), "--density", "linear:1,0", "--eps", "0.5"]
    argv += ["--oracle", "exact", "--n", "20000", "--seed", "3"]
    code, _, _ = run_cli([*argv, "--out", str(out)], capsys)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SAMPLE_SHA256


def test_sample_rows_live_in_polytope(square_file, capsys):
    code, out, _ = run_cli(
        [
            "sample",
            "--polytope",
            str(square_file),
            "--density",
            "linear:1,0",
            "--eps",
            "0.5",
            "--oracle",
            "exact",
            "--n",
            "200",
        ],
        capsys,
    )
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header == ["index", "x1", "x2", "tau", "fallback", "oracle_calls"]
    assert "config_hash" in comments and "version" in comments
    assert len(rows) == 200
    P = load_polytope(square_file)
    pts = np.array([[float(r[1]), float(r[2])] for r in rows])
    assert np.all(contains_many(P, pts))
    assert [int(r[0]) for r in rows] == list(range(200))
    for r in rows:
        tau, fb, calls = int(r[3]), int(r[4]), int(r[5])
        assert (tau == calls and fb == 0) or (tau == calls + 1 and fb == 1)


def test_sample_dikin_smoke(seg_file, capsys):
    code, out, _ = run_cli(
        [
            "sample",
            "--polytope",
            str(seg_file),
            "--density",
            "linear:1",
            "--eps",
            "0.5",
            "--n",
            "50",
            "--eta",
            "1.0",
        ],
        capsys,
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 50
    assert all(-1.0 <= float(r[1]) <= 1.0 for r in rows)


def test_sample_stdout_matches_out_file(square_file, tmp_path, capsys):
    argv = [
        "sample",
        "--polytope",
        str(square_file),
        "--eps",
        "0.5",
        "--oracle",
        "exact",
        "--n",
        str(2 * cli.ROW_BLOCK + 1),
        "--seed",
        "2",
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    path = tmp_path / "s.csv"
    code, _, _ = run_cli([*argv, "--out", str(path)], capsys)
    assert code == 0
    assert out.encode() == path.read_bytes()


def test_sample_readme_example(square_file, capsys):
    code, out, _ = run_cli(
        [
            "sample",
            "--polytope",
            str(square_file),
            "--density",
            "linear:1,0",
            "--eps",
            "0.5",
            "--seed",
            "7",
            "--n",
            "3",
            "--oracle",
            "exact",
        ],
        capsys,
    )
    assert code == 0
    assert out == (
        "# config_hash=1f908a383326cefd\n"
        "# version=0.1.0\n"
        "# params_hash=cd2de4a3ac947ff0\n"
        "index,x1,x2,tau,fallback,oracle_calls\n"
        "0,0.3338458217190157,0.4461438518232382,4,0,4\n"
        "1,-0.8343251787653305,0.39326840796749973,1,0,1\n"
        "2,-0.8791515362630534,0.6107155569353856,2,0,2\n"
    )


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_2_missing_polytope_file(capsys):
    code, _, err = run_cli(
        ["params", "--polytope", "/nonexistent.txt", "--eps", "0.5"], capsys
    )
    assert code == 2
    assert "config error" in err


def test_exit_2_bad_density(seg_file, capsys):
    code, _, err = run_cli(
        ["params", "--polytope", str(seg_file), "--density", "cubic:1", "--eps", "0.5"],
        capsys,
    )
    assert code == 2
    assert "config error" in err


def _no_quadrature(*args, **kwargs):
    raise AssertionError("integrated diagnose's cells before checking its flags")


def test_exit_2_eps_out_of_range(seg_file, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "cell_masses", _no_quadrature)
    for command in ("sample", "diagnose"):
        argv = [command, "--polytope", str(seg_file), "--eps", "1.5", "--n", "1"]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error: eps must lie in (0, 1]"), command


def test_exit_2_malformed_polytope_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 1.0 2.0\n1 1\n-1 oops\n0\n")
    code, _, err = run_cli(["params", "--polytope", str(bad), "--eps", "0.5"], capsys)
    assert code == 2
    assert "line 3" in err


def test_exit_2_missing_polytope_flag(capsys):
    # argparse refuses it (exit 2) before any work is done
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--eps", "0.5"])
    assert exc.value.code == 2
    assert "the following arguments are required: --polytope" in capsys.readouterr().err


def test_exit_3_under_declared_outer_radius(tmp_path, capsys):
    # the declared circumradius 0.9 understates the square's sqrt(2): exact
    # draws near a corner breach the outer ball and trip the runtime check
    lying = tmp_path / "lying.txt"
    lying.write_text("2 4 0.5 0.9\n1 0 1\n-1 0 1\n0 1 1\n0 -1 1\n0 0\n")
    code, _, err = run_cli(
        [
            "sample",
            "--polytope",
            str(lying),
            "--eps",
            "0.5",
            "--oracle",
            "exact",
            "--n",
            "50",
            "--seed",
            "0",
        ],
        capsys,
    )
    assert code == 3
    assert "contract violation" in err


def _exact_sample_argv(polytope, n: int, *extra) -> list[str]:
    return [
        "sample",
        "--polytope",
        str(polytope),
        "--density",
        "linear:1,0",
        "--eps",
        "0.5",
        "--oracle",
        "exact",
        "--n",
        str(n),
        "--seed",
        "4",
        *extra,
    ]


def _fail_on_chunk(monkeypatch, chunk: int, error=ContractViolation):
    """Make chunk ``chunk`` raise error, in whichever process runs it."""
    run_chunk = SamplingPlan._run_chunk

    def failing(self, j, render=None):
        if j == chunk:
            raise error("injected failure")
        return run_chunk(self, j, render)

    monkeypatch.setattr(SamplingPlan, "_run_chunk", failing)


def _log_chunk_starts(monkeypatch, log: Path) -> None:
    """Append "run J" to log as any process starts chunk J."""
    run_chunk = SamplingPlan._run_chunk

    def logged(self, j, render=None):
        with open(log, "a") as fh:  # O_APPEND: lines of all processes in time order
            fh.write(f"run {j}\n")
        return run_chunk(self, j, render)

    monkeypatch.setattr(SamplingPlan, "_run_chunk", logged)


@pytest.mark.parametrize("existing", (None, b"earlier run\n"))
def test_sample_failure_mid_run_leaves_out_untouched(
    existing, square_file, tmp_path, capsys, monkeypatch
):
    # 20000 rows make three chunks; the second one fails after the first
    # has been written. F stays absent, or keeps its old bytes, and no
    # temporary file is left beside it.
    _fail_on_chunk(monkeypatch, 1)
    out = tmp_path / "out" / "s.csv"
    out.parent.mkdir()
    if existing is not None:
        out.write_bytes(existing)
    code, _, err = run_cli(_exact_sample_argv(square_file, 20000, "--out", str(out)), capsys)
    assert code == 3
    assert "injected failure" in err
    if existing is None:
        assert list(out.parent.iterdir()) == []
    else:
        assert list(out.parent.iterdir()) == [out]
        assert out.read_bytes() == existing


def test_sample_failure_on_stdout_keeps_written_chunks(
    square_file, capsys, monkeypatch, pin_cpus
):
    # stdout cannot be taken back: the rows of chunk 0 are already out when
    # the forked worker's chunk 1 fails, and the worker is gone after
    pin_cpus(2)
    _fail_on_chunk(monkeypatch, 1)
    code, out, err = run_cli(_exact_sample_argv(square_file, 20000), capsys)
    assert code == 3
    assert err == "contract violation: injected failure\n"
    _, _, rows = parse_csv(out)
    assert len(rows) == CHUNK
    assert multiprocessing.active_children() == []


def test_out_file_mode_matches_plain_open(square_file, tmp_path, capsys):
    # a new file gets 0o666 under the umask, as open() creates it; an
    # existing file keeps its mode, as open() truncating it would
    old_umask = os.umask(0o027)
    try:
        new = tmp_path / "new.csv"
        assert run_cli(_exact_sample_argv(square_file, 10, "--out", str(new)), capsys)[0] == 0
        assert stat.S_IMODE(new.stat().st_mode) == 0o640
        existing = tmp_path / "existing.csv"
        existing.write_text("old\n")
        existing.chmod(0o604)
        assert run_cli(_exact_sample_argv(square_file, 10, "--out", str(existing)), capsys)[0] == 0
        assert stat.S_IMODE(existing.stat().st_mode) == 0o604
        assert existing.read_bytes() == new.read_bytes()
    finally:
        os.umask(old_umask)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.csv", "new.csv", "square.txt"]


def test_out_to_fifo_and_symlink_writes_through(square_file, tmp_path, capsys):
    # targets that are not plain regular files are written directly, not
    # replaced by a renamed temporary file
    argv = _exact_sample_argv(square_file, 300)
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run_cli([*argv, "--out", str(fifo)], capsys)[0] == 0
    reader.join(timeout=60)
    assert got == [expected]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    target = tmp_path / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert run_cli([*argv, "--out", str(link)], capsys)[0] == 0
    assert link.is_symlink()
    assert target.read_text() == expected


@pytest.mark.parametrize("target", ("missing_dir", "directory"))
@pytest.mark.parametrize("command", ("sample", "diagnose", "erm"))
def test_unwritable_out_exits_2_before_sampling(
    command, target, square_file, erm_file, tmp_path, capsys, monkeypatch
):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before opening --out")

    monkeypatch.setattr(cli, "plan_sampling", no_sampling)
    monkeypatch.setattr(cli, "run_sampling", no_sampling)
    monkeypatch.setattr(cli.dp, "private_erm_batch", no_sampling)
    out = tmp_path / "missing" / "x.csv" if target == "missing_dir" else tmp_path
    if command == "erm":
        argv = ["erm", "--polytope", str(erm_file)]
    else:
        argv = [command, "--polytope", str(square_file), "--eps", "0.5", "--oracle", "exact"]
    code, _, err = run_cli([*argv, "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"config error: cannot write {out}: ")
    assert sorted(tmp_path.iterdir()) == sorted([square_file, erm_file])


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_memory_flat_in_n(square_file, tmp_path):
    # numpy reports its buffers to tracemalloc; rows are written chunk by
    # chunk, so 16 times the rows must not mean a larger peak
    out = str(tmp_path / "s.csv")
    small = _traced_peak(_exact_sample_argv(square_file, 2 * CHUNK, "--out", out))
    large = _traced_peak(_exact_sample_argv(square_file, 32 * CHUNK, "--out", out))
    assert large <= 1.5 * small, (small, large)


def _chunks_ahead_at_each_write(square_file, monkeypatch, tmp_path) -> list[int]:
    """Run a 9-chunk `sample`; for each chunk written, in order, how many
    later chunks had started by then, in any process."""
    log = tmp_path / "log"
    _log_chunk_starts(monkeypatch, log)

    class RecordingOut(io.StringIO):
        def write(self, text):
            if text[0].isdigit():  # a chunk's rows, not a header line
                with open(log, "a") as fh:
                    fh.write(f"write {int(text.split(',', 1)[0]) // CHUNK}\n")
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", RecordingOut())
    assert cli.main(_exact_sample_argv(square_file, 8 * CHUNK + 5)) == 0
    started, ahead = set(), []
    for line in log.read_text().splitlines():
        event, j = line.split()
        if event == "run":
            started.add(int(j))
        else:
            ahead.append(sum(k > int(j) for k in started))
    assert len(started) == len(ahead) == 9
    return ahead


def test_sample_workers_bound_chunks_in_flight(square_file, monkeypatch, tmp_path, pin_cpus):
    # in one process, each chunk is written before the next one starts
    pin_cpus(1)
    assert _chunks_ahead_at_each_write(square_file, monkeypatch, tmp_path) == [0] * 9


def test_sample_forked_formatters_bound_chunks_in_flight(
    square_file, monkeypatch, tmp_path, pin_cpus
):
    # the command's process and one forked worker, each sampling and
    # formatting its chunks: when a chunk is written, at most W = 2 later
    # chunks have started
    pin_cpus(2)
    ahead = _chunks_ahead_at_each_write(square_file, monkeypatch, tmp_path)
    assert max(ahead) <= 2, ahead
    assert max(ahead) >= 1, ahead  # the worker ran beside the command's process


@pytest.mark.parametrize("cpus", ("1", "3"))
def test_sample_forks_formatters_before_any_thread(
    cpus, square_file, tmp_path, capsys, monkeypatch, pin_cpus
):
    # a fork copies only the calling thread: a chunk worker is forked only
    # while the command's process has no other thread. One usable CPU forks
    # none; three fork one, as W is capped at MAX_WORKERS = 2
    pin_cpus(int(cpus))
    fork, threads = os.fork, []

    def checked_fork():
        # fail here rather than fork a child that may deadlock
        threads.append(threading.active_count())
        assert threads[-1] == 1, "forked while other threads run"
        return fork()

    monkeypatch.setattr(os, "fork", checked_fork)
    argv = _exact_sample_argv(square_file, 4 * CHUNK + 5)
    code, _, _ = run_cli([*argv, "--out", str(tmp_path / "s.csv")], capsys)
    assert code == 0
    assert threads == ([] if cpus == "1" else [1])


@pytest.mark.parametrize("error", (ContractViolation, KeyboardInterrupt))
def test_sample_failure_leaves_no_formatter_running(
    error, square_file, capsys, monkeypatch, pin_cpus
):
    # the third of five chunks fails in the command's process: exit 3 after
    # the first two chunks' rows, or a KeyboardInterrupt, and either way no
    # chunk worker survives
    pin_cpus(2)
    _fail_on_chunk(monkeypatch, 2, error)
    argv = _exact_sample_argv(square_file, 4 * CHUNK + 5)
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv)
    else:
        code, out, _ = run_cli(argv, capsys)
        assert code == 3
        assert len(parse_csv(out)[2]) == 2 * CHUNK
    assert multiprocessing.active_children() == []


_SAMPLE_PINNED_ARGV = ["--density", "linear:1,0", "--eps", "0.5", "--oracle", "exact"]


def test_sample_pinned_bytes_through_a_pipe(square_file):
    # a real process writing to a pipe: bytes a forked worker duplicated
    # or dropped would show here, where capsys cannot see them
    argv = ["sample", "--polytope", str(square_file), *_SAMPLE_PINNED_ARGV, "--n", "20000"]
    cmd = [sys.executable, "-m", "polysamp", *argv, "--seed", "3"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=300)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_SAMPLE_SHA256


def _stdout_eof_after_kill(cmd, signum) -> bool:
    """Start cmd in its own process group, send it signum once it has written
    its first CSV row, and read its stdout to EOF, which must come within
    30 s of its death. Whether a process of its group outlived it."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        start_new_session=True,  # its own process group, so any orphan can be killed below
    )
    try:
        for line in proc.stdout:
            if line[:1].isdigit():  # the first row
                break
        proc.send_signal(signum)
        proc.wait(timeout=60)
        fd, deadline = proc.stdout.fileno(), time.monotonic() + 30
        while True:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            assert ready, "stdout still open 30 s after the command died"
            if not os.read(fd, 1 << 16):
                break
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return False
        return True
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.stdout.close()
        proc.wait()


@pytest.mark.parametrize("signum", (signal.SIGTERM, signal.SIGKILL), ids=("TERM", "KILL"))
def test_sample_killed_leaves_no_formatter_holding_stdout(signum, square_file):
    # the command dies without running its cleanup: its chunk workers must
    # not hold its stdout, or a reader of it never sees EOF
    argv = ["sample", "--polytope", str(square_file), *_SAMPLE_PINNED_ARGV, "--n", str(8 * CHUNK)]
    _stdout_eof_after_kill([sys.executable, "-m", "polysamp", *argv], signum)


# Runs the CLI as ``python -m polysamp`` does with two usable CPUs, and
# with every chunk but chunk 0 held up for ten minutes before it runs.
_SLOW_WORKER_ENTRY = """
import os, time
os.sched_getaffinity = lambda pid: {0, 1}
from polysamp import cli, pipeline
run_chunk = pipeline.SamplingPlan._run_chunk
def slow(self, j, render=None):
    if j > 0:
        time.sleep(600)
    return run_chunk(self, j, render)
pipeline.SamplingPlan._run_chunk = slow
cli.entry()
"""


def test_walk_sample_killed_leaves_no_worker_holding_stdout(square_file):
    # a walk chunk can take seconds: a worker must let go of stdout at once,
    # not when it finishes its chunk. Here the worker's chunk 1 would take
    # ten minutes, and the reader must still see EOF when the command dies.
    argv = ["sample", "--polytope", str(square_file), "--eps", "0.5"]
    argv += ["--cmix", "0.01", "--n", "9000"]
    cmd = [sys.executable, "-c", _SLOW_WORKER_ENTRY, *argv]
    assert _stdout_eof_after_kill(cmd, signal.SIGKILL), "no worker was running"


# Runs the CLI as ``python -m polysamp`` does, on the arguments after the
# first, which sets the usable CPU count the way pin_cpus does in-process.
_PINNED_ENTRY = """
import os, sys
count = int(sys.argv.pop(1))
os.sched_getaffinity = lambda pid: set(range(count))
from polysamp import cli
cli.entry()
"""


@pytest.mark.parametrize("buffering", ("", "1"), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize(
    "command, cpus", [("sample", 2), ("sample", 1), ("erm", 2)], ids=("sample-F2", "sample-F1", "erm")
)
def test_closed_stdout_ends_quietly(command, cpus, buffering, square_file, erm_file):
    # ``polysamp ... | head -1``: once the reader closes the pipe, the command
    # exits 141 (128 + SIGPIPE) with nothing on stderr, not even Python's
    # note on a failed flush at exit, and reaps its chunk workers first
    if command == "sample":
        argv = ["sample", "--polytope", str(square_file), *_SAMPLE_PINNED_ARGV, "--n", str(8 * CHUNK)]
    else:
        argv = ["erm", "--polytope", str(erm_file), "--n", "4000"]  # ~280 kB, more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-c", _PINNED_ENTRY, str(cpus), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONUNBUFFERED": buffering},
        start_new_session=True,  # its own process group, to look for workers left behind
    )
    try:
        assert proc.stdout.readline().startswith(b"# config_hash=")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no process of the command's group is left
        assert proc.stderr.read() == b""
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.stderr.close()
        proc.wait()


# Runs ARGV with stdout to a pipe it drains, then prints the peak RSS (kB)
# of the largest process below it: RUSAGE_CHILDREN's ru_maxrss is the
# largest single descendant's, not a sum over the tree. A fresh launcher
# keeps the reading apart from the test process's own children.
_LARGEST_PEAK = """
import resource, subprocess, sys
with subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE) as proc:
    while proc.stdout.read(1 << 16):
        pass
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(proc.returncode)
"""


def _largest_peak_kb(square_file, n: int) -> int:
    argv = ["sample", "--polytope", str(square_file), *_SAMPLE_PINNED_ARGV, "--n", str(n)]
    proc = subprocess.run(
        [sys.executable, "-c", _LARGEST_PEAK, sys.executable, "-m", "polysamp", *argv],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=300,
    )
    return int(proc.stdout)


def test_sample_largest_process_memory_flat_in_n(square_file):
    # peak RSS of the largest of the command and its chunk workers, read from
    # the kernel: 16 times the rows must not mean a larger peak
    small = _largest_peak_kb(square_file, 2 * CHUNK)
    large = _largest_peak_kb(square_file, 32 * CHUNK)
    assert large <= 1.25 * small, (small, large)


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def test_diagnose_report_fields(seg_file, capsys):
    code, out, _ = run_cli(
        [
            "diagnose",
            "--polytope",
            str(seg_file),
            "--density",
            "linear:1",
            "--eps",
            "0.5",
            "--oracle",
            "exact",
            "--n",
            "20000",
            "--bins",
            "10",
        ],
        capsys,
    )
    assert code == 0
    comments, header, rows = parse_csv(out)
    for key in (
        "config_hash",
        "version",
        "params_hash",
        "tv_estimate",
        "sup_log_ratio",
        "sup_max_z",
        "tau_mean",
        "fallback_rate",
        "tau_tail_geq_1",
        "tau_tail_geq_10",
    ):
        assert key in comments, key
    assert header == ["cell", "mid1", "mass", "count", "freq", "log_ratio", "sigma", "included"]
    assert len(rows) == 10
    assert float(comments["tau_tail_geq_1"]) == 1.0
    assert float(comments["tau_mean"]) <= 3.0
    # exact oracle at these sizes: the law lands within the target easily
    assert float(comments["sup_log_ratio"]) <= 0.5
    assert float(comments["tv_estimate"]) <= 0.05
    assert sum(int(r[3]) for r in rows) == 20000


def test_diagnose_acceptance_reads_walk_counters(seg_file, capsys, monkeypatch):
    """`# acceptance=` is accepts / chain_steps of the walk that made the
    draws, and nan with the exact oracle, where no walk runs."""
    results, run_sampling = [], cli.run_sampling

    def recording_run_sampling(*args, **kwargs):
        results.append(run_sampling(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_sampling", recording_run_sampling)
    acceptance = {}
    for oracle in ("dikin", "exact"):
        argv = ["diagnose", "--polytope", str(seg_file), "--density", "linear:1"]
        argv += ["--eps", "0.5", "--oracle", oracle, "--cmix", "0.01", "--n", "2000"]
        code, out, _ = run_cli(argv + ["--bins", "10"], capsys)
        assert code == 0
        acceptance[oracle] = float(parse_csv(out)[0]["acceptance"])
    walk = results[0]
    assert 0.0 < acceptance["dikin"] < 1.0
    assert acceptance["dikin"] == walk.plan.accepts / walk.plan.chain_steps
    assert math.isnan(acceptance["exact"])


def test_diagnose_worker_count_invariance(square_file, capsys, pin_cpus):
    # 20000 rows make three chunks: the report is the same from one
    # process as from two
    argv = ["diagnose", "--polytope", str(square_file), "--density", "linear:1,0"]
    argv += ["--eps", "0.5", "--oracle", "exact", "--n", "20000", "--seed", "2"]
    outs = []
    for cpus in (1, 2):
        pin_cpus(cpus)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_diagnose_readme_example(square_file, capsys):
    code, out, _ = run_cli(
        [
            "diagnose",
            "--polytope",
            str(square_file),
            "--density",
            "uniform",
            "--eps",
            "0.5",
            "--seed",
            "3",
            "--n",
            "20000",
            "--oracle",
            "exact",
            "--bins",
            "4",
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    for line in (
        "# tv_estimate=0.00970000000000001",
        "# sup_log_ratio=0.04416089578576978",
        "# sup_max_z=1.6125279187667292",
        "# tau_mean=1.99705",
        "# fallback_rate=0.0045",
        "0,-0.75,-0.75,0.0625,1243,0.06215,-0.005615738785635745,0.027386127875258306,1",
    ):
        assert line in lines


# sha256 of whole exact-oracle diagnose outputs, taken before the tau tails
# were written from the tau column and the quadrature took blocks of cells:
# the README example, and d = 1 and d = 3 at their default --bins
DIAGNOSE_SHA256 = {
    "readme": "ae6a03a276bec797baa66de65b07b83e10ceb5192bf3e179c2bea1298b0e4b07",
    "d1": "9385d32fb4807cfc478099eda4ddfa7dc8d9a28f3b0c21d4954395c1f9184518",
    "d3": "35dc4fe7d5c236d30a04c01458b705f3c3064e110d687dd2b260c232b6c5a334",
}


@pytest.mark.parametrize("case", sorted(DIAGNOSE_SHA256))
def test_diagnose_pinned_bytes(case, square_file, seg_file, tmp_path, capsys):
    cube = tmp_path / "cube.txt"
    cube.write_text("3 6 1.0 2.0\n1 0 0 1\n-1 0 0 1\n0 1 0 1\n0 -1 0 1\n0 0 1 1\n0 0 -1 1\n0 0 0\n")
    polytope, args = {
        "readme": (square_file, "--density uniform --seed 3 --n 20000 --bins 4"),
        "d1": (seg_file, "--density linear:1 --seed 5 --n 20000"),
        "d3": (cube, "--density norm1:1 --seed 5 --n 40000"),
    }[case]
    argv = ["diagnose", "--polytope", str(polytope), "--eps", "0.5", "--oracle", "exact"]
    code, out, _ = run_cli([*argv, *args.split()], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIAGNOSE_SHA256[case]


def test_diagnose_cells_in_input_coordinates(tmp_path, capsys):
    # on the off-centre square [1, 3]^2 the cell midpoints are where sample
    # writes its points, and every row lands in a cell
    p = tmp_path / "off_centre.txt"
    p.write_text("2 4 1.0 2.0\n1 0 3\n-1 0 -1\n0 1 3\n0 -1 -1\n2 2\n")
    argv = ["diagnose", "--polytope", str(p), "--density", "linear:1,0", "--eps", "0.5"]
    code, out, _ = run_cli([*argv, "--n", "4000", "--oracle", "exact", "--bins", "4"], capsys)
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert header[1:3] == ["mid1", "mid2"]
    mids = np.array([[float(r[1]), float(r[2])] for r in rows])
    assert np.all((1.0 < mids) & (mids < 3.0))
    assert sum(int(r[4]) for r in rows) == 4000
    assert comments["oracle"] == "exact"
    assert float(comments["sup_log_ratio"]) <= 0.5


def _cube4_lines() -> str:
    """The polytope block of the cube [-1, 1]^4."""
    rows = []
    for j in range(4):
        for s in (1, -1):
            row = ["0"] * 4
            row[j] = str(s)
            rows.append(" ".join(row) + " 1")
    return "4 8 1.0 2.0\n" + "\n".join(rows) + "\n0 0 0 0\n"


def test_diagnose_dimension_guard(tmp_path, capsys):
    p = tmp_path / "cube4.txt"
    p.write_text(_cube4_lines())
    code, _, err = run_cli(
        ["diagnose", "--polytope", str(p), "--eps", "0.5", "--n", "10"], capsys
    )
    assert code == 2
    assert "d <= 3" in err


@pytest.mark.parametrize("bins", ("100000", "3000"))
def test_absurd_bins_refused_before_sampling(bins, square_file, tmp_path, capsys, monkeypatch):
    # the cell grid draws no randomness, so it is built, and refused, first
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the grid")

    monkeypatch.setattr(cli, "run_sampling", no_sampling)
    out = tmp_path / "diagnose.csv"
    argv = ["diagnose", "--polytope", str(square_file), "--eps", "0.5", "--oracle", "exact"]
    code, _, err = run_cli([*argv, "--bins", bins, "--out", str(out)], capsys)
    assert code == 2
    want = r"config error: cell grid needs \d+ quadrature points, more than 67108864: use fewer bins\n"
    assert re.fullmatch(want, err)
    assert sorted(tmp_path.iterdir()) == [square_file]


def test_unresolvable_grid_refused_before_sampling(seg_file, capsys, monkeypatch):
    # 100 draws over 50 cells of the segment: no cell expects 100 of them
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the grid")

    monkeypatch.setattr(cli, "run_sampling", no_sampling)
    argv = ["diagnose", "--polytope", str(seg_file), "--eps", "0.5", "--n", "100", "--bins", "50"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    need = math.ceil(100 / oracle.cell_masses(load_polytope(seg_file), uniform(), 50).masses.max())
    assert err == (
        "config error: no cell reaches the expected-count threshold 100.0 at --n 100; "
        f"the heaviest cell needs --n {need} or more (or coarsen the grid)\n"
    )


def test_diagnose_without_n_names_the_n_it_needs(square_file, capsys):
    # --n defaults to 1, at which no cell can reach an expected count of 100
    argv = ["diagnose", "--polytope", str(square_file), "--density", "linear:1,0"]
    code, out, err = run_cli([*argv, "--eps", "0.5", "--oracle", "exact"], capsys)
    P = load_polytope(square_file)
    grid = oracle.cell_masses(P, parse_density("linear:1,0", 2), 20)
    need = math.ceil(100 / grid.masses.max())
    assert code == 2 and out == ""
    assert f"at --n 1; the heaviest cell needs --n {need} or more" in err
    assert grid.included(need).any()
    with pytest.raises(ValueError):
        grid.included(need - 1)


def test_tuning_that_never_reaches_the_band_is_a_config_error(square_file, tmp_path, capsys, monkeypatch):
    # pilots read 0.9 below eta = 1 and 0.1 from there on: no eta is in band
    def pilot(P, f, cfg, X0, rng):
        return X0, round((0.9 if cfg.eta < 1.0 else 0.1) * len(X0) * cfg.T)

    monkeypatch.setattr(dikin, "run_chains_batch", pilot)
    out = tmp_path / "sample.csv"
    argv = ["sample", "--polytope", str(square_file), "--eps", "0.5", "--n", "10"]
    code, stdout, err = run_cli([*argv, "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert re.fullmatch(r"config error: step-scale tuning did not reach .*, acceptance 0\.[19]00\)\n", err)
    assert sorted(tmp_path.iterdir()) == [square_file]


def test_overflowing_density_prints_only_the_config_error(square_file):
    # a norm that overflows is refused as an infinite L, with no numpy warning
    proc = subprocess.run(
        [sys.executable, "-m", "polysamp", "sample", "--polytope", str(square_file)]
        + ["--density", "linear:1e308,1e308", "--eps", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "config error: Lipschitz constant must be finite and nonnegative\n"


# ---------------------------------------------------------------------------
# erm
# ---------------------------------------------------------------------------


def test_erm_output_and_determinism(erm_file, capsys):
    argv = [
        "erm",
        "--polytope",
        str(erm_file),
        "--n",
        "40",
        "--seed",
        "5",
        "--eta",
        "1.5",
    ]
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    comments, header, rows = parse_csv(first)
    assert comments["t_halt"] == "11"
    assert header == ["index", "theta1", "tau", "fallback", "oracle_calls", "gap"]
    assert len(rows) == 40
    for r in rows:
        assert -1.0 <= float(r[1]) <= 1.0
        assert r[3] in ("none", "ball")
        assert float(r[5]) >= 0.0
    code, second, _ = run_cli(argv, capsys)
    assert first == second


def test_erm_readme_example(erm_file, capsys):
    # config_hash is left out: the README's instance file carries comment
    # lines, so its digest differs from this fixture's
    code, out, _ = run_cli(["erm", "--polytope", str(erm_file), "--seed", "11", "--n", "3"], capsys)
    assert code == 0
    comments, _, _ = parse_csv(out)
    assert comments["params_hash"] == "1c76714e8ed4d2cf"
    assert comments["t_halt"] == "11"
    assert comments["eta"] == "1.6"
    assert comments["mean_gap"] == "7.00439873543491"
    assert out.endswith(
        "index,theta1,tau,fallback,oracle_calls,gap\n"
        "0,0.7582804460411408,2,none,2,8.791402230205705\n"
        "1,0.05735276780775023,1,none,1,5.286763839038751\n"
        "2,0.38700602741205464,1,none,1,6.935030137060274\n"
    )


# sha256 of `erm --seed 3 --n 8200` on the segment with an under-declared
# inner ball (t_halt = 11 < tau_max = 14), taken before the fallback labels
# were derived from tau: two chunks, two of whose rows are the center
CAPPED_ERM_SHA256 = "d78bb2f98e0b00fdc3f63bc8e9a01daedb12724ac24d1eb9aca4bd68d4b5c75c"


def test_capped_erm_pinned_bytes(tmp_path, capsys):
    inst = tmp_path / "capped.txt"
    inst.write_text("1 2 0.1 1.0\n1 1\n-1 1\n0\n5\n1\n1\n1\n1\n1\n1 0.5\n")
    code, out, _ = run_cli(["erm", "--polytope", str(inst), "--seed", "3", "--n", "8200"], capsys)
    assert code == 0
    assert out.count(",center,") == 2
    assert hashlib.sha256(out.encode()).hexdigest() == CAPPED_ERM_SHA256


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-1"), ("--seed", str(2**63)), ("--n", "0")],
)
def test_erm_refuses_what_sample_refuses(flag, value, square_file, erm_file, tmp_path, capsys):
    # erm runs through plan_sampling, so it refuses these with sample's
    # message, exit 2 and no --out file
    sample = ["sample", "--polytope", str(square_file), "--eps", "0.5", "--oracle", "exact"]
    code, _, want = run_cli([*sample, flag, value], capsys)
    assert code == 2
    out = tmp_path / "erm.csv"
    code, _, err = run_cli(["erm", "--polytope", str(erm_file), flag, value, "--out", str(out)], capsys)
    assert code == 2
    assert err == want
    assert sorted(tmp_path.iterdir()) == sorted([square_file, erm_file])


def test_erm_refuses_d4_before_sampling(tmp_path, capsys, monkeypatch):
    # the utility oracle enumerates vertices (d <= 3 only); that refusal
    # must come before the walk, and leave no --out file
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a d=4 instance")

    monkeypatch.setattr(cli.dp, "private_erm_batch", no_sampling)
    inst = tmp_path / "cube4_erm.txt"
    inst.write_text(_cube4_lines() + "2\n1 0 0 0\n0 1 0 0\n1 0.5\n")
    out = tmp_path / "erm.csv"
    code, _, err = run_cli(["erm", "--polytope", str(inst), "--out", str(out)], capsys)
    assert code == 2
    assert err == "config error: vertex enumeration is for d <= 3\n"
    assert sorted(tmp_path.iterdir()) == [inst]


@pytest.mark.parametrize("value", ("inf", "nan"))
@pytest.mark.parametrize("command", ("params", "sample", "diagnose", "erm"))
def test_non_finite_cmix_is_a_config_error(command, value, square_file, erm_file, capsys):
    if command == "erm":
        argv = ["erm", "--polytope", str(erm_file)]
    else:
        argv = [command, "--polytope", str(square_file), "--eps", "0.5"]
    code, out, err = run_cli([*argv, "--cmix", value], capsys)
    assert code == 2
    assert out == ""
    assert err == f"config error: c_mix must be finite and positive, got {value}\n"


@pytest.mark.parametrize("value", ("inf", "nan", "-1", "0"))
@pytest.mark.parametrize("oracle", ("dikin", "exact"))
@pytest.mark.parametrize("command", ("sample", "diagnose"))
def test_cmix_is_checked_with_either_oracle(
    command, oracle, value, square_file, capsys, monkeypatch
):
    # the exact oracle runs no walk, but a --cmix it would ignore is still
    # refused: exit 2 before any row, and before diagnose's quadrature
    monkeypatch.setattr(cli.oracle, "cell_masses", _no_quadrature)
    argv = [command, "--polytope", str(square_file), "--eps", "0.5", "--oracle", oracle]
    code, out, err = run_cli([*argv, "--cmix", value], capsys)
    assert code == 2
    assert out == ""
    assert err == f"config error: c_mix must be finite and positive, got {float(value)!r}\n"


def test_erm_requires_instance_file(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["erm", "--n", "5"])
    assert exc.value.code == 2
    assert "the following arguments are required: --polytope" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------

ROW_COUNTS = (1, cli.ROW_BLOCK - 1, cli.ROW_BLOCK, cli.ROW_BLOCK + 1, 2 * cli.ROW_BLOCK + 1)
# repr switches to scientific notation below 1e-4 and from 1e16 up; 5e-324
# is the smallest subnormal
SPECIAL_FLOATS = np.array([1e-05, 1e16, 5e-324, -0.0, 1e-4, 9999999999999998.0, -2.5e-300])


def _floats(rng, n: int, d: int) -> np.ndarray:
    """Random floats over many magnitudes, with SPECIAL_FLOATS spread in."""
    X = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 20, size=(n, d))
    flat = X.reshape(-1)
    flat[::3] = np.resize(SPECIAL_FLOATS, len(flat[::3]))
    return X


def _with_nonfinite(x: np.ndarray) -> np.ndarray:
    x[::4] = np.nan
    x[1::8] = np.inf
    x[3::8] = -np.inf
    return x


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("d", (1, 2, 3))
def test_write_rows_matches_reference_loops(d, n):
    rng = np.random.default_rng(100 * d + n)
    X = _floats(rng, n, d)
    tau = rng.integers(1, 20, n)
    calls = rng.integers(0, 20, n)
    fallback = rng.random(n) < 0.3
    labels = np.array(["none", "ball", "center"], dtype="<U6")[rng.integers(0, 3, n)]
    counts = rng.integers(0, 5000, n)
    total = int(counts.sum()) + 1
    masses = _floats(rng, n, 1)[:, 0]
    lr = _with_nonfinite(rng.standard_normal(n))
    sg = _with_nonfinite(np.abs(rng.standard_normal(n)))
    gaps = _floats(rng, n, 1)[:, 0]
    index = np.arange(n)

    cases = [
        (
            helpers.reference_sample_rows,
            (X, tau, fallback, calls),
            (index, *X.T, tau, fallback, calls),
        ),
        (
            helpers.reference_diagnose_rows,
            (X, masses, counts, total, lr, sg, fallback),
            (index, *X.T, masses, counts, counts / total, lr, sg, fallback),
        ),
        (
            helpers.reference_erm_rows,
            (X, tau, labels, calls, gaps),
            (index, *X.T, tau, labels, calls, gaps),
        ),
    ]
    texts = []
    for reference, ref_args, columns in cases:
        want, got = io.StringIO(), io.StringIO()
        reference(want, *ref_args)
        cli._write_rows(got, *columns)
        assert got.getvalue() == want.getvalue(), reference.__name__
        texts.append(want.getvalue())

    if n >= cli.ROW_BLOCK:
        # every special form did occur in the compared text
        text = "".join(texts)
        for token in ("e-05", "e+16", "5e-324", "-0.0", ",nan,", ",inf,", ",-inf,", "center"):
            assert token in text, token


@pytest.mark.parametrize("n", (1, 300))
@pytest.mark.parametrize("dtype", (np.int64, np.int32, np.int8, np.uint8, np.uint16, np.uint64))
def test_write_rows_int_and_special_values_match_reference(dtype, n):
    # ints below, at and above 1024, negative ints, nan/inf/-0.0
    # coordinates and erm's labels, in blocks of one row too
    info = np.iinfo(dtype)
    table = 1024
    pool = (0, 1, table - 1, table, table + 1, info.max, info.min, -1, -table)
    pool = np.array([v for v in pool if info.min <= v <= info.max], dtype=dtype)
    rng = np.random.default_rng(n)
    mixed = pool[rng.integers(0, pool.size, n)]
    small = rng.integers(0, min(table, info.max + 1), n).astype(dtype)
    X = np.resize(np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300]), (n, 2))
    X[:, 1] = rng.standard_normal(n)
    fallback = rng.random(n) < 0.5
    labels = np.array(["none", "ball", "center"], dtype="<U6")[rng.integers(0, 3, n)]
    index = np.arange(n)
    cases = [
        (helpers.reference_sample_rows, (X, mixed, fallback, small), (index, *X.T, mixed, fallback, small)),
        (helpers.reference_sample_rows, (X, small, fallback, mixed), (index, *X.T, small, fallback, mixed)),
        (helpers.reference_erm_rows, (X, mixed, labels, small, X[:, 0]), (index, *X.T, mixed, labels, small, X[:, 0])),
    ]
    for reference, ref_args, columns in cases:
        want, got = io.StringIO(), io.StringIO()
        reference(want, *ref_args)
        cli._write_rows(got, *columns)
        assert got.getvalue() == want.getvalue(), reference.__name__


def test_write_rows_one_bounded_write_per_block():
    n = 2 * cli.ROW_BLOCK + 1
    writes = []
    cli._write_rows(SimpleNamespace(write=writes.append), np.arange(n), np.linspace(-1.0, 1.0, n))
    assert len(writes) == 3
    for block in writes:
        assert block.endswith("\n")
        assert block.count("\n") <= cli.ROW_BLOCK
    assert "".join(writes).count("\n") == n


def _csv(*columns) -> str:
    out = io.StringIO()
    cli._write_rows(out, *columns)
    return out.getvalue()


def _bits_to_float(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# any double: hypothesis' floats (nan, inf and subnormals included), raw bit
# patterns, and the exact path's range with either sign
ANY_DOUBLE = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(_bits_to_float),
    st.floats(1e-4, 1e16, exclude_max=True).flatmap(lambda v: st.sampled_from((v, -v))),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(ANY_DOUBLE, min_size=1, max_size=40))
def test_float_fields_are_repr(values):
    x = np.array(values, dtype=np.float64)
    assert _csv(x) == "".join(f"{v!r}\n" for v in x.tolist())


def test_float_fields_at_the_exact_paths_edges():
    x = helpers.repr_edge_floats()
    assert _csv(x) == "".join(f"{v!r}\n" for v in x.tolist())
    # the same values beside others, in every block position
    rng = np.random.default_rng(7)
    mixed = rng.uniform(-1.0, 1.0, 3 * x.size)
    mixed[rng.permutation(mixed.size)[: x.size]] = x
    assert _csv(mixed) == "".join(f"{v!r}\n" for v in mixed.tolist())


@pytest.mark.parametrize("dtype", (np.int64, np.uint64, np.int32, np.uint32, np.int8, np.uint8))
def test_int_fields_cover_their_dtype(dtype):
    info = np.iinfo(dtype)
    pool = [info.min, info.min + 1, info.max - 1, info.max, 0, 1, -1, 9, 10, 9999, 10000, 10001]
    pool += [10**j + d for j in range(2, 20) for d in (-1, 0)] + [-(10**j) for j in range(2, 19)]
    values = np.array([v for v in pool if info.min <= v <= info.max], dtype=dtype)
    for col in (values, values[values >= 0], values[:1], values[-1:]):
        assert _csv(col) == "".join(f"{v}\n" for v in col.tolist())
    flags = np.array([True, False, True])
    want = "".join(f"{int(b)},{v}\n" for b, v in zip(flags, values[:3].tolist()))
    assert _csv(flags, values[:3]) == want


def test_module_entry_point(seg_file):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "polysamp",
            "params",
            "--polytope",
            str(seg_file),
            "--density",
            "linear:1",
            "--eps",
            "0.5",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "tau_max = 14" in proc.stdout


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run_verbatim(tmp_path, capsys, monkeypatch):
    # every ``$ polysamp`` example, run on the square.txt and instance.txt
    # the README's File formats section gives (comment lines and all), must
    # print what the README shows; a "..." or "# ..." line stands for lines
    # left out. The Python API blocks then run in order, in one namespace.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```", text, re.S | re.M)
    for name, first_line in (("square.txt", "# the square"), ("instance.txt", "# feasible set")):
        (tmp_path / name).write_text(next(b for b in blocks if b.startswith(first_line)))
    monkeypatch.chdir(tmp_path)
    examples = [b for b in blocks if b.startswith("$ polysamp ")]
    commands = []
    for block in examples:
        command, shown = re.fullmatch(r"\$ polysamp ((?:.*\\\n)*.*\n)((?s:.*))", block).groups()
        argv = shlex.split(command.replace("\\\n", ""))
        commands.append(argv[0])
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, argv
        pattern = "".join(
            r"(?:.*\n)*?" if line in ("...", "# ...") else re.escape(line) + r"\n"
            for line in shown.splitlines()
        )
        assert re.fullmatch(pattern, out), (argv, out)
    assert commands == ["params", "sample", "diagnose", "erm"]
    namespace = {}
    for block in re.findall(r"^```python\n(.*?)^```", text, re.S | re.M):
        exec(block, namespace)
    assert len(namespace["points"]) == 10_000 and "total" in namespace
