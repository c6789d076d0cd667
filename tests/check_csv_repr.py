"""Check that every float the CSV writer prints is repr's.

    PYTHONPATH=src:tests python tests/check_csv_repr.py [CSV ...]

First compares ``cli._write_rows`` with ``"\\n".join(map(repr, ...))`` on
10^6 random float64 bit patterns, 10^6 random doubles in the writer's exact
range and ``helpers.repr_edge_floats()``. Then, in each CSV file named,
checks ``repr(float(s)) == s`` for every data field that is neither an int
nor a label. Exits 1 at the first difference.
"""

from __future__ import annotations

import io
import sys

import numpy as np

import helpers
from polysamp import cli


def writer_matches_repr(n: int = 10**6, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    # bit patterns from 1e-4 up to 1e16, either sign: the exact path's range
    ends = np.array([1e-4, 1e16]).view(np.uint64)
    signs = rng.integers(0, 2, n, dtype=np.uint64) << 63
    in_range = rng.integers(ends[0], ends[1], n, dtype=np.uint64) | signs
    x = np.concatenate(
        [
            rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
            in_range.view(np.float64),
            helpers.repr_edge_floats(),
        ]
    )
    out = io.StringIO()
    cli._write_rows(out, x)
    got = out.getvalue().splitlines()
    for v, s in zip(x.tolist(), got):
        if s != repr(v):
            sys.exit(f"writer prints {s!r} for {v!r}")
    if len(got) != x.size:
        sys.exit(f"writer printed {len(got)} rows for {x.size} values")
    print(f"writer: {x.size} doubles print as repr")


def fields_are_repr(path: str) -> None:
    checked = 0
    with open(path, encoding="ascii") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    for row, line in enumerate(lines[1:], start=1):
        for s in line.split(","):
            try:
                int(s)
                continue
            except ValueError:
                pass
            try:
                v = float(s)
            except ValueError:
                continue  # a label (erm's fallback column)
            if repr(v) != s:
                sys.exit(f"{path}: data row {row} has {s!r}, repr is {v!r}")
            checked += 1
    if not checked:
        sys.exit(f"{path}: no float fields")
    print(f"{path}: {checked} float fields are repr's")


if __name__ == "__main__":
    writer_matches_repr()
    for path in sys.argv[1:]:
        fields_are_repr(path)
