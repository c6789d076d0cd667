"""Smoke test of the benchmark harness itself.

Run from the repository root: ``python -m pytest bench/test_smoke.py``.
It runs ``bench/run.py --smoke`` (every workload once at a tiny n, untraced
and traced) and checks that every metric BENCHMARK.json names is printed
for every workload, with its unit and a finite value.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_prints_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

    printed = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4:
            workload, name, value, unit = fields
            printed[workload, name] = (float(value), unit)

    wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]]
    wanted.append(("fail_rate", "ratio"))
    for w in spec["workloads"]:
        for name, unit in wanted:
            value, got_unit = printed[w["name"], name]
            assert got_unit == unit, (w["name"], name)
            assert math.isfinite(value), (w["name"], name)
        assert printed[w["name"], "fail_rate"][0] == 0.0
