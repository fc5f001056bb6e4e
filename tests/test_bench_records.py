"""Each bench's obs record holds only the metrics that bench emitted.

Two fake benches run in one pytest session against a copy of
``benchmarks/conftest.py``; their records in ``obs_metrics.json`` must
not share a gauge.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

BENCH = """\
from repro import obs


def test_{name}():
    obs.set_gauge("{name}.only", 1.0)
"""


def test_benches_in_one_session_get_disjoint_records(tmp_path):
    for helper in ("conftest.py", "_bench_utils.py"):
        shutil.copy(REPO_ROOT / "benchmarks" / helper, tmp_path)
    for name in ("first", "second"):
        (tmp_path / f"bench_{name}.py").write_text(BENCH.format(name=name))
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", "python_files=bench_*.py", "bench_first.py",
         "bench_second.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    records = json.loads((tmp_path / "results" / "obs_metrics.json")
                         .read_text())
    first = records["test_first"]["registry"]["gauges"]
    second = records["test_second"]["registry"]["gauges"]
    assert set(first) == {"first.only"}
    assert set(second) == {"second.only"}
