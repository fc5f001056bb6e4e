"""The benchmark's import surface stays intact.

``perfbench/`` wraps public names of the package by attribute
(``workloads.instrument``), so renaming or removing one breaks the
benchmark without failing any package test.  Both checks run in a
subprocess: the instrumentation check with ``perfbench/run.py``'s
``sys.path`` (``src`` then ``perfbench`` in front), and the benchmark's
own unit tests in a pytest session of their own -- collected in this
one, their ``from conftest import ROOT`` would resolve to a conftest of
this suite instead of ``perfbench/tests/conftest.py``.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTRUMENT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
from tracer import SpanRecorder
recorder = SpanRecorder()
workloads.instrument(recorder, {{"batches": 0, "predicted_rows": 0,
                                 "cache_hits": 0}})
recorder.restore()
"""


def _run(args):
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_instrument_wraps_every_public_name():
    code = INSTRUMENT.format(src=os.path.join(ROOT, "src"),
                             bench=os.path.join(ROOT, "perfbench"))
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr


def test_perfbench_unit_tests_pass():
    proc = _run(["-m", "pytest", "perfbench/tests", "-q"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
