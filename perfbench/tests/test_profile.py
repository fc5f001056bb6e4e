"""paper_eval's model profile is the repo's bench profile."""

import ast
import os

from conftest import ROOT
from repro.core.pipeline import ModelConfig


def _bench_profile() -> ModelConfig:
    """``BENCH_MODEL_CONFIG`` of ``benchmarks/conftest.py``, not imported."""
    with open(os.path.join(ROOT, "benchmarks", "conftest.py")) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["BENCH_MODEL_CONFIG"]):
            return ModelConfig(**{k.arg: ast.literal_eval(k.value)
                                  for k in node.value.keywords})
    raise AssertionError("benchmarks/conftest.py has no BENCH_MODEL_CONFIG")


def test_paper_eval_runs_the_bench_profile():
    import workloads

    assert workloads.BENCH_MODEL_CONFIG == _bench_profile()
