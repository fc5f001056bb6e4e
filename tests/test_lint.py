"""Wire tools/lint.py into the tier-1 suite.

The detection table plants a snippet at a virtual path under src/repro
(scope comes only from the path) and names every ``(line, rule id)`` the
engine must report there -- across all rules, not only the one a row is
about.
"""

import ast
import pathlib
import shutil
import subprocess
import sys
import textwrap
from fnmatch import fnmatchcase

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
LINT = REPO_ROOT / "tools" / "lint.py"

sys.path.insert(0, str(REPO_ROOT / "tools"))
import lint  # noqa: E402

CLOCK_READ = """\
    import time
    def now():
        return time.monotonic()
"""
LOG_SHED = """\
    from repro import obs

    _LOG = obs.get_logger("gateway.x")

    def shed(n):
        obs.inc("gateway.shed_total")
        _LOG.warning("request shed", trace_id="t-1"{})
"""
LOG_TRIP = """\
    from repro import obs

    _LOG = obs.get_logger("rollout")

    def trip(reason):
        _LOG.warning("guard tripped", trace_id="t-1"{})
"""
GUARD = """\
    from repro import obs

    def evaluate(self, stage):
        {}
        return all(self._checks)
"""
EXCEPT = """\
    def f():
        try:
            risky()
        except {}:
            {}
"""
NO_OBS = "def handle(batch):\n    return [1.0 for _ in batch]\n"
FIT = "def handler(model, X, y):\n    model.fit(X, y)\n"
POOL = "import multiprocessing\npool = multiprocessing.Pool(2)\n"
GET_CONTEXT_POOL = ("import multiprocessing\n"
                    "pool = multiprocessing.get_context('fork').Pool(2)\n")
SEED = "import numpy as np\nnp.random.seed(1)\n"
SLEEP = "import time\ntime.sleep(0.01)\n"
REGISTRY_STATE = """\
    import json
    import os

    ROLLOUT_STATE_FILE = "serving.json"

    def _write_rollout_state(path, state):
        tmp = path / (ROLLOUT_STATE_FILE + ".tmp")
        tmp.write_text(json.dumps(state))
        os.replace(tmp, path / ROLLOUT_STATE_FILE)

    def hotfix_pin(path, version):
        (path / ROLLOUT_STATE_FILE).write_text(
            json.dumps({"serving": version}))
"""
REGISTRY_READER = """\
    import json

    ROLLOUT_STATE_FILE = "serving.json"

    def rollout_state(path):
        target = path / ROLLOUT_STATE_FILE
        if not target.exists():
            return {}
        return json.loads(target.read_text())
"""

#: (id, virtual path under src/repro, snippet, expected (line, rule id)s)
ROWS = [
    # -- colstore ---------------------------------------------------------- #
    ("colstore.eager_np_load_flagged", "colstore/manifest.py",
     "import numpy as np\n\ndef load_shard(path):\n    return np.load(path)\n",
     {(4, "colstore.mmap-load")}),
    ("colstore.mmapped_np_load_clean", "colstore/manifest.py",
     "import numpy as np\n\ndef load_shard(path):\n"
     "    return np.load(path, mmap_mode='r')\n", set()),
    ("colstore.concat_outside_read_table_flagged", "colstore/reader.py",
     "import numpy as np\n\ndef iter_chunks(chunks):\n"
     "    return np.concatenate([c for c in chunks])\n",
     {(4, "colstore.full-gather"), (1, "colstore.obs-metric")}),
    ("colstore.concat_inside_read_table_allowed", "colstore/reader.py",
     "import numpy as np\n\ndef read_table(chunks):\n"
     "    return np.concatenate([c for c in chunks])\n",
     {(1, "colstore.obs-metric")}),
    ("colstore.concat_outside_reader_module_ignored", "colstore/writer.py",
     "import numpy as np\n\ndef flush(parts):\n"
     "    return np.concatenate(parts)\n", {(1, "colstore.obs-metric")}),
    ("colstore.missing_obs_metric_flagged", "colstore/reader.py",
     "def read_chunk(i):\n    return i\n", {(1, "colstore.obs-metric")}),
    ("colstore.colstore_obs_metric_satisfies_rule", "colstore/reader.py",
     "from repro import obs\n\ndef read_chunk(i):\n"
     "    obs.inc('colstore.chunks_read_total')\n    return i\n", set()),
    ("colstore.wrong_prefix_obs_metric_still_flagged", "colstore/writer.py",
     "from repro import obs\n\ndef flush():\n    obs.inc('other.counter')\n",
     {(1, "colstore.obs-metric")}),
    ("colstore.check_reports_relative_paths", "colstore/bad.py",
     "import numpy as np\nx = np.load('f')\n", {(2, "colstore.mmap-load")}),
    # -- fstore ------------------------------------------------------------ #
    ("fstore.flags_datasets_import_on_online_path", "fstore/ops.py",
     "from repro.datasets.frame import Table\n",
     {(1, "fstore.online-tables")}),
    ("fstore.flags_plain_and_aliased_package_imports", "fstore/views.py",
     "import repro.datasets.frame\nfrom repro import datasets\n",
     {(1, "fstore.online-tables"), (2, "fstore.online-tables")}),
    ("fstore.offline_modules_may_use_tables", "core/pipeline.py",
     "from repro.datasets.frame import Table\n", set()),
    ("fstore.check_walks_a_tree", "serve/service.py",
     "from repro.datasets.frame import Table\n",
     {(1, "fstore.online-tables"), (1, "serve.obs")}),
    # -- gateway ----------------------------------------------------------- #
    ("gateway.flags_fit_call", "gateway/routing.py", FIT,
     {(2, "gateway.no-fit")}),
    ("gateway.flags_time_sleep_in_coroutine", "gateway/routing.py",
     "import time\n\nasync def handle(req):\n    time.sleep(0.1)\n",
     {(4, "gateway.async-blocking"), (4, "resil.raw-sleep")}),
    ("gateway.flags_future_result_in_coroutine", "gateway/routing.py",
     "async def settle(fut):\n    return fut.result()\n",
     {(2, "gateway.async-blocking")}),
    ("gateway.flags_join_in_coroutine", "gateway/routing.py",
     "async def stop(worker):\n    worker.join()\n",
     {(2, "gateway.async-blocking")}),
    ("gateway.flags_open_in_coroutine", "gateway/routing.py",
     "async def dump(path):\n    with open(path) as f:\n"
     "        return f.read()\n", {(2, "gateway.async-blocking")}),
    ("gateway.blocking_calls_fine_outside_coroutines", "gateway/routing.py",
     """\
        import time

        def sync_helper(fut, path):
            time.sleep(0.0)
            with open(path) as f:
                f.read()
            return fut.result()
     """, {(4, "resil.raw-sleep")}),
    ("gateway.await_wrap_future_is_clean", "gateway/routing.py",
     "import asyncio\n\nasync def settle(fut):\n"
     "    return await asyncio.wrap_future(fut)\n", set()),
    ("gateway.flags_log_line_missing_trace_or_shard", "gateway/shard.py",
     LOG_SHED.format(""), {(7, "gateway.log-fields")}),
    ("gateway.complete_log_line_is_clean", "gateway/shard.py",
     LOG_SHED.format(", shard=2"), set()),
    ("gateway.flags_missing_obs_on_request_path", "gateway/shard.py", NO_OBS,
     {(1, "gateway.obs")}),
    ("gateway.check_walks_a_tree", "gateway/gateway.py",
     "async def f():\n    import time\n    time.sleep(1)\n",
     {(3, "gateway.async-blocking"), (3, "resil.raw-sleep"),
      (1, "gateway.obs")}),
    # -- obs --------------------------------------------------------------- #
    ("obs.flags_bare_print", "core/mod.py",
     "def f():\n    print('debugging')\n", {(2, "obs.print")}),
    ("obs.flags_time_time", "core/mod.py", "import time\nt0 = time.time()\n",
     {(2, "obs.wall-clock")}),
    ("obs.perf_counter_and_docstrings_allowed", "core/mod.py",
     '"""Example: print("hi") inside a docstring is fine."""\n'
     "import time\nt0 = time.perf_counter()\n", set()),
    ("obs.allowlist_honoured.viz", "viz/plot.py", "print('table')\n", set()),
    ("obs.allowlist_honoured.cli", "cli.py", "print('result')\n", set()),
    ("obs.flags_clock_read_in_telemetry_code", "obs/telemetry/window.py",
     CLOCK_READ, {(3, "obs.telemetry-clock")}),
    ("obs.perf_counter_also_forbidden_in_telemetry", "obs/telemetry/plane.py",
     "import time\nt0 = time.perf_counter()\n",
     {(2, "obs.telemetry-clock")}),
    ("obs.clock_module_itself_is_exempt", "obs/telemetry/clock.py",
     CLOCK_READ, set()),
    ("obs.clock_read_fine_outside_telemetry", "serve/batcher.py", CLOCK_READ,
     {(1, "serve.obs")}),
    ("obs.flags_serve_log_without_trace_id", "serve/service.py",
     "_LOG.warning('request failed', error='boom')\n",
     {(1, "obs.serve-trace-id"), (1, "serve.obs")}),
    ("obs.serve_log_with_trace_id_passes", "serve/service.py",
     "_LOG.warning('request failed', trace_id=tid, error='boom')\n",
     {(1, "serve.obs")}),
    ("obs.untraced_log_fine_outside_serve", "sim/campaign.py",
     "_LOG.warning('pass crashed', area='Airport')\n", set()),
    # -- par --------------------------------------------------------------- #
    ("par.flags_multiprocessing_pool", "sim/mod.py", POOL,
     {(2, "par.raw-pool")}),
    ("par.flags_get_context_pool", "sim/mod.py", GET_CONTEXT_POOL,
     {(2, "par.raw-pool")}),
    ("par.flags_process_pool_executor_import", "sim/mod.py",
     "from concurrent.futures import ProcessPoolExecutor\n",
     {(1, "par.raw-pool")}),
    ("par.flags_global_numpy_seed", "sim/mod.py", SEED,
     {(2, "par.global-seed")}),
    ("par.flags_seed_import", "sim/mod.py", "from numpy.random import seed\n",
     {(1, "par.global-seed")}),
    ("par.generators_and_default_rng_allowed", "sim/mod.py",
     "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.uniform()\n"
     "ss = np.random.SeedSequence(3)\n", set()),
    ("par.pools_allowed_inside_par", "par/executor.py", GET_CONTEXT_POOL,
     set()),
    ("par.seed_flagged_even_where_pools_allowed", "par/executor.py", SEED,
     {(2, "par.global-seed")}),
    ("par.allowlist_honoured_in_tree_check", "par/executor.py", POOL, set()),
    # -- resil ------------------------------------------------------------- #
    ("resil.flags_time_sleep_call", "sim/mod.py",
     "import time\nfor _ in range(3):\n    time.sleep(0.1)\n",
     {(3, "resil.raw-sleep")}),
    ("resil.flags_sleep_import", "sim/mod.py", "from time import sleep\n",
     {(1, "resil.raw-sleep")}),
    ("resil.sleep_as_injectable_default_allowed", "sim/mod.py",
     "import time\n\ndef fetch(url, sleep=time.sleep):\n    return sleep\n",
     set()),
    ("resil.sleep_allowed_inside_resil", "resil/retry.py", SLEEP, set()),
    ("resil.flags_silent_broad_except", "sim/mod.py",
     EXCEPT.format("Exception", "return None"),
     {(4, "resil.silent-except")}),
    ("resil.flags_silent_bare_except", "sim/mod.py",
     EXCEPT.format("", "pass"),
     {(4, "resil.silent-except")}),
    ("resil.flags_broad_except_in_tuple", "sim/mod.py",
     EXCEPT.format("(ValueError, Exception)", "return 1"),
     {(4, "resil.silent-except")}),
    ("resil.broad_except_with_obs_counter_allowed", "sim/mod.py",
     "from repro import obs\n\n" + textwrap.dedent(EXCEPT).format(
         "Exception", "obs.inc('mod.failures_total')"), set()),
    ("resil.broad_except_with_reraise_allowed", "sim/mod.py",
     EXCEPT.format("Exception as exc",
                   "raise RuntimeError('wrapped') from exc"), set()),
    ("resil.narrow_except_allowed", "sim/mod.py",
     EXCEPT.format("FileNotFoundError", "return None"), set()),
    ("resil.broad_except_flagged_even_where_sleep_allowed", "resil/retry.py",
     EXCEPT.format("Exception", "return None"),
     {(4, "resil.silent-except")}),
    ("resil.allowlist_honoured_in_tree_check", "resil/retry.py", SLEEP,
     set()),
    # -- rollout ----------------------------------------------------------- #
    ("rollout.flags_state_file_literal_outside_registry", "sim/mod.py", """\
        import json

        def sneak(path, version):
            (path / "serving.json").write_text(
                json.dumps({"serving": version}))
     """, {(4, "rollout.state-file")}),
    ("rollout.flags_state_name_outside_registry", "sim/mod.py",
     "from repro.serve.registry import ROLLOUT_STATE_FILE\n\n"
     "def peek(root):\n    return (root / ROLLOUT_STATE_FILE).read_text()\n",
     {(4, "rollout.state-file")}),
    ("rollout.all_reexport_string_is_clean", "sim/mod.py",
     "__all__ = ['ROLLOUT_STATE_FILE', 'ModelRegistry']\n", set()),
    ("rollout.flags_second_writer_inside_registry", "serve/registry.py",
     REGISTRY_STATE, {(11, "rollout.state-writer"), (1, "serve.obs")}),
    ("rollout.registry_reader_is_clean", "serve/registry.py",
     REGISTRY_READER, {(1, "serve.obs")}),
    ("rollout.flags_promotion_call_outside_rollout", "sim/mod.py",
     "def hotswap(registry, name, version):\n"
     "    registry.promote_serving(name, version)\n",
     {(2, "rollout.promotion-site")}),
    ("rollout.promotion_call_inside_rollout_is_clean", "rollout/controller.py",
     "def promote(registry, name, version):\n"
     "    registry.promote_serving(name, version)\n", set()),
    ("rollout.promotion_call_in_gateway_is_clean", "gateway/gateway.py",
     "def set_shadow(self, model, version):\n    self.clear_shadow()\n",
     {(1, "gateway.obs")}),
    ("rollout.flags_unobserved_guard_evaluation", "rollout/guard.py",
     GUARD.format("pass"), {(3, "rollout.guard-counter")}),
    ("rollout.observed_guard_evaluation_is_clean", "rollout/guard.py",
     GUARD.format("obs.inc('rollout.guard_evaluations_total')"), set()),
    ("rollout.flags_rollout_log_missing_candidate", "rollout/controller.py",
     LOG_TRIP.format(""), {(6, "rollout.log-fields")}),
    ("rollout.complete_rollout_log_is_clean", "rollout/controller.py",
     LOG_TRIP.format(", candidate='v2'"), set()),
    ("rollout.check_walks_a_tree.guard", "rollout/guard.py",
     "def evaluate(self):\n    return True\n",
     {(1, "rollout.guard-counter")}),
    ("rollout.check_walks_a_tree.elsewhere", "elsewhere.py",
     "def sneak(registry):\n    registry.pin_serving('m', 3)\n",
     {(2, "rollout.promotion-site")}),
    # -- serve ------------------------------------------------------------- #
    ("serve.flags_fit_call", "serve/protocol.py", FIT,
     {(2, "serve.no-fit")}),
    ("serve.flags_fit_transform", "serve/protocol.py",
     "def prep(scaler, X):\n    return scaler.fit_transform(X)\n",
     {(2, "serve.no-fit")}),
    ("serve.flags_missing_obs_on_request_path", "serve/service.py", NO_OBS,
     {(1, "serve.obs")}),
    ("serve.obs_call_satisfies_requirement", "serve/service.py",
     "from repro import obs\n\ndef handle(batch):\n"
     "    obs.inc('serve.requests_total', len(batch))\n"
     "    return [1.0 for _ in batch]\n", set()),
    ("serve.plain_module_without_obs_allowed", "serve/protocol.py",
     "MAX_BATCH = 64\n", set()),
    ("serve.check_walks_a_tree", "serve/service.py",
     "def f(m, X, y):\n    m.fit(X, y)\n",
     {(2, "serve.no-fit"), (1, "serve.obs")}),
    # -- tree -------------------------------------------------------------- #
    ("tree.flags_fit_reference_call", "ml/gbdt.py",
     "def train(tree, binned, grad, hess):\n"
     "    return tree.fit_reference(binned, grad, hess)\n",
     {(2, "tree.reference-call")}),
    ("tree.flags_slow_traversal_call", "ml/gbdt.py",
     "def infer(tree, binned):\n    return tree.predict_binned_slow(binned)\n",
     {(2, "tree.reference-call")}),
    ("tree.fast_calls_allowed", "ml/gbdt.py",
     "def train(tree, binned, grad, hess):\n"
     "    tree.fit(binned, grad, hess)\n"
     "    return tree.predict_binned(binned)\n", set()),
    ("tree.flags_row_gather_on_hot_path", "ml/tree.py",
     "def _grow(binned, grad, idx):\n    codes = binned[idx]\n"
     "    g = grad[idx]\n    return codes, g\n",
     {(2, "tree.row-gather"), (3, "tree.row-gather")}),
    ("tree.row_gather_allowed_in_reference_functions", "ml/tree.py",
     "def _grow_reference(binned, grad, idx):\n"
     "    return binned[idx], grad[idx]\n", set()),
    ("tree.row_gather_allowed_in_grower_gather", "ml/tree.py",
     "class _Grower:\n    def _gather(self, binned, grad, hess, r):\n"
     "        return binned[r], grad[r], hess[r]\n", set()),
    ("tree.grower_gather_is_the_only_one_allowed", "ml/tree.py",
     "def _sweep(binned, rows):\n    return binned[rows]\n",
     {(2, "tree.row-gather")}),
    ("tree.row_gather_ignored_off_hot_path", "ml/gbdt.py",
     "def subsample(binned, rows):\n    return binned[rows]\n", set()),
    ("tree.slice_indexing_not_flagged", "ml/tree.py",
     "def _partition(binned, s, e):\n    return binned[s:e]\n", set()),
    ("tree.check_walks_a_tree", "ml/tree.py",
     "def helper(binned, idx):\n    return binned[idx]\n",
     {(2, "tree.row-gather")}),
]


@pytest.mark.parametrize(
    "path, source, expected",
    [pytest.param(*row[1:], id=row[0]) for row in ROWS],
)
def test_detection(path, source, expected):
    assert set(lint.lint_source(path, textwrap.dedent(source))) == expected


FAMILIES = sorted({rule.id.split(".")[0] for rule in lint.RULES})


def _family(family):
    return [rule for rule in lint.RULES if rule.id.startswith(family + ".")]


@pytest.fixture(scope="module")
def tree_violations():
    return lint.lint()


@pytest.mark.parametrize("family", FAMILIES)
def test_tree_is_clean(tree_violations, family):
    assert _family(family)
    assert [v for v in tree_violations if f": {family}." in v] == []


@pytest.fixture(scope="module")
def cli_run():
    return subprocess.run([sys.executable, str(LINT)],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("family", FAMILIES)
def test_script_exit_code_zero(cli_run, family):
    """The CLI on the real tree reports nothing for any family's rules."""
    assert cli_run.returncode == 0, cli_run.stderr
    assert cli_run.stdout == "lint: OK\n"
    assert f": {family}." not in cli_run.stderr


def test_script_exit_code_one_on_violation(tmp_path):
    """A copy of the tool that lints a one-file tree with one violation."""
    script = tmp_path / "tools" / "lint.py"
    bad = tmp_path / "src" / "repro" / "colstore" / "bad.py"
    for path in (script, bad):
        path.parent.mkdir(parents=True)
    shutil.copy(LINT, script)
    bad.write_text("import numpy as np\nx = np.load('f')\n")
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "src/repro/colstore/bad.py:2: colstore.mmap-load: "
        + lint._BY_ID["colstore.mmap-load"].message,
        "lint: 1 violation(s)",
    ]


def test_src_telemetry_tree_is_scoped():
    """The real clock module is clean only at its own path: the same
    source placed elsewhere in obs/telemetry/ is flagged."""
    clock = (lint.SRC_ROOT / "obs" / "telemetry" / "clock.py").read_text()
    assert lint.lint_source("obs/telemetry/clock.py", clock) == []
    found = lint.lint_source("obs/telemetry/other.py", clock)
    assert found and {rule for _, rule in found} == {"obs.telemetry-clock"}


@pytest.fixture(scope="module")
def defined_functions():
    src = lint.SRC_ROOT
    return {
        p.relative_to(src).as_posix(): {
            n.name for n in ast.walk(ast.parse(p.read_text()))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for p in src.rglob("*.py")
    }


_EXISTENCE = (
    [pytest.param(f, "paths", id=f"{f}-paths") for f in FAMILIES]
    + [pytest.param(f, "functions", id=f"{f}-functions") for f in FAMILIES
       if any(r.exempt_funcs or r.function for r in _family(f))]
    + [pytest.param("rollout", "registry", id="rollout-registry")]
)


@pytest.mark.parametrize("family, aspect", _EXISTENCE)
def test_every_rule_checks_something(defined_functions, family, aspect):
    """Every path, directory and function the table names exists, so a
    rename cannot leave a rule silently checking nothing."""
    defs = defined_functions
    if aspect == "registry":
        from repro.serve import ModelRegistry

        for name in lint.PROMOTION_METHODS:
            assert hasattr(ModelRegistry, name), name
        return
    for rule in _family(family):
        if aspect == "paths":
            for glob in rule.scope + rule.exempt:
                assert any(fnmatchcase(rel, glob) for rel in defs), (
                    rule.id, glob)
            continue
        names = set().union(*(defs[rel] for rel in defs if rule.applies(rel)))
        for func in rule.exempt_funcs:
            assert func in names, (rule.id, func)
        if rule.function:
            assert any(n.startswith(rule.function) for n in names), rule.id
