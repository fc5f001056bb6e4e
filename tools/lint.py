#!/usr/bin/env python3
"""Lint: the invariants the reproduction rests on, as one rule table.

Every file under ``src/repro/`` is parsed once and checked against
:data:`RULES`.  A rule applies to a file when the file's path, relative
to ``src/repro``, matches one of its ``scope`` globs and none of its
``exempt`` globs (``*`` also matches ``/``).  Each rule is one of four
kinds:

* ``BANNED`` -- a node matching ``match`` is a violation, unless it sits
  inside a function named in ``exempt_funcs``; ``in_async`` limits the
  rule to ``async def`` bodies.
* ``REQUIRES_OBS`` -- the file must contain a call matching ``match``
  (reported at line 1); with ``function`` set, each function whose
  name starts with it must contain one (reported at its ``def``).
* ``LOG_FIELDS`` -- every call matching ``match`` must pass each of
  ``fields`` as a keyword.
* ``SINGLE_WRITER`` -- only the function named ``function`` may both
  contain a node matching ``match`` and make a write call.

Run ``python tools/lint.py``: it prints ``lint: OK`` and exits 0, or
prints one ``path:line: rule-id: message`` line per violation to stderr,
then ``lint: N violation(s)``, and exits 1.  ``tests/test_lint.py`` runs
it in the tier-1 suite.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Callable

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"

BANNED = "banned"
REQUIRES_OBS = "requires-obs"
LOG_FIELDS = "log-fields"
SINGLE_WRITER = "single-writer"

#: Registry methods that move a rollout forward or back.  The gateway's
#: own shadow/canary install methods share these names.
PROMOTION_METHODS = frozenset({
    "pin_serving", "unpin_serving", "promote_serving", "reject_candidate",
    "set_shadow", "clear_shadow", "set_canary", "clear_canary",
})

#: The tree's reference implementations (defined to be slow), plus the
#: grower's per-chunk ``_gather``, whose row copy is bounded by
#: ``chunk_rows``: the only functions that may gather rows or call a
#: reference implementation.
SLOW_FUNCS = frozenset({
    "fit_reference", "_grow_reference", "predict_binned_slow", "apply_slow",
    "_gather",
})

_FIT_METHODS = {"fit", "fit_transform", "partial_fit"}
_POOLS = {"Pool", "ProcessPoolExecutor"}
_WRITE_CALLS = {"write_text", "replace", "rename", "open", "dump", "write"}
_DATASETS = "repro.datasets"


def _chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``[]`` unless a plain chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id, *reversed(parts)]
    return []


def _called(node: ast.AST) -> str | None:
    """The name a call invokes: ``f(...)`` or ``<expr>.f(...)``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _method(*names: str) -> Callable[[ast.AST], bool]:
    """A call of ``<expr>.name(...)`` for one of ``names``."""
    return lambda n: (isinstance(n, ast.Call)
                      and isinstance(n.func, ast.Attribute)
                      and n.func.attr in names)


def _dotted(*names: str) -> Callable[[ast.AST], bool]:
    """A call of exactly one of the dotted ``names`` (``"time.sleep"``)."""
    wanted = {tuple(name.split(".")) for name in names}
    return lambda n: (isinstance(n, ast.Call)
                      and tuple(_chain(n.func)) in wanted)


def _imports(modules: tuple[str, ...], *names: str):
    """``from <one of modules> import <one of names>``."""
    return lambda n: (isinstance(n, ast.ImportFrom) and n.module in modules
                      and any(a.name in names for a in n.names))


def _obs(methods: tuple[str, ...] = (), prefix: str | None = None):
    """``obs.<method>(...)``; optionally only ``methods``, and only with
    a string first argument (the metric name) starting with ``prefix``."""
    def match(n: ast.AST) -> bool:
        if not isinstance(n, ast.Call):
            return False
        chain = _chain(n.func)
        if (len(chain) != 2 or chain[0] != "obs"
                or (methods and chain[1] not in methods)):
            return False
        return prefix is None or bool(
            n.args and isinstance(n.args[0], ast.Constant)
            and isinstance(n.args[0].value, str)
            and n.args[0].value.startswith(prefix))
    return match


def _logger(n: ast.AST) -> bool:
    """``_LOG.<level>(...)``: a module's structured logger."""
    chain = _chain(n.func) if isinstance(n, ast.Call) else []
    return len(chain) == 2 and chain[0] == "_LOG"


def _loggerish(n: ast.AST) -> bool:
    """``<name containing "log">.debug/info/warning/error(...)``."""
    chain = _chain(n.func) if isinstance(n, ast.Call) else []
    return (len(chain) == 2 and "log" in chain[0].lower()
            and chain[1] in ("debug", "info", "warning", "error"))


def _any(*preds: Callable[[ast.AST], bool]) -> Callable[[ast.AST], bool]:
    return lambda n: any(pred(n) for pred in preds)


def _eager_np_load(n: ast.AST) -> bool:
    return (isinstance(n, ast.Call) and _chain(n.func) == ["np", "load"]
            and not any(kw.arg == "mmap_mode" for kw in n.keywords))


def _imports_datasets(n: ast.AST) -> bool:
    def under(module: str) -> bool:
        return module == _DATASETS or module.startswith(_DATASETS + ".")
    if isinstance(n, ast.Import):
        return any(under(alias.name) for alias in n.names)
    if isinstance(n, ast.ImportFrom):
        module = n.module or ""
        return under(module) or (module == "repro" and any(
            alias.name == "datasets" for alias in n.names))
    return False


def _global_seed(n: ast.AST) -> bool:
    chain = _chain(n.func) if isinstance(n, ast.Call) else []
    return chain[-2:] == ["random", "seed"]


def _silent_broad_except(n: ast.AST) -> bool:
    """A bare/``Exception``/``BaseException`` handler that neither
    re-raises nor makes an ``obs.*`` call."""
    if not isinstance(n, ast.ExceptHandler):
        return False
    types = n.type.elts if isinstance(n.type, ast.Tuple) else [n.type]
    broad = n.type is None or any(
        _chain(t)[-1:] in (["Exception"], ["BaseException"]) for t in types)
    return broad and not any(
        isinstance(inner, ast.Raise)
        or (isinstance(inner, ast.Call) and len(_chain(inner.func)) >= 2
            and _chain(inner.func)[0] == "obs")
        for inner in ast.walk(n))


def _state_ref(n: ast.AST) -> bool:
    """The rollout state file: its literal name or its module constant
    (the string ``"ROLLOUT_STATE_FILE"`` in an ``__all__`` is fine)."""
    return ((isinstance(n, ast.Constant) and n.value == "serving.json")
            or (isinstance(n, ast.Name) and n.id == "ROLLOUT_STATE_FILE"))


def _row_gather(n: ast.AST) -> bool:
    """``binned[idx]``-style fancy-indexed row copy (not a slice)."""
    return (isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
            and n.value.id in ("binned", "grad", "hess", "codes_node")
            and isinstance(n.slice, ast.Name))


@dataclass(frozen=True)
class Rule:
    id: str
    kind: str
    scope: tuple[str, ...]
    match: Callable[[ast.AST], bool]
    message: str
    exempt: tuple[str, ...] = ()
    exempt_funcs: frozenset[str] = frozenset()
    in_async: bool = False
    fields: frozenset[str] = frozenset()
    function: str = ""

    def applies(self, rel: str) -> bool:
        return (any(fnmatchcase(rel, g) for g in self.scope)
                and not any(fnmatchcase(rel, g) for g in self.exempt))


_NO_DIAGNOSTICS = ("viz/*", "cli.py")  # figure code and the CLI print
_GATEWAY_REQUEST_PATH = ("gateway/gateway.py", "gateway/shard.py",
                         "gateway/procworker.py")

RULES: tuple[Rule, ...] = (
    Rule("colstore.mmap-load", BANNED, ("colstore/*",), _eager_np_load,
         "np.load without mmap_mode; shard reads must be memory-mapped "
         "to stay out-of-core"),
    Rule("colstore.full-gather", BANNED, ("colstore/reader.py",),
         _method("concat", "concatenate"),
         "full-store concat on a streaming path; gathering every chunk "
         "belongs only in ChunkReader.read_table",
         exempt_funcs=frozenset({"read_table"})),
    Rule("colstore.obs-metric", REQUIRES_OBS,
         ("colstore/reader.py", "colstore/writer.py"),
         _obs(("inc", "observe", "set_gauge"), "colstore."),
         "no colstore.* obs metric emitted; the chunk read/write hot "
         "paths must stay observable (obs.inc/observe/set_gauge)"),
    Rule("fstore.online-tables", BANNED,
         ("fstore/ops.py", "fstore/views.py", "fstore/online.py", "serve/*"),
         _imports_datasets,
         "repro.datasets import on the online feature path; request "
         "serving must stay table-free (duck-typed mappings only)"),
    Rule("gateway.no-fit", BANNED, ("gateway/*",), _method(*_FIT_METHODS),
         "model fitting in repro/gateway; it serves registry versions"),
    Rule("gateway.async-blocking", BANNED, ("gateway/*",),
         _any(_dotted("time.sleep", "open"), _method("result", "join")),
         "blocking call inside an async def stalls the event loop; use "
         "`await asyncio.sleep`/`asyncio.wrap_future` or do file I/O "
         "off-loop", in_async=True),
    Rule("gateway.log-fields", LOG_FIELDS, _GATEWAY_REQUEST_PATH, _logger,
         "gateway log line without trace_id= and shard=; every "
         "request-path event must be joinable to its trace and shard",
         fields=frozenset({"trace_id", "shard"})),
    Rule("gateway.obs", REQUIRES_OBS, _GATEWAY_REQUEST_PATH, _obs(),
         "request-path module without any repro.obs instrumentation "
         "(shed/crash/latency metrics are part of the gateway contract)"),
    Rule("obs.print", BANNED, ("*",), _dotted("print"),
         "bare print(); use repro.obs.get_logger() instead",
         exempt=_NO_DIAGNOSTICS),
    Rule("obs.wall-clock", BANNED, ("*",), _dotted("time.time"),
         "time.time(); use repro.obs spans/histograms (or "
         "time.perf_counter) instead", exempt=_NO_DIAGNOSTICS),
    Rule("obs.telemetry-clock", BANNED, ("obs/telemetry/*",),
         _dotted("time.monotonic", "time.perf_counter"),
         "clock read in windowed-telemetry code; only "
         "obs/telemetry/clock.py may read the clock -- take an "
         "injectable clock instead", exempt=("obs/telemetry/clock.py",)),
    Rule("obs.serve-trace-id", LOG_FIELDS, ("serve/*",), _loggerish,
         "serve-path log record without trace_id=...; every serve log "
         "line must name its request", fields=frozenset({"trace_id"})),
    Rule("par.raw-pool", BANNED, ("*",),
         _any(lambda n: _called(n) in _POOLS,
              _imports(("multiprocessing", "multiprocessing.pool",
                        "concurrent.futures"), *_POOLS)),
         "raw process pool; use repro.par.pmap (only repro/par/ may own "
         "process pools)", exempt=("par/*",)),
    Rule("par.global-seed", BANNED, ("*",),
         _any(_global_seed, _imports(("numpy.random",), "seed")),
         "global numpy RNG seeding; thread an explicit "
         "numpy.random.Generator (repro.par.seeding) instead"),
    Rule("resil.raw-sleep", BANNED, ("*",),
         _any(_dotted("time.sleep"), _imports(("time",), "sleep")),
         "raw time.sleep; use repro.resil.retry (seeded backoff) or take "
         "an injectable sleep parameter", exempt=("resil/*",)),
    Rule("resil.silent-except", BANNED, ("*",), _silent_broad_except,
         "broad except swallows silently; re-raise or count the event "
         "with an obs.* call (degraded paths must be visible)"),
    Rule("rollout.state-file", BANNED, ("*",), _state_ref,
         "rollout state file referenced outside serve/registry.py; the "
         "serving pointer has exactly one owner",
         exempt=("serve/registry.py",)),
    Rule("rollout.state-writer", SINGLE_WRITER, ("serve/registry.py",),
         _state_ref,
         "function references the rollout state file and writes; only "
         "_write_rollout_state may write the serving pointer (atomic tmp "
         "+ os.replace)", function="_write_rollout_state"),
    Rule("rollout.promotion-site", BANNED, ("*",),
         _method(*PROMOTION_METHODS),
         "promotion call outside repro.rollout; stage transitions must "
         "go through RolloutController",
         exempt=("rollout/*", "serve/registry.py", "gateway/gateway.py")),
    Rule("rollout.log-fields", LOG_FIELDS, ("rollout/*",), _logger,
         "rollout log line without trace_id= and candidate=; every "
         "rollout event must be joinable to its trace and candidate",
         fields=frozenset({"trace_id", "candidate"})),
    Rule("rollout.guard-counter", REQUIRES_OBS, ("rollout/guard.py",),
         _obs(("inc",), "rollout."),
         "guard verdict rendered without a rollout.* obs counter; trip "
         "rates must be monitorable", function="evaluate"),
    Rule("serve.no-fit", BANNED, ("serve/*",), _method(*_FIT_METHODS),
         "model fitting in repro/serve; load models from the registry"),
    Rule("serve.obs", REQUIRES_OBS,
         ("serve/batcher.py", "serve/service.py", "serve/cache.py",
          "serve/registry.py"), _obs(),
         "request-path module without any repro.obs instrumentation "
         "(qps/latency/cache metrics are part of the serving contract)"),
    Rule("tree.reference-call", BANNED, ("*",),
         _method("fit_reference", "_grow_reference", "predict_binned_slow",
                 "apply_slow"),
         "reference implementations are for tests/benchmarks only; "
         "library code must use the fast grower", exempt_funcs=SLOW_FUNCS),
    Rule("tree.row-gather", BANNED, ("ml/tree.py",), _row_gather,
         "row gather in the tree growth hot path; gather rows through "
         "the grower's _gather", exempt_funcs=SLOW_FUNCS),
)

_BY_ID = {rule.id: rule for rule in RULES}


def _function_violation(rule: Rule, fn: ast.AST) -> bool:
    """Per-function check of a REQUIRES_OBS or SINGLE_WRITER rule."""
    inner = list(ast.walk(fn))
    if rule.kind == REQUIRES_OBS:
        return (fn.name.startswith(rule.function)
                and not any(map(rule.match, inner)))
    return (fn.name != rule.function and any(map(rule.match, inner))
            and any(_called(n) in _WRITE_CALLS for n in inner))


def lint_source(rel: str, source: str) -> list[tuple[int, str]]:
    """Sorted ``(line, rule id)`` violations of ``source`` placed at
    ``rel`` (a posix path relative to ``src/repro``)."""
    rules = [rule for rule in RULES if rule.applies(rel)]
    found: set[tuple[int, str]] = set()
    seen: set[str] = set()

    def visit(node: ast.AST, funcs: frozenset[str], in_async: bool) -> None:
        is_fn = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for rule in rules:
            if rule.function:
                if is_fn and _function_violation(rule, node):
                    found.add((node.lineno, rule.id))
            elif not rule.match(node):
                continue
            elif rule.kind == REQUIRES_OBS:
                seen.add(rule.id)
            elif rule.kind == LOG_FIELDS:
                if not rule.fields <= {kw.arg for kw in node.keywords}:
                    found.add((node.lineno, rule.id))
            elif ((in_async or not rule.in_async)
                  and not funcs & rule.exempt_funcs):
                found.add((node.lineno, rule.id))
        if is_fn:
            funcs = funcs | {node.name}
            in_async = in_async or isinstance(node, ast.AsyncFunctionDef)
        for child in ast.iter_child_nodes(node):
            # Load/Store markers: a third of all nodes, never matched.
            if not isinstance(child, ast.expr_context):
                visit(child, funcs, in_async)

    visit(ast.parse(source, filename=rel), frozenset(), False)
    found.update((1, rule.id) for rule in rules
                 if rule.kind == REQUIRES_OBS and not rule.function
                 and rule.id not in seen)
    return sorted(found)


def lint() -> list[str]:
    """Every violation under ``src/repro`` as ``path:line: rule-id:
    message``."""
    out: list[str] = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        shown = path.relative_to(REPO_ROOT)
        rel = path.relative_to(SRC_ROOT).as_posix()
        for line, rule_id in lint_source(rel, path.read_text()):
            out.append(f"{shown}:{line}: {rule_id}: "
                       f"{_BY_ID[rule_id].message}")
    return out


def main() -> int:
    violations = lint()
    for violation in violations:
        print(violation, file=sys.stderr)
    if violations:
        print(f"lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
