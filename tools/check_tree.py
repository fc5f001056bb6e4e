#!/usr/bin/env python3
"""Lint: tree growth and traversal stay on the fast grower.

Two rules keep the histogram-tree performance contract enforceable:

1. **No reference-implementation calls in library code** -- the
   recursive grower (``fit_reference`` / ``_grow_reference``) and the
   per-row traversals (``predict_binned_slow`` / ``apply_slow``) exist
   as ground truth for the equivalence property tests and benchmark
   baselines.  A call from ``src/repro/`` means a hot path silently
   regressed to the slow implementation.
2. **Row gathers in the growth hot path live in one place** -- inside
   ``src/repro/ml/tree.py``, fancy-indexed row copies like
   ``binned[idx]`` / ``grad[idx]`` are only allowed in the functions
   that are *defined* to be slow (the reference grower and reference
   traversals) and in the grower's per-chunk gather (``_gather``),
   which copies one node's rows of one chunk -- bounded by
   ``chunk_rows`` and by the node's size.  A gather anywhere else is
   a second, unaccounted copy of the rows.

Run directly (``python tools/check_tree.py``) or via the tier-1 suite
(``tests/test_check_tree.py`` wires it in).
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"
TREE_FILE = SRC_ROOT / "ml" / "tree.py"

#: Reference implementations: callable only from tests/ and benchmarks/.
_REFERENCE_NAMES = frozenset({
    "fit_reference", "_grow_reference", "predict_binned_slow", "apply_slow",
})

#: Functions in tree.py that may keep ``array[rows]`` gather indexing:
#: the reference implementations (defined to be slow), plus the
#: grower's per-chunk gather ``_gather`` -- the one place the grower
#: copies a node's rows of a chunk, bounded by ``chunk_rows``.
_GATHER_ALLOWED_FUNCS = frozenset({
    "fit_reference", "_grow_reference", "predict_binned_slow", "apply_slow",
    "_gather",
})

#: Names whose subscripting with a bare-name index marks a per-node row
#: gather in growth code (``binned[idx]``, ``grad[idx]``, ...).
_ROW_ARRAYS = frozenset({"binned", "grad", "hess", "codes_node"})


class _Visitor(ast.NodeVisitor):
    """Flags reference calls and hot-path row gathers, except inside
    the reference implementations and the grower's ``_gather``."""

    def __init__(self, hot_path: bool):
        self.hot_path = hot_path
        self.violations: list[tuple[int, str]] = []
        self._reference_depth = 0

    def _visit_func(self, node):
        allowed = node.name in _GATHER_ALLOWED_FUNCS
        self._reference_depth += allowed
        self.generic_visit(node)
        self._reference_depth -= allowed

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Call(self, node: ast.Call):
        if (
            self._reference_depth == 0
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _REFERENCE_NAMES
        ):
            self.violations.append((
                node.lineno,
                f".{node.func.attr}() call: reference implementations are "
                "for tests/benchmarks only; library code must use the "
                "fast grower",
            ))
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript):
        if (
            self.hot_path
            and self._reference_depth == 0
            and isinstance(node.value, ast.Name)
            and node.value.id in _ROW_ARRAYS
            and isinstance(node.slice, ast.Name)
        ):
            self.violations.append((
                node.lineno,
                f"{node.value.id}[{node.slice.id}] row gather in tree "
                "growth hot path; gather rows through the grower's _gather",
            ))
        self.generic_visit(node)


def file_violations(
    path: pathlib.Path, hot_path: bool = False
) -> list[tuple[int, str]]:
    """(line, message) pairs for one library source file.

    ``hot_path`` additionally enforces the no-row-gather rule outside
    the designated functions (used for ml/tree.py).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    visitor = _Visitor(hot_path)
    visitor.visit(tree)
    return sorted(visitor.violations)


def check(root: pathlib.Path = SRC_ROOT) -> list[str]:
    """All violations under ``root`` as ``path:line: message`` strings."""
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        hot = path.resolve() == TREE_FILE or path.name == "tree.py"
        for lineno, message in file_violations(path, hot_path=hot):
            try:
                shown = path.relative_to(REPO_ROOT)
            except ValueError:
                shown = path
            violations.append(f"{shown}:{lineno}: {message}")
    return violations


def main(argv: list[str] | None = None) -> int:
    violations = check()
    for violation in violations:
        print(violation, file=sys.stderr)
    if violations:
        print(f"check_tree: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("check_tree: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
