"""Wire tools/check_tree.py into the tier-1 suite.

The lint pins two tree-performance invariants: library code never calls
the reference implementations (fit_reference / _grow_reference /
predict_binned_slow / apply_slow -- those exist for tests and benchmark
baselines), and the growth hot path in ml/tree.py carries no
``binned[idx]``-style row gathers outside the reference functions and
the grower's one per-chunk gather, ``_gather``.
"""

import pathlib
import subprocess
import sys
import textwrap

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECK = REPO_ROOT / "tools" / "check_tree.py"

sys.path.insert(0, str(REPO_ROOT / "tools"))
import check_tree  # noqa: E402


class TestRepoIsClean:
    def test_src_tree_passes_lint(self):
        assert check_tree.check() == []

    def test_script_exit_code_zero(self):
        proc = subprocess.run(
            [sys.executable, str(CHECK)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "check_tree: OK" in proc.stdout

    def test_hot_path_file_exists(self):
        """The hot-path rule must track a real file, or it checks
        nothing."""
        assert check_tree.TREE_FILE.is_file()

    def test_reference_names_exist_on_histogram_tree(self):
        """Every guarded reference name must still be defined, or the
        call rule (and the equivalence tests behind it) has drifted."""
        from repro.ml.tree import HistogramTree

        for name in check_tree._REFERENCE_NAMES:
            assert hasattr(HistogramTree, name), name


class TestDetection:
    def _violations(self, tmp_path, source, hot_path=False):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(source))
        return check_tree.file_violations(path, hot_path=hot_path)

    def test_flags_fit_reference_call(self, tmp_path):
        found = self._violations(tmp_path, """\
            def train(tree, binned, grad, hess):
                return tree.fit_reference(binned, grad, hess)
        """)
        assert len(found) == 1
        assert "reference implementations" in found[0][1]

    def test_flags_slow_traversal_call(self, tmp_path):
        found = self._violations(tmp_path, """\
            def infer(tree, binned):
                return tree.predict_binned_slow(binned)
        """)
        assert len(found) == 1

    def test_fast_calls_allowed(self, tmp_path):
        found = self._violations(tmp_path, """\
            def train(tree, binned, grad, hess):
                tree.fit(binned, grad, hess)
                return tree.predict_binned(binned)
        """)
        assert found == []

    def test_flags_row_gather_on_hot_path(self, tmp_path):
        found = self._violations(tmp_path, """\
            def _grow(binned, grad, idx):
                codes = binned[idx]
                g = grad[idx]
                return codes, g
        """, hot_path=True)
        assert len(found) == 2
        assert all("_gather" in msg for _, msg in found)

    def test_row_gather_allowed_in_reference_functions(self, tmp_path):
        found = self._violations(tmp_path, """\
            def _grow_reference(binned, grad, idx):
                return binned[idx], grad[idx]
        """, hot_path=True)
        assert found == []

    def test_row_gather_allowed_in_grower_gather(self, tmp_path):
        found = self._violations(tmp_path, """\
            class _Grower:
                def _gather(self, binned, grad, hess, r):
                    return binned[r], grad[r], hess[r]
        """, hot_path=True)
        assert found == []

    def test_grower_gather_is_the_only_one_allowed(self, tmp_path):
        """The allowance names the grower's gather, not a leftover
        streaming sweep."""
        assert "_gather" in check_tree._GATHER_ALLOWED_FUNCS
        assert "_sweep" not in check_tree._GATHER_ALLOWED_FUNCS
        found = self._violations(tmp_path, """\
            def _sweep(binned, rows):
                return binned[rows]
        """, hot_path=True)
        assert len(found) == 1

    def test_row_gather_ignored_off_hot_path(self, tmp_path):
        found = self._violations(tmp_path, """\
            def subsample(binned, rows):
                return binned[rows]
        """, hot_path=False)
        assert found == []

    def test_slice_indexing_not_flagged(self, tmp_path):
        found = self._violations(tmp_path, """\
            def _partition(binned, s, e):
                return binned[s:e]
        """, hot_path=True)
        assert found == []

    def test_check_walks_a_tree(self, tmp_path):
        (tmp_path / "tree.py").write_text(textwrap.dedent("""\
            def helper(binned, idx):
                return binned[idx]
        """))
        (tmp_path / "ok.py").write_text("VALUE = 1\n")
        violations = check_tree.check(root=tmp_path)
        assert len(violations) == 1
        assert "tree.py" in violations[0]
