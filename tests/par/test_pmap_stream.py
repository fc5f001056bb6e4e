"""pmap_stream: ordered streaming results with bounded in-flight work."""

import numpy as np
import pytest

from repro import obs
from repro.par import pmap, pmap_stream, spawn_seeds
from repro.resil import faults
from repro.par.executor import _STREAM_INFLIGHT_PER_WORKER


def _square(x):
    return x * x


def _draw(seed):
    return float(np.random.default_rng(seed).uniform())


def _observe(x):
    obs.inc("par.stream_testing_total")
    return x


def _boom_on_5(x):
    if x == 5:
        raise RuntimeError("task 5 failed")
    return x


class TestSemantics:
    def test_empty_yields_nothing(self):
        assert list(pmap_stream(_square, [], workers=4)) == []

    def test_serial_matches_map(self):
        got = list(pmap_stream(_square, range(9), workers=1))
        assert got == [x * x for x in range(9)]

    def test_parallel_preserves_order(self):
        got = list(pmap_stream(_square, range(23), workers=3))
        assert got == [x * x for x in range(23)]

    def test_matches_pmap_on_seeded_tasks(self):
        seeds = spawn_seeds(42, 12)
        assert list(pmap_stream(_draw, seeds, workers=3)) == \
            pmap(_draw, seeds, workers=1)

    def test_chunk_size_does_not_change_results(self):
        seeds = spawn_seeds(7, 11)
        a = list(pmap_stream(_draw, seeds, workers=2, chunk_size=1))
        b = list(pmap_stream(_draw, seeds, workers=2, chunk_size=4))
        assert a == b

    def test_is_a_generator(self):
        gen = pmap_stream(_square, range(4), workers=1)
        assert next(gen) == 0
        gen.close()  # closing mid-stream must not raise

    def test_unpicklable_fn_falls_back_serial(self):
        captured = []
        got = list(pmap_stream(lambda x: captured.append(x) or x,
                               range(5), workers=3))
        assert got == list(range(5))
        assert captured == list(range(5))  # ran in-process


class TestBoundedWindow:
    def test_window_constant_is_small(self):
        # The memory bound run_campaign(store_dir=...) relies on.
        assert 1 <= _STREAM_INFLIGHT_PER_WORKER <= 4

    def test_incremental_consumption(self):
        """Results can be consumed one at a time without exhausting
        the stream first -- the shape the store writer depends on."""
        gen = pmap_stream(_square, range(40), workers=2, chunk_size=3)
        seen = [next(gen) for _ in range(5)]
        assert seen == [x * x for x in range(5)]
        assert list(gen) == [x * x for x in range(5, 40)]


class TestResilience:
    def test_deterministic_task_error_rescued_serially(self):
        """A chunk that fails on the pool is retried, then rescued in
        the parent -- and the rescue re-raises the real error."""
        with pytest.raises(RuntimeError, match="task 5 failed"):
            list(pmap_stream(_boom_on_5, range(8), workers=2,
                             chunk_size=2))

    @pytest.mark.parametrize("workers,chunk_size",
                             [(1, 1), (1, 3), (2, 1), (2, 3)])
    def test_fault_schedule_same_for_pmap_and_stream(
            self, monkeypatch, workers, chunk_size):
        """Under a ``par.worker_crash`` schedule both entry points give
        the fault-free results and count the same retries and rescues.

        Seed 9 at rate 0.3 never fails one task on all three of its
        first attempts, and at ``chunk_size=3`` fails three chunks on
        all three pool attempts: those go to the serial rescue.
        """
        monkeypatch.setenv(faults.FAULTS_ENV, "par.worker_crash:0.3")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV, "9")
        drivers = {
            "pmap": pmap,
            "pmap_stream": lambda *a, **kw: list(pmap_stream(*a, **kw)),
        }
        obs.set_enabled(True)
        registry = obs.get_registry()
        counted = {}
        try:
            for name, driver in drivers.items():
                faults.reset()
                registry.reset()
                got = driver(_square, range(12), workers=workers,
                             chunk_size=chunk_size)
                assert got == [x * x for x in range(12)], name
                counted[name] = {
                    k: v for k, v in registry.snapshot()["counters"].items()
                    if k.startswith("resil.par.") or k == "par.tasks_total"
                }
        finally:
            faults.reset()
            registry.reset()
        assert counted["pmap"] == counted["pmap_stream"]
        assert counted["pmap"]["par.tasks_total"] == 12
        assert counted["pmap"]["resil.par.task_retries_total" if workers == 1
                               else "resil.par.chunk_retries_total"] > 0
        if workers == 2 and chunk_size == 3:
            assert counted["pmap"]["resil.par.serial_rescues_total"] == 3

    def test_serial_errors_propagate(self):
        with pytest.raises(RuntimeError, match="task 5 failed"):
            list(pmap_stream(_boom_on_5, range(8), workers=1))


class TestObs:
    def test_worker_metrics_merge_into_parent(self):
        obs.set_enabled(True)
        try:
            registry = obs.get_registry()
            before = registry.counter("par.stream_testing_total").value
            got = list(pmap_stream(_observe, range(10), workers=2))
            assert got == list(range(10))
            assert registry.counter(
                "par.stream_testing_total").value == before + 10
        finally:
            obs.set_enabled(False)
