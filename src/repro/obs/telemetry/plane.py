"""The telemetry plane: windows + SLOs + drift + events, one object.

:class:`TelemetryPlane` is what a serving loop actually holds: a fast
and a slow :class:`~repro.obs.telemetry.window.WindowedRegistry` fed by
the same ``observe``/``inc`` calls, an
:class:`~repro.obs.telemetry.slo.SLOMonitor` over declarative SLOs, an
optional :class:`~repro.obs.telemetry.drift.DriftMonitor` seeded from a
model's frozen baseline, and an
:class:`~repro.obs.telemetry.export.EventLog` that both monitors emit
structured events into.

``maybe_evaluate()`` rate-limits monitor evaluation to once per fast
bucket (by the injected clock); ``evaluate()`` forces one -- the serve
loop calls the former per flush and the latter once at the end, so the
final SLO/drift verdict always reflects the whole run.
"""

from __future__ import annotations

from repro.obs.telemetry.clock import Clock, system_clock
from repro.obs.telemetry.drift import DriftBaseline, DriftMonitor
from repro.obs.telemetry.export import EventLog, to_prometheus
from repro.obs.telemetry.slo import AvailabilitySLO, SLOMonitor
from repro.obs.telemetry.window import WindowedRegistry

__all__ = ["TelemetryPlane"]


class TelemetryPlane:
    """Windowed metrics, SLO monitors and drift detection behind one API."""

    def __init__(
        self,
        *,
        window_s: float = 60.0,
        slow_window_s: float = 600.0,
        n_buckets: int = 6,
        clock: Clock = system_clock,
        slos=(),
        baseline: DriftBaseline | None = None,
        event_stream=None,
    ):
        if slow_window_s < window_s:
            raise ValueError("slow_window_s must be >= window_s")
        self.clock = clock
        self.fast = WindowedRegistry(window_s, n_buckets, clock)
        self.slow = WindowedRegistry(slow_window_s, n_buckets, clock)
        self.events = EventLog(event_stream, clock=clock)
        self.slos = list(slos)
        self.monitor = SLOMonitor(self.slos, self.fast, self.slow,
                                  event_log=self.events)
        self.drift: DriftMonitor | None = None
        if baseline is not None:
            self.rebind_baseline(baseline)
        #: Cumulative per-counter totals since construction -- the whole
        #: run's error budget is judged on these, not on a window.
        self.totals: dict[str, float] = {}
        self._last_eval = float("-inf")
        self._last_result: dict | None = None

    # -- recording ----------------------------------------------------------- #

    def observe(self, name: str, value: float) -> None:
        """One histogram observation into both window horizons."""
        self.fast.histogram(name).observe(value)
        self.slow.histogram(name).observe(value)

    def inc(self, name: str, amount: float = 1.0) -> None:
        """One counter increment into both horizons plus the run total."""
        self.fast.counter(name).inc(amount)
        self.slow.counter(name).inc(amount)
        self.totals[name] = self.totals.get(name, 0.0) + amount

    def observe_drift(self, value: float) -> None:
        """Feed the drift monitor (no-op without a baseline)."""
        if self.drift is not None:
            self.drift.observe(value)

    def rebind_baseline(self, baseline: DriftBaseline | None) -> None:
        """Swap the drift monitor's frozen baseline (model rollout).

        A promoted candidate carries its *own* training-time baseline;
        monitoring the new model against the old model's statistics
        would re-detect the drift the refit just absorbed.  The live
        window keeps its recent observations -- they age out on the
        window horizon.  ``None`` disables drift monitoring.
        """
        if baseline is None:
            self.drift = None
            return
        self.drift = DriftMonitor(
            baseline,
            self.fast.histogram(f"drift.{baseline.stat}"),
            event_log=self.events,
        )

    # -- evaluation ---------------------------------------------------------- #

    def budget_burned(self) -> bool:
        """Whether any availability SLO's *whole-run* budget is spent.

        Judged on cumulative totals: a run whose overall failure ratio
        exceeds ``1 - target`` has no error budget left, regardless of
        what the current window looks like.
        """
        for slo in self.slos:
            if not isinstance(slo, AvailabilitySLO):
                continue
            good = self.totals.get(slo.good, 0.0)
            bad = self.totals.get(slo.bad, 0.0)
            n = good + bad
            if n > 0 and (bad / n) > slo.budget:
                return True
        return False

    def evaluate(self) -> dict:
        """Run every monitor now; returns the JSON-safe combined verdict."""
        self._last_eval = self.clock()
        result = {
            "slos": [s.to_dict() for s in self.monitor.evaluate()],
            "drift": (self.drift.evaluate().to_dict()
                      if self.drift is not None else None),
            "budget_burned": self.budget_burned(),
        }
        self._last_result = result
        return result

    def maybe_evaluate(self) -> dict | None:
        """Evaluate at most once per fast bucket; None when rate-limited."""
        bucket_s = self.fast.window_s / self.fast.n_buckets
        if self.clock() - self._last_eval < bucket_s:
            return None
        return self.evaluate()

    # -- export -------------------------------------------------------------- #

    def snapshot(self) -> dict:
        """JSON-safe view: windows, last verdict, totals, event count."""
        return {
            "window": self.fast.snapshot(),
            "slow_window": self.slow.snapshot(),
            "last_evaluation": self._last_result,
            "totals": dict(self.totals),
            "events_total": len(self.events),
        }

    def to_prometheus(self, prefix: str = "repro_window_") -> str:
        """The fast window in Prometheus text format.

        Windowed counters export as gauges (a windowed total is not
        monotonic); histograms as summaries.
        """
        snap = self.fast.snapshot()
        flat = {
            "counters": {},
            "gauges": {
                f"{name}.window_total": c["total"]
                for name, c in snap["counters"].items()
            },
            "histograms": snap["histograms"],
        }
        return to_prometheus(flat, prefix)
