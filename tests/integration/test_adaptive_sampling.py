"""Adaptive telemetry sample cadence.

At a fixed 1 s tick a multi-hour simulated span takes far more samples
than ``SERIES_CAPACITY`` holds, and a ring would keep only the tail.  So
the interval stretches by the smallest integer factor that makes the
rings cover the whole span; short runs keep their exact tick set, byte
for byte.  Tests shrink the rings by patching
``repro.telemetry.registry.SERIES_CAPACITY``.
"""

import dataclasses

import pytest

from repro.config import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    TelemetrySettings,
    WorkloadConfig,
    WorkloadKind,
)
from repro.core.system import DistributedJoinSystem
from repro.telemetry import registry as telemetry_registry


def config(arrival_rate, total_tuples=600):
    return SystemConfig(
        num_nodes=3,
        window_size=64,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=4.0),
        workload=WorkloadConfig(
            kind=WorkloadKind.ZIPF,
            total_tuples=total_tuples,
            domain=256,
            arrival_rate=arrival_rate,
        ),
        telemetry=TelemetrySettings(enabled=True),
        seed=23,
    )


def run(cfg):
    system = DistributedJoinSystem(cfg)
    result = system.run()
    return system, result


def tick_times(system):
    """Sample times of a gauge every tick sets, first tick on."""
    gauge = system.telemetry.registry.get("repro_sched_events_processed")
    return [time for time, _ in gauge.series]


@pytest.fixture
def sixteen_slots(monkeypatch):
    monkeypatch.setattr(telemetry_registry, "SERIES_CAPACITY", 16)


class TestLongRuns:
    def test_rings_cover_the_whole_span(self, sixteen_slots):
        # 600 tuples at 10/s -> ~60 s span + 5 s margin, but only 16
        # slots per series: the fixed cadence would drop the first ~50
        # samples of every ring.
        system, result = run(config(arrival_rate=10.0))
        registry = system.telemetry.registry
        assert 0 < registry.samples_taken <= 16
        first_ticks = []
        for instrument in registry.instruments():
            if instrument.series is None:
                continue
            assert instrument.series.total_samples == len(instrument.series)
            first_ticks.append(next(iter(instrument.series))[0])
        # Coverage starts at the first stretched tick, not at the tail
        # of an overflowed ring.  (Lazily created instruments join the
        # sampling later; the always-on ones must be there from the
        # first tick.)
        assert min(first_ticks) <= result.duration_seconds / 4

    def test_fixed_cadence_overflows_without_it(self):
        # The same span under rings large enough not to stretch: the 1 s
        # cadence takes more ticks than the 16 slots above hold.
        system, _ = run(config(arrival_rate=10.0))
        assert system.telemetry.registry.samples_taken > 16
        assert tick_times(system)[:3] == [1.0, 2.0, 3.0]


class TestShortRuns:
    def test_short_runs_are_untouched(self):
        # 600 tuples at 200/s -> ~3 s span: well inside the rings, so
        # every scheduled tick keeps the configured 1 s cadence (the last
        # sample may be the end-of-run tick).
        system, _ = run(config(arrival_rate=200.0))
        scheduled = tick_times(system)[:-1]
        assert len(scheduled) >= 3
        assert scheduled == [float(tick) for tick in range(1, len(scheduled) + 1)]

    def test_adaptive_run_result_matches_dark_run(self, sixteen_slots):
        lit = run(config(arrival_rate=10.0))[1]
        dark_config = dataclasses.replace(
            config(arrival_rate=10.0),
            telemetry=TelemetrySettings(enabled=False),
        )
        dark = run(dark_config)[1]
        assert lit.summary() == dark.summary()
