"""Unit tests for the profiling module and the system's ``profiler=`` seam."""

from contextlib import contextmanager

from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.system import run_experiment
from repro.profiling import Stopwatch, profile_call


def test_stopwatch_measures_interval():
    with Stopwatch() as watch:
        sum(range(10000))
    assert watch.wall_seconds > 0.0
    assert watch.cpu_seconds >= 0.0


def test_profile_call_returns_result_and_report():
    result, report = profile_call(lambda: sum(range(100)), top=5)
    assert result == 4950
    assert "cumulative" in report or "function calls" in report


class SectionRecorder:
    """Only what the seam may call: ``section(name)`` and ``snapshot()``
    (``benchmarks/e2e``'s span recorder implements no more)."""

    def __init__(self):
        self.sections = {}
        self.snapshot_returned = None

    @contextmanager
    def section(self, name):
        yield
        self.sections[name] = self.sections.get(name, 0) + 1

    def snapshot(self):
        self.snapshot_returned = {"recorded": dict(self.sections)}
        return self.snapshot_returned


def test_profiled_run_populates_result_profile():
    """The seam's contract: every node service runs in a ``node.<kind>``
    section, the run in one ``system.run`` section, and the recorder's
    snapshot is ``RunResult.profile`` itself."""
    config = SystemConfig(
        num_nodes=3,
        window_size=64,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=4.0),
        workload=WorkloadConfig(total_tuples=600, domain=256, arrival_rate=200.0),
        seed=5,
    )
    recorder = SectionRecorder()
    result = run_experiment(config, profiler=recorder)
    assert set(recorder.sections) == {"node.local", "node.message", "system.run"}
    assert recorder.sections["system.run"] == 1
    assert recorder.sections["node.local"] == result.tuples_arrived
    assert result.profile is recorder.snapshot_returned
    # Unprofiled runs carry no accounting at all.
    assert run_experiment(config).profile == {}
