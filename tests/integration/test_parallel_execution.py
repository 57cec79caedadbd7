"""Parallel == serial == cached, end to end.

The contract the whole runner hangs on: a sweep's output is a pure
function of its configs, so running it over N pool workers -- or serving
it from a warm cache -- must produce *byte-identical* artifacts.  These
tests pin that with ``pickle.dumps`` equality (the strictest practical
comparison: every field of every row) and with the report CLI's stdout.

Pool tests use ``jobs=2``/``jobs=3`` on purpose even though CI may have
one core: correctness of the merge order and worker-side state resets is
what is asserted, not speedup.
"""

import contextlib
import dataclasses
import io
import multiprocessing
import os
import pickle
import time

import pytest

from repro.config import Algorithm
from repro.errors import SimulationError
from repro.experiments import chaos, fig8, fig9, fig11, report
from repro.experiments.harness import get_scale, system_config
from repro.parallel import (
    RunCache,
    RunRequest,
    execute_cell,
    pool,
    run_configs,
    run_many,
)
from repro.streams.tuples import StreamId, StreamTuple

SMALL_GRID = chaos.parse_grid("clean; squall@loss=0.25")


def forbid_simulations(monkeypatch):
    """Make any in-process simulation fail the test (a warm ``jobs=1``
    sweep must serve every cell from the cache)."""

    def simulated(*_args):
        raise AssertionError("a warm sweep ran a simulation")

    monkeypatch.setattr(pool, "execute_cell", simulated)


class TestSerialParallelIdentity:
    def test_fig8_rows_identical_at_any_jobs(self):
        serial = fig8.run("smoke")
        parallel = fig8.run("smoke", jobs=2)
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_fig9_cells_identical_at_any_jobs(self):
        serial = fig9.run("smoke", max_probes=3)
        parallel = fig9.run("smoke", max_probes=3, jobs=2)
        assert serial == parallel
        assert fig9.format_result(serial) == fig9.format_result(parallel)

    def test_fig11_rows_identical_at_any_jobs(self):
        serial = fig11.run("smoke", max_probes=3)
        parallel = fig11.run("smoke", max_probes=3, jobs=2)
        assert serial == parallel
        assert fig11.format_result(serial) == fig11.format_result(parallel)

    def test_chaos_grid_identical_at_any_jobs(self):
        serial = chaos.run(
            "smoke", algorithms=(Algorithm.DFTT,), grid=SMALL_GRID
        )
        parallel = chaos.run(
            "smoke", algorithms=(Algorithm.DFTT,), grid=SMALL_GRID, jobs=3
        )
        assert chaos.rows_to_json(serial) == chaos.rows_to_json(parallel)
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_report_stdout_identical_at_any_jobs(self):
        def capture(jobs):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                report.run_report("smoke", ["fig8"], jobs=jobs)
            text = out.getvalue()
            # Everything above the timing line is the deterministic
            # artifact; the wall clock below it legitimately varies.
            return text[: text.index("report complete")]

        assert capture(1) == capture(4)


class TestRunCacheEndToEnd:
    def test_warm_sweep_runs_zero_simulations(self, tmp_path, monkeypatch):
        cache = RunCache(str(tmp_path))
        cold = chaos.run(
            "smoke",
            algorithms=(Algorithm.DFTT,),
            grid=SMALL_GRID,
            cache=cache,
        )
        assert cache.stats()["stores"] == len(cold)

        warm_cache = RunCache(str(tmp_path))
        forbid_simulations(monkeypatch)
        warm = chaos.run(
            "smoke",
            algorithms=(Algorithm.DFTT,),
            grid=SMALL_GRID,
            cache=warm_cache,
        )
        assert warm_cache.stats() == {"hits": len(cold), "misses": 0, "stores": 0}
        assert pickle.dumps(cold) == pickle.dumps(warm)

    def test_cached_result_matches_fresh_field_for_field(self, tmp_path):
        config = system_config(get_scale("smoke"), Algorithm.DFTT, 3)
        fresh, _extras = execute_cell(config)
        cache = RunCache(str(tmp_path))
        [first] = run_configs([config], cache=cache)
        [second] = run_configs([config], cache=cache)
        assert pickle.dumps(fresh) == pickle.dumps(first)
        # The cache-served copy is a pickle round trip: equal in every
        # field (byte-for-byte per field -- whole-object dumps can differ
        # only in the interpreter's string-interning memo layout, never
        # in content).
        assert second == fresh
        for field in dataclasses.fields(fresh):
            assert pickle.dumps(getattr(second, field.name)) == pickle.dumps(
                getattr(fresh, field.name)
            ), field.name
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}

    def test_warm_calibrated_report_serves_every_probe(self, tmp_path, monkeypatch):
        """Figures 9 and 11 look up every probe in the parent's cache.

        Figure 11's calibration probes are Figure 9's ZIPF probes, so the
        cold run already hits the entries Figure 9 stored; the warm run
        hits every lookup the cold run made and simulates nothing.
        """

        def sweep():
            cache = RunCache(str(tmp_path))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                report.run_report("smoke", ["fig9", "fig11"], cache=cache)
            text = out.getvalue()
            assert cache.stats_line() in text
            return cache, text[: text.index("report complete")]

        cold, cold_text = sweep()
        entries = [
            name
            for _directory, _dirnames, names in os.walk(str(tmp_path))
            for name in names
            if name.endswith(".pkl")
        ]
        assert cold.stores == cold.misses == len(entries) > 0
        forbid_simulations(monkeypatch)
        warm, warm_text = sweep()
        assert warm.stats() == {
            "hits": cold.hits + cold.misses,
            "misses": 0,
            "stores": 0,
        }
        assert warm_text == cold_text

    def test_cache_respects_jobs_boundary(self, tmp_path):
        preset = get_scale("smoke")
        configs = [
            system_config(preset, Algorithm.DFTT, n, seed_offset=i)
            for i, n in enumerate(preset.node_grid)
        ]
        cache = RunCache(str(tmp_path))
        cold = run_configs(configs, jobs=2, cache=cache)
        warm = run_configs(configs, jobs=2, cache=cache)
        assert cache.hits == len(configs)
        assert cold == warm


class TestWorkerStateReset:
    def test_dirty_tuple_counter_does_not_leak_into_a_cell(self):
        config = system_config(get_scale("smoke"), Algorithm.DFTT, 3)
        clean, _ = execute_cell(config)
        # Simulate a polluted process: mint ids so the global sequence
        # is far from zero, then run again.  execute_cell must reset.
        for _ in range(100):
            StreamTuple(stream=StreamId.R, key=1, origin_node=0, arrival_index=0)
        dirty, _ = execute_cell(config)
        assert pickle.dumps(clean) == pickle.dumps(dirty)


def _kill_worker(*_args):
    """An extractor that takes its pool worker down without unwinding."""
    os._exit(17)


class TestWorkerDeath:
    """A pool worker that dies is a ``ReproError`` in bounded time, with
    no child process and no cache entry left behind."""

    BOUND_S = 60.0

    def test_dead_worker_fails_the_sweep_cleanly(self, tmp_path):
        preset = get_scale("smoke")
        doomed = RunRequest(
            config=system_config(preset, Algorithm.DFTT, 3),
            extractors=(("never", __name__ + ":_kill_worker"),),
            label="doomed cell",
        )
        bystanders = [
            RunRequest(config=system_config(preset, Algorithm.DFTT, 3, seed_offset=i))
            for i in (1, 2)
        ]
        cache = RunCache(str(tmp_path))
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(SimulationError, match="doomed cell"):
            run_many([doomed] + bystanders, jobs=2, cache=cache)
        assert time.monotonic() - started < self.BOUND_S
        assert set(multiprocessing.active_children()) <= before
        assert cache.stats()["stores"] == 0
        assert cache.lookup(cache.key_for(doomed.config, doomed.extractors)) is None
