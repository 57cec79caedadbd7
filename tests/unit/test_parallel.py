"""Unit tests for repro.parallel: jobs resolution, fingerprints, cache."""

import hashlib
import os
import pickle

import pytest

from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.errors import ConfigurationError
from repro.parallel import (
    RunCache,
    canonical_config_dict,
    code_version,
    config_fingerprint,
    resolve_cache,
    resolve_jobs,
)
from repro.parallel.cache import canonical_value
from repro.streams.tuples import (
    StreamId,
    StreamTuple,
    peek_next_tuple_ids,
    reset_tuple_ids,
)


def small_config(seed=7, kappa=4.0):
    return SystemConfig(
        num_nodes=3,
        window_size=64,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=kappa),
        workload=WorkloadConfig(total_tuples=200, domain=128),
        seed=seed,
    )


class TestResolveJobs:
    def test_explicit_value_wins(self):
        assert resolve_jobs(3) == 3

    def test_default_is_serial(self):
        assert resolve_jobs() == 1
        assert resolve_jobs(0) == 1

    def test_rejects_negative_jobs(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-2)


class TestCanonicalEncoding:
    def test_enums_become_values_and_tuples_become_lists(self):
        tree = canonical_config_dict(small_config())
        assert tree["policy"]["algorithm"] == Algorithm.DFTT.value
        assert isinstance(tree["faults"]["events"], list)

    def test_infinite_bandwidth_is_representable(self):
        tree = canonical_config_dict(small_config())
        assert tree["link"]["bandwidth_bps"] == float("inf")

    def test_unfingerprintable_value_fails_loudly(self):
        with pytest.raises(ConfigurationError):
            canonical_value(object())


class TestFingerprint:
    def test_stable_across_calls(self):
        assert config_fingerprint(small_config()) == config_fingerprint(
            small_config()
        )

    def test_sensitive_to_any_config_field(self):
        base = config_fingerprint(small_config())
        assert config_fingerprint(small_config(seed=8)) != base
        assert config_fingerprint(small_config(kappa=8.0)) != base

    def test_sensitive_to_extractors(self):
        base = config_fingerprint(small_config())
        with_extras = config_fingerprint(
            small_config(), (("worst", "repro.experiments.chaos:worst_case_extractor"),)
        )
        assert with_extras != base

    def test_code_version_is_memoized_and_hex(self):
        first = code_version()
        assert first == code_version()
        assert len(first) == 64
        int(first, 16)


class TestRunCache:
    def test_store_then_lookup_round_trips(self, tmp_path):
        cache = RunCache(str(tmp_path))
        key = cache.key_for(small_config())
        assert cache.lookup(key) is None
        cache.store(key, {"payload": 1}, {"worst": 2.5})
        entry = cache.lookup(key)
        assert entry == {"result": {"payload": 1}, "extras": {"worst": 2.5}}
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}

    def test_corrupt_entry_is_deleted_and_missed(self, tmp_path):
        cache = RunCache(str(tmp_path))
        key = cache.key_for(small_config())
        cache.store(key, {"payload": 1}, {})
        path = cache._path(key)
        with open(path, "wb") as handle:
            handle.write(b"torn write, not a pickle")
        assert cache.lookup(key) is None
        assert not os.path.exists(path)

    def test_stale_shaped_entry_is_deleted_and_missed(self, tmp_path):
        cache = RunCache(str(tmp_path))
        key = cache.key_for(small_config())
        os.makedirs(os.path.dirname(cache._path(key)), exist_ok=True)
        with open(cache._path(key), "wb") as handle:
            pickle.dump(["not", "a", "dict"], handle)
        assert cache.lookup(key) is None
        assert not os.path.exists(cache._path(key))

    @pytest.mark.parametrize(
        "entry",
        [["not", "a", "dict"], {"extras": {}}],
        ids=["list", "dict-without-result"],
    )
    def test_verified_entry_of_another_shape_is_deleted_and_missed(
        self, tmp_path, entry
    ):
        cache = RunCache(str(tmp_path))
        key = cache.key_for(small_config())
        os.makedirs(os.path.dirname(cache._path(key)), exist_ok=True)
        payload = pickle.dumps(entry)
        with open(cache._path(key), "wb") as handle:
            handle.write(hashlib.sha256(payload).digest() + payload)
        assert cache.lookup(key) is None
        assert not os.path.exists(cache._path(key))

    def test_old_layout_entry_is_deleted_and_missed(self, tmp_path):
        """A bare pickle (schema 1, no digest in front) is recomputed."""
        cache = RunCache(str(tmp_path))
        key = cache.key_for(small_config())
        os.makedirs(os.path.dirname(cache._path(key)), exist_ok=True)
        with open(cache._path(key), "wb") as handle:
            pickle.dump({"result": {"payload": 1}, "extras": {}}, handle)
        assert cache.lookup(key) is None
        assert not os.path.exists(cache._path(key))
        assert cache.stats() == {"hits": 0, "misses": 1, "stores": 0}

    def test_no_corruption_of_a_stored_run_is_ever_served(self, tmp_path):
        """Truncations and single bit flips of a real entry all miss.

        Pickle alone would serve many of them: a bit flipped inside a
        pickled float loads fine, as a *different* ``RunResult``.  The
        digest in front of the pickle is verified first, so every one
        is deleted and recomputed.
        """
        import numpy as np

        from repro.core.system import run_experiment

        config = SystemConfig(
            num_nodes=3,
            window_size=32,
            policy=PolicyConfig(algorithm=Algorithm.BASE),
            workload=WorkloadConfig(total_tuples=300, domain=128),
            seed=1,
        )
        result = run_experiment(config)
        key = RunCache(str(tmp_path)).key_for(config)
        RunCache(str(tmp_path)).store(key, result, {"worst": 2.5})
        path = RunCache(str(tmp_path))._path(key)
        with open(path, "rb") as handle:
            stored = handle.read()

        rng = np.random.default_rng(22)
        corruptions = [stored[: int(cut)] for cut in rng.integers(0, len(stored), 100)]
        for position, bit in zip(
            rng.integers(0, len(stored), 200), rng.integers(0, 8, 200)
        ):
            flipped = bytearray(stored)
            flipped[position] ^= 1 << bit
            corruptions.append(bytes(flipped))
        for corrupted in corruptions:
            with open(path, "wb") as handle:
                handle.write(corrupted)
            cache = RunCache(str(tmp_path))
            assert cache.lookup(key) is None
            assert cache.stats() == {"hits": 0, "misses": 1, "stores": 0}
            assert not os.path.exists(path)

        with open(path, "wb") as handle:
            handle.write(stored)
        entry = RunCache(str(tmp_path)).lookup(key)
        assert entry["extras"] == {"worst": 2.5}
        assert entry["result"] == result

    def test_entries_shard_by_key_prefix(self, tmp_path):
        cache = RunCache(str(tmp_path))
        key = cache.key_for(small_config())
        assert cache._path(key) == os.path.join(
            str(tmp_path), key[:2], key + ".pkl"
        )

    def test_stats_line_is_greppable(self, tmp_path):
        cache = RunCache(str(tmp_path))
        assert cache.stats_line() == (
            "cache hits=0 misses=0 stores=0 dir=%s" % tmp_path
        )

    def test_write_manifest(self, tmp_path):
        import json

        cache = RunCache(str(tmp_path))
        path = cache.write_manifest({"sweep": "unit"})
        payload = json.loads(open(path).read())
        assert payload["sweep"] == "unit"
        assert payload["code_version"] == code_version()
        assert payload["hits"] == 0

    def test_default_directory_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert RunCache().directory == str(tmp_path / "env-cache")

    def test_resolve_cache_cli_glue(self, tmp_path):
        assert resolve_cache(no_cache=True) is None
        cache = resolve_cache(cache_dir=str(tmp_path))
        assert cache is not None and cache.directory == str(tmp_path)


class TestPeekTupleIds:
    def test_peek_does_not_consume(self):
        reset_tuple_ids()
        assert peek_next_tuple_ids() == 0
        minted = StreamTuple(
            stream=StreamId.R, key=1, origin_node=0, arrival_index=0
        )
        assert minted.tuple_id == 0
        assert peek_next_tuple_ids() == 1
        reset_tuple_ids()
