"""Unit tests for the forwarding policies (in isolation from the runtime)."""

import numpy as np
import pytest

from repro.bloom.counting import CountingBloomFilter
from repro.config import Algorithm, PolicyConfig
from repro.core import correlation
from repro.core.flow import FlowController, FlowSettings
from repro.core.policies import (
    BloomPolicy,
    BroadcastPolicy,
    DftPolicy,
    DfttPolicy,
    PolicyContext,
    RoundRobinPolicy,
    SketchPolicy,
    dftt,
    make_policy,
    make_shared_state,
)
from repro.core.policies.dft import UNKNOWN_PEER_SIMILARITY, WaterFill
from repro.core.summaries import DftSummaryManager, SummaryOutbox, SummaryUpdate
from repro.core.system import DistributedJoinSystem
from repro.dft.reconstruction import reconstruct_values
from repro.errors import ConfigurationError
from repro.sketches.hashing import FourWiseHashFamily
from repro.streams.tuples import StreamId, StreamTuple
from tests.reference_decision import (
    join_estimate,
    join_estimates,
    reconstructed_window,
    reference_bernoulli_destinations,
    reference_distribution_similarity,
)

WINDOW = 32
DOMAIN = 1024


def make_context(algorithm, num_nodes=4, seed=0, **policy_kwargs):
    config = PolicyConfig(algorithm=algorithm, kappa=4.0, **policy_kwargs)
    return PolicyContext(
        node_id=0,
        peer_ids=tuple(range(1, num_nodes)),
        window_size=WINDOW,
        domain=DOMAIN,
        config=config,
        rng=np.random.default_rng(seed),
    )


def make_tuple(key, stream=StreamId.R, index=0):
    return StreamTuple(stream=stream, key=key, origin_node=0, arrival_index=index)


def feed(policy, keys, stream=StreamId.R):
    for index, key in enumerate(keys):
        policy.on_local_insert(make_tuple(key, stream, index), [])


def window_map(center, seed, bins=8):
    """Coefficients of a remote window of keys within +-5 of ``center``."""
    rng = np.random.default_rng(seed)
    values = rng.integers(center - 5, center + 5, size=WINDOW).astype(float)
    spectrum = np.fft.fft(values)
    return {k: complex(spectrum[k]) for k in range(bins)}


def dft_update(payload, version, stream=StreamId.S, full=False):
    return SummaryUpdate("dft", stream, version, WINDOW, len(payload), payload, full)


class TestPolicyContext:
    def test_rejects_self_peer(self):
        with pytest.raises(ConfigurationError):
            PolicyContext(
                node_id=0,
                peer_ids=(0, 1),
                window_size=8,
                domain=10,
                config=PolicyConfig(),
            )

    def test_rejects_duplicate_peers(self):
        with pytest.raises(ConfigurationError):
            PolicyContext(
                node_id=0,
                peer_ids=(1, 1),
                window_size=8,
                domain=10,
                config=PolicyConfig(),
            )

    def test_num_nodes(self):
        context = make_context(Algorithm.BASE)
        assert context.num_nodes == 4


class TestFactory:
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_factory_builds_each_algorithm(self, algorithm):
        context = make_context(algorithm)
        shared = make_shared_state(context.config, WINDOW, rng=np.random.default_rng(1))
        policy = make_policy(context, shared)
        assert policy.name == algorithm.value or (
            algorithm is Algorithm.ROUND_ROBIN and policy.name == "RR"
        )

    def test_bloom_without_shared_state_rejected(self):
        context = make_context(Algorithm.BLOOM)
        with pytest.raises(ConfigurationError):
            make_policy(context, {})

    def test_sketch_without_shared_state_rejected(self):
        context = make_context(Algorithm.SKCH)
        with pytest.raises(ConfigurationError):
            make_policy(context, {})


class TestBroadcastPolicy:
    def test_sends_to_everyone(self):
        policy = BroadcastPolicy(make_context(Algorithm.BASE))
        assert policy.choose_destinations(make_tuple(5)) == [1, 2, 3]


class TestRoundRobinPolicy:
    def test_integer_budget_cycles(self):
        context = make_context(
            Algorithm.ROUND_ROBIN, flow=FlowSettings(budget_override=2.0)
        )
        policy = RoundRobinPolicy(context)
        first = policy.choose_destinations(make_tuple(1))
        second = policy.choose_destinations(make_tuple(2))
        third = policy.choose_destinations(make_tuple(3))
        assert first == [1, 2]
        assert second == [3, 1]
        assert third == [2, 3]

    def test_fractional_budget_expected_rate(self):
        context = make_context(
            Algorithm.ROUND_ROBIN, num_nodes=6, flow=FlowSettings(budget_override=1.5)
        )
        policy = RoundRobinPolicy(context)
        total = sum(len(policy.choose_destinations(make_tuple(i))) for i in range(2000))
        assert total / 2000 == pytest.approx(1.5, abs=0.1)


class TestDftPolicy:
    def test_unknown_peers_get_prior_similarity(self):
        policy = DftPolicy(make_context(Algorithm.DFT))
        feed(policy, range(1, 33))
        similarities = policy.peer_similarities(StreamId.R)
        assert all(value == 0.5 for value in similarities.values())

    def test_summaries_broadcast_after_refresh_interval(self):
        context = make_context(Algorithm.DFT, summary_refresh_interval=8)
        policy = DftPolicy(context)
        feed(policy, range(1, 9))
        assert policy.outbox.has_pending(1)

    def test_remote_summary_shapes_similarity(self):
        context = make_context(Algorithm.DFT, num_nodes=3, summary_refresh_interval=4)
        policy = DftPolicy(context)
        # Local R window lives around 100.
        feed(policy, [100 + (i % 5) for i in range(WINDOW)], stream=StreamId.R)

        policy.on_remote_summary(1, dft_update(window_map(100, 1), version=1))
        policy.on_remote_summary(2, dft_update(window_map(900, 2), version=1))
        similarities = policy.peer_similarities(StreamId.R)
        assert similarities[1] > similarities[2]

    def test_destinations_within_peers(self):
        policy = DftPolicy(make_context(Algorithm.DFT))
        feed(policy, range(1, 40))
        for index in range(20):
            destinations = policy.choose_destinations(make_tuple(index + 1))
            assert set(destinations).issubset({1, 2, 3})

    @pytest.mark.xfail(
        strict=True,
        reason="one worst_case_mode flag serves both streams, so the S "
        "rebuild overwrites the verdict of the cached R probabilities",
    )
    def test_each_stream_keeps_its_own_worst_case_verdict(self, monkeypatch):
        policy = DftPolicy(make_context(Algorithm.DFT))
        feed(policy, range(1, WINDOW + 1))  # tuples_seen reaches W
        for peer in policy.peer_ids:
            for stream in (StreamId.R, StreamId.S):
                policy.on_remote_summary(
                    peer, dft_update(window_map(100 * peer, peer), 1, stream)
                )
        flat = dict.fromkeys(policy.peer_ids, 0.4)
        varied = {1: 0.9, 2: 0.1, 3: 0.5}
        monkeypatch.setattr(
            policy,
            "peer_similarities",
            lambda stream: flat if stream is StreamId.R else varied,
        )
        policy._rebuild(StreamId.R)  # every peer known: worst case
        policy._rebuild(StreamId.S)  # varied: not the worst case
        policy.choose_destinations(make_tuple(7, StreamId.R))
        assert policy.fallback_decisions == 1  # R still takes round-robin

    def test_checkpoint_records_the_latest_rebuilds_weight(self, monkeypatch):
        """An older rebuild's fill read after a newer one was solved leaves
        the checkpoint with the newer weight, as when every rebuild solved
        on the spot."""
        policy = DftPolicy(make_context(Algorithm.DFT))
        older = {1: 0.9, 2: 0.1, 3: 0.5}
        newer = {1: 0.2, 2: 0.8, 3: 0.3}
        monkeypatch.setattr(
            policy,
            "peer_similarities",
            lambda stream: older if stream is StreamId.R else newer,
        )
        older_fill = policy._rebuild(StreamId.R)
        policy._solve(policy._rebuild(StreamId.S))
        policy._solve(older_fill)  # the older fill is read last
        weights = {}
        for name, similarities in (("older", older), ("newer", newer)):
            controller = FlowController(4)
            controller.probabilities(similarities)
            weights[name] = controller.last_weight
        assert weights["older"] != weights["newer"]
        assert policy.checkpoint_state()["flow"]["last_weight"] == weights["newer"]

    def test_a_fill_spends_the_budget_read_at_its_rebuild(self, monkeypatch):
        """A queue-depth step too small to drop the fill moves the budget
        before the fill's first read; the solve keeps the rebuild's T."""
        policy = DftPolicy(
            make_context(Algorithm.DFT, flow=FlowSettings(adaptive=True))
        )
        similarities = {1: 0.9, 2: 0.1, 3: 0.5}
        monkeypatch.setattr(policy, "peer_similarities", lambda stream: similarities)
        fill = policy._rebuild(StreamId.R)
        rebuilt_at = policy.flow.budget
        policy.observe_congestion(6)  # scale 1 -> 0.93: the fill stays
        assert policy.flow.budget < rebuilt_at
        expected = FlowController(4, FlowSettings(adaptive=True))
        assert policy._rebuild(StreamId.R) is fill
        assert policy._solve(fill) == expected.probabilities(similarities)

    def test_a_congestion_reset_restores_the_kept_budget(self):
        """A crash's soft-state wipe puts the flow controller's scale and
        its kept budget back to the uncongested ones."""
        settings = FlowSettings(adaptive=True)
        policy = DftPolicy(make_context(Algorithm.DFT, flow=settings))
        policy.observe_congestion(40)
        assert policy.flow.budget == settings.budget(4, 0.0) < settings.budget(4)
        policy.reset_congestion()
        assert policy.flow.congestion_scale == 1.0
        assert policy.flow.budget == settings.budget(4)

    def test_diagnostics_keys(self):
        policy = DftPolicy(make_context(Algorithm.DFT))
        diagnostics = policy.diagnostics()
        assert "uniform_detections" in diagnostics
        assert "dft_broadcasts" in diagnostics


class TestBernoulliCoins:
    def test_zero_probabilities_draw_no_coin(self):
        policy = DftPolicy(make_context(Algorithm.DFT))
        before = policy.context.rng.bit_generator.state
        assert policy._bernoulli_destinations({1: 0.0, 2: 0.0, 3: 0.0}) == []
        assert policy._bernoulli_destinations({}) == []
        assert policy.context.rng.bit_generator.state == before

    def test_one_draw_is_one_scalar_coin_per_live_peer(self):
        probabilities = {1: 0.3, 2: 0.0, 3: 1.0, 4: 0.7, 5: 0.0, 6: 0.5}
        policies = [DftPolicy(make_context(Algorithm.DFT, seed=11)) for _ in range(2)]
        for _ in range(50):
            assert policies[0]._bernoulli_destinations(
                probabilities
            ) == reference_bernoulli_destinations(policies[1], probabilities)
        states = [policy.context.rng.bit_generator.state for policy in policies]
        assert states[0] == states[1]


class TestDfttPolicy:
    def _policy_with_remote(self, center=100, num_nodes=3):
        context = make_context(Algorithm.DFTT, num_nodes=num_nodes, summary_refresh_interval=4)
        policy = DfttPolicy(context)
        feed(policy, [center + (i % 3) for i in range(WINDOW)], stream=StreamId.R)
        values = np.full(WINDOW, float(center))
        spectrum = np.fft.fft(values)
        payload = {k: complex(spectrum[k]) for k in range(8)}
        update = SummaryUpdate("dft", StreamId.S, 1, WINDOW, 8, payload, False)
        policy.on_remote_summary(1, update)
        return policy

    def test_reconstruction_lazy_and_cached(self):
        policy = self._policy_with_remote()
        window = reconstructed_window(policy, 1, StreamId.S)
        assert window is not None
        assert policy.reconstruction_refreshes == 1
        reconstructed_window(policy, 1, StreamId.S)
        assert policy.reconstruction_refreshes == 1  # cached

    def test_join_estimate_hits_constant_window(self):
        policy = self._policy_with_remote(center=100)
        estimate = join_estimate(policy, make_tuple(100, StreamId.R), 1)
        assert estimate is not None and estimate > WINDOW // 2

    def test_join_estimate_unknown_peer_is_none(self):
        policy = self._policy_with_remote()
        assert join_estimate(policy, make_tuple(100, StreamId.R), 2) is None

    def test_destinations_prefer_estimated_matches(self):
        policy = self._policy_with_remote(center=100)
        destinations = policy.choose_destinations(make_tuple(100, StreamId.R))
        assert 1 in destinations

    def test_an_estimate_hit_solves_no_fill(self, monkeypatch):
        policy = self._policy_with_remote(center=100)
        solves = []
        original = FlowController.probabilities

        def counting(controller, *args):
            solves.append(1)
            return original(controller, *args)

        monkeypatch.setattr(FlowController, "probabilities", counting)
        policy.choose_destinations(make_tuple(100, StreamId.R))
        assert (policy.estimate_hits, solves) == (1, [])
        # A key no window holds misses, and the miss spends the fill.
        policy.choose_destinations(make_tuple(900, StreamId.R))
        assert (policy.estimate_misses, solves) == (1, [1])

    def test_match_tolerance_floor(self):
        policy = self._policy_with_remote()
        assert policy.match_tolerance(StreamId.R) >= 0.5


def reconstructed_rows(calls):
    """Rows of the recorded ``reconstruct_values`` inputs: a list is one
    batch of maps, anything else one map."""
    return sum(len(inputs) if isinstance(inputs, list) else 1 for inputs in calls)


def count_calls(monkeypatch, module):
    """Record the inputs of ``reconstruct_values`` calls made through
    ``module``'s global (the name ``benchmarks/e2e`` patches too)."""
    original = module.reconstruct_values
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "reconstruct_values", counting)
    return calls


class TestDerivedRowsFollowTheirSlot:
    """What DFT/DFTT derive from a remote coefficient map is kept until
    that map changes -- so the failure mode is staleness."""

    def _policy(self):
        context = make_context(Algorithm.DFTT, num_nodes=4, summary_refresh_interval=4)
        policy = DfttPolicy(context)
        feed(policy, [100 + (i % 5) for i in range(WINDOW)], stream=StreamId.R)
        policy.on_remote_summary(1, dft_update(window_map(100, 1), version=1))
        policy.on_remote_summary(2, dft_update(window_map(300, 2), version=1))
        return policy

    def _expected_similarity(self, policy, peer):
        return reference_distribution_similarity(
            policy.managers[StreamId.R].local_coefficients(),
            policy.remote.get(peer, StreamId.S),
            WINDOW,
            DOMAIN,
        )

    def _expected_window(self, policy, peer):
        return np.sort(
            reconstruct_values(
                policy.remote.get(peer, StreamId.S), WINDOW, round_to_int=False
            )
        )

    def test_delta_rederives_only_the_slot_it_changed(self, monkeypatch):
        policy = self._policy()
        before = dict(policy.peer_similarities(StreamId.R))
        window_1 = reconstructed_window(policy, 1, StreamId.S)
        window_2 = reconstructed_window(policy, 2, StreamId.S)
        assert policy.reconstruction_refreshes == 2
        histogram_inputs = count_calls(monkeypatch, correlation)
        window_inputs = count_calls(monkeypatch, dftt)

        policy.on_remote_summary(2, dft_update({0: 100.0 * WINDOW + 0j}, version=2))

        after = policy.peer_similarities(StreamId.R)
        assert after[1] == before[1]
        assert after[2] != before[2]
        assert after[2] == self._expected_similarity(policy, 2)
        assert after[3] == UNKNOWN_PEER_SIMILARITY
        # One inverse DFT of peer 2's slot and the local window: peer 1's
        # row was not rebuilt.
        assert len(histogram_inputs) == 1
        *slots, local = histogram_inputs[0]
        assert slots == [policy.remote.get(2, StreamId.S)]
        bins, coefficients = policy.managers[StreamId.R].dft.coefficient_view()
        assert np.array_equal(local[0], bins)
        assert np.array_equal(local[1], coefficients)
        assert np.array_equal(reconstructed_window(policy, 1, StreamId.S), window_1)
        changed = reconstructed_window(policy, 2, StreamId.S)
        assert not np.array_equal(changed, window_2)
        assert np.array_equal(changed, self._expected_window(policy, 2))
        # DFTT's sorted row is the same reconstruction, not a second one;
        # the counter still counts it as the old lazy table did.
        assert window_inputs == []
        assert policy.reconstruction_refreshes == 3

    def test_older_version_is_dropped_and_invalidates_nothing(self, monkeypatch):
        policy = self._policy()
        policy.on_remote_summary(1, dft_update(window_map(100, 1), version=5))
        similarities = policy.peer_similarities(StreamId.R)
        window = reconstructed_window(policy, 1, StreamId.S)
        refreshes = policy.reconstruction_refreshes
        histogram_inputs = count_calls(monkeypatch, correlation)
        window_inputs = count_calls(monkeypatch, dftt)

        for stale_version in (5, 2):
            policy.on_remote_summary(
                1, dft_update(window_map(900, 9), version=stale_version)
            )

        assert policy.peer_similarities(StreamId.R) is similarities
        assert np.array_equal(reconstructed_window(policy, 1, StreamId.S), window)
        assert policy.reconstruction_refreshes == refreshes
        assert histogram_inputs == [] and window_inputs == []

    def test_full_state_resync_replaces_the_row(self):
        policy = self._policy()
        policy.peer_similarities(StreamId.R)
        reconstructed_window(policy, 1, StreamId.S)
        snapshot = {0: 900.0 * WINDOW + 0j}

        policy.on_remote_summary(1, dft_update(snapshot, version=2, full=True))

        # Derived from the snapshot alone, not merged over the old bins.
        assert policy.remote.get(1, StreamId.S) == snapshot
        assert policy.peer_similarities(StreamId.R)[1] == self._expected_similarity(
            policy, 1
        )
        assert np.array_equal(
            reconstructed_window(policy, 1, StreamId.S), np.full(WINDOW, 900.0)
        )

    def test_restore_forgets_every_derived_row(self):
        policy = self._policy()
        item = make_tuple(100, StreamId.R)
        assert join_estimate(policy, item, 1) > 0
        assert policy.peer_similarities(StreamId.R)[1] > 0.5
        state = policy.checkpoint_state()

        policy.restore_state(state)

        assert set(policy.peer_similarities(StreamId.R).values()) == {
            UNKNOWN_PEER_SIMILARITY
        }
        assert join_estimates(policy, item) == {1: None, 2: None, 3: None}
        assert reconstructed_window(policy, 1, StreamId.S) is None

        # The rolled-back sender: peer 1 re-uses version 1 for different
        # coefficients.  A row remembered by version alone would survive.
        policy.on_remote_summary(1, dft_update(window_map(900, 3), version=1))

        similarities = policy.peer_similarities(StreamId.R)
        assert similarities[1] == self._expected_similarity(policy, 1)
        assert similarities[1] < 0.5
        assert similarities[2] == similarities[3] == UNKNOWN_PEER_SIMILARITY
        assert join_estimates(policy, item) == {1: 0, 2: None, 3: None}
        assert np.array_equal(
            reconstructed_window(policy, 1, StreamId.S),
            self._expected_window(policy, 1),
        )


def run_dftt_script(num_nodes, inserts, remote_updates, seed=5):
    """Node 0's DFTT policy through ``inserts`` local arrivals (one decision
    each) while its peers broadcast ``remote_updates`` coefficient deltas,
    evenly interleaved.  Keys cluster per node for the first half of the
    run and are uniform for the second, so estimates hit, then miss, then
    the worst-case detector fires."""
    rng = np.random.default_rng(seed)
    policy = DfttPolicy(
        make_context(Algorithm.DFTT, num_nodes, seed, summary_refresh_interval=8)
    )
    budget = policy.context.config.summary_budget(WINDOW)
    slots = [
        (peer, stream) for peer in policy.peer_ids for stream in (StreamId.R, StreamId.S)
    ]
    managers = {
        slot: DftSummaryManager(slot[1], WINDOW, budget, 10**9, 0.05, SummaryOutbox([0]))
        for slot in slots
    }

    def keys(node, count, skewed):
        if skewed:
            center = 200 * (node % 3 + 1)
            return np.clip(center + rng.integers(-4, 5, size=count), 1, DOMAIN)
        return rng.integers(1, DOMAIN + 1, size=count)

    every = inserts // remote_updates
    sent = 0
    for index in range(inserts):
        skewed = index < inserts // 2
        stream = (StreamId.R, StreamId.S)[index % 2]
        item = make_tuple(int(keys(0, 1, skewed)[0]), stream, index)
        policy.on_local_insert(item, [])
        policy.choose_destinations(item)
        if index % every == every - 1 and sent < remote_updates:
            peer, _ = slot = slots[sent % len(slots)]
            for key in keys(peer, WINDOW // 2, skewed):
                managers[slot].observe(int(key))
            update = managers[slot].refresh()
            assert update is not None
            policy.on_remote_summary(peer, update)
            sent += 1
    assert sent == remote_updates
    return policy


class TestDecisionCost:
    def test_scripted_diagnostics_match_the_pairwise_implementation(self):
        """Values recorded by running this script on the commit before the
        per-slot rows (PR 17): the lazy refresh must count what the dirty
        bit counted, worst-case stretches that skip the read included."""
        diagnostics = run_dftt_script(4, 400, 80).diagnostics()
        assert diagnostics["reconstruction_refreshes"] == 56
        assert diagnostics["estimate_hits"] == 210
        assert diagnostics["estimate_misses"] == 24
        assert diagnostics["uniform_detections"] == 64

    def test_inverse_dfts_scale_with_changes_not_with_peers(self, monkeypatch):
        """A gate in counts: one batched call per similarity rebuild (the
        slots that changed, each applied update at most once, plus the
        local window) and one per tolerance calibration.  Per-peer
        recomputation (2 x peers x rebuilds: 767 calls on this script
        before the per-slot rows) trips it on any machine, and so does a
        second row per applied update (196 rows here, 168 with one)."""
        calls = count_calls(monkeypatch, correlation)
        calls_dftt = count_calls(monkeypatch, dftt)
        rebuilds = []
        original = WaterFill.__init__

        def counting(fill, similarities, target):  # one fill per rebuild
            rebuilds.append(1)
            original(fill, similarities, target)

        monkeypatch.setattr(WaterFill, "__init__", counting)
        run_dftt_script(6, 200, 40)
        assert len(rebuilds) > 40
        assert len(calls) <= len(rebuilds)
        assert len(calls_dftt) <= len(rebuilds)
        assert reconstructed_rows(calls) <= 40 + len(calls)
        assert reconstructed_rows(calls_dftt) == len(calls_dftt)

    def _all_slots(self):
        """Node 0's DFTT policy with both slots of every peer applied and
        both local windows full, after one decision per stream."""
        policy = DfttPolicy(make_context(Algorithm.DFTT, num_nodes=4))
        feed(policy, [100 + (i % 5) for i in range(WINDOW)], stream=StreamId.R)
        feed(policy, [300 + (i % 7) for i in range(WINDOW)], stream=StreamId.S)
        for peer in policy.peer_ids:
            for stream in (StreamId.R, StreamId.S):
                policy.on_remote_summary(
                    peer, dft_update(window_map(100 * peer, peer), 1, stream)
                )
        for stream in (StreamId.R, StreamId.S):
            policy.choose_destinations(make_tuple(100, stream))
        return policy

    def test_an_applied_update_is_reconstructed_once(self, monkeypatch):
        """The histogram and DFTT's sorted window of the changed slot come
        from one reconstructed row (two independent tables made two)."""
        policy = self._all_slots()
        refreshes = policy.reconstruction_refreshes
        calls = count_calls(monkeypatch, correlation)
        calls_dftt = count_calls(monkeypatch, dftt)

        policy.on_remote_summary(2, dft_update(window_map(700, 9), version=2))
        policy.choose_destinations(make_tuple(100, StreamId.R))
        policy.choose_destinations(make_tuple(101, StreamId.R))

        remote_rows = [
            coefficients
            for inputs in calls + calls_dftt
            for coefficients in (inputs if isinstance(inputs, list) else [inputs])
            if isinstance(coefficients, dict)
        ]
        assert remote_rows == [policy.remote.get(2, StreamId.S)]
        # DFTT's table still counts the row it now shares.
        assert policy.reconstruction_refreshes == refreshes + 1

    def test_each_rebuild_is_one_call(self, monkeypatch):
        """Three changed slots and the local window are one inverse DFT; the
        tolerance calibration after it is one more."""
        policy = self._all_slots()
        for peer in policy.peer_ids:
            policy.on_remote_summary(
                peer, dft_update(window_map(50 * peer, peer + 10), 2)
            )
        calls = count_calls(monkeypatch, correlation)
        calls_dftt = count_calls(monkeypatch, dftt)

        policy.peer_similarities(StreamId.R)
        assert len(calls) == 1
        *slots, local = calls[0]
        assert sorted(map(id, slots)) == sorted(
            id(policy.remote.get(peer, StreamId.S)) for peer in policy.peer_ids
        )
        assert isinstance(local, tuple)  # the sliding DFT's own arrays
        assert calls_dftt == []

        policy.match_tolerance(StreamId.S)
        assert len(calls) == 1
        assert len(calls_dftt) == 1


def remote_filter(policy, peer, stream):
    """The filter a BLOOM ``policy`` holds for ``peer``'s ``stream``;
    ``None`` until one arrives (or for a non-peer)."""
    slot = policy._peer_slots.get(peer)
    return None if slot is None else policy._remote_filters[stream][slot]


class TestBloomPolicy:
    def _pair(self, num_nodes=3, seed=2):
        config = PolicyConfig(
            algorithm=Algorithm.BLOOM, kappa=2.0, summary_refresh_interval=4
        )
        shared = make_shared_state(config, WINDOW, rng=np.random.default_rng(seed))
        contexts = [
            PolicyContext(
                node_id=i,
                peer_ids=tuple(p for p in range(num_nodes) if p != i),
                window_size=WINDOW,
                domain=DOMAIN,
                config=config,
                rng=np.random.default_rng(seed + i),
            )
            for i in range(num_nodes)
        ]
        return [BloomPolicy(c, shared) for c in contexts]

    def test_snapshot_exchange_enables_membership(self):
        a, b, _ = self._pair()
        feed(b, [500] * 8, stream=StreamId.S)
        update = b.outbox.take(0)
        for u in update:
            a.on_remote_summary(1, u)
        remote = remote_filter(a, 1, StreamId.S)
        assert remote is not None
        assert 500 in remote

    def test_destinations_follow_hits(self):
        a, b, c = self._pair()
        feed(b, [500] * 8, stream=StreamId.S)
        feed(c, [900] * 8, stream=StreamId.S)
        for update in b.outbox.take(0):
            a.on_remote_summary(1, update)
        for update in c.outbox.take(0):
            a.on_remote_summary(2, update)
        hits = [a.choose_destinations(make_tuple(500, StreamId.R, i)) for i in range(20)]
        assert all(1 in destinations for destinations in hits)

    def test_window_eviction_updates_filter(self):
        a, _, _ = self._pair()
        item = make_tuple(42, StreamId.R)
        a.on_local_insert(item, [])
        assert 42 in a.filters[StreamId.R]
        newer = make_tuple(43, StreamId.R)
        a.on_local_insert(newer, [item])
        assert 42 not in a.filters[StreamId.R]

    def test_a_decision_probes_each_peer_with_a_filter_once(self, monkeypatch):
        """One ``count_estimate`` per peer whose opposite-stream filter has
        arrived, none for a peer still unknown or for the same stream."""
        a, b, c, d = self._pair(num_nodes=4)
        feed(b, [500] * 8, stream=StreamId.S)
        feed(d, [700] * 8, stream=StreamId.S)
        feed(c, [900] * 8, stream=StreamId.R)
        for source, peer in ((1, b), (3, d), (2, c)):
            for update in peer.outbox.take(0):
                a.on_remote_summary(source, update)
        probed = []
        original = CountingBloomFilter.count_estimate

        def counting(bloom, key):
            probed.append(bloom)
            return original(bloom, key)

        monkeypatch.setattr(CountingBloomFilter, "count_estimate", counting)
        for index, key in enumerate((500, 700, 900, 4)):
            probed.clear()
            a.choose_destinations(make_tuple(key, StreamId.R, index))
            assert probed == [remote_filter(a, 1, StreamId.S), remote_filter(a, 3, StreamId.S)]
        assert remote_filter(a, 2, StreamId.S) is None
        assert remote_filter(a, 2, StreamId.R) is not None
        assert remote_filter(a, 0, StreamId.S) is None  # not a peer of node 0

    def test_a_key_is_hashed_once_per_filter_family(self, monkeypatch, bloom_telemetry_config):
        """A gate in counts, on a whole scripted run: every filter of a
        stream comes from one template by ``spawn_compatible``, so hash
        evaluations are bounded by the distinct (family, key) pairs.  One
        evaluation per filter per question (3,530 on this script before
        PR 23) trips it on any machine."""
        evaluated = []
        original = FourWiseHashFamily.raw

        def counting(family, key):
            evaluated.append((id(family), int(key)))
            return original(family, key)

        monkeypatch.setattr(FourWiseHashFamily, "raw", counting)
        result = DistributedJoinSystem(bloom_telemetry_config).run()
        assert result.reported_pairs > 0
        assert 2 * 32 <= len(set(evaluated)) <= 2 * 64  # two families, domain 64
        assert len(evaluated) <= len(set(evaluated))


class TestSketchPolicy:
    def test_similarities_track_overlap(self):
        config = PolicyConfig(
            algorithm=Algorithm.SKCH, kappa=1.0, summary_refresh_interval=4
        )
        shared = make_shared_state(config, WINDOW, rng=np.random.default_rng(3))
        contexts = [
            PolicyContext(
                node_id=i,
                peer_ids=tuple(p for p in range(3) if p != i),
                window_size=WINDOW,
                domain=DOMAIN,
                config=config,
                rng=np.random.default_rng(10 + i),
            )
            for i in range(3)
        ]
        a, b, c = [SketchPolicy(ctx, shared) for ctx in contexts]
        feed(a, [100 + i % 4 for i in range(WINDOW)], stream=StreamId.R)
        feed(b, [100 + i % 4 for i in range(WINDOW)], stream=StreamId.S)  # overlaps a
        feed(c, [700 + i % 4 for i in range(WINDOW)], stream=StreamId.S)  # disjoint
        for update in b.outbox.take(0):
            a.on_remote_summary(1, update)
        for update in c.outbox.take(0):
            a.on_remote_summary(2, update)
        similarities = a.peer_similarities(StreamId.R)
        assert similarities[1] > similarities[2]
