"""The batched, per-slot-cached forwarding decision equals the pairwise one.

PR 19 derives a remote slot's histogram / sorted reconstruction once per
change of its coefficient map and compares against all peers at once.
That is only admissible because it changes *nothing* about the numbers:
every assertion here is ``==`` against ``tests/reference_decision.py``
(the pre-change pairwise code), never ``approx``.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Algorithm, PolicyConfig
from repro.core.flow import FlowSettings
from repro.core.correlation import (
    histogram_cosines,
    histogram_edges,
    histogram_search_edges,
    sorted_histograms,
)
from repro.core.policies import DftPolicy, DfttPolicy, PolicyContext
from repro.core.policies.dft import UNKNOWN_PEER_SIMILARITY
from repro.core.summaries import SummaryUpdate
from repro.dft.reconstruction import reconstruct_values
from repro.dft.sliding import low_frequency_bins
from repro.streams.tuples import StreamId, StreamTuple
from tests.reference_decision import (
    EagerDft,
    EagerDftt,
    distribution_similarity,
    join_estimate,
    join_estimates,
    reconstructed_window,
    reference_bucket_values,
    reference_distribution_similarity,
    reference_join_estimate,
    reference_reconstruct_values,
)

STREAMS = (StreamId.R, StreamId.S)
SHAPES = ("uniform", "constant", "step", "edges", "narrow")
FILLS = ("full", "half", "wrapped")


def make_keys(shape, fill, window, domain, rng):
    """One window's worth of keys of a named shape.

    ``step`` (half the window at 1, half at ``domain``) rings well outside
    ``[1, domain]`` once truncated; ``edges`` puts keys on and next to the
    64-bin edges; ``half`` leaves the window half empty.
    """
    count = {"full": window, "half": window // 2, "wrapped": window + window // 3}[fill]
    if shape == "uniform":
        keys = rng.integers(1, domain + 1, size=count)
    elif shape == "constant":
        keys = np.full(count, int(rng.integers(1, domain + 1)))
    elif shape == "step":
        keys = np.where(np.arange(count) < count // 2, 1, domain)
    elif shape == "edges":
        edges = histogram_edges(domain)
        near = np.concatenate([np.floor(edges), np.ceil(edges)])
        keys = rng.choice(np.clip(near, 1, domain).astype(np.int64), size=count)
    else:
        center = int(rng.integers(1, domain + 1))
        keys = np.clip(center + rng.integers(-3, 4, size=count), 1, domain)
    return [int(key) for key in keys]


def coefficient_map(keys, window, budget):
    """What a peer holding ``keys`` (newest last) would have broadcast."""
    values = np.zeros(window)
    tail = keys[-window:]
    values[: len(tail)] = tail
    spectrum = np.fft.fft(values)
    return {int(k): complex(spectrum[k]) for k in low_frequency_bins(window, budget)}


@st.composite
def scenarios(draw):
    window = draw(st.integers(8, 256))
    kappa = draw(st.sampled_from([1.0, 2.0, 4.0, 16.0, float(window)]))
    domain = draw(st.integers(2, 5000).filter(lambda d: d % 64 != 0))
    num_peers = draw(st.integers(1, 6))
    rounds = draw(st.integers(1, 3))
    window_kinds = st.tuples(st.sampled_from(SHAPES), st.sampled_from(FILLS))
    script = []
    for _ in range(rounds):
        local = {stream: draw(window_kinds) for stream in STREAMS}
        remote = {
            (peer, stream): draw(
                st.one_of(
                    st.none(),
                    st.tuples(window_kinds, st.sampled_from(["delta", "full"])),
                )
            )
            for peer in range(1, num_peers + 1)
            for stream in STREAMS
        }
        script.append((local, remote))
    seed = draw(st.integers(0, 2**32 - 1))
    return window, kappa, domain, num_peers, script, seed


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_policy_decision_equals_pairwise_reference(scenario):
    window, kappa, domain, num_peers, script, seed = scenario
    rng = np.random.default_rng(seed)
    config = PolicyConfig(
        algorithm=Algorithm.DFTT, kappa=kappa, summary_refresh_interval=1
    )
    peer_ids = tuple(range(1, num_peers + 1))
    policy = DfttPolicy(
        PolicyContext(
            node_id=0,
            peer_ids=peer_ids,
            window_size=window,
            domain=domain,
            config=config,
            rng=np.random.default_rng(seed),
        )
    )
    budget = config.summary_budget(window)
    versions = {}
    arrival = 0
    for local, remote in script:
        probes = [1, domain]
        for (peer, stream), plan in remote.items():
            if plan is None:
                continue
            (shape, fill), mode = plan
            keys = make_keys(shape, fill, window, domain, rng)
            probes.extend(keys[:2])
            payload = coefficient_map(keys, window, budget)
            if mode == "delta":  # a delta re-sends only some of the bins
                payload = {k: v for k, v in payload.items() if rng.random() < 0.6 or k == 0}
            version = versions[(peer, stream)] = versions.get((peer, stream), 0) + 1
            policy.on_remote_summary(
                peer,
                SummaryUpdate(
                    "dft", stream, version, window, len(payload), payload, mode == "full"
                ),
            )
        for stream, (shape, fill) in local.items():
            keys = make_keys(shape, fill, window, domain, rng)
            probes.extend(keys[:2])
            for key in keys:
                policy.on_local_insert(StreamTuple(stream, key, 0, arrival), [])
                arrival += 1

        for stream in STREAMS:
            other = stream.other
            local_map = policy.managers[stream].local_coefficients()
            expected = {
                peer: UNKNOWN_PEER_SIMILARITY
                if policy.remote.get(peer, other) is None
                else reference_distribution_similarity(
                    local_map, policy.remote.get(peer, other), window, domain
                )
                for peer in peer_ids
            }
            assert policy.peer_similarities(stream) == expected
            for key in probes:
                item = StreamTuple(stream, key, 0, arrival)
                estimates = join_estimates(policy, item)
                tolerance = policy.match_tolerance(other)
                assert estimates == {
                    peer: reference_join_estimate(
                        policy.remote.get(peer, other), window, key, tolerance
                    )
                    for peer in peer_ids
                }
                assert all(
                    join_estimate(policy, item, peer) == estimates[peer]
                    for peer in peer_ids
                )

    # A handed-out reconstruction is the caller's: scribbling on it must
    # not reach the table a later decision reads.
    for peer, stream in versions:
        expected = np.sort(
            reconstruct_values(policy.remote.get(peer, stream), window, round_to_int=False)
        )
        handed_out = reconstructed_window(policy, peer, stream)
        assert np.array_equal(handed_out, expected)
        handed_out[:] = -1.0
        assert np.array_equal(reconstructed_window(policy, peer, stream), expected)


@st.composite
def bucketing_cases(draw):
    domain = draw(st.integers(1, 5000))
    num_bins = draw(st.integers(1, 100))
    edges = histogram_edges(domain, num_bins)
    on_edge = st.sampled_from(edges.tolist())
    beside_edge = st.builds(
        lambda edge, up: float(np.nextafter(edge, np.inf if up else -np.inf)),
        on_edge,
        st.booleans(),
    )
    anywhere = st.floats(min_value=-2.0 * domain, max_value=3.0 * domain)
    values = draw(st.lists(st.one_of(on_edge, beside_edge, anywhere), max_size=64))
    return domain, num_bins, np.asarray(values, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(case=bucketing_cases())
def test_bucketing_is_np_histogram(case):
    domain, num_bins, values = case
    expected, _ = np.histogram(
        np.clip(values, 1, domain), bins=num_bins, range=(1, domain + 1)
    )
    bucketed = reference_bucket_values(values, histogram_edges(domain, num_bins))
    assert bucketed.dtype == np.float64
    assert np.array_equal(bucketed, expected)


counts = st.integers(min_value=0, max_value=256)


@settings(max_examples=200, deadline=None)
@given(
    local=st.one_of(st.just([0] * 8), st.lists(counts, min_size=8, max_size=8)),
    stack=st.lists(
        st.one_of(st.just([0] * 8), st.lists(counts, min_size=8, max_size=8)),
        min_size=1,
        max_size=6,
    ),
)
def test_batched_cosines_equal_pairwise_floats(local, stack):
    """All-zero histograms included: a cosine against nothing is 0."""
    local = np.asarray(local, dtype=np.float64)
    stack = np.asarray(stack, dtype=np.float64)

    def pairwise(x_hist, y_hist):  # the tail of the reference, verbatim
        x_norm = np.linalg.norm(x_hist)
        y_norm = np.linalg.norm(y_hist)
        if x_norm == 0.0 or y_norm == 0.0:
            return 0.0
        return float(np.clip(np.dot(x_hist, y_hist) / (x_norm * y_norm), 0.0, 1.0))

    assert histogram_cosines(local, stack).tolist() == [
        pairwise(local, row) for row in stack
    ]


@settings(max_examples=100, deadline=None)
@given(
    window=st.integers(8, 128),
    domain=st.integers(1, 3000),
    shapes=st.tuples(st.sampled_from(SHAPES), st.sampled_from(SHAPES)),
    seed=st.integers(0, 2**32 - 1),
)
def test_public_pairwise_function_is_unchanged(window, domain, shapes, seed):
    rng = np.random.default_rng(seed)
    budget = max(1, window // 4)
    x_map, y_map = (
        coefficient_map(make_keys(shape, "full", window, domain, rng), window, budget)
        for shape in shapes
    )
    assert distribution_similarity(
        x_map, y_map, window, domain
    ) == reference_distribution_similarity(x_map, y_map, window, domain)


finite = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def coefficient_batches(draw):
    """1-8 kept-coefficient maps of one window size, odd or even, each a
    dict or the sliding DFT's ``(bins, values)`` arrays.  Bin 0 and bin
    ``W // 2`` (its own mirror for even W) are drawn often; a map may be
    empty."""
    window = draw(st.integers(8, 256))
    half = window // 2
    maps = []
    for _ in range(draw(st.integers(1, 8))):
        bins = draw(
            st.lists(
                st.one_of(st.sampled_from([0, half]), st.integers(0, half)),
                unique=True,
                max_size=min(half + 1, 12),
            )
        )
        values = [complex(draw(finite), draw(finite)) for _ in bins]
        if draw(st.booleans()):
            maps.append(dict(zip(bins, values)))
        else:
            maps.append(
                (np.asarray(bins, dtype=np.int64), np.asarray(values, dtype=np.complex128))
            )
    return window, maps


def as_dict(coefficients):
    if isinstance(coefficients, dict):
        return coefficients
    bins, values = coefficients
    return dict(zip(bins.tolist(), values.tolist()))


@settings(max_examples=300, deadline=None)
@given(batch=coefficient_batches())
def test_batched_rows_equal_one_map_reconstructions(batch):
    """One ``(k, W)`` inverse DFT returns, row for row, the floats of k
    single-map calls and of the one-map-per-call body it replaced."""
    window, maps = batch
    rows = reconstruct_values(maps, window, round_to_int=False)
    assert rows.dtype == np.float64
    assert rows.shape == (len(maps), window)
    for row, coefficients in zip(rows, maps):
        alone = reconstruct_values(coefficients, window, round_to_int=False)
        assert alone.dtype == np.float64
        assert row.tolist() == alone.tolist()
        assert row.tolist() == reference_reconstruct_values(
            as_dict(coefficients), window
        ).tolist()
    rounded = reconstruct_values(maps, window)
    assert rounded.dtype == np.int64
    assert rounded.tolist() == np.rint(rows).astype(np.int64).tolist()


@st.composite
def histogram_rows(draw):
    """Rows of equal length around the bin edges of one domain: on an edge,
    one float beside it, or anywhere from well below 1 to well above the
    domain (the ringing of a truncated reconstruction)."""
    domain = draw(st.integers(1, 5000))
    num_bins = draw(st.integers(1, 100))
    edges = histogram_edges(domain, num_bins)
    on_edge = st.sampled_from(edges.tolist())
    beside_edge = st.builds(
        lambda edge, up: float(np.nextafter(edge, np.inf if up else -np.inf)),
        on_edge,
        st.booleans(),
    )
    anywhere = st.floats(min_value=-2.0 * domain, max_value=3.0 * domain)
    width = draw(st.integers(0, 64))
    value = st.one_of(on_edge, beside_edge, anywhere)
    rows = [
        draw(st.lists(value, min_size=width, max_size=width))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return edges, np.asarray(rows, dtype=np.float64).reshape(len(rows), width)


@settings(max_examples=300, deadline=None)
@given(case=histogram_rows())
def test_sorted_row_histogram_is_bucket_values(case):
    edges, rows = case
    counts = sorted_histograms(np.sort(rows, axis=1), histogram_search_edges(edges))
    assert counts.dtype == np.float64
    assert counts.shape == (rows.shape[0], edges.size - 1)
    for row, values in zip(counts, rows):
        assert row.tolist() == reference_bucket_values(values, edges).tolist()


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_ranking_on_arrays_equals_the_dict_ranking(scenario):
    """Two policies fed the same script, one deciding through
    ``choose_destinations`` and one through the moved-out bodies (the dict
    ranking on the eager fill and scalar coins): every destination list,
    counter and generator draw agrees."""
    window, kappa, domain, num_peers, script, seed = scenario
    rng = np.random.default_rng(seed)
    config = PolicyConfig(
        algorithm=Algorithm.DFTT, kappa=kappa, summary_refresh_interval=1
    )
    peer_ids = tuple(range(1, num_peers + 1))
    policies = [
        cls(
            PolicyContext(
                node_id=0,
                peer_ids=peer_ids,
                window_size=window,
                domain=domain,
                config=config,
                rng=np.random.default_rng(seed),
            )
        )
        for cls in (DfttPolicy, EagerDftt)
    ]
    budget = config.summary_budget(window)
    versions = {}
    arrival = 0
    for local, remote in script:
        probes = [1, domain]
        updates = []
        for (peer, stream), plan in remote.items():
            if plan is None:
                continue
            (shape, fill), mode = plan
            keys = make_keys(shape, fill, window, domain, rng)
            probes.extend(keys[:3])
            payload = coefficient_map(keys, window, budget)
            if mode == "delta":
                payload = {k: v for k, v in payload.items() if rng.random() < 0.6 or k == 0}
            version = versions[(peer, stream)] = versions.get((peer, stream), 0) + 1
            updates.append(
                (
                    peer,
                    SummaryUpdate(
                        "dft", stream, version, window, len(payload), payload, mode == "full"
                    ),
                )
            )
        inserts = []
        for stream, (shape, fill) in local.items():
            keys = make_keys(shape, fill, window, domain, rng)
            probes.extend(keys[:3])
            for key in keys:
                inserts.append(StreamTuple(stream, key, 0, arrival))
                arrival += 1
        for policy in policies:
            for peer, update in updates:
                policy.on_remote_summary(peer, update)
            for item in inserts:
                policy.on_local_insert(item, [])
        for key in probes:
            for stream in STREAMS:
                item = StreamTuple(stream, key, 0, arrival)
                assert policies[0].choose_destinations(item) == (
                    policies[1].choose_destinations(item)
                )
                assert policies[0].diagnostics() == policies[1].diagnostics()
                states = [p.context.rng.bit_generator.state for p in policies]
                assert states[0] == states[1]


LOCAL_SHAPES = ("uniform", "constant", "narrow")


@st.composite
def interleavings(draw):
    """A random script for one node: local arrivals of either stream (each
    decided after a queue-depth step, so the adaptive budget moves between
    a rebuild and its first read), peer summaries, larger depth steps,
    every peer's slot of one stream told the same window (that stream's
    worst case, once mature) or told apart, checkpoints and restores."""
    window = draw(st.sampled_from([8, 16, 32]))
    num_peers = draw(st.integers(1, 6))
    peer = st.integers(1, num_peers)
    stream = st.sampled_from(STREAMS)
    op = st.one_of(
        st.tuples(
            st.just("arrive"),
            st.sampled_from(LOCAL_SHAPES),
            st.integers(1, 2 * window),
        ),
        st.tuples(
            st.just("summary"),
            peer,
            stream,
            st.sampled_from(SHAPES),
            st.sampled_from(["delta", "full"]),
        ),
        st.tuples(st.just("depth"), st.one_of(st.integers(-3, 3), st.integers(-40, 40))),
        st.tuples(st.just("flip"), stream, st.booleans()),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("restore")),
    )
    script = draw(st.lists(op, min_size=10, max_size=30))
    return (
        draw(st.sampled_from([Algorithm.DFT, Algorithm.DFTT])),
        window,
        draw(st.integers(64, 3000)),
        num_peers,
        draw(st.sampled_from([1, 4, 8, 16])),
        draw(st.integers(0, 40)),
        script,
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=80, deadline=None)
@given(case=interleavings())
def test_deferred_fill_and_block_coins_equal_the_eager_decision(case):
    """The deferred fill and the one-draw coins against the eager bodies
    they replaced: ``==`` on every destination list, the generator state,
    ``diagnostics()``, every checkpoint dict and ``flow.last_weight``."""
    algorithm, window, domain, num_peers, refresh, depth, script, seed = case
    config = PolicyConfig(
        algorithm=algorithm,
        kappa=4.0,
        summary_refresh_interval=refresh,
        flow=FlowSettings(adaptive=True),
    )
    peer_ids = tuple(range(1, num_peers + 1))
    classes = (
        (DftPolicy, EagerDft) if algorithm is Algorithm.DFT else (DfttPolicy, EagerDftt)
    )
    policies = [
        cls(
            PolicyContext(
                node_id=0,
                peer_ids=peer_ids,
                window_size=window,
                domain=domain,
                config=config,
                rng=np.random.default_rng(seed),
            )
        )
        for cls in classes
    ]
    rng = np.random.default_rng(seed + 1)
    budget = config.summary_budget(window)
    versions = {}
    saved = None
    arrival = 0
    for policy in policies:
        policy.observe_congestion(depth)

    def summary(peer, stream, keys, full):
        payload = coefficient_map(keys, window, budget)
        if not full:
            payload = {k: v for k, v in payload.items() if rng.random() < 0.6 or k == 0}
        version = versions[(peer, stream)] = versions.get((peer, stream), 0) + 1
        update = SummaryUpdate("dft", stream, version, window, len(payload), payload, full)
        for policy in policies:
            policy.on_remote_summary(peer, update)

    def same_checkpoints():
        states = [policy.checkpoint_state() for policy in policies]
        assert states[0] == states[1]
        assert policies[0].flow.last_weight == policies[1].flow.last_weight
        return states[0]

    def agree():
        assert policies[0].diagnostics() == policies[1].diagnostics()
        states = [p.context.rng.bit_generator.state for p in policies]
        assert states[0] == states[1]

    for step in script:
        kind = step[0]
        if kind == "arrive":
            _, shape, count = step
            for key in make_keys(shape, "full", count, domain, rng):
                item = StreamTuple(STREAMS[int(rng.integers(0, 2))], key, 0, arrival)
                arrival += 1
                # The node's order: insert, queue depth, decision.  The
                # depth walks, so most steps keep the fills while the
                # budget moves under them.
                depth = min(40, max(0, depth + int(rng.integers(-2, 3))))
                for policy in policies:
                    policy.on_local_insert(item, [])
                    policy.observe_congestion(depth)
                chosen = [policy.choose_destinations(item) for policy in policies]
                assert chosen[0] == chosen[1]
                if rng.random() < 0.05:
                    saved = same_checkpoints()
        elif kind == "summary":
            _, peer, stream, shape, mode = step
            summary(peer, stream, make_keys(shape, "full", window, domain, rng), mode == "full")
        elif kind == "depth":
            depth = min(40, max(0, depth + step[1]))
            for policy in policies:
                policy.observe_congestion(depth)
        elif kind == "flip":
            # Every peer's ``stream`` slot told one window (similarities
            # collapse: the worst case once mature), or each its own band.
            _, stream, uniform = step
            shared = make_keys("uniform", "full", window, domain, rng)
            for peer in peer_ids:
                keys = shared if uniform else make_keys("narrow", "full", window, domain, rng)
                summary(peer, stream, keys, True)
        elif kind == "checkpoint":
            saved = same_checkpoints()
        elif saved is not None:
            for policy in policies:
                policy.restore_state(copy.deepcopy(saved))
        agree()
    same_checkpoints()
