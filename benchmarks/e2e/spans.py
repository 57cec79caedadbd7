"""Outside-in span tracing: wrappers installed from the benchmark's files.

Nothing under ``src/`` knows about this module.  A traced run patches
the class attributes / module names yielded by :func:`_targets` before the
system is built, records one span (name, start, end, parent) per call on
a single stack, and restores the originals afterwards.  Spans live in
four parallel ``array`` columns (24 bytes per span), are summarized with
numpy after the run, and can be written out as one ``.npz`` file.

Layer = module name.  ``busy_s`` is inclusive span time, ``self_s`` is
span time minus the part covered by child spans, so the ``self_s`` of
every span under a root add up to the root's ``busy_s``.  A span nested
directly inside a span of the same name (an override calling ``super()``)
adds to ``self_s`` only, never to ``calls`` or ``busy_s``.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT_SPAN = "net.simulator.run"
"""The span around every ``run_window`` / ``run`` call of the measured
phase; its self time is the scheduler heap plus node glue that no other
span covers."""


def _results_of_insert(returned) -> int:
    return len(returned[0])


def _produced_update(returned) -> int:
    return 0 if returned is None else 1


_POLICY_CLASSES = (
    "repro.core.policies.base:ForwardingPolicy",
    "repro.core.policies.base:BroadcastPolicy",
    "repro.core.policies.round_robin:RoundRobinPolicy",
    "repro.core.policies.dft:DftPolicy",
    "repro.core.policies.dftt:DfttPolicy",
    "repro.core.policies.bloom:BloomPolicy",
    "repro.core.policies.sketch:SketchPolicy",
)
_POLICY_HOOKS = ("choose_destinations", "on_local_insert", "on_remote_summary")

# (span name, "module:Class" or "module", attribute, items-of-return or None).
# Names imported by value are patched where they are looked up.
_FIXED_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("net.topology.send", "repro.net.topology:Network", "send", None),
    ("core.node.on_message", "repro.core.node:JoinProcessingNode", "on_message", None),
    ("core.correlation.similarity", "repro.core.policies.dft", "similarity", None),
    ("dft.reconstruction.reconstruct_values", "repro.core.correlation", "reconstruct_values", None),
    ("dft.reconstruction.reconstruct_values", "repro.core.policies.dftt", "reconstruct_values", None),
    ("core.flow.probabilities", "repro.core.flow:FlowController", "probabilities", None),
    ("core.summaries.refresh", "repro.core.summaries:DftSummaryManager", "refresh", _produced_update),
    ("core.summaries.refresh", "repro.core.summaries:SnapshotSummaryManager", "refresh", _produced_update),
    ("core.summaries.observe", "repro.core.summaries:DftSummaryManager", "observe", None),
    ("core.summaries.observe", "repro.core.summaries:SnapshotSummaryManager", "tick", None),
    ("dft.sliding.update", "repro.dft.sliding:SlidingDFT", "update", None),
    ("bloom.contains", "repro.bloom.counting:CountingBloomFilter", "__contains__", None),
    ("bloom.contains", "repro.bloom.counting:CountingBloomFilter", "count_estimate", None),
    ("bloom.add_remove", "repro.bloom.counting:CountingBloomFilter", "add", None),
    ("bloom.add_remove", "repro.bloom.counting:CountingBloomFilter", "remove", None),
    ("join.hash_join.insert_local", "repro.join.hash_join:SymmetricHashJoin", "insert_local", _results_of_insert),
    ("join.hash_join.probe_remote", "repro.join.hash_join:SymmetricHashJoin", "probe_remote", len),
    ("metrics.accounting.replay", "repro.core.system", "replay_accounting", None),
    ("telemetry.emit", "repro.telemetry.events:TelemetryHub", "emit", None),
    ("telemetry.emit", "repro.telemetry.events:TelemetryHub", "on_message_send", None),
    ("telemetry.emit", "repro.telemetry.events:TelemetryHub", "on_message_deliver", None),
    ("telemetry.emit", "repro.telemetry.events:TelemetryHub", "on_message_drop", None),
    ("telemetry.sample_tick", "repro.telemetry.events:TelemetryHub", "sample_tick", None),
    ("net.reliable.send", "repro.net.reliable:ReliableTransport", "send", None),
    ("net.reliable.on_receive", "repro.net.reliable:ReliableTransport", "on_receive", None),
    ("net.faults.queries", "repro.net.faults:FaultInjector", "node_down", None),
    ("net.faults.queries", "repro.net.faults:FaultInjector", "restartable_down", None),
    ("net.faults.queries", "repro.net.faults:FaultInjector", "link_blocked", None),
    ("net.faults.queries", "repro.net.faults:FaultInjector", "extra_loss", None),
    ("net.faults.queries", "repro.net.faults:FaultInjector", "extra_latency", None),
    ("net.faults.queries", "repro.net.faults:FaultInjector", "service_factor", None),
    ("recovery.take_checkpoint", "repro.core.node:JoinProcessingNode", "take_checkpoint", None),
    ("overload.observe", "repro.overload.detector:OverloadDetector", "observe", None),
    ("core.health.heard", "repro.core.health:PeerHealthMonitor", "heard", None),
    ("core.health.send_heartbeats", "repro.core.node:JoinProcessingNode", "send_heartbeats", None),
)


def _targets():
    yield from _FIXED_TARGETS
    for owner in _POLICY_CLASSES:
        for hook in _POLICY_HOOKS:
            yield (
                "core.policies.%s" % hook,
                owner,
                hook,
                len if hook == "choose_destinations" else None,
            )


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class _Span:
    """Context manager for one explicitly opened span."""

    __slots__ = ("_recorder", "_name_id", "_index")

    def __init__(self, recorder: "SpanRecorder", name_id: int) -> None:
        self._recorder = recorder
        self._name_id = name_id

    def __enter__(self) -> "_Span":
        self._index = self._recorder._open(self._name_id)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._recorder._close(self._index)


class SpanRecorder:
    """In-memory span store on one stack.

    Also speaks :class:`repro.profiling.KernelProfiler`'s ``section`` /
    ``snapshot`` interface, so it can be passed as ``profiler=`` (an
    existing public hook) to turn every node service into a
    ``core.node.<kind>`` span.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.items: List[int] = []
        """Per span name: the summed item count of wrapped returns (results
        of a probe, destinations of a decision, updates of a refresh)."""
        self._ids: Dict[str, int] = {}
        self._name_ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self._installed: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._starts)

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
            self.items.append(0)
        return found

    def _open(self, name_id: int) -> int:
        index = len(self._starts)
        self._name_ids.append(name_id)
        self._parents.append(self._stack[-1])
        self._ends.append(0.0)
        self._stack.append(index)
        self._starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._ends[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> _Span:
        return _Span(self, self.name_id(name))

    # -- KernelProfiler interface -------------------------------------

    def section(self, name: str, items: int = 1) -> _Span:
        return _Span(self, self.name_id("core." + name))

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Lands in ``RunResult.profile``, which the result digest skips."""
        return {}

    # -- wrappers ------------------------------------------------------

    def wrap(self, name: str, function: Callable, items_of: Optional[Callable] = None) -> Callable:
        """``function`` with one span per call.  The clock is read last on
        entry and first on exit, so bookkeeping lands in the parent's self
        time rather than in this span."""
        name_id = self.name_id(name)
        name_ids, parents = self._name_ids, self._parents
        starts, ends, stack = self._starts, self._ends, self._stack
        items = self.items
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                returned = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if items_of is not None:
                items[name_id] += items_of(returned)
            return returned

        return traced

    def install(self) -> None:
        """Patch every target of :func:`_targets`; undo with :meth:`uninstall`."""
        for name, path, attribute, items_of in _targets():
            owner = _resolve(path)
            original = vars(owner).get(attribute)
            if original is None or getattr(original, "__isabstractmethod__", False):
                continue  # inherited (the base is patched) or never called
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original, items_of))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- summaries -----------------------------------------------------

    def summarize(self, lo: int, hi: int) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls`` / ``busy_s`` / ``self_s`` of spans ``lo..hi-1``.

        The range is expected to hold whole subtrees (every span opened
        and closed between two marks); a parent outside the range counts
        as no parent.
        """
        ids = np.frombuffer(self._name_ids, dtype=np.intc)[lo:hi]
        parents = np.frombuffer(self._parents, dtype=np.intc)[lo:hi] - lo
        duration = (
            np.frombuffer(self._ends, dtype=np.float64)[lo:hi]
            - np.frombuffer(self._starts, dtype=np.float64)[lo:hi]
        )
        count = len(self.names)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested], minlength=hi - lo)
        own = duration - covered
        outer = np.ones(hi - lo, dtype=bool)
        outer[nested] = ids[parents[nested]] != ids[nested]
        calls = np.bincount(ids[outer], minlength=count)
        busy = np.bincount(ids[outer], weights=duration[outer], minlength=count)
        self_time = np.bincount(ids, weights=own, minlength=count)
        return {
            name: {
                "calls": int(calls[index]),
                "busy_s": float(busy[index]),
                "self_s": float(self_time[index]),
            }
            for index, name in enumerate(self.names)
            if calls[index] or self_time[index]
        }

    def save(self, path: str) -> None:
        """Write every span (name id, parent index, start, end) to ``path``."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self._name_ids, dtype=np.intc),
            parent=np.frombuffer(self._parents, dtype=np.intc),
            start=np.frombuffer(self._starts, dtype=np.float64),
            end=np.frombuffer(self._ends, dtype=np.float64),
        )
