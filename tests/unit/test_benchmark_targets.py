"""Tier-1 guard for what ``benchmarks/e2e`` patches and reads under ``src/``.

``SpanRecorder.install()`` skips a target whose attribute is missing, so a
rename under ``src/`` would turn a per-layer metric into 0 without failing
anything.  This fails instead.
"""

from benchmarks.e2e import child, spans
from benchmarks.e2e.cell import BY_NAME, SMOKE_CELL, system_config
from repro.core.system import DistributedJoinSystem


def test_every_span_target_resolves():
    missing = []
    for name, path, attribute, _ in spans._targets():
        owner = spans._resolve(path)
        if not hasattr(owner, attribute):  # inherited counts
            missing.append("%s -> %s.%s" % (name, path, attribute))
    assert not missing


def test_node_exposes_what_the_child_reads():
    """``child._state_counters`` on the cell that turns every subsystem on."""
    config = system_config(SMOKE_CELL, BY_NAME["chaos-bloom-n20"], 7, 100)
    counters = child._state_counters(DistributedJoinSystem(config))
    assert counters["tuples_serviced"] == 0
    assert counters["checkpoint_bytes"] > 0  # the t=0 baseline checkpoints
