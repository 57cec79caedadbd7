"""Unit tests for the deterministic fault-injection framework."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.net.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    load_fault_plan,
)
from repro.net.simulator import EventScheduler
from tests.fault_specs import event_dict, plan_json, plan_spec


def outage(start=1.0, duration=2.0, links=((0, 1),)):
    return FaultEvent(
        kind=FaultKind.LINK_OUTAGE, start_s=start, duration_s=duration, links=links
    )


class TestFaultEvent:
    def test_validation_rejects_bad_windows(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.NODE_CRASH, start_s=-1.0, duration_s=1.0, nodes=(0,)).validate()
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.NODE_CRASH, start_s=0.0, duration_s=0.0, nodes=(0,)).validate()

    def test_kind_specific_requirements(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.NODE_CRASH, 0.0, 1.0).validate()
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.PARTITION, 0.0, 1.0).validate()
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.LINK_OUTAGE, 0.0, 1.0).validate()
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.LOSS_BURST, 0.0, 1.0, loss_probability=0.0).validate()
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.LATENCY_SPIKE, 0.0, 1.0, extra_latency_s=0.0).validate()

    def test_mesh_bounds(self):
        event = FaultEvent(FaultKind.NODE_CRASH, 0.0, 1.0, nodes=(7,))
        event.validate()  # fine without a mesh size
        with pytest.raises(ConfigurationError):
            event.validate(num_nodes=4)
        with pytest.raises(ConfigurationError):
            # A partition must leave somebody on the other side.
            FaultEvent(FaultKind.PARTITION, 0.0, 1.0, nodes=(0, 1)).validate(num_nodes=2)

    def test_partition_affects_only_cut_crossing_links(self):
        event = FaultEvent(FaultKind.PARTITION, 0.0, 1.0, nodes=(0, 1))
        assert event.affects_link(0, 2)
        assert event.affects_link(2, 1)
        assert not event.affects_link(0, 1)
        assert not event.affects_link(2, 3)

    def test_crash_affects_both_directions(self):
        event = FaultEvent(FaultKind.NODE_CRASH, 0.0, 1.0, nodes=(2,))
        assert event.affects_link(2, 0)
        assert event.affects_link(0, 2)
        assert not event.affects_link(0, 1)

    def test_a_field_the_kind_never_reads_is_rejected(self):
        """A loss burst given ``nodes=3`` used to parse and then cover every
        link; each selector or parameter must belong to its kind."""
        for spec in (
            "loss_burst@t=1,d=1,p=0.5,nodes=3",
            "latency_spike@t=1,d=1,extra=0.2,nodes=1",
            "partition@t=1,d=1,nodes=0,link=0-1",
            "overload@t=1,d=1,node=0,factor=2,link=0-1",
            "node_crash@t=1,d=1,node=0,p=0.5",
            "outage@t=1,d=1,link=0-1,extra=0.3",
        ):
            with pytest.raises(ConfigurationError, match="only valid for"):
                FaultPlan.parse(spec, 5)
        with pytest.raises(ConfigurationError):
            FaultEvent.from_dict(
                {"kind": "loss_burst", "start_s": 1, "duration_s": 1,
                 "loss_probability": 0.5, "nodes": [3]}
            )

    def test_dict_round_trip(self):
        event = FaultEvent(
            FaultKind.LOSS_BURST, 1.5, 2.5, links=((0, 1),), loss_probability=0.4
        )
        assert FaultEvent.from_dict(event_dict(event)) == event


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan.from_events(
            [outage(), FaultEvent(FaultKind.NODE_CRASH, 5.0, 1.0, nodes=(2,))]
        )
        restored = FaultPlan.from_json(plan_json(plan))
        assert restored == plan

    def test_parse_spec_grammar(self):
        plan = FaultPlan.parse(
            "partition@t=10s,d=5s; crash@t=8,d=2,node=1; loss@t=3,d=1,p=0.3;"
            " latency@t=4,d=1,extra=0.25; outage@t=1,d=1,link=0-2",
            num_nodes=4,
        )
        kinds = [event.kind for event in plan.events]
        assert kinds == [
            FaultKind.PARTITION,
            FaultKind.NODE_CRASH,
            FaultKind.LOSS_BURST,
            FaultKind.LATENCY_SPIKE,
            FaultKind.LINK_OUTAGE,
        ]
        partition = plan.events[0]
        assert partition.start_s == 10.0 and partition.duration_s == 5.0
        assert partition.nodes == (0, 1)  # default: first half of the mesh

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("bogus@t=1", num_nodes=4)
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("crash@d=2,node=1", num_nodes=4)  # missing t=
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("outage@t=1,link=0", num_nodes=4)  # malformed link
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("", num_nodes=4)

    @pytest.mark.parametrize(
        "spec",
        [
            "overload@t=1,d=2,node=0,factor=inf",  # overflowed the run
            "latency@t=1,d=2,extra=inf",  # overflowed the run
            "loss@t=nan,d=2,p=0.3",  # lost messages from no start time
            "latency@t=1,d=nan,extra=0.5",  # silently inert
            "crash@t=1,d=inf,node=2",  # simulated time inf s
            "crash@t=1,d=2,node=2,downtime=nan",
            "loss@t=1,t=2,d=2,p=0.3",  # kept the last t
            "loss@t=1,d=2,p=0.3,p=0.5",  # kept the last p
            "latency@t=1,d=2,d=3,extra=0.5",
            "crash@t=1,node=2,downtime=1,downtime=2",
            "overload@t=1,d=2,node=0,factor=2,factor=3",
            "latency@t=1,d=2,extra=0.5,extra=0.7",
        ],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(spec, num_nodes=4)

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "loss_burst", "start_s": float("nan"), "duration_s": 2.0,
             "loss_probability": 0.3},
            {"kind": "node_crash", "start_s": 1.0, "duration_s": float("inf"),
             "nodes": [1]},
            {"kind": "latency_spike", "start_s": 1.0, "duration_s": 2.0,
             "extra_latency_s": float("nan")},
            {"kind": "node_crash", "start_s": 1.0, "duration_s": 2.0,
             "nodes": [1], "downtime_s": float("nan")},
        ],
        ids=["start", "duration", "extra-latency", "downtime"],
    )
    def test_non_finite_json_fields_raise(self, payload):
        """``json`` reads ``NaN`` / ``Infinity`` in a plan file as floats."""
        with pytest.raises(ConfigurationError, match="must be finite"):
            FaultPlan.from_json(json.dumps([payload]))

    def test_selectors_stay_repeatable(self):
        plan = FaultPlan.parse(
            "crash@t=1,d=2,node=1,node=2; outage@t=1,d=1,link=0-1,link=1-0", 4
        )
        assert plan.events[0].nodes == (1, 2)
        assert plan.events[1].links == ((0, 1), (1, 0))

    def test_to_json_is_canonical_and_invertible(self):
        plan = FaultPlan.from_events(
            [outage(), FaultEvent(FaultKind.NODE_CRASH, 5.0, 1.0, nodes=(2,))]
        )
        assert FaultPlan.from_json(plan_json(plan)) == plan
        assert FaultPlan.from_json(plan_json(plan, indent=2)) == plan

    def test_to_spec_round_trips_through_parse(self):
        plan = FaultPlan.parse(
            "partition@t=10s,d=5s; crash@t=8,d=2,node=1; loss@t=3,d=1,p=0.3;"
            " latency@t=4,d=1,extra=0.25; outage@t=1,d=1,link=0-2",
            num_nodes=4,
        )
        assert FaultPlan.parse(plan_spec(plan), num_nodes=4) == plan

    def test_load_fault_plan_from_files(self, tmp_path):
        plan = FaultPlan.from_events([outage()])
        json_file = tmp_path / "plan.json"
        json_file.write_text(plan_json(plan))
        assert load_fault_plan(str(json_file), 4) == plan
        spec_file = tmp_path / "plan.txt"
        spec_file.write_text("crash@t=2,d=1,node=0")
        loaded = load_fault_plan(str(spec_file), 4)
        assert loaded.events[0].kind is FaultKind.NODE_CRASH
        assert load_fault_plan("loss@t=1,d=1,p=0.2", 4).events[0].loss_probability == 0.2


class TestFaultInjector:
    @staticmethod
    def probe_at(scheduler, time, query, results):
        """Capture a point query mid-run (the scheduler drains fully)."""
        scheduler.schedule_at(time, lambda: results.append(query()))

    def test_windows_activate_and_deactivate(self):
        scheduler = EventScheduler()
        injector = FaultInjector(FaultPlan.from_events([outage(1.0, 2.0)]), 4)
        injector.install(scheduler)
        assert not injector.link_blocked(0, 1)
        during, reverse, after = [], [], []
        self.probe_at(scheduler, 1.5, lambda: injector.link_blocked(0, 1), during)
        self.probe_at(scheduler, 1.5, lambda: injector.link_blocked(1, 0), reverse)
        self.probe_at(scheduler, 3.5, lambda: injector.link_blocked(0, 1), after)
        scheduler.run()
        assert during == [True]
        assert reverse == [False]  # directed
        assert after == [False]
        assert injector.activations == {"link_outage": 1}

    def test_crash_and_partition_queries(self):
        scheduler = EventScheduler()
        plan = FaultPlan.from_events(
            [
                FaultEvent(FaultKind.NODE_CRASH, 1.0, 2.0, nodes=(2,)),
                FaultEvent(FaultKind.PARTITION, 1.0, 2.0, nodes=(0,)),
            ]
        )
        injector = FaultInjector(plan, 4)
        injector.install(scheduler)
        seen = []
        self.probe_at(
            scheduler,
            1.5,
            lambda: (
                injector.node_down(2),
                injector.node_down(0),
                injector.link_blocked(0, 3),  # partition cut
                injector.link_blocked(1, 2),  # crash endpoint
                injector.link_blocked(1, 3),
            ),
            seen,
        )
        scheduler.run()
        assert seen == [(True, False, True, True, False)]

    def test_loss_and_latency_compose(self):
        scheduler = EventScheduler()
        plan = FaultPlan.from_events(
            [
                FaultEvent(FaultKind.LOSS_BURST, 0.0, 5.0, loss_probability=0.5),
                FaultEvent(FaultKind.LOSS_BURST, 0.0, 5.0, loss_probability=0.5),
                FaultEvent(FaultKind.LATENCY_SPIKE, 0.0, 5.0, extra_latency_s=0.2),
            ]
        )
        injector = FaultInjector(plan, 4)
        injector.install(scheduler)
        during, after = [], []
        self.probe_at(
            scheduler, 1.0,
            lambda: (injector.extra_loss(0, 1), injector.extra_latency(0, 1)), during,
        )
        self.probe_at(
            scheduler, 6.0,
            lambda: (injector.extra_loss(0, 1), injector.extra_latency(0, 1)), after,
        )
        scheduler.run()
        assert during[0][0] == pytest.approx(0.75)  # 1 - 0.5^2
        assert during[0][1] == pytest.approx(0.2)
        assert after == [(0.0, 0.0)]

    def test_idle_answers_equal_unaffected_answers_in_value_and_type(self):
        """With nothing active every query answers at once; the answer is
        what the scan over an active-but-unrelated fault gives, type
        included (``extra_latency`` is the int a ``sum`` of nothing is)."""
        scheduler = EventScheduler()
        injector = FaultInjector(FaultPlan.from_events([outage(1.0, 2.0, ((2, 3),))]), 4)
        injector.install(scheduler)

        def answers():
            return [
                injector.node_down(0),
                injector.restartable_down(0),
                injector.link_blocked(0, 1),
                injector.extra_loss(0, 1),
                injector.extra_latency(0, 1),
                injector.service_factor(0),
            ]

        idle = answers()
        unaffected = []
        self.probe_at(scheduler, 1.5, answers, unaffected)
        scheduler.run()
        assert idle == [False, False, False, 0.0, 0, 1.0]
        assert idle == unaffected[0] == answers()
        assert [type(value) for value in idle] == [type(value) for value in unaffected[0]]

    def test_tables_are_rebuilt_once_per_edge(self, monkeypatch):
        plan = FaultPlan.from_events(
            [
                outage(1.0, 2.0),
                outage(1.0, 2.0),
                FaultEvent(FaultKind.OVERLOAD, 0.5, 1.0, nodes=(1,), slowdown_factor=2.0),
                FaultEvent(FaultKind.NODE_CRASH, 2.0, 1.0, nodes=(3,), downtime_s=1.0),
            ]
        )
        scheduler = EventScheduler()
        injector = FaultInjector(plan, 4)
        injector.install(scheduler)
        rebuilds = []
        original = FaultInjector._rebuild

        def counting(self):
            rebuilds.append(scheduler.now)
            original(self)

        monkeypatch.setattr(FaultInjector, "_rebuild", counting)
        scheduler.run()
        edges = sorted(
            time for event in plan.events for time in (event.start_s, event.end_s)
        )
        assert rebuilds == edges
        assert injector.link_faults == {} and not injector.node_down(3)

    def test_summary_counters(self):
        scheduler = EventScheduler()
        injector = FaultInjector(FaultPlan.from_events([outage()]), 4)
        injector.install(scheduler)
        injector.note_blocked()
        injector.note_blocked()
        scheduler.run()
        summary = injector.summary()
        assert summary["fault_events"] == 1.0
        assert summary["messages_blocked"] == 2.0
        assert summary["activations_link_outage"] == 1.0

    def test_plan_validated_against_mesh(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(
                FaultPlan.from_events(
                    [FaultEvent(FaultKind.NODE_CRASH, 0.0, 1.0, nodes=(9,))]
                ),
                4,
            )
