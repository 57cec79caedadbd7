"""Property tests: the two fault-plan readers recover every plan exactly.

``--fault-plan`` takes a JSON file or a compact spec.  Seeded random
plans, written in each form by the test-side writers in
``tests/fault_specs.py``, must read back equal: ``FaultPlan.from_json``
inverts the JSON array of event objects and ``FaultPlan.parse`` the
spec, so neither reader drops or bends a field.  Invalid input of either
shape raises :class:`~repro.errors.ConfigurationError` -- never a bare
``ValueError`` -- so CLI callers surface a clean exit 2.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ReproError
from repro.net.faults import FaultEvent, FaultKind, FaultPlan
from tests.fault_specs import event_dict, event_spec, plan_json, plan_spec

NUM_NODES = 6

positive_seconds = st.floats(
    min_value=0.001, max_value=1000.0, allow_nan=False, allow_infinity=False
)
start_seconds = st.floats(
    min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)


def link_pairs():
    return (
        st.tuples(
            st.integers(min_value=0, max_value=NUM_NODES - 1),
            st.integers(min_value=0, max_value=NUM_NODES - 1),
        )
        .filter(lambda pair: pair[0] != pair[1])
    )


def link_selections(min_size=0):
    return st.lists(link_pairs(), min_size=min_size, max_size=4, unique=True).map(
        tuple
    )


@st.composite
def fault_events(draw):
    kind = draw(st.sampled_from(list(FaultKind)))
    start = draw(start_seconds)
    duration = draw(positive_seconds)
    nodes = ()
    links = ()
    loss = 0.0
    extra = 0.0
    downtime = 0.0
    slowdown = 0.0
    if kind is FaultKind.OVERLOAD:
        slowdown = draw(
            st.floats(
                min_value=1.001,
                max_value=1000.0,
                allow_nan=False,
                allow_infinity=False,
            )
        )
        nodes = tuple(
            sorted(
                draw(
                    st.sets(
                        st.integers(min_value=0, max_value=NUM_NODES - 1),
                        min_size=1,
                        max_size=NUM_NODES,
                    )
                )
            )
        )
    elif kind is FaultKind.NODE_CRASH:
        downtime = draw(st.one_of(st.just(0.0), positive_seconds))
        nodes = tuple(
            sorted(
                draw(
                    st.sets(
                        st.integers(min_value=0, max_value=NUM_NODES - 1),
                        min_size=1,
                        max_size=NUM_NODES,
                    )
                )
            )
        )
    elif kind is FaultKind.PARTITION:
        nodes = tuple(
            sorted(
                draw(
                    st.sets(
                        st.integers(min_value=0, max_value=NUM_NODES - 1),
                        min_size=1,
                        max_size=NUM_NODES - 1,
                    )
                )
            )
        )
    elif kind is FaultKind.LINK_OUTAGE:
        links = draw(link_selections(min_size=1))
    elif kind is FaultKind.LOSS_BURST:
        loss = draw(
            st.floats(
                min_value=0.001, max_value=1.0, allow_nan=False, allow_infinity=False
            )
        )
        links = draw(link_selections())
    elif kind is FaultKind.LATENCY_SPIKE:
        extra = draw(positive_seconds)
        links = draw(link_selections())
    event = FaultEvent(
        kind=kind,
        start_s=start,
        duration_s=duration,
        nodes=nodes,
        links=links,
        loss_probability=loss,
        extra_latency_s=extra,
        downtime_s=downtime,
        slowdown_factor=slowdown,
    )
    event.validate(NUM_NODES)
    return event


fault_plans = st.lists(fault_events(), min_size=1, max_size=6).map(
    FaultPlan.from_events
)


class TestJsonRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(plan=fault_plans)
    def test_from_json_inverts_to_json(self, plan):
        assert FaultPlan.from_json(plan_json(plan)) == plan

    @settings(max_examples=50, deadline=None)
    @given(plan=fault_plans)
    def test_round_trip_survives_indentation(self, plan):
        assert FaultPlan.from_json(plan_json(plan, indent=2)) == plan

    @settings(max_examples=50, deadline=None)
    @given(event=fault_events())
    def test_event_dict_round_trip(self, event):
        assert FaultEvent.from_dict(event_dict(event)) == event


class TestSpecRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(plan=fault_plans)
    def test_parse_accepts_every_spec_it_prints(self, plan):
        assert FaultPlan.parse(plan_spec(plan), num_nodes=NUM_NODES) == plan

    @settings(max_examples=50, deadline=None)
    @given(event=fault_events())
    def test_event_spec_round_trip(self, event):
        plan = FaultPlan.parse(event_spec(event), num_nodes=NUM_NODES)
        assert plan.events == (event,)


INVALID_SPECS = [
    "",
    ";",
    "meteor@t=1,d=1",  # unknown kind
    "crash@d=1,node=0",  # missing start time
    "crash@t=1,d=1",  # crash without a node
    "partition@t=1,d=1,nodes=0+1+2+3+4+5",  # nobody on the other side
    "outage@t=1,d=1",  # outage without links
    "outage@t=1,d=1,link=2",  # malformed link
    "outage@t=1,d=1,link=0-0",  # self-loop
    "loss@t=1,d=1,p=1.5",  # probability out of range
    "loss@t=x,d=1,p=0.5",  # unparsable seconds
    "latency@t=1,d=1,extra=-2",  # negative extra latency
    "crash@t=1,d=0,node=1",  # zero duration
    "crash@t=-1,d=1,node=1",  # negative start
    "crash@t=1,d=1,node=9",  # outside the mesh
    "crash@t=1,d=1,node=one",  # non-numeric node
    "crash@t=1,d=1,bogus=3",  # unknown argument
    "crash@t=1,d=1 node=1",  # missing '=' separator
    "crash@t=1,d=1,node=1,downtime=-2",  # negative downtime
    "loss@t=1,d=1,p=0.5,downtime=2",  # downtime is crash-only
    "overload@t=1,d=1,factor=8",  # overload without a node
    "overload@t=1,d=1,node=0,factor=1",  # factor must exceed 1
    "overload@t=1,d=1,node=0,factor=0.5",  # sub-unit factor
    "overload@t=1,d=1,node=0,factor=fast",  # non-numeric factor
    "crash@t=1,d=1,node=0,factor=2",  # factor is overload-only
    "loss_burst@t=1,d=1,p=0.5,nodes=3",  # a loss burst selects links, not nodes
    "latency@t=1,d=1,extra=0.2,nodes=3",  # so does a latency spike
    "partition@t=1,d=1,nodes=0,link=0-1",  # a partition selects nodes
    "overload@t=1,d=1,node=0,factor=2,link=0-1",  # so does an overload
    "crash@t=1,d=1,node=0,p=0.5",  # p is loss-only
]


class TestInvalidSpecs:
    @pytest.mark.parametrize("spec", INVALID_SPECS)
    def test_raises_configuration_error_not_value_error(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(spec, num_nodes=NUM_NODES)

    @pytest.mark.parametrize("text", ["{}", "not json", '{"kind": "loss_burst"}'])
    def test_bad_json_raises_configuration_error(self, text):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json(text)

    @settings(max_examples=100, deadline=None)
    @given(garbage=st.text(alphabet="abc@=,;-0123456789.", max_size=40))
    def test_arbitrary_text_never_raises_bare_errors(self, garbage):
        """parse either succeeds or raises from the library hierarchy."""
        try:
            FaultPlan.parse(garbage, num_nodes=NUM_NODES)
        except ReproError:
            pass
