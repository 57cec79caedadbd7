"""The ingress of a receiver without an inbox, for tests that build links
or network endpoints without a node: every input becomes its own arrival
event (:func:`repro.core.service.schedule_input`)."""

from functools import partial

from repro.core.service import schedule_input


def event_ingress(scheduler):
    """``take`` for a receiver without an inbox on ``scheduler``."""
    return partial(schedule_input, scheduler)


class Sink:
    """A network endpoint without an inbox that keeps what it receives."""

    def __init__(self, scheduler):
        self.received = []
        self.take = event_ingress(scheduler)

    def on_message(self, message):
        self.received.append(message)
