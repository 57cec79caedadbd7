"""Stream substrate: tuples, sliding windows, and workload generators.

The paper joins two streams R and S whose segments are spread over N nodes.
This package provides:

* :class:`~repro.streams.tuples.StreamTuple` and stream identifiers;
* sliding windows measured in tuples, time, or up to a landmark
  (:mod:`repro.streams.window`);
* the synthetic workloads of Section 6 -- UNI (uniform) and ZIPF
  (Zipf, alpha = 0.4) integer streams over ``[1, 2**19]``
  (:mod:`repro.streams.generators`);
* synthetic stand-ins for the paper's real workloads: FIN, a financial
  trade stream with random-walk prices (:mod:`repro.streams.financial`),
  and NWRK, a network packet trace with heavy-hitter flows
  (:mod:`repro.streams.network`);
* a geographic-skew partitioner that assigns tuples to nodes with
  locality, creating the cross-node correlation structure the DFT
  algorithms exploit (:mod:`repro.streams.partitioner`).
"""

from repro.streams.financial import FinancialStreamConfig, financial_stream
from repro.streams.generators import uniform_stream, zipf_stream, zipf_weights
from repro.streams.network import NetworkTraceConfig, network_trace_stream
from repro.streams.partitioner import GeographicPartitioner, PartitionerConfig
from repro.streams.tuples import StreamId, StreamTuple
from repro.streams.window import (
    CountWindow,
    LandmarkWindow,
    SlidingWindow,
    TimeWindow,
)

__all__ = [
    "StreamId",
    "StreamTuple",
    "SlidingWindow",
    "CountWindow",
    "TimeWindow",
    "LandmarkWindow",
    "uniform_stream",
    "zipf_stream",
    "zipf_weights",
    "FinancialStreamConfig",
    "financial_stream",
    "NetworkTraceConfig",
    "network_trace_stream",
    "GeographicPartitioner",
    "PartitionerConfig",
]
