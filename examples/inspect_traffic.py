"""Looking inside a run: traffic matrices, tracing, learned geography.

The analysis helpers answer the questions an operator asks after a run:
who talks to whom, how even is the load, and what did each node actually
learn about its peers?  Telemetry's per-message ``net.*`` events show
the wire-level view.

Run:  python examples/inspect_traffic.py
"""

from repro import (
    Algorithm,
    PolicyConfig,
    SystemConfig,
    TelemetrySettings,
    WorkloadConfig,
)
from repro.analysis import (
    load_balance_report,
    message_matrix,
    similarity_matrix,
    top_talkers,
)
from repro.core.system import DistributedJoinSystem
from repro.streams.tuples import StreamId


def main() -> None:
    config = SystemConfig(
        num_nodes=5,
        window_size=256,
        policy=PolicyConfig(algorithm=Algorithm.DFTT, kappa=16),
        workload=WorkloadConfig(total_tuples=5_000, domain=2_048, arrival_rate=250.0),
        telemetry=TelemetrySettings(enabled=True),
        seed=99,
    )
    system = DistributedJoinSystem(config)
    result = system.run()

    print("run: epsilon=%.3f, %d result pairs\n" % (result.epsilon, result.reported_pairs))

    print("message matrix (row = sender):")
    matrix = message_matrix(system.network)
    for row in matrix:
        print("   " + "  ".join("%5d" % cell for cell in row))

    print("\ntop talkers (source -> destination, messages, bytes):")
    for source, destination, messages, message_bytes in top_talkers(system.network, 3):
        print("   %d -> %d: %5d msgs  %7d bytes" % (source, destination, messages, message_bytes))

    print("\nlearned similarity matrix (node i's belief about peer j, R stream):")
    beliefs = similarity_matrix(system, StreamId.R)
    for row in beliefs:
        print("   " + "  ".join("%4.2f" % cell for cell in row))

    report = load_balance_report(result, metric="busy_seconds")
    print(
        "\nload balance (busy seconds): mean=%.2f max=%.2f Jain=%.3f"
        % (report.mean, report.maximum, report.jain_index)
    )

    print("\nwire traffic: %d messages sent, by kind: %s" % (
        result.traffic["total_messages"], result.messages_by_kind))
    sends = [event for event in system.telemetry.events() if event.name == "net.send"]
    print("last three transmissions:")
    for event in sends[-3:]:
        print(
            "   t=%.3fs  %d -> %d  %-7s %3d bytes"
            % (event.time, event.node, event.attrs["dst"], event.attrs["kind"],
               event.attrs["bytes"])
        )


if __name__ == "__main__":
    main()
