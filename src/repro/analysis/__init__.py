"""Post-run analysis helpers.

Turn a finished :class:`~repro.core.system.DistributedJoinSystem` or its
:class:`~repro.core.results.RunResult` into the quantities an operator
would actually look at: who talks to whom (traffic matrices), how evenly
the work spreads (load balance), and what each node currently believes
about its peers (similarity matrices).
"""

from repro.analysis.load_balance import LoadBalanceReport, load_balance_report
from repro.analysis.similarity_matrix import similarity_matrix
from repro.analysis.traffic_matrix import message_matrix, top_talkers

__all__ = [
    "message_matrix",
    "top_talkers",
    "LoadBalanceReport",
    "load_balance_report",
    "similarity_matrix",
]
