"""The paper's contribution: DFT-driven approximate distributed joins.

* :mod:`repro.core.correlation` -- stream-similarity estimation from
  exchanged DFT coefficients (Equations 4-8).
* :mod:`repro.core.flow` -- per-peer forwarding probabilities with the
  T_i in [1, log N] budget (Equation 9), worst-case detection, and the
  round-robin fallback.
* :mod:`repro.core.compression` -- compression-factor selection from the
  E[MSE] < 0.25 lossless criterion (Equations 10-12, Figure 6).
* :mod:`repro.core.bounds` -- the analytical error/message bounds of
  Theorems 1-3 (Figures 3 and 4).
* :mod:`repro.core.summaries` -- summary-dissemination bookkeeping
  (coefficient deltas, snapshot tables, piggy-backing).
* :mod:`repro.core.policies` -- the forwarding policies: BASE,
  ROUND_ROBIN, DFT, DFTT, BLOOM, SKCH.
* :mod:`repro.core.node` / :mod:`repro.core.system` -- the distributed
  stream-processing runtime tying everything to the simulated WAN.

The runtime classes (``JoinProcessingNode``, ``DistributedJoinSystem``,
``RunResult``) are loaded lazily (PEP 562): they depend on
:mod:`repro.config`, which itself imports the analysis modules above, and
the lazy hop keeps that dependency acyclic.
"""

from repro.core.bounds import (
    uniform_error_bound,
    uniform_message_complexity,
    zipf_error_bound,
)
from repro.core.compression import (
    choose_compression_factor,
    mse_statistics,
)
from repro.core.correlation import (
    SimilarityMeasure,
    max_lag_correlation,
    spectral_correlation_coefficient,
)
from repro.core.flow import FlowController, FlowSettings

__all__ = [
    "SimilarityMeasure",
    "spectral_correlation_coefficient",
    "max_lag_correlation",
    "FlowController",
    "FlowSettings",
    "choose_compression_factor",
    "mse_statistics",
    "uniform_error_bound",
    "uniform_message_complexity",
    "zipf_error_bound",
    "JoinProcessingNode",
    "DistributedJoinSystem",
    "RunResult",
]

_LAZY = {
    "JoinProcessingNode": ("repro.core.node", "JoinProcessingNode"),
    "DistributedJoinSystem": ("repro.core.system", "DistributedJoinSystem"),
    "RunResult": ("repro.core.results", "RunResult"),
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        module_name, attribute = _LAZY[name]
        return getattr(importlib.import_module(module_name), attribute)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
