"""Ablation benchmarks for the reproduction's design choices.

Two choices DESIGN.md calls out get quantified here:

* **Similarity measure** -- the DFT policy can derive p_ij from the
  verbatim Equation 4 statistic (SPECTRAL), the all-lags peak (MAX_LAG),
  or the reconstructed-histogram overlap (DISTRIBUTION, the default).
  On i.i.d. ZIPF windows the lag-based statistics carry little routing
  information (their expectation is alignment-dependent), which is
  exactly why the default is the distribution form.
* **Summary refresh cadence** -- more frequent refreshes mean fresher
  remote state but more summary bytes.
"""

from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
from repro.core.correlation import SimilarityMeasure
from repro.core.flow import FlowSettings
from repro.core.system import run_experiment


def _dft_config(measure, refresh=32, seed=17):
    return SystemConfig(
        num_nodes=6,
        window_size=256,
        policy=PolicyConfig(
            algorithm=Algorithm.DFT,
            kappa=16,
            similarity=measure,
            summary_refresh_interval=refresh,
            flow=FlowSettings(budget_override=2.0),
        ),
        workload=WorkloadConfig(total_tuples=4000, domain=2048, arrival_rate=250.0),
        seed=seed,
    )


def test_ablation_similarity_measure(benchmark):
    """DISTRIBUTION similarity routes better than the lag-based forms."""

    def sweep():
        return {
            measure: run_experiment(_dft_config(measure)).epsilon
            for measure in SimilarityMeasure
        }

    errors = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for measure, epsilon in errors.items():
        print("  %-13s epsilon=%.3f" % (measure.value, epsilon))
    assert errors[SimilarityMeasure.DISTRIBUTION] <= min(
        errors[SimilarityMeasure.SPECTRAL], errors[SimilarityMeasure.MAX_LAG]
    ) + 0.02


def test_ablation_refresh_cadence(benchmark):
    """Fresher summaries cost overhead; staleness costs accuracy."""

    def sweep():
        rows = []
        for refresh in (8, 32, 128):
            result = run_experiment(_dft_config(SimilarityMeasure.DISTRIBUTION, refresh))
            rows.append((refresh, result.epsilon, result.summary_overhead_fraction))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for refresh, epsilon, overhead in rows:
        print("  refresh=%-4d epsilon=%.3f overhead=%.3f" % (refresh, epsilon, overhead))
    overheads = [overhead for _, _, overhead in rows]
    assert overheads == sorted(overheads, reverse=True)  # fresher = costlier