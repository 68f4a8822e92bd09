"""Benchmarks regenerating Figure 4 (the ε sweep).

One bench per panel family: the anonymize+evaluate cycle at a low and a
high privacy budget, plus a reduced end-to-end sweep identical in
structure to ``python -m repro.experiments.fig4``.
"""

import pytest

from repro.api import run
from repro.experiments.evaluate import evaluate_method
from repro.experiments.fig4 import PANELS, run as run_fig4
from repro.experiments.methods import our_model_specs


@pytest.mark.parametrize("epsilon", (0.5, 5.0))
@pytest.mark.parametrize("model", ("PureG", "PureL", "GL"))
def test_bench_model_at_epsilon(benchmark, config, fleet, model, epsilon):
    spec = our_model_specs(config.with_epsilon(epsilon))[model]
    result = benchmark.pedantic(
        lambda: run(spec, fleet.dataset).dataset, rounds=3, iterations=1
    )
    assert len(result) == len(fleet.dataset)


def test_bench_fig4_point(benchmark, config, fleet):
    """One full sweep point: anonymize + all eight panel metrics."""
    swept = config.with_epsilon(1.0)
    anonymized = run(our_model_specs(swept)["GL"], fleet.dataset).dataset
    evaluation = benchmark.pedantic(
        lambda: evaluate_method(fleet.dataset, anonymized, fleet, swept),
        rounds=2,
        iterations=1,
    )
    for panel in PANELS:
        assert panel in evaluation.values


def test_bench_fig4_end_to_end(benchmark, bench_timer, config):
    series = benchmark.pedantic(
        lambda: bench_timer(
            "fig4",
            "end_to_end_s",
            lambda: run_fig4(config, epsilons=(0.5, 5.0)),
        ),
        rounds=1,
        iterations=1,
    )
    assert set(series) == set(PANELS)
    for models in series.values():
        for values in models.values():
            assert len(values) == 2
