"""Benchmarks regenerating Table II (one bench per method family).

Each bench runs a method's full anonymize step on the smoke fleet; the
`test_bench_table2_end_to_end` bench regenerates the whole table
(anonymization + every metric) exactly as
``python -m repro.experiments.table2`` does.
"""

import pytest

from repro.api import run
from repro.experiments.evaluate import evaluate_method
from repro.experiments.methods import SYNTHETIC_METHODS, table2_specs
from repro.experiments.table2 import run as run_table2

METHOD_LABELS = (
    "SC",
    "RSC-1",
    "W4M",
    "GLOVE",
    "KLT",
    "DPT",
    "AdaTrace",
    "PureG",
    "PureL",
    "GL",
)


@pytest.mark.parametrize("label", METHOD_LABELS)
def test_bench_method_anonymize(benchmark, config, fleet, label):
    spec = table2_specs(config)[label]
    result = benchmark.pedantic(
        lambda: run(spec, fleet.dataset).dataset, rounds=3, iterations=1
    )
    assert len(result) == len(fleet.dataset)


@pytest.mark.parametrize("label", ("SC", "GL"))
def test_bench_method_evaluation(benchmark, config, fleet, label):
    """Benchmark the metric computation for one anonymized dataset."""
    anonymized = run(table2_specs(config)[label], fleet.dataset).dataset
    evaluation = benchmark.pedantic(
        lambda: evaluate_method(
            fleet.dataset,
            anonymized,
            fleet,
            config,
            synthetic=label in SYNTHETIC_METHODS,
        ),
        rounds=2,
        iterations=1,
    )
    assert evaluation.values["LAs"] is not None


def test_bench_table2_end_to_end(benchmark, bench_timer, config):
    """The full Table II pipeline on a reduced method subset."""
    results = benchmark.pedantic(
        lambda: bench_timer(
            "table2",
            "end_to_end_s",
            lambda: run_table2(config, methods=["SC", "PureG", "PureL", "GL"]),
        ),
        rounds=1,
        iterations=1,
    )
    assert set(results) == {"SC", "PureG", "PureL", "GL"}
    for values in results.values():
        assert values["INF"] is not None
