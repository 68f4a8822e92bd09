"""Benchmarks regenerating Figure 5 (index efficiency).

One bench per search strategy over the same query workload, plus the
local-vs-global modification timing. pytest-benchmark's comparison
output *is* the left panel of the figure: Linear should be slowest by
a wide margin and HG+ fastest among the hierarchical strategies.
"""

import pytest

from repro.core.modification import index_extent
from repro.experiments.fig5 import (
    _build_indexes,
    _query_points,
    modification_timings,
    run as run_fig5,
)


@pytest.fixture(scope="module")
def indexed(config, fleet):
    bbox = index_extent(fleet.dataset.bbox())
    linear, uniform, hierarchical = _build_indexes(fleet.dataset, bbox)
    queries = _query_points(fleet.dataset, config.signature_size, limit=60)
    return linear, uniform, hierarchical, queries


def test_bench_search_linear(benchmark, indexed):
    linear, _, _, queries = indexed
    benchmark(lambda: [linear.knn(q, 8) for q in queries])


def test_bench_search_uniform_grid(benchmark, indexed):
    _, uniform, _, queries = indexed
    benchmark(lambda: [uniform.knn(q, 8) for q in queries])


def test_bench_search_hg_top_down(benchmark, indexed):
    _, _, hierarchical, queries = indexed
    benchmark(
        lambda: [hierarchical.knn(q, 8, strategy="top_down") for q in queries]
    )


def test_bench_search_hg_bottom_up(benchmark, indexed):
    _, _, hierarchical, queries = indexed
    benchmark(
        lambda: [hierarchical.knn(q, 8, strategy="bottom_up") for q in queries]
    )


def test_bench_search_hg_bottom_up_down(benchmark, indexed):
    _, _, hierarchical, queries = indexed
    benchmark(
        lambda: [
            hierarchical.knn(q, 8, strategy="bottom_up_down") for q in queries
        ]
    )


def test_bench_modification_split(benchmark, config):
    """Right panel: global (inter) vs local (intra) modification time."""
    timings = benchmark.pedantic(
        lambda: modification_timings(config, sizes=(10,)), rounds=1, iterations=1
    )
    assert timings["Global"][0] > 0
    assert timings["Local"][0] > 0


def test_bench_fig5_end_to_end(benchmark, bench_timer, config):
    results = benchmark.pedantic(
        lambda: bench_timer(
            "fig5",
            "end_to_end_s",
            lambda: run_fig5(config, sizes=(10, 20)),
        ),
        rounds=1,
        iterations=1,
    )
    assert set(results["search"]) == {"Linear", "UG", "HGt", "HGb", "HG+"}
