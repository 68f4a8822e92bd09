"""Figure 5: efficiency of the search strategies and modification stages.

Left panel — K-nearest-segment search cost of the five strategies
(Linear, UG, HGt, HGb, HG+) over growing dataset sizes. The paper
measures the full modification pipeline; since the pipeline's cost is
dominated by its kNN searches, we time a fixed batch of searches per
strategy against the same dataset-wide segment index — the isolation
makes the strategy comparison exact while keeping pure-Python runtimes
sane.

Right panel — wall-clock share of local (intra-) vs global (inter-)
trajectory modification, timed on the real pipeline (the paper reports
global at 90 %+ of total time). The global stage searches the index
the pipeline picks: a flat scan below ``MIN_SEGMENTS_FOR_GRID``
segments (every smoke size, and the default preset up to 100
trajectories) and the grid's HG+ search at or above it.

Invoke with::

    python -m repro.experiments.fig5 [smoke|default|large] [workers]
                                     [--dataset REF]

``workers > 1`` additionally times the batch engine's sharded local
stage (``repro.engine.BatchAnonymizer``) next to the serial one —
the timings panel is otherwise always measured serially, since pooling
would distort the strategy comparison. ``--dataset`` runs the timing
sweep over growing subsets of an ingested real dataset instead of
synthetic fleets of growing size.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

from repro.api import MethodSpec, run as run_spec
from repro.core.modification import MIN_SEGMENTS_FOR_GRID, index_extent
from repro.core.signature import SignatureExtractor
from repro.datagen.generator import generate_fleet
from repro.experiments.config import (
    ExperimentConfig,
    load_experiment_input,
    parse_driver_args,
)
from repro.geo.geometry import BBox
from repro.index.hierarchical import HierarchicalGridIndex
from repro.index.linear import LinearSegmentIndex
from repro.index.uniform import UniformGridIndex

#: Strategy labels of the left panel, in the paper's order.
SEARCH_METHODS = ("Linear", "UG", "HGt", "HGb", "HG+")

DEFAULT_SIZES = (25, 50, 100, 200)
SMOKE_SIZES = (10, 20)

#: The hierarchical grid's search strategies of the left panel, keyed
#: by the paper's labels.
HIERARCHICAL_STRATEGIES = (
    ("HGt", "top_down"),
    ("HGb", "bottom_up"),
    ("HG+", "bottom_up_down"),
)


def _dataset_for_size(config: ExperimentConfig, size: int):
    """The ``size``-trajectory dataset of one sweep step.

    Synthetic mode generates a fresh fleet of that size; real-data mode
    takes the first ``size`` trajectories of the ingested dataset (so
    the growth axis stays comparable across sizes).
    """
    if config.dataset:
        return load_experiment_input(config).dataset.subset(size)
    return generate_fleet(replace(config.fleet, n_objects=size)).dataset


def effective_sizes(
    config: ExperimentConfig, sizes: tuple[int, ...]
) -> tuple[int, ...]:
    """Clamp the size axis to what the dataset can actually provide.

    In real-data mode a requested size beyond the ingested dataset
    would silently repeat the full dataset and fake a flat scaling
    curve; clamp and deduplicate instead, so every labelled size is a
    genuine measurement. Synthetic mode generates any size, so it
    passes through.
    """
    if not config.dataset:
        return sizes
    available = len(load_experiment_input(config).dataset)
    return tuple(sorted({min(size, available) for size in sizes}))


def _build_indexes(dataset, bbox: BBox):
    # Paper setting: 512x512 for the uniform grid and for the finest
    # level of the hierarchical grid (levels=10 -> 2^9 = 512 per side).
    linear = LinearSegmentIndex()
    uniform = UniformGridIndex(bbox, granularity=512)
    hierarchical = HierarchicalGridIndex(bbox, levels=10)
    for trajectory in dataset:
        for _, a, b in trajectory.segments():
            linear.insert(a.coord, b.coord, owner=trajectory.object_id)
            uniform.insert(a.coord, b.coord, owner=trajectory.object_id)
            hierarchical.insert(a.coord, b.coord, owner=trajectory.object_id)
    return linear, uniform, hierarchical


def _query_points(dataset, signature_size: int, limit: int = 200):
    """kNN query workload: the dataset's signature locations (what the
    modification step actually searches for)."""
    index = SignatureExtractor(m=signature_size).extract(dataset)
    return sorted(index.candidate_set)[:limit]


def search_timings(
    config: ExperimentConfig,
    sizes: tuple[int, ...],
    k: int = 8,
) -> tuple[dict[str, list[float]], dict[str, list[int]]]:
    """Left panel: per strategy per dataset size, (seconds, work).

    Work = exact point-segment distance computations performed, the
    implementation-independent measure of each strategy's pruning
    power (wall-clock additionally reflects pure-Python constants).
    """
    timings: dict[str, list[float]] = {name: [] for name in SEARCH_METHODS}
    work: dict[str, list[int]] = {name: [] for name in SEARCH_METHODS}
    for size in sizes:
        dataset = _dataset_for_size(config, size)
        bbox = index_extent(dataset.bbox())
        linear, uniform, hierarchical = _build_indexes(dataset, bbox)
        queries = _query_points(dataset, config.signature_size)

        def time_batch(search) -> float:
            started = time.perf_counter()
            for q in queries:
                search(q)
            return time.perf_counter() - started

        timings["Linear"].append(time_batch(lambda q: linear.knn(q, k)))
        work["Linear"].append(len(linear) * len(queries))
        timings["UG"].append(time_batch(lambda q: uniform.knn(q, k)))
        work["UG"].append(-1)  # UG does not track per-query counters

        for label, strategy in HIERARCHICAL_STRATEGIES:
            checked = 0

            def probe(q, _strategy=strategy):
                hierarchical.knn(q, k, strategy=_strategy)

            started = time.perf_counter()
            for q in queries:
                probe(q)
                checked += hierarchical.last_stats.segments_checked
            timings[label].append(time.perf_counter() - started)
            work[label].append(checked)
    return timings, work


def modification_timings(
    config: ExperimentConfig, sizes: tuple[int, ...], workers: int = 1
) -> dict[str, list[float]]:
    """Right panel: local vs global modification wall-clock (the global
    stage on the shared index the pipeline picks for each size, the
    local stage on its per-trajectory flat stores).

    With ``workers > 1``, a third row times the batch engine's sharded
    local stage for comparison against the serial local row.
    """
    timings: dict[str, list[float]] = {"Local": [], "Global": []}
    if workers > 1:
        timings["Local-batch"] = []
    half = config.model_params(config.epsilon / 2)
    pureg = MethodSpec("pureg", half)
    purel = MethodSpec("purel", half)
    for size in sizes:
        dataset = _dataset_for_size(config, size)
        # RunResult.seconds times exactly the anonymize call, so the
        # serial and batch rows measure the same work.
        timings["Global"].append(run_spec(pureg, dataset).seconds)
        timings["Local"].append(run_spec(purel, dataset).seconds)
        if workers > 1:
            timings["Local-batch"].append(
                run_spec(
                    purel, dataset, engine="batch", workers=workers
                ).seconds
            )
    return timings


def run(
    config: ExperimentConfig | None = None,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    workers: int = 1,
) -> dict[str, dict[str, list]]:
    config = config or ExperimentConfig.default()
    sizes = effective_sizes(config, sizes)
    search, work = search_timings(config, sizes)
    return {
        "search": search,
        "search_work": work,
        "modification": modification_timings(config, sizes, workers=workers),
    }


def format_timings(
    results: dict[str, dict[str, list]], sizes: tuple[int, ...]
) -> str:
    lines = ["[kNN search time (s) vs dataset size]"]
    lines.append(f"{'method':<8s}" + "".join(f"{s:>10d}" for s in sizes))
    for name, values in results["search"].items():
        lines.append(f"{name:<8s}" + "".join(f"{v:10.4f}" for v in values))
    lines.append("")
    lines.append("[distance computations (pruning work) vs dataset size]")
    lines.append(f"{'method':<8s}" + "".join(f"{s:>10d}" for s in sizes))
    for name, values in results.get("search_work", {}).items():
        cells = "".join(
            "       n/a" if v < 0 else f"{v:10d}" for v in values
        )
        lines.append(f"{name:<8s}" + cells)
    lines.append("")
    lines.append(
        "[modification time (s) vs dataset size; global stage: flat scan "
        f"below {MIN_SEGMENTS_FOR_GRID} segments, HG+ from there]"
    )
    lines.append(f"{'stage':<8s}" + "".join(f"{s:>10d}" for s in sizes))
    for name, values in results["modification"].items():
        lines.append(f"{name:<8s}" + "".join(f"{v:10.4f}" for v in values))
    total = [
        g + local
        for g, local in zip(
            results["modification"]["Global"],
            results["modification"]["Local"],
            strict=True,
        )
    ]
    share = [
        g / t if t > 0 else 0.0
        for g, t in zip(results["modification"]["Global"], total, strict=True)
    ]
    lines.append(
        f"{'G-share':<8s}" + "".join(f"{v:10.2%}" for v in share)
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    preset, config, workers = parse_driver_args(argv, "repro.experiments.fig5")
    sizes = effective_sizes(
        config, SMOKE_SIZES if preset == "smoke" else DEFAULT_SIZES
    )
    source = config.dataset or "synthetic"
    print(f"Figure 5 reproduction — preset={preset}, sizes={sizes}, "
          f"workers={workers}, dataset={source}")
    results = run(config, sizes=sizes, workers=workers)
    print(format_timings(results, sizes))


if __name__ == "__main__":
    main()
