"""Per-chunk vs shared-TF publishing comparison.

The streaming publisher's claim is that sharing one noisy TF target
across chunks publishes a *more consistent* dataset than k independent
per-chunk releases — and buys a composable ε while doing it.  This
driver measures that claim on any dataset (synthetic fleet or an
ingested real dataset via ``--dataset``, the chunked-real-data mode
the publisher exists for): it chunks the input, publishes it once per
strategy at the same total ε, and evaluates the Table II utility and
privacy metrics of both merged outputs against the original.

``workers`` fans both strategies over worker processes: the per-chunk
baseline (:func:`per_chunk_release`, one chunk per worker) and the
shared-TF publisher's pass 2 (one spilled chunk per worker). Output is
the same for any value.

Invoke with::

    repro experiment publish --preset smoke --chunk-size 10
    python -m repro.experiments.publish smoke [workers] [--dataset REF]

Real-data mode skips the recovery metric family (no route ground
truth), like every other driver.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator

from repro.core.pipeline import GL, FrequencyAnonymizer
from repro.data.stream import chunked
from repro.engine.pool import parallel_map_stream
from repro.engine.publish import StreamPublisher
from repro.experiments.config import ExperimentConfig, load_experiment_input
from repro.experiments.evaluate import METRIC_COLUMNS, evaluate_method
from repro.trajectory.model import TrajectoryDataset

#: The two publishing strategies the experiment compares.
STRATEGIES = ("per_chunk", "shared_tf")


def _release_chunk(
    payload: tuple[dict, int, TrajectoryDataset],
) -> TrajectoryDataset:
    """Worker: one chunk released on its own, at its reserved call index."""
    config, call_index, chunk = payload
    return FrequencyAnonymizer(**config).anonymize_with_report(
        chunk, call_index=call_index
    )[0]


def per_chunk_release(
    anonymizer: FrequencyAnonymizer,
    chunks: Iterable[TrajectoryDataset],
    workers: int = 1,
) -> Iterator[TrajectoryDataset]:
    """Release every chunk as its own dataset; yield them in order.

    The baseline the shared-TF publisher is measured against: each
    chunk draws its own noisy TF over its own candidate set. Chunk
    ``i`` reserves the next call index on ``anonymizer``, so it draws
    the noise of the ``i``-th sequential ``anonymize_with_report`` call
    on it, whatever ``workers`` is (``<= 1`` maps in process). Chunks
    are pulled only as results are taken, a bounded window ahead on a
    pool.
    """
    config = anonymizer.config()
    payloads = (
        (config, anonymizer.reserve_call_index(), chunk) for chunk in chunks
    )
    yield from parallel_map_stream(_release_chunk, payloads, workers=workers)


def run(
    config: ExperimentConfig,
    chunk_size: int | None = None,
    workers: int = 1,
) -> dict:
    """Publish the dataset both ways at equal ε; evaluate both outputs.

    Returns ``{"metrics": {strategy: {metric: value}}, "chunk_size",
    "chunk_count", "epsilon", "ledger"}`` where ``ledger`` is the
    shared-TF run's composition accounting (the per-chunk baseline has
    none to offer — that absence is the point).
    """
    experiment_input = load_experiment_input(config)
    dataset = experiment_input.dataset
    if chunk_size is None:
        chunk_size = max(1, len(dataset) // 4)

    # Baseline: k independent releases, one per chunk (each draws its
    # own TF over its own candidate set — the pre-publisher stream).
    per_chunk = TrajectoryDataset(
        trajectory
        for chunk in per_chunk_release(
            GL(**config.model_params()),
            chunked(iter(dataset), chunk_size),
            workers,
        )
        for trajectory in chunk
    )

    # Shared-TF: one two-pass publish of the whole stream.
    shared, publish_report = StreamPublisher(
        GL(**config.model_params()), workers=workers
    ).publish_collected(lambda: chunked(iter(dataset), chunk_size))

    with_recovery = experiment_input.fleet is not None
    metrics = {}
    for label, output in (("per_chunk", per_chunk), ("shared_tf", shared)):
        evaluation = evaluate_method(
            dataset,
            output,
            experiment_input.fleet,
            config,
            with_recovery=with_recovery,
        )
        metrics[label] = evaluation.values
    return {
        "metrics": metrics,
        "chunk_size": chunk_size,
        "chunk_count": publish_report.chunk_count,
        "epsilon": config.epsilon,
        "epsilon_total": publish_report.epsilon_total,
        "ledger": publish_report.accounting.to_dict(),
    }


def render(results: dict) -> str:
    lines = [
        f"publish comparison: |chunks| = {results['chunk_count']} "
        f"(chunk size {results['chunk_size']}), "
        f"eps = {results['epsilon']:g}, shared-TF end-to-end eps = "
        f"{results['epsilon_total']:g}",
        "",
        f"{'metric':<10s} {'per_chunk':>10s} {'shared_tf':>10s}",
    ]
    for metric in METRIC_COLUMNS:
        cells = []
        for strategy in STRATEGIES:
            value = results["metrics"][strategy].get(metric)
            cells.append("-" if value is None else f"{value:.3f}")
        lines.append(f"{metric:<10s} {cells[0]:>10s} {cells[1]:>10s}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    import argparse

    from repro.experiments.config import PRESETS

    parser = argparse.ArgumentParser(prog="repro.experiments.publish")
    parser.add_argument("preset", nargs="?", choices=PRESETS, default="default")
    parser.add_argument("workers", nargs="?", type=int, default=1)
    parser.add_argument("--dataset", default=None, metavar="REF")
    parser.add_argument("--chunk-size", type=int, default=None, metavar="N")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    config = {
        "smoke": ExperimentConfig.smoke,
        "default": ExperimentConfig.default,
        "large": ExperimentConfig.large,
    }[args.preset]()
    if args.dataset:
        config = config.with_dataset(args.dataset)
    results = run(config, chunk_size=args.chunk_size, workers=args.workers)
    print(render(results))


if __name__ == "__main__":
    main()
