"""Benchmarks for the batch engine, the incremental kNN frontier, and
the wave-planned global stage.

The headline comparison: the inter-trajectory (global) modification
stage under its two candidate sources — the serial loop over the
incremental ``iter_nearest`` frontier (the default), and the wave
planner/executor path (read-only simulation rounds over a static index
snapshot, edits applied in serial order). Both make identical
selections; the bench isolates pure search/scheduling cost.

Runs on a dedicated fleet larger than the smoke preset, yet small
enough for CI. Set
``REPRO_BENCH_SCALE=paper`` to run the paper-scale fleet (500
trajectories x 300 points, m=10) instead — the scale the engine's
speedup targets are recorded at.

Wall-clock measurements land in the session :class:`repro.bench.BenchRecord`
via the ``bench_timer`` fixture (see ``conftest``) and are appended to
the scale-keyed history, so the perf trajectory is tracked across PRs
even under ``--benchmark-disable``.
"""

import random

import pytest
from conftest import N_OBJECTS, N_POINTS, SIGNATURE_SIZE

from repro.core.global_mechanism import GlobalTFMechanism
from repro.core.modification import InterTrajectoryModifier
from repro.core.pipeline import GL, PureL
from repro.core.signature import SignatureExtractor
from repro.data.stream import chunked
from repro.datagen.generator import FleetConfig, generate_fleet
from repro.engine import BatchAnonymizer, StreamPublisher
from repro.experiments.publish import per_chunk_release


@pytest.fixture(scope="module")
def engine_fleet():
    return generate_fleet(
        FleetConfig(
            n_objects=N_OBJECTS, points_per_trajectory=N_POINTS, rows=16,
            cols=16, n_hotspots=12, seed=7,
        )
    )


@pytest.fixture(scope="module")
def tf_perturbation(engine_fleet):
    signature_index = SignatureExtractor(m=SIGNATURE_SIZE).extract(
        engine_fleet.dataset
    )
    # the raw draw *is* the workload under measurement; no release here
    return GlobalTFMechanism(0.5).perturb(
        signature_index.tf, len(engine_fleet.dataset), random.Random(1)
    )


def _apply_inter(dataset, perturbation, candidate_source):
    modifier = InterTrajectoryModifier(candidate_source=candidate_source)
    return modifier.apply(dataset, perturbation)


def _timed_inter(bench_timer, dataset, perturbation, candidate_source):
    """Apply + record wall-clock under ``inter_modification.<source>_s``."""
    return bench_timer(
        "inter_modification",
        f"{candidate_source}_s",
        lambda: _apply_inter(dataset, perturbation, candidate_source),
    )


def test_bench_inter_incremental(
    benchmark, bench_timer, engine_fleet, tf_perturbation
):
    """The default global stage: lazy iter_nearest consumption."""
    _, report = benchmark(
        lambda: _timed_inter(
            bench_timer, engine_fleet.dataset, tf_perturbation, "incremental"
        )
    )
    assert report.insertions > 0


def test_bench_inter_wave(
    benchmark, bench_timer, engine_fleet, tf_perturbation
):
    """The wave planner/executor path (PR 4's global stage)."""
    _, report = benchmark(
        lambda: _timed_inter(
            bench_timer, engine_fleet.dataset, tf_perturbation, "wave"
        )
    )
    assert report.insertions > 0


def test_wave_output_identical_to_incremental(engine_fleet, tf_perturbation):
    """Not a bench: the wave path must be byte-identical to the serial
    reference on the bench workload itself."""
    wave_out, wave_report = _apply_inter(
        engine_fleet.dataset, tf_perturbation, "wave"
    )
    serial_out, serial_report = _apply_inter(
        engine_fleet.dataset, tf_perturbation, "incremental"
    )
    for a, b in zip(wave_out, serial_out, strict=True):
        assert [(p.coord, p.t) for p in a] == [(p.coord, p.t) for p in b]
    assert wave_report.utility_loss == serial_report.utility_loss
    assert wave_report.insertions == serial_report.insertions
    assert wave_report.deletions == serial_report.deletions
    assert wave_report.unrealised == serial_report.unrealised


def test_bench_local_stage_serial(benchmark, bench_timer, engine_fleet):
    benchmark.pedantic(
        lambda: bench_timer(
            "local_stage",
            "serial_s",
            lambda: PureL(
                epsilon=0.5, signature_size=SIGNATURE_SIZE, seed=7
            ).anonymize(engine_fleet.dataset),
        ),
        rounds=1,
        iterations=1,
    )


def test_bench_local_stage_batch(benchmark, bench_timer, engine_fleet):
    """Sharded local stage via the process pool (falls back to serial
    where pools are unavailable, or below ``workers *
    MIN_POINTS_PER_WORKER`` points as at smoke scale; output is
    identical either way)."""
    benchmark.pedantic(
        lambda: bench_timer(
            "local_stage",
            "batch_s",
            lambda: BatchAnonymizer(
                PureL(epsilon=0.5, signature_size=SIGNATURE_SIZE, seed=7),
                workers=0,
            ).anonymize_with_report(engine_fleet.dataset)[0],
        ),
        rounds=1,
        iterations=1,
    )


def _bench_chunk_size():
    return max(1, N_OBJECTS // 4)


def test_bench_publish_per_chunk(benchmark, bench_timer, engine_fleet):
    """Baseline: k independent per-chunk releases, the one
    ``repro experiment publish`` reports (``per_chunk_release``)."""

    def run_stream():
        return sum(
            len(chunk)
            for chunk in per_chunk_release(
                GL(epsilon=1.0, signature_size=SIGNATURE_SIZE, seed=7),
                chunked(iter(engine_fleet.dataset), _bench_chunk_size()),
            )
        )

    published = benchmark.pedantic(
        lambda: bench_timer("stream_publisher", "per_chunk_s", run_stream),
        rounds=1,
        iterations=1,
    )
    assert published == N_OBJECTS


def test_bench_publish_shared_tf(
    benchmark, bench_records, bench_timer, engine_fleet
):
    """The two-pass whole-dataset publisher on the same chunking."""
    bench_records.setdefault("stream_publisher", {})["chunks"] = -(
        -N_OBJECTS // _bench_chunk_size()
    )

    def run_publish():
        return StreamPublisher(
            GL(epsilon=1.0, signature_size=SIGNATURE_SIZE, seed=7)
        ).publish(
            lambda: chunked(iter(engine_fleet.dataset), _bench_chunk_size())
        )

    report = benchmark.pedantic(
        lambda: bench_timer("stream_publisher", "shared_tf_s", run_publish),
        rounds=1,
        iterations=1,
    )
    assert report.trajectories == N_OBJECTS
    assert report.epsilon_total == 1.0


def test_bench_publish_shared_tf_parallel(
    benchmark, bench_timer, engine_fleet
):
    """The pipelined spill-backed publisher with per-core workers.

    ``workers=0`` resolves to the host's core count; on a single-core
    host that falls back to the serial pipelined path, so the recorded
    time reflects the spill + apportionment pipeline itself
    rather than pool overhead that cannot pay for itself there. The
    output is byte-identical to the serial publisher either way.
    """

    def run_publish():
        return StreamPublisher(
            GL(epsilon=1.0, signature_size=SIGNATURE_SIZE, seed=7),
            workers=0,
        ).publish(
            lambda: chunked(iter(engine_fleet.dataset), _bench_chunk_size())
        )

    report = benchmark.pedantic(
        lambda: bench_timer(
            "stream_publisher", "shared_tf_parallel_s", run_publish
        ),
        rounds=1,
        iterations=1,
    )
    assert report.trajectories == N_OBJECTS
    assert report.epsilon_total == 1.0


def test_batch_output_identical_to_serial(engine_fleet):
    # Crosses the pool at paper scale; the smoke fleet is below the
    # batch engine's size rule, so there both sides run in process.
    serial = PureL(
        epsilon=0.5, signature_size=SIGNATURE_SIZE, seed=7
    ).anonymize(engine_fleet.dataset)
    batched = BatchAnonymizer(
        PureL(epsilon=0.5, signature_size=SIGNATURE_SIZE, seed=7), workers=4
    ).anonymize_with_report(engine_fleet.dataset)[0]
    for a, b in zip(serial, batched, strict=True):
        assert [p.coord for p in a] == [p.coord for p in b]
