"""Tests for the streaming whole-dataset publisher.

The load-bearing guarantees:

* a single-chunk publish is byte-identical to the plain ``anonymize``
  path for the same seed (the publisher is a strict generalisation);
* the composition ledger of a published stream sums to the declared
  ε_G + ε_L split regardless of the chunk count;
* the per-chunk targets apportion the shared TF delta exactly (the
  merged output realises the whole-dataset draw);
* the ledger round-trips through the report JSON.
"""

import json
import re

import pytest

from repro.cli import main
from repro.core.accounting import CompositionLedger
from repro.core.pipeline import GL, PureG, PureL
from repro.data.stream import chunked
from repro.datagen.generator import FleetConfig, generate_fleet
from repro.engine import BatchAnonymizer, StreamPublisher
from repro.engine.publish import chunk_source
from repro.trajectory.io import read_csv, write_csv
from repro.trajectory.model import TrajectoryDataset


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(
        FleetConfig(n_objects=12, points_per_trajectory=60, rows=10, cols=10, seed=3)
    )


def source(dataset, chunk_size):
    """A re-iterable chunk factory over an in-memory dataset."""
    return lambda: chunked(iter(dataset), chunk_size)


def points_of(dataset):
    return [[(p.coord, p.t) for p in t] for t in dataset]


def repeated_head(dataset):
    """A chunk factory yielding the first three objects, then the
    same three again: one object in two chunks."""
    head = list(dataset)[:3]
    return lambda: iter([TrajectoryDataset(head), TrajectoryDataset(head)])


def repeat_error(dataset):
    first = list(dataset)[0].object_id
    return re.escape(
        f"chunk 1: object '{first}' already appeared in an earlier chunk"
    )


class TestSingleChunkIdentity:
    def test_byte_identical_to_plain_anonymize(self, fleet):
        serial = GL(epsilon=1.0, signature_size=3, seed=21).anonymize(
            fleet.dataset
        )
        publisher = StreamPublisher(GL(epsilon=1.0, signature_size=3, seed=21))
        published, report = publisher.publish_collected(
            source(fleet.dataset, 10_000)
        )
        assert points_of(published) == points_of(serial)
        assert report.chunk_count == 1

    def test_byte_identical_through_batch_engine(self, fleet, thread_pool):
        """The one chunk, realised on the publisher's pool (threads
        standing in for its worker processes) from the worker's copy
        of the pipeline config, matches the serial GL."""
        serial = GL(epsilon=1.0, signature_size=3, seed=21).anonymize(
            fleet.dataset
        )
        published, _ = StreamPublisher(
            GL(epsilon=1.0, signature_size=3, seed=21), workers=2
        ).publish_collected(source(fleet.dataset, 10_000))
        assert points_of(published) == points_of(serial)

    def test_csv_bytes_identical(self, fleet, tmp_path):
        """The acceptance criterion, end to end through the CLI."""
        fleet_csv = tmp_path / "fleet.csv"
        write_csv(fleet.dataset, fleet_csv)
        anon = tmp_path / "anon.csv"
        pub = tmp_path / "pub.csv"
        flags = ["--model", "gl", "--epsilon", "1.0",
                 "--signature-size", "3", "--seed", "21"]
        assert main(["anonymize", "-i", str(fleet_csv), "-o", str(anon),
                     *flags]) == 0
        assert main(["publish", "-i", str(fleet_csv), "-o", str(pub),
                     "--chunk-size", "100", *flags]) == 0
        assert pub.read_bytes() == anon.read_bytes()


class TestCompositionAcrossChunks:
    @pytest.mark.parametrize("chunk_size", [4, 5, 100])
    def test_epsilon_total_equals_declared_split(self, fleet, chunk_size):
        publisher = StreamPublisher(GL(epsilon=1.0, signature_size=3, seed=9))
        _, report = publisher.publish_collected(
            source(fleet.dataset, chunk_size)
        )
        assert report.epsilon_total == pytest.approx(1.0)
        ledger = report.accounting
        assert len(ledger.sequential_draws()) == 1  # one shared TF draw
        locals_ = ledger.groups()["local PF randomization"]
        assert len(locals_) == report.chunk_count
        assert {draw.scope for draw in locals_} == {
            f"chunk:{i}" for i in range(report.chunk_count)
        }

    def test_chunk_targets_apportion_exactly(self, fleet):
        publisher = StreamPublisher(GL(epsilon=1.0, signature_size=3, seed=9))
        estimate = publisher.estimate(chunked(iter(fleet.dataset), 5))
        targets = publisher.chunk_targets(estimate)
        shared = estimate.perturbation
        assert targets is not None and len(targets) == estimate.chunk_count
        for loc in shared.original:
            assert (
                sum(t.original.get(loc, 0) for t in targets)
                == shared.original[loc]
            )
            assert (
                sum(t.perturbed.get(loc, 0) for t in targets)
                == shared.perturbed[loc]
            )
        for target, size in zip(targets, estimate.chunk_sizes, strict=True):
            for count in target.perturbed.values():
                assert 0 <= count <= size

    def test_merged_output_keeps_every_trajectory(self, fleet):
        publisher = StreamPublisher(GL(epsilon=1.0, signature_size=3, seed=9))
        published, report = publisher.publish_collected(
            source(fleet.dataset, 5)
        )
        assert report.trajectories == len(fleet.dataset)
        assert [t.object_id for t in published] == [
            t.object_id for t in fleet.dataset
        ]

    def test_pure_local_publishes_parallel_only(self, fleet):
        publisher = StreamPublisher(PureL(epsilon=0.5, signature_size=3, seed=9))
        _, report = publisher.publish_collected(source(fleet.dataset, 4))
        assert report.epsilon_total == pytest.approx(0.5)
        assert report.tf_locations == 0
        assert not report.accounting.sequential_draws()

    def test_pure_global_publishes_one_shared_draw(self, fleet):
        publisher = StreamPublisher(PureG(epsilon=0.5, signature_size=3, seed=9))
        _, report = publisher.publish_collected(source(fleet.dataset, 4))
        assert report.epsilon_total == pytest.approx(0.5)
        assert report.accounting.groups() == {}
        assert len(report.accounting.sequential_draws()) == 1


class TestGuardsAndReports:
    def test_source_is_consumed_exactly_once(self, fleet):
        """Pass 2 replays spills, never the raw source — so a one-shot
        source (or one that would drift on a second open) is safe."""
        publisher = StreamPublisher(GL(epsilon=1.0, signature_size=3, seed=9))
        opens = []

        def counting():
            opens.append(1)
            return chunked(iter(fleet.dataset), 5)

        publisher.publish(counting)
        assert len(opens) == 1

    def test_empty_stream_is_rejected(self):
        publisher = StreamPublisher(GL(epsilon=1.0, signature_size=3, seed=9))
        with pytest.raises(ValueError, match="empty"):
            publisher.publish(lambda: iter(()))

    def test_rejects_non_pipeline_engines(self):
        # A BatchAnonymizer included: chunks are realised by a pipeline
        # rebuilt from its config, so there is no engine to wrap.
        for engine in (object(), BatchAnonymizer(GL(epsilon=1.0, seed=9))):
            with pytest.raises(TypeError, match=type(engine).__name__):
                StreamPublisher(engine)

    @pytest.mark.parametrize(
        "maker, sunk",
        [
            # The shared TF draw gates realisation: nothing is sunk.
            (lambda: GL(epsilon=1.0, signature_size=3, seed=1), []),
            # Realisation overlaps parsing: chunk 0 is already out.
            (lambda: PureL(epsilon=1.0, signature_size=3, seed=1), [3]),
        ],
        ids=["gl", "purel"],
    )
    def test_object_in_two_chunks_is_refused(
        self, fleet, tmp_path, maker, sunk
    ):
        """Parallel composition and the shared TF both assume disjoint
        chunks, so an object seen twice stops the publish."""
        spill = tmp_path / "spill"
        seen = []
        with pytest.raises(ValueError, match=repeat_error(fleet.dataset)):
            StreamPublisher(maker(), spill_dir=spill).publish(
                repeated_head(fleet.dataset),
                sink=lambda chunk, _report: seen.append(len(chunk)),
            )
        assert seen == sunk
        assert list(spill.glob("*")) == []

    def test_estimate_and_api_refuse_an_object_in_two_chunks(self, fleet):
        from repro.api import publish

        publisher = StreamPublisher(GL(epsilon=1.0, signature_size=3, seed=1))
        with pytest.raises(ValueError, match=repeat_error(fleet.dataset)):
            publisher.estimate(repeated_head(fleet.dataset)())
        with pytest.raises(ValueError, match=repeat_error(fleet.dataset)):
            publish("gl", repeated_head(fleet.dataset))

    def test_rejects_local_first_ordering(self):
        """The shared TF is estimated over the raw stream, so the
        pipeline must run its global stage first: no setting can build
        a local-first pipeline for the publisher."""
        with pytest.raises(TypeError, match="'global_first'"):
            GL(epsilon=1.0, signature_size=3, seed=9, global_first=False)

    def test_repeated_publishes_draw_fresh_noise(self, fleet):
        publisher = StreamPublisher(GL(epsilon=1.0, signature_size=3, seed=9))
        first, _ = publisher.publish_collected(source(fleet.dataset, 5))
        second, _ = publisher.publish_collected(source(fleet.dataset, 5))
        assert points_of(first) != points_of(second)

    def test_ledger_round_trips_through_report_json(self, fleet):
        publisher = StreamPublisher(GL(epsilon=1.0, signature_size=3, seed=9))
        _, report = publisher.publish_collected(source(fleet.dataset, 5))
        payload = json.loads(json.dumps(report.to_dict()))
        rebuilt = CompositionLedger.from_dict(payload["accounting"])
        assert rebuilt.epsilon_total == pytest.approx(report.epsilon_total)
        assert rebuilt.to_dict() == report.accounting.to_dict()

    def test_chunk_report_accounting_is_scoped(self, fleet):
        """Each chunk's own run report records its local draw against
        the chunk scope and no fresh TF draw (the shared draw is
        accounted at publisher level)."""
        publisher = StreamPublisher(GL(epsilon=1.0, signature_size=3, seed=9))
        seen = []
        publisher.publish(
            source(fleet.dataset, 5),
            sink=lambda _chunk, report: seen.append(report),
        )
        assert len(seen) > 1
        for i, report in enumerate(seen):
            draws = report.accounting.draws
            assert [d.label for d in draws] == ["local PF randomization"]
            assert draws[0].scope == f"chunk:{i}"
            assert report.budget_ledger == [
                ("local PF randomization", 0.5)
            ]


class TestChunkSourceHelper:
    def test_streams_a_csv_twice(self, fleet, tmp_path):
        path = tmp_path / "fleet.csv"
        write_csv(fleet.dataset, path)
        factory = chunk_source(path, 5)
        first = [len(c) for c in factory()]
        second = [len(c) for c in factory()]
        assert first == second == [5, 5, 2]

    def test_rejects_bad_chunk_size(self, tmp_path):
        with pytest.raises(ValueError):
            chunk_source(tmp_path / "x.csv", 0)


class TestPublishAPI:
    def test_api_publish_with_split(self, fleet, tmp_path):
        from repro.api import publish

        path = tmp_path / "fleet.csv"
        write_csv(fleet.dataset, path)
        report = publish(
            {"kind": "gl", "params": {"epsilon": 2.0, "signature_size": 3,
                                      "seed": 4}},
            str(path),
            chunk_size=5,
            split=0.25,
        )
        assert report.epsilon_total == pytest.approx(2.0)
        draws = report.accounting.sequential_draws()
        assert draws[0].epsilon == pytest.approx(0.5)  # 0.25 * 2.0
        locals_ = report.accounting.groups()["local PF randomization"]
        assert locals_[0].epsilon == pytest.approx(1.5)

    def test_split_spec_edges(self):
        from repro.api import split_spec

        spec = split_spec("gl", 1.0)
        assert spec.params["epsilon_local"] is None
        spec = split_spec("gl", 0.0)
        assert spec.params["epsilon_global"] is None
        with pytest.raises(ValueError):
            split_spec("gl", 1.5)
        with pytest.raises(ValueError):
            split_spec("adatrace", 0.5)

    def test_api_publish_rejects_non_frequency(self, fleet, tmp_path):
        from repro.api import publish

        path = tmp_path / "fleet.csv"
        write_csv(fleet.dataset, path)
        with pytest.raises(ValueError, match="frequency-family"):
            publish("adatrace", str(path))


class TestPublishCLI:
    def test_multi_chunk_report(self, fleet, tmp_path, capsys):
        fleet_csv = tmp_path / "fleet.csv"
        write_csv(fleet.dataset, fleet_csv)
        out = tmp_path / "pub.csv"
        report_path = tmp_path / "pub.json"
        code = main(
            [
                "publish",
                "-i", str(fleet_csv),
                "-o", str(out),
                "--report", str(report_path),
                "--chunk-size", "5",
                "--model", "gl",
                "--epsilon", "1.0",
                "--signature-size", "3",
                "--seed", "7",
                "--split", "0.5",
            ]
        )
        assert code == 0
        assert len(read_csv(out)) == len(fleet.dataset)
        payload = json.loads(report_path.read_text())
        assert payload["chunk_count"] == 3
        assert payload["epsilon_total"] == pytest.approx(1.0)
        ledger = CompositionLedger.from_dict(payload["accounting"])
        assert ledger.epsilon_total == pytest.approx(1.0)
        captured = capsys.readouterr().out
        assert "end-to-end eps" in captured
        assert "ledger" in captured

    def test_rejects_non_frequency_method(self, fleet, tmp_path, capsys):
        fleet_csv = tmp_path / "fleet.csv"
        write_csv(fleet.dataset, fleet_csv)
        code = main(
            [
                "publish",
                "-i", str(fleet_csv),
                "-o", str(tmp_path / "out.csv"),
                "--model", "adatrace",
            ]
        )
        assert code == 2
        assert "frequency-family" in capsys.readouterr().err


class TestPublishExperiment:
    def test_smoke_run_compares_both_strategies(self, capsys):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.publish import STRATEGIES, render, run

        config = ExperimentConfig.smoke()
        results = run(config, chunk_size=7)
        assert set(results["metrics"]) == set(STRATEGIES)
        for strategy in STRATEGIES:
            assert results["metrics"][strategy]["INF"] is not None
        assert results["epsilon_total"] == pytest.approx(config.epsilon)
        text = render(results)
        assert "per_chunk" in text and "shared_tf" in text
