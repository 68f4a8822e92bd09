"""Tests for streaming-publish jobs in the serving daemon.

A publish job is the whole-dataset release (`repro.engine.publish`)
behind the daemon's reserve/commit/release budget protocol: one shared
ε_G TF draw across chunks plus parallel per-chunk locals, charged as
eps_G + max-per-chunk eps_L through the publish ledger — and the
spooled CSV must be byte-identical to `repro publish` on the same
inputs.
"""

import json
import time

import pytest

from repro.cli import main
from repro.datagen.generator import FleetConfig, generate_fleet
from repro.serve.budget import BudgetStore
from repro.serve.engines import EngineCache
from repro.serve.jobs import JobRunner
from repro.trajectory.io import write_csv

GL_SPEC = {
    "kind": "gl",
    "params": {"epsilon": 1.0, "signature_size": 3, "seed": 7},
}


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    fleet = generate_fleet(
        FleetConfig(
            n_objects=8, points_per_trajectory=30, rows=8, cols=8, seed=3
        )
    )
    path = tmp_path_factory.mktemp("data") / "fleet.csv"
    write_csv(fleet.dataset, path)
    return path


@pytest.fixture
def runner(tmp_path):
    store = BudgetStore(tmp_path / "budgets")
    store.declare("acme", 8.0)
    engines = EngineCache(workers=1)
    runner = JobRunner(store, engines, tmp_path / "spool", workers=2)
    yield runner
    runner.close()
    engines.close()


def wait_done(runner, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = runner.get(job_id)
        if job.to_dict()["state"] in ("done", "failed"):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never settled")


class TestPublishJobs:
    def test_publish_job_matches_cli_bytes(self, runner, dataset_csv, tmp_path):
        job = runner.submit(
            "acme", GL_SPEC, str(dataset_csv), publish={"chunk_size": 3}
        )
        snapshot = job.to_dict()
        assert snapshot["publish"] == {"chunk_size": 3}
        job = wait_done(runner, job.id)
        state = job.to_dict()
        assert state["state"] == "done", state["error"]
        assert state["eps_charged"] == pytest.approx(1.0)

        cli_out = tmp_path / "cli.csv"
        assert main(
            [
                "publish",
                "-i", str(dataset_csv),
                "-o", str(cli_out),
                "--chunk-size", "3",
                "--model", "gl",
                "--epsilon", "1.0",
                "--signature-size", "3",
                "--seed", "7",
            ]
        ) == 0
        assert job.result_path.read_bytes() == cli_out.read_bytes()

        report = job.report
        assert report["chunk_count"] == 3
        assert report["epsilon_total"] == pytest.approx(1.0)
        # eps_total = eps_G + max-per-chunk eps_L, straight from the
        # publish ledger (one sequential draw + one parallel group).
        accounting = report["accounting"]
        payload = json.dumps(accounting)
        assert payload  # JSON-serialisable end to end
        sequential = [
            d for d in accounting["draws"] if d.get("group") is None
        ]
        locals_ = [d for d in accounting["draws"] if d.get("group")]
        assert len(sequential) == 1
        assert len(locals_) == 3
        assert state["trajectories"] == 8

    def test_publish_spills_are_cleaned(self, runner, dataset_csv):
        job = runner.submit(
            "acme", GL_SPEC, str(dataset_csv), publish={"chunk_size": 3}
        )
        job = wait_done(runner, job.id)
        assert job.to_dict()["state"] == "done"
        leftovers = [
            p
            for p in runner.spool.iterdir()
            if p.suffix != ".csv"
        ]
        assert leftovers == []

    def test_publish_rejects_non_frequency_spec(self, runner, dataset_csv):
        with pytest.raises(ValueError, match="frequency-family"):
            runner.submit(
                "acme",
                {"kind": "adatrace", "params": {"epsilon": 1.0, "seed": 1}},
                str(dataset_csv),
                publish={},
            )

    def test_publish_rejects_unknown_options(self, runner, dataset_csv):
        with pytest.raises(ValueError, match="unknown publish option"):
            runner.submit(
                "acme", GL_SPEC, str(dataset_csv), publish={"workers": 4}
            )

    def test_publish_rejects_bad_chunk_size(self, runner, dataset_csv):
        with pytest.raises(ValueError, match="chunk_size"):
            runner.submit(
                "acme", GL_SPEC, str(dataset_csv), publish={"chunk_size": 0}
            )

    def test_missing_dataset_refused_before_reserving(self, runner, tmp_path):
        with pytest.raises((ValueError, FileNotFoundError, KeyError)):
            runner.submit(
                "acme", GL_SPEC, str(tmp_path / "nope.csv"),
                publish={"chunk_size": 3},
            )
        assert runner.store.account("acme").status()["reserved"] == 0.0


class TestPublishOverHTTP:
    def test_submit_and_fetch(self, dataset_csv, tmp_path):
        import urllib.request

        from repro.serve import Daemon, ServeConfig

        config = ServeConfig(
            port=0,
            budget_root=tmp_path / "budgets",
            spool=tmp_path / "spool",
            tenants=(("acme", 8.0),),
        )
        with Daemon(config) as daemon:
            host, port = daemon.address
            base = f"http://{host}:{port}"
            request = urllib.request.Request(
                f"{base}/v1/jobs",
                data=json.dumps(
                    {
                        "tenant": "acme",
                        "dataset": str(dataset_csv),
                        "spec": GL_SPEC,
                        "publish": {"chunk_size": 4},
                    }
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 202
                body = json.loads(response.read())
            assert body["publish"] == {"chunk_size": 4}
            job_id = body["id"]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                    f"{base}/v1/jobs/{job_id}", timeout=30
                ) as response:
                    body = json.loads(response.read())
                if body["state"] in ("done", "failed"):
                    break
                time.sleep(0.02)
            assert body["state"] == "done", body["error"]
            assert body["eps_charged"] == pytest.approx(1.0)
            with urllib.request.urlopen(
                f"{base}/v1/jobs/{job_id}/result", timeout=30
            ) as response:
                payload = response.read()
            assert payload.startswith(b"object_id,t,x,y")
            rows = payload.decode().strip().splitlines()
            assert len(rows) > 8  # header + every published point
