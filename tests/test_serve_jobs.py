"""Tests for the daemon's background half: EngineCache + JobRunner."""

import errno
import threading
import time

import pytest

from repro.api.registry import build
from repro.api.spec import MethodSpec
from repro.datagen.generator import FleetConfig, generate_fleet
from repro.engine.batch import BatchAnonymizer
from repro.serve import Daemon, ServeConfig
from repro.serve.budget import (
    AccountError,
    BudgetExceededError,
    BudgetStore,
    UnknownTenantError,
)
from repro.serve.engines import MAX_WARM_ENGINES, EngineCache
from repro.serve.jobs import Job, JobRunner, epsilon_of
from repro.trajectory.io import write_csv


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
def store(tmp_path):
    store = BudgetStore(tmp_path / "budgets")
    store.declare("acme", 8.0)
    return store


@pytest.fixture
def engines():
    cache = EngineCache(workers=1)
    yield cache
    cache.close()


@pytest.fixture
def runner(store, engines, tmp_path):
    runner = JobRunner(store, engines, tmp_path / "spool", workers=1)
    yield runner
    runner.close()


GL_SPEC = {"kind": "gl", "params": {"epsilon": 1.0, "seed": 7}}


def wait_done(runner, job, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = job.to_dict()["state"]
        if state in ("done", "failed"):
            return state
        time.sleep(0.02)
    raise AssertionError(f"job {job.id} still {job.to_dict()['state']}")


class TestEngineCache:
    def test_same_spec_reuses_the_warm_engine(self, engines):
        spec = MethodSpec("gl", {"epsilon": 1.0, "seed": 7})
        first = engines.get(spec)
        assert isinstance(first, BatchAnonymizer)
        assert engines.get(MethodSpec("gl", {"epsilon": 1.0, "seed": 7})) is (
            first
        )
        assert len(engines) == 1
        assert engines.get(MethodSpec("gl", {"epsilon": 2.0})) is not first
        assert len(engines) == 2

    def test_distinct_seeds_keep_at_most_the_warm_window(self, engines):
        """Each seed is a new key, so a long-lived daemon must evict:
        100 seeds leave MAX_WARM_ENGINES engines, the most recent."""
        assert MAX_WARM_ENGINES == 16
        got = [
            engines.get(MethodSpec("gl", {"epsilon": 1.0, "seed": seed}))
            for seed in range(100)
        ]
        assert len(engines) == MAX_WARM_ENGINES
        for seed in range(100 - MAX_WARM_ENGINES, 100):
            again = engines.get(MethodSpec("gl", {"epsilon": 1.0, "seed": seed}))
            assert again is got[seed]
        assert len(engines) == MAX_WARM_ENGINES

    def test_eviction_drops_the_least_recently_used(self, engines):
        def spec(seed):
            return MethodSpec("gl", {"epsilon": 1.0, "seed": seed})

        built = [engines.get(spec(seed)) for seed in range(MAX_WARM_ENGINES)]
        assert engines.get(spec(0)) is built[0]  # now the most recent
        engines.get(spec(MAX_WARM_ENGINES))  # evicts seed 1, not seed 0
        assert len(engines) == MAX_WARM_ENGINES
        assert engines.get(spec(0)) is built[0]
        rebuilt = engines.get(spec(1))
        assert rebuilt is not built[1]
        assert len(engines) == MAX_WARM_ENGINES

    def test_close_is_idempotent_and_terminal(self, engines):
        engines.get(MethodSpec("gl", {"epsilon": 1.0}))
        engines.close()
        engines.close()
        assert len(engines) == 0
        with pytest.raises(RuntimeError, match="closed"):
            engines.get(MethodSpec("gl", {"epsilon": 1.0}))


@pytest.mark.parametrize(
    "make, keyword",
    [(ServeConfig, "engine_executor"), (EngineCache, "executor")],
    ids=["ServeConfig", "EngineCache"],
)
def test_retired_pool_kind_is_refused(make, keyword):
    """Warm engines always map on processes; no setting picks the
    pool kind, not even its old default."""
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        make(**{keyword: "process"})


class TestEpsilonOf:
    def test_frequency_method_exposes_epsilon(self):
        spec = MethodSpec("gl", {"epsilon": 1.25})
        assert epsilon_of(spec, build(spec)) == pytest.approx(1.25)

    def test_method_without_epsilon_costs_nothing(self):
        class Free:
            """A non-DP baseline: no epsilon attribute, none in params."""

        assert epsilon_of(MethodSpec("gl"), Free()) == 0.0


class TestJobRunner:
    def test_job_runs_to_done_and_charges_the_ledger(
        self, runner, store, dataset_csv
    ):
        job = runner.submit("acme", GL_SPEC, str(dataset_csv))
        assert job.to_dict()["eps_total"] == pytest.approx(1.0)
        assert wait_done(runner, job) == "done"
        snapshot = job.to_dict()
        assert snapshot["eps_charged"] == pytest.approx(1.0)
        assert snapshot["trajectories"] == 8
        assert job.result_path.is_file()
        assert job.result_path.read_text().startswith("object_id,t,x,y")
        account = store.account("acme")
        assert account.committed == {job.id: pytest.approx(1.0)}
        assert account.pending == {}

    def test_unknown_tenant_refused_before_queuing(self, runner, dataset_csv):
        with pytest.raises(UnknownTenantError):
            runner.submit("ghost", GL_SPEC, str(dataset_csv))
        assert runner.jobs() == []

    def test_over_budget_refused_before_queuing(
        self, runner, store, dataset_csv
    ):
        store.declare("tiny", 0.1)
        with pytest.raises(BudgetExceededError):
            runner.submit("tiny", GL_SPEC, str(dataset_csv))
        assert runner.jobs() == []
        assert store.account("tiny").reserved == 0

    def test_bad_spec_refused_before_reserving(
        self, runner, store, dataset_csv
    ):
        with pytest.raises((ValueError, KeyError, TypeError)):
            runner.submit(
                "acme", {"kind": "gl", "params": {"epsilon": -1}},
                str(dataset_csv),
            )
        assert store.account("acme").reserved == 0

    @pytest.mark.parametrize("kind", ["gl", "pureg"])
    @pytest.mark.parametrize("epsilon", [float("inf"), 1e-320])
    def test_unhonourable_epsilon_refused_before_reserving(
        self, runner, store, dataset_csv, kind, epsilon
    ):
        """An epsilon without a finite Laplace scale would reserve budget
        and then fail the job; it is refused at submit instead."""
        with pytest.raises(ValueError, match="^epsilon"):
            runner.submit(
                "acme", {"kind": kind, "params": {"epsilon": epsilon}},
                str(dataset_csv),
            )
        assert runner.jobs() == []
        assert store.account("acme").reserved == 0

    def test_overflowing_draw_fails_the_job_with_its_message(
        self, runner, store, dataset_csv
    ):
        """At epsilon=1e-308 the Laplace scale is finite, so the job is
        admitted, but its draws overflow: it fails naming epsilon and
        the scale, and its reservation is released."""
        job = runner.submit(
            "acme", {"kind": "pureg", "params": {"epsilon": 1e-308, "seed": 1}},
            str(dataset_csv),
        )
        assert wait_done(runner, job) == "failed"
        assert job.to_dict()["error"].startswith(
            "ValueError: epsilon=1e-308 is too small: a Laplace draw at "
            "scale 1e+308 overflowed"
        )
        assert store.account("acme").pending == {}

    def test_missing_dataset_refused_before_reserving(self, runner, store):
        with pytest.raises(FileNotFoundError):
            runner.submit("acme", GL_SPEC, "/nowhere/fleet.csv")
        assert store.account("acme").reserved == 0

    def test_failed_job_releases_its_reservation(
        self, store, engines, tmp_path, dataset_csv, monkeypatch
    ):
        def explode(spec):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(engines, "get", explode)
        runner = JobRunner(store, engines, tmp_path / "spool", workers=1)
        try:
            job = runner.submit("acme", GL_SPEC, str(dataset_csv))
            assert wait_done(runner, job) == "failed"
            assert "engine exploded" in job.to_dict()["error"]
            account = store.account("acme")
            assert account.pending == {}
            assert account.released == {job.id: job.to_dict()["error"]}
            assert account.remaining == pytest.approx(8.0)
        finally:
            runner.close()

    def test_failure_published_after_the_release(
        self, store, engines, tmp_path, dataset_csv, monkeypatch
    ):
        """A reader that sees ``failed`` also sees the budget restored:
        the state and the error appear together, after the release."""

        def explode(spec):
            raise RuntimeError("engine exploded")

        seen = []
        real_release = store.release

        def release(tenant, job_id, reason=""):
            seen.append(runner.get(job_id).to_dict())
            real_release(tenant, job_id, reason=reason)

        monkeypatch.setattr(engines, "get", explode)
        monkeypatch.setattr(store, "release", release)
        runner = JobRunner(store, engines, tmp_path / "spool", workers=1)
        try:
            job = runner.submit("acme", GL_SPEC, str(dataset_csv))
            assert wait_done(runner, job) == "failed"
        finally:
            runner.close()
        [during] = seen
        assert (during["state"], during["error"]) == ("running", None)
        assert "engine exploded" in job.to_dict()["error"]

    def test_job_fails_even_if_the_release_raises(
        self, runner, store, monkeypatch
    ):
        def release(tenant, job_id, reason=""):
            raise AccountError("ledger unwritable")

        monkeypatch.setattr(store, "release", release)
        job = Job(
            id="j1",
            tenant="acme",
            spec=MethodSpec.from_dict(GL_SPEC),
            dataset="fleet.csv",
            eps_total=1.0,
        )
        with pytest.raises(AccountError, match="ledger unwritable"):
            runner._fail(job, "boom", seconds=0.5)
        snapshot = job.to_dict()
        assert (snapshot["state"], snapshot["error"], snapshot["seconds"]) == (
            "failed",
            "boom",
            0.5,
        )

    def test_unwritable_release_keeps_the_pump_running(
        self, store, engines, tmp_path, dataset_csv, monkeypatch
    ):
        """A release whose account append fails (ENOSPC) fails its job
        with both messages and keeps the reservation held, and the next
        job still runs: the error must not end the job pump."""
        real_get = engines.get
        calls = []

        def explode_once(spec):
            calls.append(spec)
            if len(calls) == 1:
                raise RuntimeError("engine exploded")
            return real_get(spec)

        def release(tenant, job_id, reason=""):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(engines, "get", explode_once)
        monkeypatch.setattr(store, "release", release)
        runner = JobRunner(store, engines, tmp_path / "spool", workers=1)
        try:
            failing = runner.submit("acme", GL_SPEC, str(dataset_csv))
            assert wait_done(runner, failing) == "failed"
            error = failing.to_dict()["error"]
            assert "engine exploded" in error
            assert "No space left on device" in error
            following = runner.submit("acme", GL_SPEC, str(dataset_csv))
            assert wait_done(runner, following) == "done"
            assert runner._pump.is_alive()
        finally:
            runner.close()
        account = store.account("acme")
        assert account.pending == {failing.id: pytest.approx(1.0)}
        assert following.id in account.committed
        # The next boot charges the held reservation in full.
        assert BudgetStore(store.root).recover() == {"acme": [failing.id]}

    def test_close_drains_in_flight_jobs(
        self, store, engines, tmp_path, dataset_csv
    ):
        runner = JobRunner(store, engines, tmp_path / "spool", workers=1)
        jobs = [
            runner.submit("acme", GL_SPEC, str(dataset_csv)) for _ in range(3)
        ]
        runner.close(drain=True)
        assert [job.to_dict()["state"] for job in jobs] == ["done"] * 3

    def test_close_without_drain_fails_queued_jobs(
        self, store, engines, tmp_path, dataset_csv, monkeypatch
    ):
        gate = threading.Event()
        entered = threading.Event()
        real_get = engines.get

        def gated(spec):
            engine = real_get(spec)
            entered.set()
            gate.wait(30)
            return engine

        monkeypatch.setattr(engines, "get", gated)
        runner = JobRunner(store, engines, tmp_path / "spool", workers=1)
        first = runner.submit("acme", GL_SPEC, str(dataset_csv))
        second = runner.submit("acme", GL_SPEC, str(dataset_csv))
        # The first job is running (held at the gate) before the close
        # starts, and the close has landed before the gate opens: the
        # second job can only ever see a runner that is abandoning.
        assert entered.wait(30)
        closer = threading.Thread(
            target=runner.close, kwargs={"drain": False}
        )
        closer.start()
        deadline = time.monotonic() + 30
        while not runner._abandoning():
            assert time.monotonic() < deadline, "runner never closed"
            time.sleep(0.01)
        gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        # The in-flight job finished; the queued one was abandoned and
        # its reservation returned.
        assert first.to_dict()["state"] == "done"
        assert second.to_dict()["state"] == "failed"
        account = store.account("acme")
        assert second.id in account.released
        assert account.pending == {}

    def test_submit_after_close_refused(self, store, engines, tmp_path):
        runner = JobRunner(store, engines, tmp_path / "spool", workers=1)
        runner.close()
        with pytest.raises(RuntimeError, match="shutting down"):
            runner.submit("acme", GL_SPEC, "whatever.csv")

    def test_close_during_admission_releases_the_reservation(
        self, store, engines, tmp_path, dataset_csv, monkeypatch
    ):
        """A close() that lands between a job's reservation and its
        enqueue must not strand the job behind the shutdown sentinel:
        it would stay queued forever and the next daemon's recover()
        would charge it in full."""
        runner = JobRunner(store, engines, tmp_path / "spool", workers=1)
        real_reserve = store.reserve

        def reserve_then_close(tenant, job, epsilon):
            real_reserve(tenant, job, epsilon)
            runner.close()

        monkeypatch.setattr(store, "reserve", reserve_then_close)
        with pytest.raises(RuntimeError, match="shutting down"):
            runner.submit("acme", GL_SPEC, str(dataset_csv))
        assert "job-000001" in store.account("acme").released
        assert runner.jobs() == []
        assert BudgetStore(store.root).recover() == {}

    def test_failed_result_write_leaves_no_staging_file(
        self, runner, store, dataset_csv, monkeypatch
    ):
        """A result write that fails (ENOSPC) fails the job with the
        OSError's text, releases its reservation and leaves nothing
        half-written in the spool."""
        import repro.trajectory.io as io_module

        def disk_full(writer, trajectories):
            writer.writerow(["0", "1.000"])  # a partial row, then ENOSPC
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(io_module, "write_csv_rows", disk_full)
        job = runner.submit("acme", GL_SPEC, str(dataset_csv))
        assert wait_done(runner, job) == "failed"
        assert job.to_dict()["error"] == (
            "OSError: [Errno 28] No space left on device"
        )
        assert list(runner.spool.iterdir()) == []
        account = store.account("acme")
        assert account.pending == {}
        assert job.id in account.released

    def test_jobs_listing_is_ordered(self, runner, dataset_csv):
        submitted = [
            runner.submit("acme", GL_SPEC, str(dataset_csv)) for _ in range(2)
        ]
        assert [job.id for job in runner.jobs()] == [
            job.id for job in submitted
        ]
        assert runner.get(submitted[0].id) is submitted[0]
        assert runner.get("job-999999") is None


class TestRestart:
    """Job ids are unique per budget root and spool: a daemon booted on
    a previous one's state numbers its jobs after the previous ones."""

    @pytest.mark.parametrize(
        "first, second",
        [
            (GL_SPEC, {"kind": "gl", "params": {"epsilon": 1.0, "seed": 8}}),
            # No reservation: only the spool remembers the first job.
            ({"kind": "sc", "params": {"signature_size": 3}}, {"kind": "sc"}),
        ],
        ids=["gl", "sc"],
    )
    def test_second_daemon_keeps_the_first_ones_result(
        self, tmp_path, dataset_csv, first, second
    ):
        config = ServeConfig(
            budget_root=tmp_path / "budgets",
            spool=tmp_path / "spool",
            tenants=(("t", 8.0),),
            engine_workers=1,
            job_workers=1,
        )
        jobs = []
        for spec in (first, second):
            daemon = Daemon(config)
            try:
                job = daemon.runner.submit("t", spec, str(dataset_csv))
                assert wait_done(daemon.runner, job) == "done"
            finally:
                daemon.shutdown()
            jobs.append((job, job.result_path.read_bytes()))
        (old, old_bytes), (new, new_bytes) = jobs
        assert (old.id, new.id) == ("job-000001", "job-000002")
        assert new_bytes != old_bytes
        assert old.result_path.read_bytes() == old_bytes


class TestConcurrentCallers:
    """Time-bounded stress tests of the runner's shared state: every
    thread is joined with a timeout, so a deadlock fails the test at
    that timeout instead of blocking it."""

    def test_concurrent_submits_mint_distinct_ids(
        self, runner, dataset_csv, preempt_often
    ):
        barrier = threading.Barrier(8)
        jobs = []
        errors = []

        def submit():
            barrier.wait(timeout=30)
            try:
                jobs.append(runner.submit("acme", GL_SPEC, str(dataset_csv)))
            except Exception as exc:  # collected, asserted below
                errors.append(exc)

        preempt_often("submit")
        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert sorted(job.id for job in jobs) == [
            f"job-{n:06d}" for n in range(1, 9)
        ]
        assert [job.id for job in runner.jobs()] == sorted(
            job.id for job in jobs
        )

    def test_listing_jobs_while_they_run_does_not_deadlock(
        self, store, engines, tmp_path, dataset_csv, monkeypatch,
        preempt_often,
    ):
        """A reader that lists the jobs and snapshots each one, as
        ``GET /v1/jobs`` does, while workers move jobs through their
        states under the job and runner locks. The jobs wait at a gate
        until the reader runs; the reader stops once every job is done,
        so a deadlock shows as a reader still alive at its timeout."""
        gate = threading.Event()
        real_get = engines.get

        def gated(spec):
            assert gate.wait(60)
            return real_get(spec)

        monkeypatch.setattr(engines, "get", gated)
        preempt_often("jobs", "to_dict", "_execute", "_abandoning")
        runner = JobRunner(store, engines, tmp_path / "spool", workers=2)
        jobs = [
            runner.submit("acme", GL_SPEC, str(dataset_csv)) for _ in range(8)
        ]

        def lister():
            while True:
                listed = [job.to_dict()["state"] for job in runner.jobs()]
                if listed == ["done"] * len(jobs):
                    return

        reader = threading.Thread(target=lister, daemon=True)
        reader.start()
        gate.set()
        reader.join(timeout=30)
        assert not reader.is_alive()
        runner.close()
        assert [job.to_dict()["state"] for job in jobs] == ["done"] * 8
