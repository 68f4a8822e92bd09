"""Background job execution for the serving daemon.

The daemon splits into a sync API layer (:mod:`repro.serve.daemon`)
and this runner: :meth:`JobRunner.submit` performs validation and
budget admission on the caller's thread and returns immediately; the
accepted job then executes on a background worker pool driven by
:func:`~repro.engine.pool.parallel_map_stream` over a blocking queue,
against the process-wide warm :class:`~repro.serve.engines.EngineCache`.

A job's life::

    submit  -> queued      (eps_total reserved against the tenant)
    run     -> running
    success -> done        (ledger committed; result CSV in the spool)
    failure -> failed      (reservation released)

Job ids (``job-000001``, ...) are unique per budget root and spool: a
runner numbers after the highest id that a replayed account or a
spool entry holds, so a restarted daemon never reuses one.

Determinism: frequency-family jobs run with a **pinned call index**
(0), so a job's output depends only on ``(dataset, spec, seed)`` —
byte-identical to ``repro anonymize --engine batch`` with the same
inputs, no matter how many requests the long-lived engine served
before it. Publish jobs (``publish={"chunk_size": N}``) route through
a fresh :func:`repro.api.publish` call instead — one whole-dataset
ε-DP release via the spill-pipelined ``StreamPublisher`` (spills under
``<spool>/<job-id>.spill/``), byte-identical to ``repro publish`` and
charged the publish ledger's composed ``eps_total``. Re-running a job re-publishes the *same* release (same
noise), which is why each job is still charged: the daemon refuses to
assume two requests are intentional replays.

Thread-safety: job state transitions and the id counter are guarded
by the runner lock; the worker callable (``_execute``) reaches shared
state only through that lock or the budget store's per-account locks.
A worker takes the runner lock while it holds a job's lock (the
abandon check), so nothing may take a job's lock under the runner
lock; ``repro check``'s RACE002 flags a nested ``with`` that does.
"""

from __future__ import annotations

import queue
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.api.registry import build
from repro.api.session import as_spec
from repro.api.spec import MethodSpec
from repro.core.pipeline import FrequencyAnonymizer
from repro.data.registry import DatasetRegistry, _resolve_ref, load_dataset
from repro.engine.batch import BatchAnonymizer
from repro.engine.pool import parallel_map_stream
from repro.serve.budget import BudgetStore
from repro.serve.engines import EngineCache

__all__ = ["JOB_STATES", "Job", "JobRunner"]

#: Every state a job can be observed in, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")

_SHUTTING_DOWN = "the job runner is shutting down; not accepting jobs"

#: A job id, or a spool entry named after one (``job-000001.csv``).
_JOB_ID = re.compile(r"job-(\d+)")


@dataclass
class Job:
    """One submitted anonymization job; mutated only under the runner
    lock, read freely by API threads via :meth:`to_dict` snapshots."""

    id: str
    tenant: str
    spec: MethodSpec
    dataset: str
    eps_total: float
    #: ``None`` for a plain anonymize job; validated publish options
    #: (``{"chunk_size": int}``) for a streaming-publish job.
    publish: dict | None = None
    state: str = "queued"
    error: str | None = None
    #: Epsilon actually charged on commit (≤ eps_total; 0 until done).
    eps_charged: float = 0.0
    #: The run's report summary (``AnonymizationReport.to_dict``).
    report: dict | None = None
    #: Where the runner spooled the anonymized CSV (done jobs only).
    result_path: Path | None = None
    seconds: float = 0.0
    trajectories: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def to_dict(self) -> dict:
        """Consistent JSON snapshot of the job (one lock acquisition).

        Any client may read it, so the spec goes out as its seedless
        :meth:`~repro.api.spec.MethodSpec.provenance`.
        """
        spec = self.spec.provenance()
        digest = spec.pop("digest")
        with self._lock:
            return {
                "id": self.id,
                "tenant": self.tenant,
                "state": self.state,
                "dataset": self.dataset,
                "spec": spec,
                "digest": digest,
                "publish": None if self.publish is None else dict(self.publish),
                "eps_total": self.eps_total,
                "eps_charged": self.eps_charged,
                "trajectories": self.trajectories,
                "seconds": self.seconds,
                "error": self.error,
                "result_ready": self.state == "done",
            }


def epsilon_of(spec: MethodSpec, anonymizer) -> float:
    """A job's worst-case end-to-end epsilon, from its built method.

    Frequency pipelines and the DP baselines expose ``epsilon``; a
    method without one (the non-DP baselines) spends nothing and needs
    no reservation.
    """
    epsilon = getattr(anonymizer, "epsilon", None)
    if epsilon is None:
        epsilon = spec.params.get("epsilon")
    if epsilon is None:
        return 0.0
    return float(epsilon)


def _last_job_number(store: BudgetStore, spool: Path) -> int:
    """The highest ``job-NNNNNN`` number that the budget root's
    accounts (pending, committed or released) or the spool's entries
    already hold; 0 when there is none.

    A runner numbers its jobs after it, so a daemon restarted over the
    same state never reissues an id: a reused one would be refused by
    the account that holds it, or overwrite the old job's result.
    """
    names = [path.name for path in spool.iterdir()]
    for tenant in store.tenants():
        account = store.account(tenant)
        with account.lock:
            names += [*account.pending, *account.committed, *account.released]
    numbers = (int(match[1]) for match in map(_JOB_ID.match, names) if match)
    return max(numbers, default=0)


class JobRunner:
    """The background half of the daemon: a queue, a worker pool, and
    the reserve/commit/release protocol around every execution."""

    #: Queue sentinel that ends the job stream at shutdown.
    _DONE = object()

    def __init__(
        self,
        store: BudgetStore,
        engines: EngineCache,
        spool: str | Path,
        workers: int = 2,
        registry: DatasetRegistry | None = None,
        publish_workers: int | None = 1,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.store = store
        self.engines = engines
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.workers = workers
        self.registry = registry
        #: Pass-2 fan-out for streaming-publish jobs (see
        #: :class:`~repro.engine.publish.StreamPublisher`).
        self.publish_workers = publish_workers
        self._jobs: dict[str, Job] = {}
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        #: Job ids continue after any the state on disk holds.
        self._sequence = _last_job_number(store, self.spool)
        self._closed = False
        self._drain = True
        self._pump = threading.Thread(
            target=self._run_pump, name="repro-serve-jobs", daemon=True
        )
        self._pump.start()

    # -- the sync half: admission -------------------------------------------

    def submit(
        self, tenant: str, spec, dataset: str, publish=None
    ) -> Job:
        """Validate, reserve the budget, and enqueue; returns the job.

        ``publish`` switches the job from plain anonymization to a
        whole-stream publish (one shared ε_G TF draw across chunks):
        a mapping of publish options, currently ``{"chunk_size": int}``
        (default 500). Publish jobs require a frequency-family spec.

        Raises :class:`~repro.serve.budget.BudgetExceededError` (the
        structured refusal), :class:`~repro.serve.budget.UnknownTenantError`,
        or ``ValueError``/``KeyError``/``FileNotFoundError`` for a bad
        spec, dataset reference, or publish option — all *before*
        anything is queued. Raises ``RuntimeError`` once the runner is
        closing; a reservation made before the close is released.
        """
        spec = as_spec(spec)
        with self._lock:
            if self._closed:
                raise RuntimeError(_SHUTTING_DOWN)
            self._sequence += 1
            job_id = f"job-{self._sequence:06d}"
        # Build once to validate the spec and learn its epsilon; the
        # instance is discarded (execution uses the warm cache), but a
        # bad parameter set is refused here, on the caller's thread.
        anonymizer = build(spec)
        eps_total = epsilon_of(spec, anonymizer)
        publish_options = None
        if publish is not None:
            publish_options = dict(publish)
            unknown = set(publish_options) - {"chunk_size"}
            if unknown:
                raise ValueError(
                    f"unknown publish option(s): {sorted(unknown)}"
                )
            chunk_size = publish_options.setdefault("chunk_size", 500)
            if not isinstance(chunk_size, int) or chunk_size < 1:
                raise ValueError(
                    f"publish chunk_size must be a positive integer, "
                    f"got {chunk_size!r}"
                )
            if not isinstance(anonymizer, FrequencyAnonymizer):
                raise ValueError(
                    "publish jobs require a frequency-family method "
                    "(the shared TF estimate is the frequency pipeline's "
                    "global stage)"
                )
        _resolve_ref(dataset, self.registry)  # unknown refs refuse here too
        job = Job(
            id=job_id,
            tenant=tenant,
            spec=spec,
            dataset=str(dataset),
            eps_total=eps_total,
            publish=publish_options,
        )
        if eps_total > 0.0:
            self.store.reserve(tenant, job.id, eps_total)
        # Re-check and enqueue under one lock: close() sets _closed
        # under it before queueing _DONE, so an admitted job always
        # lands ahead of the sentinel. A job that lost the race to
        # close() gets its reservation back (outside the lock: the
        # release fsyncs) instead of waiting forever behind _DONE.
        with self._lock:
            if not self._closed:
                self._jobs[job.id] = job
                self._queue.put(job)
                return job
        if eps_total > 0.0:
            self.store.release(
                tenant, job.id, reason="daemon shut down during admission"
            )
        raise RuntimeError(_SHUTTING_DOWN)

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return [self._jobs[key] for key in sorted(self._jobs)]

    # -- the async half: execution ------------------------------------------

    def _pending(self) -> Iterator[Job]:
        """Block on the queue until the shutdown sentinel arrives."""
        while True:
            item = self._queue.get()
            if item is self._DONE:
                return
            yield item

    def _run_pump(self) -> None:
        # parallel_map_stream pulls jobs only as pool slots free up and
        # yields them back in order; iterating it to exhaustion IS the
        # runner's lifetime. Thread executor: jobs share the warm
        # engine cache, and the engines' own pools provide the
        # CPU-level parallelism.
        for _ in parallel_map_stream(
            self._execute,
            self._pending(),
            workers=self.workers,
            executor="thread",
        ):
            pass

    def _execute(self, job: Job) -> Job:
        """Worker: run one job end to end; never raises (the job
        carries its failure)."""
        with job._lock:
            abandoned = self._abandoning()
            if not abandoned:
                job.state = "running"
        if abandoned:
            return self._fail(job, "daemon shut down before the job ran")
        started = time.perf_counter()
        try:
            result_path = self._run(job)
        except Exception as exc:  # noqa: BLE001 — the job carries it
            return self._fail(
                job,
                f"{type(exc).__name__}: {exc}",
                seconds=time.perf_counter() - started,
            )
        with job._lock:
            job.result_path = result_path
            job.seconds = time.perf_counter() - started
            job.state = "done"
        return job

    def _run(self, job: Job) -> Path:
        """Execute the anonymization and spool the result atomically."""
        from repro.trajectory.io import write_csv

        if job.publish is not None:
            return self._run_publish(job)
        engine = self.engines.get(job.spec)
        dataset = load_dataset(job.dataset, self.registry)
        if isinstance(engine, BatchAnonymizer):
            # Pinned call index: output depends only on (dataset, spec,
            # seed) — byte-identical to a fresh `--engine batch` run.
            result, report = engine.anonymize_with_report(
                dataset, call_index=0
            )
        elif hasattr(engine, "anonymize_with_report"):
            result, report = engine.anonymize_with_report(dataset)
        else:
            result, report = engine.anonymize(dataset), None
        target = self.spool / f"{job.id}.csv"
        write_csv(result, target)
        ledger = None if report is None else report.accounting
        charged = 0.0
        if job.eps_total > 0.0:
            charged = self.store.commit(job.tenant, job.id, ledger)
        with job._lock:
            job.eps_charged = charged
            job.trajectories = len(result)
            job.report = None if report is None else report.to_dict()
        return target

    def _run_publish(self, job: Job) -> Path:
        """Execute a streaming-publish job and spool the merged CSV.

        Runs through :func:`repro.api.publish` on a fresh pipeline
        (call index 0 by construction, so the release depends only on
        ``(dataset, spec, seed)`` like every other job), spilling
        pass-1 chunks under the spool and streaming worker-encoded CSV
        bytes straight into the staged result. The commit charges the
        publish ledger — ``eps_G + max-per-chunk eps_L``, exactly the
        reservation.
        """
        from repro.api.session import publish as api_publish
        from repro.engine.publish import chunk_source
        from repro.trajectory.io import staged_csv

        target = self.spool / f"{job.id}.csv"
        spill_dir = self.spool / f"{job.id}.spill"
        with staged_csv(target) as handle:
            report = api_publish(
                job.spec,
                chunk_source(job.dataset, job.publish["chunk_size"], self.registry),
                publish_workers=self.publish_workers,
                spill_dir=spill_dir,
                byte_sink=lambda rows, _report: handle.write(rows),
            )
        charged = 0.0
        if job.eps_total > 0.0:
            charged = self.store.commit(job.tenant, job.id, report.accounting)
        with job._lock:
            job.eps_charged = charged
            job.trajectories = report.trajectories
            job.report = report.to_dict()
        return target

    def _fail(
        self, job: Job, error: str, seconds: float | None = None
    ) -> Job:
        """Release the reservation, then publish the failure: a reader
        that sees ``failed`` also sees the budget restored, as one that
        sees ``done`` sees the charge committed. The error and the
        state appear together, and the job is failed even if the
        release raises.

        A release that cannot be written (an ``OSError`` from the
        account append, such as a full disk) is not raised: the job
        fails with both messages, and the pump goes on to later jobs.
        The reservation stays held, since the store drops it only
        after a durable append, so the next boot's ``recover()``
        commits it in full: the conservative side."""
        try:
            if job.eps_total > 0.0:
                self.store.release(job.tenant, job.id, reason=error)
        except OSError as exc:
            error = (
                f"{error}; releasing its reservation failed, so it stays "
                f"held: {type(exc).__name__}: {exc}"
            )
        finally:
            with job._lock:
                job.error = error
                if seconds is not None:
                    job.seconds = seconds
                job.state = "failed"
        return job

    def _abandoning(self) -> bool:
        with self._lock:
            return self._closed and not self._drain

    # -- lifecycle -----------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop accepting jobs and shut the pump down; idempotent.

        ``drain=True`` (the default) lets every queued and in-flight
        job finish; ``drain=False`` fails queued jobs immediately
        (their reservations are released — they never executed).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._drain = drain
        self._queue.put(self._DONE)
        self._pump.join()
