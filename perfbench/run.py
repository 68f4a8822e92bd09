#!/usr/bin/env python3
"""The repository benchmark: the shipped ``repro`` CLI, end to end.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``perfbench/README.md`` says why each was chosen):

* ``anonymize-paper`` - closed loop of ``repro anonymize --engine batch``
  jobs, one process per job, CSV in to CSV out;
* ``publish-paper`` - the same fleets through ``repro publish`` (4 chunks,
  2 pass-2 worker processes);
* ``serve-small-jobs`` - an open-loop schedule of small GL jobs against a
  ``repro serve`` daemon in its own process.

Every input is generated from ``--seed`` during set-up, and every output
is checked against a reference run of the program for the same seed.
With ``--trace 0`` the program runs untraced and the end-to-end metrics
are reported. With ``--trace 1`` its processes start through
``bootstrap.py`` with the span/count wrappers of ``tracer.py`` installed,
and the per-layer metrics are reported. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("anonymize-paper", "publish-paper", "serve-small-jobs")

#: The batch workloads average over several fleets per seed, because
#: one fleet's job time moves by about 15% from seed to seed.
FLEETS = 3
FLEET_ARGS = ["--objects", "120", "--points", "200", "--rows", "16",
              "--cols", "16", "--hotspots", "12"]
CHUNK_SIZE = 30  # 120 trajectories -> 4 chunks
METHOD_ARGS = ["--model", "gl", "--epsilon", "1.0", "--signature-size", "10"]

#: (trajectories, points each) of the serve fleets, spread over 10-20 x
#: 40-60. Fixed, so that every seed carries a similar amount of work;
#: eight fleets, because one small fleet's job cost varies widely.
SERVE_SHAPES = ((10, 60), (14, 53), (17, 47), (20, 40)) * 2
SERVE_FLEETS = len(SERVE_SHAPES)
#: The two method configurations jobs name (one warm engine each). They
#: are fixed rather than drawn from the workload seed: every job of a
#: spec replays the same noise stream, so two drawn seeds would make
#: the whole run light or heavy together.
SERVE_SPEC_SEEDS = (1, 2)
SERVE_SPECS = len(SERVE_SPEC_SEEDS)
SERVE_TENANTS = ("t0", "t1")
#: Jobs per second, about 60% of what two closed-loop clients complete
#: on a 2-core machine (about 2.4 jobs/s).
SERVE_RATE = 1.5
SETUP_REPEATS = 3
#: A process running longer than this is killed and counts as failed.
PROCESS_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "job_s_p50": "s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "throughput_jobs_per_s": "1/s",
}

#: Layer times from the traced run, per job: metric -> (span, kind).
#: ``total`` is the span's own duration, ``self`` excludes child spans.
SPAN_METRICS = {
    "io.read_csv_s": ("io.read_csv", "total"),
    "io.write_csv_s": ("io.write_csv", "total"),
    "signature.extract_s": ("signature.extract", "total"),
    "mechanism.tf_perturb_s": ("mechanism.tf_perturb", "total"),
    "mechanism.pf_perturb_s": ("mechanism.pf_perturb", "total"),
    "global_stage.apply_s": ("global_stage.apply", "total"),
    "local_stage.apply_s": ("local_stage.apply", "total"),
    "waves.plan_s": ("waves.plan", "total"),
    "waves.execute_s": ("waves.execute", "total"),
    "edits.editable_init_s": ("edits.editable_init", "total"),
    "index.knn_batch_s": ("index.knn_batch", "total"),
    "index.knn_s": ("index.knn", "total"),
    "index.insert_many_s": ("index.insert_many", "total"),
    "engine.anonymize_s": ("engine.anonymize", "total"),
    "pool.parallel_map_s": ("pool.parallel_map", "total"),
    "publish.source_s": ("publish.source", "total"),
    "spill.stage_s": ("spill.stage", "total"),
    "publish.chunk_targets_s": ("publish.chunk_targets", "total"),
    "publish.outcome_wait_s": ("publish.outcome_wait", "self"),
    "publish.byte_sink_s": ("publish.byte_sink", "total"),
    "budget.reserve_s": ("budget.reserve", "total"),
    "budget.commit_s": ("budget.commit", "total"),
    "engines.get_s": ("engines.get", "total"),
    "jobs.load_dataset_s": ("jobs.load_dataset", "total"),
}
COUNT_METRICS = (
    "io.rows_read", "io.rows_written", "signature.extract_calls",
    "mechanism.draws", "global_stage.insertions", "global_stage.deletions",
    "global_stage.unrealised", "waves.waves", "waves.simulations",
    "waves.conflicts", "waves.discarded", "waves.fallbacks",
    "edits.editable_inits", "edits.insert_calls", "edits.delete_calls",
    "index.instances", "index.knn_batch_queries", "index.knn_calls",
    "index.iter_nearest_calls", "index.remove_calls",
    "geo.segment_array_builds", "geo.segment_array_rows", "pool.items",
    "spill.bytes", "publish.chunks", "engines.builds",
)
#: Per-layer metrics reported in the result line (BENCHMARK.json): the
#: layer times every workload exercises, and every count. A layer time
#: that reads 0 on a workload bypassing the layer is in the printed
#: layer table and the saved results file only.
PER_LAYER = {
    "datagen.generate_fleet_s": "s",
    "io.read_csv_s": "s",
    "signature.extract_s": "s",
    "mechanism.tf_perturb_s": "s",
    "loadgen.lag_p95_s": "s",
    "trace.overhead_s": "s",
    **{name: "count" for name in COUNT_METRICS},
    "spill.bytes": "bytes",
    "serve.polls_per_job": "count",
    "serve.backlog_max": "count",
}


class BenchError(RuntimeError):
    """Set-up could not complete; the run reports no result."""


@dataclass
class ProcessRun:
    code: int
    start: float
    end: float
    cpu_s: float
    rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest() -> str:
    """Identifies the program and benchmark sources, for cached results."""
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def tree_cpu_s(root_pid: int) -> float:
    """User+system seconds of a live process tree, including the
    children its processes have already reaped (Linux ``/proc``)."""
    stats = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                text = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            fields = text.rpartition(")")[2].split()
            stats[int(entry)] = (int(fields[1]), sum(int(f) for f in fields[11:15]))
    ticks, frontier = 0, [root_pid]
    while frontier:
        pid = frontier.pop()
        ticks += stats.get(pid, (0, 0))[1]
        frontier += [child for child, (parent, _) in stats.items() if parent == pid]
    return ticks / os.sysconf("SC_CLK_TCK")


def layer_metrics(job_traces: list[Path], jobs: int, generate_traces: list[Path]):
    """Per-job layer times and counts of the traced job processes, the
    per-fleet generation time, and the per-span table."""
    layers = tracer.summarize(job_traces)
    metrics = {
        metric: layers[kind].get(span, 0.0) / jobs
        for metric, (span, kind) in SPAN_METRICS.items()
    }
    metrics.update({name: layers["counts"].get(name, 0) / jobs for name in COUNT_METRICS})
    generated = tracer.summarize(generate_traces)
    metrics["datagen.generate_fleet_s"] = (
        generated["total"]["datagen.generate_fleet"] / len(generate_traces)
    )
    table = {
        span: (layers["calls"][span] / jobs, layers["total"].get(span, 0.0) / jobs,
               layers["self"][span] / jobs)
        for span in sorted(layers["calls"])
    }
    return metrics, table


class Bench:
    """One benchmark run: a private work directory and its processes."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.cache = WORK / "cache"
        for directory in (self.work / "tmp", self.cache):
            directory.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.work / "tmp"))
        self.key = f"{workload}-{seed}-{tree_digest()}"
        self._files = itertools.count(1)
        self.daemons: list[Daemon] = []
        self.notes: list[str] = []

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.stop()
        shutil.rmtree(self.work, ignore_errors=True)

    def trace_file(self) -> Path:
        return self.work / f"trace-{next(self._files)}.json"

    def command(self, args: list, trace: Path | None = None) -> list[str]:
        prefix = [sys.executable, str(HERE / "bootstrap.py")]
        if trace is not None:
            prefix.append(f"--trace-out={trace}")
        return prefix + [str(arg) for arg in args]

    def run(self, args: list, trace: Path | None = None) -> ProcessRun:
        """Run one ``repro`` command to completion, with the CPU time of
        its process tree and its peak resident set (largest process)."""
        log = self.work / f"process-{next(self._files)}.log"
        with open(log, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                self.command(args, trace), cwd=self.work, env=self.env,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.perf_counter()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            self.notes.append(
                f"`repro {args[0]}` exited {code}: {log.read_text(errors='replace')[-400:]}"
            )
        return ProcessRun(
            code=code, start=start, end=end,
            cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0,
        )

    def must_run(self, args: list, trace: Path | None = None) -> ProcessRun:
        result = self.run(args, trace)
        if result.code != 0:
            raise BenchError(self.notes[-1])
        return result

    def run_references(self, commands: list[list]) -> None:
        """Run reference commands two at a time (outside any timing)."""
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(self.must_run, commands))

    def cached(self, name: str, compute):
        """``compute()`` once per seed and source tree (JSON-cached)."""
        path = self.cache / f"{name}-{self.key}.json"
        if path.exists():
            return json.loads(path.read_text())
        value = compute()
        path.write_text(json.dumps(value))
        return value

    def counts_repeat(self, label: str, seen: list[dict]) -> bool:
        """Deterministic counters must repeat exactly, within this run and
        across runs of the same seed and source tree."""
        first = seen[0]
        if any(counts != first for counts in seen):
            self.notes.append(f"{label}: counters differ between iterations")
            return False
        if self.cached(f"counts-{label}", lambda: first) != first:
            self.notes.append(f"{label}: counters differ from an earlier run")
            return False
        return True


# -- batch workloads ---------------------------------------------------------


def batch_workload(bench: Bench) -> dict:
    publish = bench.workload == "publish-paper"
    seeds = [bench.seed * 1000 + i for i in range(FLEETS)]
    fleets = [bench.work / f"fleet{i}.csv" for i in range(FLEETS)]
    outputs = [bench.work / f"out{i}.csv" for i in range(FLEETS)]

    def job_args(i: int, reference: bool) -> list:
        common = ["-i", fleets[i], "-o", outputs[i], *METHOD_ARGS, "--seed", seeds[i]]
        if publish:
            return ["publish", *common, "--chunk-size", CHUNK_SIZE,
                    "--publish-workers", 1 if reference else 2,
                    "--spill-dir", bench.work / f"spill{i}"]
        if reference:
            return ["anonymize", *common, "--engine", "serial"]
        return ["anonymize", *common, "--engine", "batch", "--workers", 2]

    generate_traces = [bench.trace_file() for _ in range(FLEETS)] if bench.trace else []
    generate_s = [
        bench.must_run(
            ["generate", *FLEET_ARGS, "--seed", seeds[i], "-o", fleets[i]],
            generate_traces[i] if bench.trace else None,
        ).wall_s
        for i in range(FLEETS)
    ]

    def references() -> list[str]:
        bench.run_references([job_args(i, reference=True) for i in range(FLEETS)])
        return [sha256_file(path) for path in outputs]

    expected = bench.cached("reference", references)
    failures: list[str] = []

    def job(i: int, trace: Path | None) -> ProcessRun:
        outputs[i].unlink(missing_ok=True)
        result = bench.run(job_args(i, reference=False), trace)
        if result.code != 0:
            failures.append(f"fleet {i}: exit code {result.code}")
        elif sha256_file(outputs[i]) != expected[i]:
            failures.append(f"fleet {i}: output differs from the reference")
        return result

    # Generating the fleets has already loaded and compiled the program,
    # so the set-up needs no separate warm-up job.
    setup_s = FLEETS * median(generate_s)

    # Closed loop in whole rounds of one job per fleet, so every fleet
    # weighs the same; a traced run alternates untraced and traced rounds.
    # A round starts only while it would end at most half a round late.
    # A job is due when the previous one ends, so its latency is its
    # wall time plus the generator's gap before it.
    runs: list[list[ProcessRun]] = [[] for _ in range(FLEETS)]
    latencies: list[list[float]] = [[] for _ in range(FLEETS)]
    traced: list[list[tuple[ProcessRun, Path]]] = [[] for _ in range(FLEETS)]
    gaps: list[float] = []
    start = previous_end = time.perf_counter()
    rounds, round_s = 0, 0.0
    while (
        rounds == 0
        or time.perf_counter() - start + round_s / 2 < bench.seconds
        or (bench.trace and rounds < 2)
    ):
        round_start = time.perf_counter()
        traced_round = bench.trace and rounds % 2 == 1
        for i in range(FLEETS):
            trace = bench.trace_file() if traced_round else None
            result = job(i, trace)
            gaps.append(result.start - previous_end)
            if traced_round:
                traced[i].append((result, trace))
            else:
                runs[i].append(result)
                latencies[i].append(result.end - previous_end)
            previous_end = result.end
        rounds += 1
        round_s = time.perf_counter() - round_start
    attempted = rounds * FLEETS

    def per_fleet(values) -> float:
        """Mean over fleets of each fleet's median."""
        return statistics.fmean(median(fleet_values) for fleet_values in values)

    job_s = per_fleet([[r.wall_s for r in fleet] for fleet in runs])
    summary = {
        "attempted": attempted,
        "failures": failures,
        "samples": f"{sum(map(len, runs))} untraced jobs over {FLEETS} fleets",
        "metrics": {
            "setup_s": setup_s,
            "job_s_p50": job_s,
            "cpu_s_per_job": per_fleet([[r.cpu_s for r in fleet] for fleet in runs]),
            "peak_rss_mb": per_fleet([[r.rss_mb for r in fleet] for fleet in runs]),
            "latency_p50_s": per_fleet(latencies),
            "throughput_jobs_per_s": attempted / (previous_end - start),
        },
    }
    if not bench.trace:
        return summary

    job_traces = [trace for fleet in traced for _, trace in fleet]
    layers, table = layer_metrics(job_traces, len(job_traces), generate_traces)
    traced_s = per_fleet([[r.wall_s for r, _ in fleet] for fleet in traced])
    layers.update({
        "loadgen.lag_p95_s": percentile(gaps, 0.95),
        "trace.overhead_s": traced_s - job_s,
        "serve.polls_per_job": 0,
        "serve.backlog_max": 0,
    })
    summary["overhead"] = f"traced {traced_s:.4f} s - untraced {job_s:.4f} s per job"
    summary["layers"], summary["table"] = layers, table
    summary["counts_ok"] = all([
        bench.counts_repeat(
            f"fleet{i}", [tracer.summarize([trace])["counts"] for _, trace in traced[i]]
        )
        for i in range(FLEETS)
    ])
    return summary


# -- serve workload ----------------------------------------------------------


class Daemon:
    """A ``repro serve`` process on an ephemeral port."""

    def __init__(self, bench: Bench, name: str, trace: Path | None) -> None:
        directory = bench.work / name
        args = ["serve", "--port", 0, "--budget-root", directory / "budgets",
                "--spool", directory / "spool"]
        for tenant in SERVE_TENANTS:
            args += ["--tenant", f"{tenant}=1000000"]
        self.trace = trace
        self.base: str | None = None
        self.code: int | None = None
        self.rss_mb = 0.0
        self._log = open(bench.work / f"{name}.log", "wb")
        self.proc = subprocess.Popen(
            bench.command(args, trace), cwd=bench.work, env=bench.env,
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        bench.daemons.append(self)
        watchdog = threading.Timer(60, self.proc.kill)
        watchdog.start()
        line = self.proc.stdout.readline()
        watchdog.cancel()
        if not line.startswith("serving on "):
            self.stop()
            raise BenchError(f"daemon did not start: {line!r}")
        self.base = line.strip().removeprefix("serving on ")

    def stop(self) -> int:
        """Shut down over HTTP (drained), reap, and record the peak
        resident set of the daemon's process tree; idempotent."""
        if self.code is not None:
            return self.code
        if self.base is not None:
            request = urllib.request.Request(
                self.base + "/v1/shutdown", data=b"{}", method="POST",
                headers={"Content-Type": "application/json"},
            )
            try:
                urllib.request.urlopen(request, timeout=30).read()
            except OSError:
                self.proc.kill()
        else:
            self.proc.kill()
        watchdog = threading.Timer(60, self.proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            watchdog.cancel()
        self.proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.proc.stdout.close()
        self._log.close()
        return self.code


def serve_workload(bench: Bench) -> dict:
    fleet_seeds = [bench.seed * 1000 + i for i in range(SERVE_FLEETS)]
    fleets = [bench.work / f"fleet{i}.csv" for i in range(SERVE_FLEETS)]

    def payload(k: int) -> dict:
        """The k-th job: fleets cycle fastest, then spec seeds."""
        params = {"epsilon": 1.0, "signature_size": 10,
                  "seed": SERVE_SPEC_SEEDS[(k // SERVE_FLEETS) % len(SERVE_SPEC_SEEDS)]}
        return {"tenant": SERVE_TENANTS[k % len(SERVE_TENANTS)],
                "dataset": str(fleets[k % SERVE_FLEETS]),
                "spec": {"kind": "gl", "params": params}}

    def reference_key(k: int) -> str:
        return f"{k % SERVE_FLEETS}/{(k // SERVE_FLEETS) % SERVE_SPECS}"

    def references() -> dict:
        pairs = range(SERVE_FLEETS * SERVE_SPECS)
        targets = [bench.work / f"reference{k}.csv" for k in pairs]
        bench.run_references([
            ["anonymize", "-i", fleets[k % SERVE_FLEETS], "-o", targets[k], *METHOD_ARGS,
             "--seed", payload(k)["spec"]["params"]["seed"], "--engine", "batch"]
            for k in pairs
        ])
        return {reference_key(k): sha256_file(targets[k]) for k in pairs}

    def boot(name: str, trace: Path | None) -> Daemon:
        daemon = Daemon(bench, name, trace)
        error = loadgen.run_job(daemon.base, payload(0), expected[reference_key(0)])
        if error:
            raise BenchError(f"warm-up job: {error}")
        return daemon

    # Set-up: generate the fleets, then boot the daemon and run one
    # warm-up job, several times; the last daemon serves the schedule.
    generate_traces = [bench.trace_file() for _ in range(SERVE_FLEETS)] if bench.trace else []
    started = time.perf_counter()
    for i, (objects, points) in enumerate(SERVE_SHAPES):
        bench.must_run(["generate", "--objects", objects, "--points", points,
                        "--seed", fleet_seeds[i], "-o", fleets[i]],
                       generate_traces[i] if bench.trace else None)
    generate_s = time.perf_counter() - started
    expected = bench.cached("reference", references)
    boots = []
    daemon = None
    for repeat in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        started = time.perf_counter()
        daemon = boot(f"setup{repeat}", None)
        boots.append(time.perf_counter() - started)
    failures: list[str] = []

    def window(daemon: Daemon, jobs: int, first: int):
        """Run one open-loop schedule; stop the daemon afterwards."""
        payloads = [payload(k) for k in range(first, first + jobs)]
        digests = [expected[reference_key(k)] for k in range(first, first + jobs)]
        cpu_start = tree_cpu_s(daemon.proc.pid)
        load = loadgen.run_open_loop(daemon.base, payloads, digests, SERVE_RATE,
                                     list(SERVE_TENANTS))
        cpu_s = tree_cpu_s(daemon.proc.pid) - cpu_start
        if daemon.stop() != 0:
            failures.append(f"daemon exited {daemon.code}")
        failures.extend(record.error for record in load.jobs if record.error)
        failures.extend(load.tenant_failures)
        return load, cpu_s

    jobs = max(SERVE_FLEETS * SERVE_SPECS, round(bench.seconds * SERVE_RATE))
    if bench.trace:
        # Half the schedule untraced, half against a traced daemon.
        jobs //= 2
    load, cpu_s = window(daemon, jobs, 0)
    done = [r for r in load.jobs if r.error is None]
    latencies = [r.end - r.due for r in done]
    summary = {
        "attempted": len(load.jobs) + load.tenant_reads,
        "failures": failures,
        "samples": f"{len(done)} jobs at {SERVE_RATE} jobs/s, "
                   f"{load.tenant_reads} tenant reads",
        "latency_p95_s": percentile(latencies, 0.95),
        "backlog_max": load.backlog_max,
        "metrics": {
            "setup_s": generate_s + median(boots),
            "job_s_p50": median(r.end - r.sent for r in done),
            "cpu_s_per_job": cpu_s / len(done),
            "peak_rss_mb": daemon.rss_mb,
            "latency_p50_s": median(latencies),
            "throughput_jobs_per_s": len(done) / (max(r.end for r in done) - load.jobs[0].due),
        },
    }
    if not bench.trace:
        return summary

    traced = boot("traced", bench.trace_file())
    traced_load, _ = window(traced, jobs, 0)
    summary["attempted"] += len(traced_load.jobs) + traced_load.tenant_reads
    records = [r for r in traced_load.jobs if r.error is None]
    # The traced daemon ran the scheduled jobs plus its warm-up job.
    layers, table = layer_metrics([traced.trace], len(records) + 1, generate_traces)
    traced_p50 = median(r.end - r.due for r in records)
    layers.update({
        "loadgen.lag_p95_s": percentile([r.sent - r.due for r in traced_load.jobs], 0.95),
        "trace.overhead_s": traced_p50 - summary["metrics"]["latency_p50_s"],
        "serve.polls_per_job": statistics.fmean(r.polls for r in records),
        "serve.backlog_max": traced_load.backlog_max,
        "serve.submit_s": median(r.accepted - r.sent for r in records),
        "serve.queue_wait_s": median(r.done_seen - r.accepted - r.run_s for r in records),
        "serve.job_run_s": median(r.run_s for r in records),
        "serve.result_s": median(r.result_s for r in records),
    })
    summary["overhead"] = (
        f"traced {traced_p50:.4f} s - untraced "
        f"{summary['metrics']['latency_p50_s']:.4f} s latency p50"
    )
    summary["layers"], summary["table"] = layers, table
    summary["counts_ok"] = bench.counts_repeat(
        "daemon", [tracer.summarize([traced.trace])["counts"]]
    )
    return summary


# -- entry point -------------------------------------------------------------


def report(bench: Bench, summary: dict) -> dict:
    """Print the readable summary; return the result line."""
    failed = len(summary["failures"])
    correct = failed == 0 and summary.get("counts_ok", True)
    print(f"{bench.workload} seed={bench.seed} seconds={bench.seconds} "
          f"trace={int(bench.trace)}: {summary['samples']}")
    for name, value in summary["metrics"].items():
        print(f"  {name:32s} {value:12.6g} {END_TO_END[name]}")
    print(f"  {'ops_failed_ratio':32s} {failed / summary['attempted']:12.6g} "
          f"({failed} of {summary['attempted']} ops)")
    for name in ("latency_p95_s", "backlog_max"):
        if name in summary:
            print(f"  {name:32s} {summary[name]:12.6g}")
    for line in bench.notes + summary["failures"]:
        print(f"  note: {line}")
    metrics = {
        name: {"value": summary["metrics"][name], "unit": unit}
        for name, unit in END_TO_END.items()
    }
    if bench.trace:
        print(f"  tracing overhead: {summary['overhead']}")
        print(f"  {'span (per job)':32s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}")
        for span, (calls, total, own) in summary["table"].items():
            print(f"  {span:32s} {calls:10.1f} {total:10.4f} {own:10.4f}")
        for name, value in summary["layers"].items():
            if name not in PER_LAYER:
                print(f"  {name:32s} {value:12.6g}")
        metrics = {
            name: {"value": summary["layers"][name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    return {"correct": correct, "attempted": summary["attempted"],
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload == "serve-small-jobs":
            summary = serve_workload(bench)
        else:
            summary = batch_workload(bench)
        result = report(bench, summary)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
