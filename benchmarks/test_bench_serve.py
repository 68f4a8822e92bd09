"""Benchmark for the serving daemon: HTTP request latency.

What's measured is the *service* overhead — HTTP round-trips, job
queueing, budget admission, result spooling and streaming — on top of
a deliberately small anonymization job, so the tracked key
(``serve.request_p50_s``) moves when the daemon's plumbing regresses
rather than when the engine does (the engine has its own bench
partition). One warm-up request absorbs first-use costs (engine
build, account file creation) before the timed sequence.

The timed unit is one complete tenant interaction: submit the job,
poll it to completion, stream the result CSV. ``request_p50_s`` is
the median over the sequence — the steady-state latency a tenant
sees, robust to the odd scheduler hiccup on shared CI runners.

The measurement lands in a session-scoped
``BenchRecord(bench="serve")`` (see ``conftest``), its own partition
of ``BENCH_history.jsonl``.
"""

import json
import statistics
import time
import urllib.request

import pytest

from repro.datagen.generator import FleetConfig, generate_fleet
from repro.serve import Daemon, ServeConfig
from repro.trajectory.io import write_csv

#: Requests in the timed sequence (odd: the median is one sample).
REQUESTS = 9
SPEC = {"kind": "gl", "params": {"epsilon": 0.5, "seed": 11}}


@pytest.fixture(scope="module")
def serve_dataset(tmp_path_factory):
    fleet = generate_fleet(
        FleetConfig(
            n_objects=10, points_per_trajectory=40, rows=8, cols=8, seed=3
        )
    )
    path = tmp_path_factory.mktemp("serve-bench") / "fleet.csv"
    write_csv(fleet.dataset, path)
    return path


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-bench-daemon")
    config = ServeConfig(
        port=0,
        budget_root=root / "budgets",
        spool=root / "spool",
        # Budget for the warm-up plus every timed request, with slack.
        tenants=(("bench", (REQUESTS + 2) * 0.5),),
        engine_workers=1,
        job_workers=1,
    )
    with Daemon(config) as daemon:
        yield daemon


def _one_request(base: str, dataset: str) -> None:
    """Submit, poll to done, stream the result — one tenant round trip."""
    request = urllib.request.Request(
        base + "/v1/jobs",
        data=json.dumps(
            {"tenant": "bench", "dataset": dataset, "spec": SPEC}
        ).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        job = json.loads(response.read())
    assert response.status == 202
    while True:
        with urllib.request.urlopen(
            f"{base}/v1/jobs/{job['id']}", timeout=60
        ) as response:
            state = json.loads(response.read())
        if state["state"] in ("done", "failed"):
            break
        time.sleep(0.005)
    assert state["state"] == "done", state.get("error")
    with urllib.request.urlopen(
        f"{base}/v1/jobs/{job['id']}/result", timeout=60
    ) as response:
        body = response.read()
    assert body.startswith(b"object_id,t,x,y")


def test_request_latency_p50(daemon, serve_dataset, serve_bench_records):
    host, port = daemon.address
    base = f"http://{host}:{port}"
    dataset = str(serve_dataset)
    _one_request(base, dataset)  # warm-up: engine build, account load
    samples = []
    for _ in range(REQUESTS):
        started = time.perf_counter()
        _one_request(base, dataset)
        samples.append(time.perf_counter() - started)
    p50 = statistics.median(samples)
    serve_bench_records.setdefault("serve", {})["request_p50_s"] = p50
    assert p50 > 0.0
