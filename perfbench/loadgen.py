"""Open-loop HTTP load generator for the ``repro serve`` workload.

One process, two threads, two keep-alive connections: the calling
thread submits each job at its scheduled time, whatever the state of
earlier jobs; a poller thread polls outstanding jobs, streams each
finished result, and reads a tenant's account status once per polling
round. A job's latency runs from its *due* time to its last result
byte, so a stall shows as latency on every later job, and the
generator's own lateness is recorded as ``lag``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import queue
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlparse

#: Pause of the poller when a polling round finished no job.
POLL_PAUSE_S = 0.01


@dataclass
class JobRecord:
    """What the client saw of one scheduled job (times are perf_counter)."""

    index: int
    due: float
    sent: float = 0.0
    accepted: float = 0.0
    done_seen: float = 0.0
    end: float = 0.0
    #: Server-side run time (the job's ``seconds``).
    run_s: float = 0.0
    result_s: float = 0.0
    polls: int = 0
    error: str | None = None


@dataclass
class LoadResult:
    jobs: list[JobRecord]
    tenant_reads: int = 0
    tenant_failures: list[str] = field(default_factory=list)
    backlog_max: int = 0


class _Client:
    def __init__(self, base: str) -> None:
        url = urlparse(base)
        self.conn = http.client.HTTPConnection(url.hostname, url.port, timeout=60)

    def request(self, method: str, path: str, payload=None) -> tuple[int, bytes]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def run_job(base: str, payload: dict, expected: str) -> str | None:
    """Submit one job, wait for it, and check its result; ``None`` or an
    error message (the warm-up path, outside any schedule)."""
    client = _Client(base)
    try:
        status, body = client.request("POST", "/v1/jobs", payload)
        if status != 202:
            return f"submit returned {status}: {body[:200]!r}"
        job_id = json.loads(body)["id"]
        while True:
            status, body = client.request("GET", f"/v1/jobs/{job_id}")
            state = json.loads(body)
            if status != 200 or state["state"] == "failed":
                return f"job {job_id} failed: {state}"
            if state["state"] == "done":
                break
            time.sleep(POLL_PAUSE_S)
        status, body = client.request("GET", f"/v1/jobs/{job_id}/result")
        if status != 200:
            return f"result returned {status}"
        if hashlib.sha256(body).hexdigest() != expected:
            return f"job {job_id}: result differs from the reference"
        return None
    finally:
        client.close()


def run_open_loop(
    base: str, payloads: list[dict], expected: list[str], rate: float,
    tenants: list[str],
) -> LoadResult:
    """Submit ``payloads[i]`` at ``start + i / rate``; wait for them all."""
    records = [JobRecord(index=i, due=0.0) for i in range(len(payloads))]
    result = LoadResult(jobs=records)
    submitted: queue.Queue = queue.Queue()
    poller = threading.Thread(
        target=_poll, args=(base, expected, submitted, tenants, result),
        name="loadgen-poller",
    )
    poller.start()
    client = _Client(base)
    start = time.perf_counter()
    try:
        for i, payload in enumerate(payloads):
            record = records[i]
            record.due = start + i / rate
            delay = record.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record.sent = time.perf_counter()
            try:
                status, body = client.request("POST", "/v1/jobs", payload)
            except (OSError, http.client.HTTPException) as exc:
                status, body = 0, repr(exc).encode()
            record.accepted = time.perf_counter()
            if status == 202:
                submitted.put((record, json.loads(body)["id"]))
            else:
                record.error = f"submit returned {status}: {body[:200]!r}"
    finally:
        submitted.put(None)
        client.close()
        poller.join()
    for record in records:
        if record.error is None and not record.end:
            record.error = f"job {record.index}: no result received"
    return result


def _poll(base, expected, submitted, tenants, result) -> None:
    client = _Client(base)
    outstanding: list = []
    closed = False
    rounds = 0
    try:
        while not closed or outstanding:
            while True:
                try:
                    item = submitted.get(block=not outstanding and not closed)
                except queue.Empty:
                    break
                if item is None:
                    closed = True
                    break
                outstanding.append(item)
            result.backlog_max = max(result.backlog_max, len(outstanding))
            finished = 0
            for item in list(outstanding):
                record, job_id = item
                if _poll_once(client, record, job_id, expected[record.index]):
                    outstanding.remove(item)
                    finished += 1
            if outstanding:
                tenant = tenants[rounds % len(tenants)]
                status, _ = client.request("GET", f"/v1/tenants/{tenant}")
                result.tenant_reads += 1
                if status != 200:
                    result.tenant_failures.append(f"tenant read returned {status}")
                rounds += 1
            if outstanding and not finished:
                time.sleep(POLL_PAUSE_S)
    finally:
        client.close()


def _poll_once(client: _Client, record: JobRecord, job_id: str, expected: str) -> bool:
    """One status poll; streams and checks the result when done. True
    when the job has left the outstanding set."""
    record.polls += 1
    status, body = client.request("GET", f"/v1/jobs/{job_id}")
    state = json.loads(body) if status == 200 else {"state": f"http {status}"}
    if state["state"] in ("queued", "running"):
        return False
    record.done_seen = time.perf_counter()
    if state["state"] != "done":
        record.error = f"job {job_id} ended as {state}"
        return True
    record.run_s = float(state["seconds"])
    status, body = client.request("GET", f"/v1/jobs/{job_id}/result")
    record.end = time.perf_counter()
    record.result_s = record.end - record.done_seen
    if status != 200:
        record.error = f"result returned {status}"
    elif hashlib.sha256(body).hexdigest() != expected:
        record.error = f"job {job_id}: result differs from the reference"
    return True
