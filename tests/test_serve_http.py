"""End-to-end tests for the serving daemon's HTTP layer.

Each test boots a real `Daemon` on an ephemeral port and talks plain
`urllib` to it — the same wire a tenant would use.
"""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import run
from repro.datagen.generator import FleetConfig, generate_fleet
from repro.serve import Daemon, ServeConfig
from repro.serve.daemon import MAX_BODY_BYTES, _Handler
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


GL_SPEC = {"kind": "gl", "params": {"epsilon": 1.0, "seed": 7}}


class Client:
    """Tiny urllib wrapper returning ``(status, parsed-or-raw body)``."""

    def __init__(self, host, port):
        self.base = f"http://{host}:{port}"

    def get(self, path, raw=False):
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as r:
                body = r.read()
                return r.status, body if raw else json.loads(body)
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def post(self, path, payload):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def wait_done(self, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body = self.get(f"/v1/jobs/{job_id}")
            assert status == 200
            if body["state"] in ("done", "failed"):
                return body
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} never settled")


@pytest.fixture
def daemon(tmp_path):
    config = ServeConfig(
        port=0,
        budget_root=tmp_path / "budgets",
        spool=tmp_path / "spool",
        tenants=(("acme", 8.0), ("tiny", 0.1)),
        engine_workers=1,
        job_workers=1,
    )
    with Daemon(config) as daemon:
        yield daemon


@pytest.fixture
def client(daemon):
    return Client(*daemon.address)


class TestEndpoints:
    def test_health(self, client):
        status, body = client.get("/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["tenants"] == ["acme", "tiny"]

    def test_unknown_route_404(self, client):
        assert client.get("/v1/nope")[0] == 404
        assert client.post("/v2/jobs", {})[0] == 404

    def test_declare_and_query_tenant(self, client):
        status, body = client.post(
            "/v1/tenants", {"tenant": "newco", "budget": 2.5}
        )
        assert status == 200
        assert body["budget"] == 2.5
        status, body = client.get("/v1/tenants/newco")
        assert status == 200
        assert body["remaining"] == 2.5

    def test_redeclare_conflict_409(self, client):
        status, body = client.post(
            "/v1/tenants", {"tenant": "acme", "budget": 99.0}
        )
        assert status == 409
        assert body["error"] == "conflict"

    def test_unknown_tenant_status_404(self, client):
        status, body = client.get("/v1/tenants/ghost")
        assert status == 404
        assert body == {"error": "unknown-tenant", "tenant": "ghost"}

    def test_malformed_bodies_400(self, client):
        assert client.post("/v1/jobs", {"tenant": 5, "dataset": "x"})[0] == 400
        assert client.post("/v1/tenants", {"tenant": "x"})[0] == 400


class TestBodyLimits:
    """Content-Length is validated before any body byte is read; a
    refused request is answered at once and its connection closed."""

    @pytest.mark.parametrize(
        "length, status, error",
        [
            ("abc", 400, "bad-request"),
            ("-5", 400, "bad-request"),
            (str(MAX_BODY_BYTES + 1), 413, "payload-too-large"),
        ],
    )
    def test_refused_without_reading_the_body(self, daemon, length, status, error):
        host, port = daemon.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                f"POST /v1/jobs HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            response = b""
            while chunk := sock.recv(65536):  # EOF: the daemon closed
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in head
        assert json.loads(body)["error"] == error

    def test_unknown_route_body_is_not_parsed_as_a_request(self, daemon):
        """An unknown POST route never reads its body, so the daemon
        closes the connection instead of treating those bytes as the
        next request."""
        host, port = daemon.address
        smuggled = f"GET /v1/health HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                f"POST /v1/nope HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(smuggled)}\r\n\r\n".encode()
                + smuggled
            )
            response = b""
            while chunk := sock.recv(65536):  # EOF: the daemon closed
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 404 ")
        assert b"Connection: close" in head
        assert json.loads(body)["error"] == "unknown-route"
        assert response.count(b"HTTP/1.1 ") == 1


class TestConnectionTimeout:
    """A connection that stalls is dropped after ``_Handler.timeout``
    instead of holding its handler thread forever."""

    @pytest.fixture(autouse=True)
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.5)

    def test_stalled_body_gets_408_and_close(self, daemon, client):
        host, port = daemon.address
        # The socket's own timeout fails the test instead of hanging it
        # if the daemon never gives up on the body.
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                f"POST /v1/jobs HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: 100\r\n\r\n".encode()
                + b'{"tenant":'
            )
            response = b""
            while chunk := sock.recv(65536):  # EOF: the daemon closed
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 ")
        assert b"Connection: close" in head
        assert json.loads(body)["error"] == "request-timeout"
        assert client.get("/v1/health")[0] == 200

    def test_idle_keep_alive_connection_is_closed(self, daemon):
        host, port = daemon.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                f"GET /v1/health HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
            )
            response = b""
            while chunk := sock.recv(65536):  # EOF once the link idles
                response += chunk
        assert response.startswith(b"HTTP/1.1 200 ")
        assert response.count(b"HTTP/1.1 ") == 1


class TestKeepAliveLatency:
    def test_responses_do_not_wait_for_delayed_acks(self, daemon):
        """A response is a header write then a body write. With Nagle's
        algorithm on, the body waits for the client's delayed ACK of
        the headers, about 40 ms per request on a keep-alive
        connection; with TCP_NODELAY a round trip takes well under 1
        ms on loopback."""
        conn = http.client.HTTPConnection(*daemon.address, timeout=5)
        round_trips = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                response.read()
                round_trips.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(round_trips) < 0.020


class TestJobLifecycle:
    def test_submitted_job_streams_byte_identical_csv(
        self, client, daemon, dataset_csv, tmp_path
    ):
        status, job = client.post(
            "/v1/jobs",
            {"tenant": "acme", "dataset": str(dataset_csv), "spec": GL_SPEC},
        )
        assert status == 202
        assert job["state"] == "queued"
        assert job["eps_total"] == pytest.approx(1.0)
        final = client.wait_done(job["id"])
        assert final["state"] == "done"
        assert final["eps_charged"] == pytest.approx(1.0)

        status, served = client.get(f"/v1/jobs/{job['id']}/result", raw=True)
        assert status == 200
        # The acceptance bar: byte-identical to the batch engine run
        # of the same dataset/spec/seed.
        from repro.data.registry import load_dataset

        reference = run(
            GL_SPEC,
            load_dataset(dataset_csv),
            engine="batch",
            workers=1,
        )
        expected = tmp_path / "expected.csv"
        write_csv(reference.dataset, expected)
        assert served == expected.read_bytes()

    def test_job_snapshots_hold_no_seed(self, client, dataset_csv):
        """Any client may read a job, so its `spec` and `digest` are
        the same for two noise seeds and neither seed appears in them."""
        seeds = (424242, 987654321)
        views = []
        for seed in seeds:
            spec = {"kind": "gl", "params": {"epsilon": 1.0, "seed": seed}}
            status, submitted = client.post(
                "/v1/jobs",
                {"tenant": "acme", "dataset": str(dataset_csv), "spec": spec},
            )
            assert status == 202
            final = client.wait_done(submitted["id"])
            assert final["state"] == "done"
            views.append(
                [{key: body[key] for key in ("spec", "digest")}
                 for body in (submitted, final)]
            )
        assert views[0] == views[1]
        assert views[0][0]["spec"] == {"kind": "gl", "params": {"epsilon": 1.0}}
        for seed in seeds:
            assert str(seed) not in json.dumps(views)

    def test_repeat_jobs_are_each_charged(self, client, dataset_csv):
        for expected_spent in (1.0, 2.0):
            _, job = client.post(
                "/v1/jobs",
                {
                    "tenant": "acme",
                    "dataset": str(dataset_csv),
                    "spec": GL_SPEC,
                },
            )
            client.wait_done(job["id"])
            _, account = client.get("/v1/tenants/acme")
            assert account["spent"] == pytest.approx(expected_spent)

    def test_over_budget_submit_refused_429(self, client, dataset_csv):
        status, body = client.post(
            "/v1/jobs",
            {"tenant": "tiny", "dataset": str(dataset_csv), "spec": GL_SPEC},
        )
        assert status == 429
        assert body["error"] == "budget-exhausted"
        assert body["tenant"] == "tiny"
        assert body["requested"] == pytest.approx(1.0)
        assert body["remaining"] == pytest.approx(0.1)
        assert body["budget"] == pytest.approx(0.1)

    def test_unknown_tenant_submit_404(self, client, dataset_csv):
        status, body = client.post(
            "/v1/jobs",
            {"tenant": "ghost", "dataset": str(dataset_csv), "spec": GL_SPEC},
        )
        assert status == 404
        assert body["error"] == "unknown-tenant"

    def test_bad_dataset_and_spec_400(self, client, dataset_csv):
        status, body = client.post(
            "/v1/jobs",
            {"tenant": "acme", "dataset": "/nowhere.csv", "spec": GL_SPEC},
        )
        assert status == 400
        assert body["error"] == "bad-request"
        status, body = client.post(
            "/v1/jobs",
            {
                "tenant": "acme",
                "dataset": str(dataset_csv),
                "spec": {"kind": "no-such-method"},
            },
        )
        assert status == 400

    @pytest.mark.parametrize(
        "setting",
        [
            {"search_strategy": "top_down"},
            {"trajectory_selection": "index"},
            {"global_first": True},
        ],
        ids=lambda setting: next(iter(setting)),
    )
    def test_retired_setting_refused_400_without_a_charge(
        self, client, dataset_csv, setting
    ):
        spec = {"kind": "gl", "params": {**GL_SPEC["params"], **setting}}
        status, body = client.post(
            "/v1/jobs",
            {"tenant": "acme", "dataset": str(dataset_csv), "spec": spec},
        )
        assert status == 400
        assert body["error"] == "bad-request"
        assert repr(next(iter(setting))) in body["detail"]
        _, account = client.get("/v1/tenants/acme")
        assert account["remaining"] == pytest.approx(8.0)

    def test_unknown_job_404(self, client):
        assert client.get("/v1/jobs/job-999999")[0] == 404
        assert client.get("/v1/jobs/job-999999/result")[0] == 404

    def test_result_before_done_409(self, client, daemon, dataset_csv):
        gate = threading.Event()
        real_get = daemon.engines.get

        def gated(spec):
            engine = real_get(spec)
            gate.wait(30)
            return engine

        daemon.engines.get = gated
        try:
            _, job = client.post(
                "/v1/jobs",
                {
                    "tenant": "acme",
                    "dataset": str(dataset_csv),
                    "spec": GL_SPEC,
                },
            )
            status, body = client.get(f"/v1/jobs/{job['id']}/result")
            assert status == 409
            assert body["error"] == "not-ready"
            assert body["state"] in ("queued", "running")
        finally:
            gate.set()
            daemon.engines.get = real_get
        client.wait_done(job["id"])

    def test_failed_job_result_409(self, client, daemon, dataset_csv):
        def explode(spec):
            raise RuntimeError("engine exploded")

        real_get = daemon.engines.get
        daemon.engines.get = explode
        try:
            _, job = client.post(
                "/v1/jobs",
                {
                    "tenant": "acme",
                    "dataset": str(dataset_csv),
                    "spec": GL_SPEC,
                },
            )
            final = client.wait_done(job["id"])
        finally:
            daemon.engines.get = real_get
        assert final["state"] == "failed"
        status, body = client.get(f"/v1/jobs/{job['id']}/result")
        assert status == 409
        assert body["error"] == "job-failed"
        # The failed job's reservation went back to the tenant.
        _, account = client.get("/v1/tenants/acme")
        assert account["reserved"] == 0


class TestConcurrentSubmits:
    def test_parallel_http_submits_never_oversubscribe(
        self, client, dataset_csv
    ):
        n = 12
        barrier = threading.Barrier(n)
        outcomes = []
        lock = threading.Lock()

        def submit():
            barrier.wait()
            status, body = client.post(
                "/v1/jobs",
                {
                    "tenant": "acme",
                    "dataset": str(dataset_csv),
                    "spec": GL_SPEC,
                },
            )
            with lock:
                outcomes.append((status, body))

        threads = [threading.Thread(target=submit) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        accepted = [body for status, body in outcomes if status == 202]
        refused = [body for status, body in outcomes if status == 429]
        assert len(accepted) == 8  # budget 8.0 / eps 1.0
        assert len(refused) == n - len(accepted)
        for body in accepted:
            client.wait_done(body["id"])
        _, account = client.get("/v1/tenants/acme")
        assert account["spent"] <= account["budget"] + 1e-9
        assert account["reserved"] == 0


class TestShutdown:
    def test_http_shutdown_drains_and_stops(self, tmp_path, dataset_csv):
        config = ServeConfig(
            port=0,
            budget_root=tmp_path / "budgets",
            spool=tmp_path / "spool",
            tenants=(("acme", 8.0),),
            engine_workers=1,
        )
        daemon = Daemon(config)
        daemon.start()
        client = Client(*daemon.address)
        _, job = client.post(
            "/v1/jobs",
            {"tenant": "acme", "dataset": str(dataset_csv), "spec": GL_SPEC},
        )
        status, body = client.post("/v1/shutdown", {})
        assert status == 202
        assert body["status"] == "stopping"
        assert daemon.wait(timeout=60)
        # Drained: the in-flight job completed and committed before
        # the engines closed.
        settled = daemon.runner.get(job["id"]).to_dict()
        assert settled["state"] == "done"
        assert daemon.store.account("acme").pending == {}
        # And the daemon is truly down: submissions refuse.
        with pytest.raises(RuntimeError):
            daemon.runner.submit("acme", GL_SPEC, str(dataset_csv))

    def test_context_manager_shutdown_is_idempotent(self, tmp_path):
        config = ServeConfig(
            port=0,
            budget_root=tmp_path / "budgets",
            spool=tmp_path / "spool",
        )
        with Daemon(config) as daemon:
            daemon.shutdown()
        daemon.shutdown()  # exit + explicit double-call: no error
