#!/usr/bin/env python
"""CI smoke test for the `repro serve` daemon, end to end over the wire.

The whole serving story in one script, against a real subprocess:

1. generate a small fleet and ingest it into a registry root (the
   daemon resolves the job's dataset by registry name, exercising the
   concurrent-resolve path the registry hardened for serving);
2. boot `repro serve` on an ephemeral port with two tenants — one
   funded, one underfunded;
3. submit a job, poll it to completion, stream the result CSV, and
   verify it byte-matches an in-process `repro.api.run(engine="batch")`
   of the same dataset/spec/seed;
4. exercise the refusal contract: the underfunded tenant's submission
   must come back as a structured 429 `budget-exhausted` body;
5. `POST /v1/shutdown` and require a clean exit (drained, engines
   closed, exit code 0).

Run from the repo root: ``PYTHONPATH=src python tools/serve_smoke.py``.
Exits non-zero with a diagnostic on the first broken step.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SPEC = {"kind": "gl", "params": {"epsilon": 1.0, "seed": 42}}


def fail(message: str) -> None:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def request(base: str, path: str, payload: dict | None = None):
    """``(status, body_bytes)`` for a GET (payload None) or JSON POST."""
    req = urllib.request.Request(
        base + path,
        data=None if payload is None else json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="GET" if payload is None else "POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    env = {"PYTHONPATH": "src"}

    def run_cli(*args: str) -> None:
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            cwd=REPO,
            env={**env, "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            fail(f"`repro {args[0]}` exited {result.returncode}: "
                 f"{result.stderr.strip()}")

    # 1. A raw fleet, ingested into a registry root by name.
    fleet_csv = tmp / "fleet.csv"
    registry = tmp / "registry"
    run_cli(
        "generate", "--objects", "10", "--points", "40", "--seed", "3",
        "-o", str(fleet_csv),
    )
    run_cli(
        "ingest", "-i", str(fleet_csv), "--name", "smoke-fleet",
        "--root", str(registry),
    )

    # 2. Boot the daemon: one funded tenant, one underfunded.
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--budget-root", str(tmp / "budgets"),
            "--spool", str(tmp / "spool"),
            "--registry", str(registry),
            "--tenant", "acme=4.0",
            "--tenant", "tiny=0.1",
            "--workers", "1",
        ],
        cwd=REPO,
        env={**env, "PATH": "/usr/bin:/bin"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = daemon.stdout.readline().strip()
        if not line.startswith("serving on "):
            daemon.kill()
            fail(f"expected a serving line, got {line!r}: "
                 f"{daemon.stderr.read()[-500:]}")
        base = line.removeprefix("serving on ")
        print(f"serve-smoke: daemon up at {base}")

        # 3. Submit by registry name, poll, stream, byte-compare.
        status, body = request(
            base, "/v1/jobs",
            {"tenant": "acme", "dataset": "smoke-fleet", "spec": SPEC},
        )
        if status != 202:
            fail(f"submit returned {status}: {body!r}")
        job = json.loads(body)
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, body = request(base, f"/v1/jobs/{job['id']}")
            state = json.loads(body)
            if state["state"] in ("done", "failed"):
                break
            time.sleep(0.2)
        if state["state"] != "done":
            fail(f"job ended {state['state']}: {state.get('error')}")
        status, served = request(base, f"/v1/jobs/{job['id']}/result")
        if status != 200:
            fail(f"result returned {status}: {served!r}")
        print(f"serve-smoke: streamed {len(served)} byte(s), "
              f"eps_charged={state['eps_charged']}")

        sys.path.insert(0, str(REPO / "src"))
        from repro.api import run as api_run
        from repro.data.registry import DatasetRegistry
        from repro.trajectory.io import write_csv

        reference = api_run(
            SPEC,
            DatasetRegistry(registry).load("smoke-fleet"),
            engine="batch",
            workers=1,
        )
        expected_csv = tmp / "expected.csv"
        write_csv(reference.dataset, expected_csv)
        if served != expected_csv.read_bytes():
            fail("served CSV differs from the batch-engine reference run")
        print("serve-smoke: byte-identical to the batch engine")

        # 4. The refusal contract.
        status, body = request(
            base, "/v1/jobs",
            {"tenant": "tiny", "dataset": "smoke-fleet", "spec": SPEC},
        )
        refusal = json.loads(body)
        if status != 429 or refusal.get("error") != "budget-exhausted":
            fail(f"underfunded tenant got {status}: {refusal!r}")
        for key in ("tenant", "requested", "remaining", "budget"):
            if key not in refusal:
                fail(f"refusal body misses {key!r}: {refusal!r}")
        print("serve-smoke: structured 429 refusal verified")

        # 5. Clean shutdown over HTTP.
        status, body = request(base, "/v1/shutdown", {})
        if status != 202:
            fail(f"shutdown returned {status}: {body!r}")
        code = daemon.wait(timeout=60)
        if code != 0:
            fail(f"daemon exited {code}: {daemon.stderr.read()[-500:]}")
        print("serve-smoke: clean shutdown, exit 0")
    finally:
        if daemon.poll() is None:
            daemon.kill()
    print("serve-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
