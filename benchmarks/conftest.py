"""Shared fixtures for the benchmark suite.

All benches run at the smoke scale so the full suite finishes in
minutes (``REPRO_BENCH_SCALE=paper`` switches the engine bench to the
paper's 500x300 fleet); the experiment modules under
``repro.experiments`` regenerate the paper's tables/figures at the
larger presets.

Benches that time hot paths record their measurements through the
``bench_timer`` fixture; at session end they are assembled into one
schema-validated :class:`repro.bench.BenchRecord` and written twice:

- the legacy flat snapshot (``BENCH_engine.json`` for paper-scale
  runs, ``BENCH_engine.smoke.json`` for everything else) keeps the
  README-visible numbers in their familiar shape;
- the record is appended to the scale-matching history
  (``BENCH_history.jsonl`` committed for paper scale,
  ``BENCH_history.smoke.jsonl`` untracked for smoke) that
  ``tools/check_bench.py`` gates regressions against.

The record's scale descriptor is the engine fleet's
(``n_objects x points, m``): it is the dimension that actually varies
between runs, and the history partitions on it so paper-scale and
smoke-scale timings never share a baseline. The experiment-regen
groups (``fig4``/``fig5``/``table2``/``ablation``) always run at the
fixed smoke preset, so their timings are comparable within any one
partition.
"""

import datetime
import os
import platform
import time
from pathlib import Path

import pytest

from repro.bench import BenchHistory, BenchRecord, BenchScale
from repro.datagen.generator import generate_fleet
from repro.experiments.config import ExperimentConfig

#: The committed paper-scale perf record (REPRO_BENCH_SCALE=paper).
BENCH_RESULTS_FILENAME = "BENCH_engine.json"
#: Output of any lower-scale run (CI bench-smoke, local pytest).
BENCH_SMOKE_RESULTS_FILENAME = "BENCH_engine.smoke.json"
#: The serving daemon's snapshot pair (its own bench partition in the
#: history: request latency is a different quantity from engine
#: throughput and must never share a baseline with it).
BENCH_SERVE_RESULTS_FILENAME = "BENCH_serve.json"
BENCH_SERVE_SMOKE_RESULTS_FILENAME = "BENCH_serve.smoke.json"
#: The append-only histories the regression gate reads (see
#: repro.bench.history for the committed/untracked split).
BENCH_HISTORY_FILENAME = "BENCH_history.jsonl"
BENCH_SMOKE_HISTORY_FILENAME = "BENCH_history.smoke.jsonl"

PAPER_SCALE = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "paper"
N_OBJECTS, N_POINTS, SIGNATURE_SIZE = (
    (500, 300, 10) if PAPER_SCALE else (60, 120, 5)
)
#: How many times ``bench_timer`` repeats each timed call (keeping the
#: fastest). Quick mode (``--benchmark-disable``) otherwise times a
#: single call per key, and on a busy/steal-prone host one sample can
#: easily swing +-20%; the min over a few repeats sits near the floor
#: of the distribution and is far more reproducible, at the cost of a
#: proportionally longer session. 1 (the default) keeps CI smoke fast.
BENCH_ROUNDS = max(1, int(os.environ.get("REPRO_BENCH_ROUNDS", "1")))
BENCH_SCALE = BenchScale(
    n_objects=N_OBJECTS,
    points_per_trajectory=N_POINTS,
    signature_size=SIGNATURE_SIZE,
    paper_scale=PAPER_SCALE,
)

_RECORDS: dict = {}
#: The serve bench's sink — a separate record (bench="serve") so a
#: serve-only session never writes an engine snapshot and vice versa.
_SERVE_RECORDS: dict = {}


@pytest.fixture(scope="session")
def config():
    return ExperimentConfig.smoke()


@pytest.fixture(scope="session")
def fleet(config):
    return generate_fleet(config.fleet)


@pytest.fixture(scope="session")
def bench_records():
    """Session-wide sink for machine-readable bench measurements.

    Keys are metric groups (``"inter_modification"``) holding
    ``{key: float}`` entries; ``bench_timer`` is the usual writer.
    """
    return _RECORDS


@pytest.fixture(scope="session")
def serve_bench_records():
    """Session-wide sink for the serving daemon's bench measurements.

    Same shape as ``bench_records`` but assembled into its own
    ``BenchRecord(bench="serve")`` at session end.
    """
    return _SERVE_RECORDS


@pytest.fixture(scope="session")
def bench_timer(bench_records):
    """``timed(group, key, fn)`` — run ``fn``, record its wall-clock.

    Records the fastest observed round under ``<group>.<key>`` (like
    pytest-benchmark's "min"), wrapping the timed call itself so the
    numbers exist in quick mode (``--benchmark-disable`` runs each
    bench once). ``REPRO_BENCH_ROUNDS=k`` repeats the call k times per
    invocation (every bench callable is already repeat-safe: full
    benchmark mode calls them many times) to push the recorded min
    toward the distribution floor on noisy hosts. Returns the last
    ``fn()`` result.
    """

    def timed(group: str, key: str, fn):
        entries = bench_records.setdefault(group, {})
        result = None
        for _ in range(BENCH_ROUNDS):
            started = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - started
            entries[key] = min(entries.get(key, float("inf")), seconds)
        return result

    return timed


def _derive_speedups(metrics: dict) -> dict:
    speedups = {}
    inter = metrics.get("inter_modification", {})
    incremental = inter.get("incremental_s")
    wave = inter.get("wave_s")
    if incremental and wave:
        speedups["wave_over_incremental"] = incremental / wave
    publisher = metrics.get("stream_publisher", {})
    per_chunk = publisher.get("per_chunk_s")
    shared = publisher.get("shared_tf_s")
    pipelined = publisher.get("shared_tf_parallel_s")
    if per_chunk and (pipelined or shared):
        # >1 means whole-dataset publishing is cheaper than the
        # independent per-chunk stream it replaces. The headline ratio
        # tracks the pipelined spill-backed publisher (workers=0; the
        # shipping configuration), falling back to the plain two-pass
        # time for histories recorded before the pipeline existed.
        speedups["publish_shared_tf_over_per_chunk"] = per_chunk / (
            pipelined or shared
        )
    return speedups


def _emit_record(session, bench: str, metrics: dict, snapshot_name: str):
    """Write one bench's snapshot + history append (see module doc)."""
    record = BenchRecord(
        bench=bench,
        scale=BENCH_SCALE,
        python=platform.python_version(),
        metrics=metrics,
        speedups=_derive_speedups(metrics) if bench == "engine" else {},
        provenance={
            "source": "pytest-session",
            # provenance stamp on a history record, not committed data
            "created": datetime.datetime.now(datetime.timezone.utc)  # repro: noqa[DET002]
            .replace(microsecond=0)
            .isoformat(),
        },
    )
    root = Path(session.config.rootpath)
    snapshot = root / snapshot_name
    snapshot.write_text(record.to_snapshot_json())
    history = BenchHistory(
        root
        / (
            BENCH_HISTORY_FILENAME
            if PAPER_SCALE
            else BENCH_SMOKE_HISTORY_FILENAME
        )
    )
    history.append(record)
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(f"bench results written to {snapshot}")
        reporter.write_line(
            f"bench record ({record.bench} @ {record.scale.key}) "
            f"appended to {history.path}"
        )


def pytest_sessionfinish(session, exitstatus):
    # Paper-scale runs refresh the committed snapshots and append to
    # the committed history (that append is the act of blessing the
    # run as a baseline); any other scale writes the untracked smoke
    # siblings, so casual/CI runs never clobber the records yet always
    # produce fresh numbers for the CI artifact. Each sink only writes
    # when its benches actually ran — a serve-only session must not
    # emit an empty engine record (or overwrite the committed one),
    # and vice versa. Anchored to the pytest root (the repo), not the
    # invocation cwd.
    if _RECORDS:
        _emit_record(
            session,
            "engine",
            _RECORDS,
            BENCH_RESULTS_FILENAME
            if PAPER_SCALE
            else BENCH_SMOKE_RESULTS_FILENAME,
        )
    if _SERVE_RECORDS:
        _emit_record(
            session,
            "serve",
            _SERVE_RECORDS,
            BENCH_SERVE_RESULTS_FILENAME
            if PAPER_SCALE
            else BENCH_SERVE_SMOKE_RESULTS_FILENAME,
        )

