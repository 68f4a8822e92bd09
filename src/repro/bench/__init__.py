"""Benchmark history, percentile statistics, and shift classification.

Every bench session appends one record to an append-only history,
so a silent 20% regression shows against the runs before it. This
package is that benchmark layer:

:mod:`repro.bench.record`
    The versioned, schema-validated :class:`BenchRecord` every bench
    session emits through (``benchmarks/conftest.py``).
:mod:`repro.bench.history`
    The append-only ``BENCH_history.jsonl`` store, partitioned by
    ``(bench, scale)`` so paper-scale and smoke-scale runs never share
    a baseline.
:mod:`repro.bench.stats`
    Dependency-free percentile / median / IQR over the sliding
    baseline window.
:mod:`repro.bench.shift`
    Per-key classification into significant/minor improvement,
    stable, minor/significant degradation, with per-key direction
    metadata (``*_s`` lower-is-better, ``speedups.*``
    higher-is-better).

Front doors: the ``repro bench`` CLI (compare / report) and
the ``tools/check_bench.py`` CI gate, which fails on significant
degradation of any tracked key. See ``docs/benchmarks.md``.
"""

from repro.bench.history import (
    DEFAULT_HISTORY_FILENAME,
    DEFAULT_SMOKE_HISTORY_FILENAME,
    DEFAULT_WINDOW,
    BenchHistory,
    HistoryError,
)
from repro.bench.record import RECORD_VERSION, BenchRecord, BenchScale, RecordError
from repro.bench.shift import (
    DEFAULT_THRESHOLDS,
    BenchComparison,
    CrossScaleError,
    Direction,
    KeyShift,
    ShiftClass,
    Thresholds,
    classify_shift,
    compare_records,
    direction_for,
)
from repro.bench.stats import iqr, median, percentile, summarize

__all__ = [
    "BenchComparison",
    "BenchHistory",
    "BenchRecord",
    "BenchScale",
    "CrossScaleError",
    "DEFAULT_HISTORY_FILENAME",
    "DEFAULT_SMOKE_HISTORY_FILENAME",
    "DEFAULT_THRESHOLDS",
    "DEFAULT_WINDOW",
    "Direction",
    "HistoryError",
    "KeyShift",
    "RECORD_VERSION",
    "RecordError",
    "ShiftClass",
    "Thresholds",
    "classify_shift",
    "compare_records",
    "direction_for",
    "iqr",
    "median",
    "percentile",
    "summarize",
]
