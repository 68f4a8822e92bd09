"""Append-only JSONL store of benchmark records, keyed by scale.

``BENCH_history.jsonl`` (committed, paper-scale records) and its
untracked smoke sibling hold one :class:`~repro.bench.record.BenchRecord`
per line, in chronological append order. The store is partitioned by
``(bench, scale.key)`` — a paper-scale record is never weighed against
a smoke-scale one, which is what makes the regression gate trustworthy:
the smoke fleet legitimately reports ``wave_over_incremental = 0.76``
while paper scale reports ``1.44``, and a scale-blind baseline would
read either as a massive shift of the other.

Appending is the *blessing* operation: once a record is in the
history it joins the sliding baseline window for subsequent runs, so
an intentional regression is accepted by appending the run that
exhibits it (see ``docs/benchmarks.md``).
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.record import BenchRecord, RecordError
from repro.bench.shift import (
    DEFAULT_THRESHOLDS,
    BenchComparison,
    Thresholds,
    compare_records,
)

__all__ = [
    "BenchHistory",
    "HistoryError",
    "DEFAULT_HISTORY_FILENAME",
    "DEFAULT_SMOKE_HISTORY_FILENAME",
    "DEFAULT_WINDOW",
]

#: The committed paper-scale history at the repository root.
DEFAULT_HISTORY_FILENAME = "BENCH_history.jsonl"
#: Untracked sibling every non-paper run appends to (CI artifact).
DEFAULT_SMOKE_HISTORY_FILENAME = "BENCH_history.smoke.jsonl"
#: Sliding baseline window: the last N same-scale records.
DEFAULT_WINDOW = 5

#: Scale families accepted as shorthand for a full scale key.
_FAMILIES = ("paper", "smoke")


class HistoryError(ValueError):
    """The history store is missing, corrupt, or was queried wrongly."""


class BenchHistory:
    """One JSONL history file; loads lazily, appends atomically-ish.

    Records append as single ``write()`` calls of one line, so
    concurrent appenders (parallel CI jobs sharing a workspace) can
    interleave lines but never split one.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.is_file()

    def append(self, record: BenchRecord) -> None:
        line = record.to_jsonl()
        with open(self.path, "a") as handle:
            handle.write(line + "\n")

    def load(self) -> list[BenchRecord]:
        """Every record, in append order; corrupt lines fail loudly."""
        if not self.path.is_file():
            raise HistoryError(
                f"{self.path}: no benchmark history — create one by "
                f"running the bench suite (`REPRO_BENCH_SCALE=paper "
                f"python -m pytest benchmarks`)"
            )
        records: list[BenchRecord] = []
        with open(self.path) as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    records.append(BenchRecord.from_jsonl(line))
                except RecordError as exc:
                    raise HistoryError(
                        f"{self.path}:{number}: {exc}"
                    ) from exc
        return records

    def groups(self) -> dict[tuple[str, str], list[BenchRecord]]:
        """``{(bench, scale_key): [records in append order]}``."""
        grouped: dict[tuple[str, str], list[BenchRecord]] = {}
        for record in self.load():
            grouped.setdefault((record.bench, record.scale.key), []).append(
                record
            )
        return grouped

    def resolve_scale(self, bench: str, scale: str | None) -> str:
        """Resolve a ``--scale`` argument to one full scale key.

        Accepts a full key (``paper-500x300-m10``), a family shorthand
        (``paper`` / ``smoke``) when exactly one key of that family
        exists for the bench, or ``None`` when the bench has exactly
        one scale overall. Ambiguity is an error listing the choices —
        never a silent merge of incomparable scales.
        """
        keys = sorted(
            {
                record.scale.key
                for record in self.load()
                if record.bench == bench
            }
        )
        if not keys:
            raise HistoryError(
                f"{self.path}: no records for bench {bench!r}"
            )
        if scale is None:
            if len(keys) == 1:
                return keys[0]
            raise HistoryError(
                f"{self.path}: bench {bench!r} has records at "
                f"{len(keys)} scales ({', '.join(keys)}); pick one "
                f"with --scale"
            )
        if scale in keys:
            return scale
        if scale in _FAMILIES:
            family_keys = [
                key for key in keys if key.startswith(f"{scale}-")
            ]
            if len(family_keys) == 1:
                return family_keys[0]
            if not family_keys:
                raise HistoryError(
                    f"{self.path}: bench {bench!r} has no {scale}-scale "
                    f"records (have: {', '.join(keys)})"
                )
            raise HistoryError(
                f"{self.path}: --scale {scale} is ambiguous for bench "
                f"{bench!r}: {', '.join(family_keys)}; give the full key"
            )
        raise HistoryError(
            f"{self.path}: unknown scale {scale!r} for bench {bench!r} "
            f"(have: {', '.join(keys)})"
        )

    def compare_latest(
        self,
        bench: str,
        scale: str | None = None,
        window: int = DEFAULT_WINDOW,
        thresholds: Thresholds = DEFAULT_THRESHOLDS,
    ) -> BenchComparison:
        """The newest record of a partition vs the window before it."""
        scale_key = self.resolve_scale(bench, scale)
        records = [
            record
            for record in self.load()
            if record.bench == bench and record.scale.key == scale_key
        ]
        candidate = records[-1]
        return compare_records(
            candidate, records[:-1], thresholds=thresholds, window=window
        )

    def compare_all(
        self,
        window: int = DEFAULT_WINDOW,
        thresholds: Thresholds = DEFAULT_THRESHOLDS,
    ) -> list[BenchComparison]:
        """One comparison per ``(bench, scale)`` partition, sorted."""
        return [
            compare_records(
                records[-1], records[:-1], thresholds=thresholds,
                window=window,
            )
            for _, records in sorted(self.groups().items())
        ]
