"""The versioned benchmark record every bench run emits through.

A :class:`BenchRecord` is the unit the whole ``repro.bench`` layer
operates on: the bench suite (``benchmarks/conftest.py``) builds one
per session, :class:`~repro.bench.history.BenchHistory` appends them
to the JSONL store, and :mod:`repro.bench.shift` classifies a new
record against a baseline window of earlier same-scale records.

Its one serialized shape, ``to_dict`` / ``from_dict``, is the
versioned history schema (``{"version": 1, "bench", "scale",
"python", "metrics", "speedups", "provenance"}``): what lives in
``BENCH_history.jsonl``, one compact sorted-key JSON object per line,
validated on load so a corrupt store fails loudly.

Scale is a first-class field because timings from different input
sizes must never share a baseline: the smoke fleet legitimately shows
``wave_over_incremental < 1`` while paper scale shows ``1.4x``, so a
scale-blind store would poison every comparison. ``BenchScale.key``
is the history partition key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections.abc import Mapping

__all__ = ["BenchRecord", "BenchScale", "RecordError", "RECORD_VERSION"]

#: Current history schema version; bump on incompatible layout changes.
RECORD_VERSION = 1


class RecordError(ValueError):
    """A benchmark record (or serialized form of one) is malformed."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RecordError(message)


@dataclass(frozen=True)
class BenchScale:
    """The input-size descriptor a record was measured at.

    Records are only ever compared within one scale ``key``; the flag
    ``paper_scale`` additionally marks the scale family the committed
    history tracks (``REPRO_BENCH_SCALE=paper`` runs).
    """

    n_objects: int
    points_per_trajectory: int
    signature_size: int
    paper_scale: bool = False

    @property
    def family(self) -> str:
        """``"paper"`` or ``"smoke"`` — the coarse scale class."""
        return "paper" if self.paper_scale else "smoke"

    @property
    def key(self) -> str:
        """The history partition key, e.g. ``"paper-500x300-m10"``."""
        return (
            f"{self.family}-{self.n_objects}x{self.points_per_trajectory}"
            f"-m{self.signature_size}"
        )

    def to_dict(self) -> dict:
        return {
            "n_objects": self.n_objects,
            "points_per_trajectory": self.points_per_trajectory,
            "signature_size": self.signature_size,
            "paper_scale": self.paper_scale,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BenchScale":
        _require(isinstance(payload, Mapping), "scale must be an object")
        for name in ("n_objects", "points_per_trajectory", "signature_size"):
            value = payload.get(name)
            _require(
                isinstance(value, int) and not isinstance(value, bool)
                and value > 0,
                f"scale.{name} must be a positive integer, got {value!r}",
            )
        paper = payload.get("paper_scale", False)
        _require(
            isinstance(paper, bool),
            f"scale.paper_scale must be a boolean, got {paper!r}",
        )
        return cls(
            n_objects=payload["n_objects"],
            points_per_trajectory=payload["points_per_trajectory"],
            signature_size=payload["signature_size"],
            paper_scale=paper,
        )


def _validate_group(group_name: str, group: Mapping) -> dict:
    _require(
        isinstance(group, Mapping),
        f"metric group {group_name!r} must be an object, got "
        f"{type(group).__name__}",
    )
    validated: dict = {}
    for key in sorted(group):
        value = group[key]
        _require(
            isinstance(key, str) and key,
            f"metric key in group {group_name!r} must be a non-empty "
            f"string, got {key!r}",
        )
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{group_name}.{key} must be a number, got {value!r}",
        )
        _require(
            value >= 0,
            f"{group_name}.{key} must be non-negative, got {value!r}",
        )
        validated[key] = value
    return validated


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark session's measurements, schema-validated.

    ``metrics`` maps group name to ``{key: number}`` (groups mirror
    the bench modules: ``inter_modification``, ``local_stage``, ...);
    ``speedups`` holds the derived ratios; ``provenance`` carries
    free-form string metadata (source, timestamp, host) that never
    participates in comparisons.
    """

    bench: str
    scale: BenchScale
    python: str
    metrics: Mapping[str, Mapping[str, float]]
    speedups: Mapping[str, float] = field(default_factory=dict)
    provenance: Mapping[str, str] = field(default_factory=dict)
    version: int = RECORD_VERSION

    def __post_init__(self) -> None:
        _require(
            self.version == RECORD_VERSION,
            f"unsupported record version {self.version!r} "
            f"(this build reads version {RECORD_VERSION})",
        )
        _require(
            isinstance(self.bench, str) and self.bench,
            f"bench name must be a non-empty string, got {self.bench!r}",
        )
        _require(
            isinstance(self.python, str) and self.python,
            f"python version must be a non-empty string, got {self.python!r}",
        )
        _require(
            isinstance(self.metrics, Mapping) and self.metrics,
            "metrics must be a non-empty object of metric groups",
        )
        metrics = {
            name: _validate_group(name, group)
            for name, group in sorted(self.metrics.items())
        }
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(
            self, "speedups", _validate_group("speedups", self.speedups)
        )
        _require(
            isinstance(self.provenance, Mapping),
            "provenance must be an object",
        )
        for key in sorted(self.provenance):
            _require(
                isinstance(key, str) and isinstance(self.provenance[key], str),
                f"provenance entries must map strings to strings, got "
                f"{key!r}: {self.provenance[key]!r}",
            )
        object.__setattr__(self, "provenance", dict(self.provenance))

    # -- tracked keys -------------------------------------------------

    def tracked_keys(self) -> list[str]:
        """Dotted keys the regression gate watches, sorted.

        Wall-clock metrics (``<group>.<name>_s``) and every derived
        ``speedups.<name>`` ratio; auxiliary counters (``chunks``) and
        provenance never gate.
        """
        keys = [
            f"{group}.{key}"
            for group, entries in self.metrics.items()
            for key in entries
            if key.endswith("_s")
        ]
        keys.extend(f"speedups.{key}" for key in self.speedups)
        return sorted(keys)

    def value(self, dotted_key: str) -> float | None:
        """The value at ``"group.key"`` / ``"speedups.key"``, if any."""
        group, _, key = dotted_key.partition(".")
        if not key:
            return None
        if group == "speedups":
            return self.speedups.get(key)
        entries = self.metrics.get(group)
        if entries is None:
            return None
        return entries.get(key)

    # -- history (versioned) shape ------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "bench": self.bench,
            "scale": self.scale.to_dict(),
            "python": self.python,
            "metrics": {
                group: dict(entries)
                for group, entries in self.metrics.items()
            },
            "speedups": dict(self.speedups),
            "provenance": dict(self.provenance),
        }

    def to_jsonl(self) -> str:
        """One compact, sorted-key history line (no trailing newline).

        Deterministic for a given record, so record → line → load →
        line round-trips byte-equal.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "BenchRecord":
        _require(
            isinstance(payload, Mapping), "record must be a JSON object"
        )
        version = payload.get("version")
        _require(
            version == RECORD_VERSION,
            f"unsupported record version {version!r} "
            f"(this build reads version {RECORD_VERSION})",
        )
        provenance = payload.get("provenance", {})
        return cls(
            bench=payload.get("bench", ""),
            scale=BenchScale.from_dict(payload.get("scale", {})),
            python=payload.get("python", ""),
            metrics=payload.get("metrics", {}),
            speedups=payload.get("speedups", {}),
            provenance=provenance,
        )

    @classmethod
    def from_jsonl(cls, line: str) -> "BenchRecord":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"invalid JSON in history line: {exc}") from exc
        return cls.from_dict(payload)
