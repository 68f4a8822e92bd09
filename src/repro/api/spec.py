"""Declarative method specifications.

:class:`MethodSpec` is the one serializable currency of the API layer:
a frozen ``(kind, params)`` pair naming a registered anonymization
method and its constructor parameters. It is

* **validated** — the kind must be a non-empty identifier and every
  parameter value plain JSON-compatible data, checked at construction
  (the parameter *names* are checked against the method's signature
  when the spec is built, see :func:`repro.api.registry.build`);
* **picklable** — plain data only, so it can cross a process
  boundary (the engine's own workers ship the even plainer
  :meth:`~repro.core.pipeline.FrequencyAnonymizer.config` dict);
* **digestible** — :attr:`MethodSpec.digest` is a stable hash of the
  canonical JSON form, identical across processes and runs: the
  in-process identity of a configuration, seed included;
* **publishable without its seed** — :meth:`MethodSpec.provenance` is
  the one form that leaves the process (reports, job snapshots, the
  CLI's ``method:`` line): every parameter but the noise seed, and a
  digest over exactly that.

This module is a leaf: it imports nothing from the rest of the
package, so every layer (core, engine, experiments, CLI) can depend
on it without cycles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

#: Parameter values must reduce to these JSON scalar types (sequences
#: of them are allowed and normalized to tuples).
_SCALARS = (type(None), bool, int, float, str)


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_digest(payload: Any) -> str:
    """Stable 16-hex-digit digest of ``payload``'s canonical JSON.

    BLAKE2b like the pipeline's seed derivation — stable across
    processes and Python versions (unlike ``hash()``).
    """
    return hashlib.blake2b(
        canonical_json(payload).encode(), digest_size=8
    ).hexdigest()


def _freeze(value: Any, path: str) -> Any:
    """Normalize a parameter value to immutable plain data."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item, f"{path}[]") for item in value)
    raise TypeError(
        f"spec parameter {path!r} must be plain data "
        f"(None/bool/int/float/str or sequences of them), "
        f"got {type(value).__name__}"
    )


def _thaw(value: Any) -> Any:
    """Back to JSON-native types (tuples become lists)."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class MethodSpec:
    """A declarative, serializable anonymization-method configuration.

    ``kind`` names a method in the registry (``repro methods`` lists
    them); ``params`` are the constructor parameters of that method.
    Construct directly, from JSON via :meth:`from_dict`, or from a
    live pipeline via :meth:`FrequencyAnonymizer.spec`.

    Instances are immutable and hashable; derive variants with
    :meth:`replace` (e.g. an ε sweep).
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind.strip():
            raise ValueError("spec kind must be a non-empty string")
        kind = self.kind.strip().lower()
        if not kind.replace("_", "").replace("-", "").isalnum():
            raise ValueError(f"spec kind must be an identifier, got {kind!r}")
        raw = self.params
        if not isinstance(raw, Mapping):
            raise TypeError(
                f"spec params must be a mapping, got {type(raw).__name__}"
            )
        params: dict[str, Any] = {}
        for name in sorted(raw):
            if not isinstance(name, str) or not name.isidentifier():
                raise ValueError(
                    f"spec parameter names must be identifiers, got {name!r}"
                )
            params[name] = _freeze(raw[name], name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

    # -- identity ---------------------------------------------------------------

    def __hash__(self) -> int:  # params is a dict; hash the canonical form
        return hash((self.kind, self.digest))

    @property
    def digest(self) -> str:
        """Stable 16-hex config digest, identical across processes.

        It covers the seed, so it is an in-process key only (the
        daemon's engine cache): a 64-bit digest of a spec gives a small
        seed back to anyone who enumerates candidates. Write
        :meth:`provenance` out instead.
        """
        return canonical_digest(self.to_dict())

    def provenance(self) -> dict:
        """``{"kind", "params", "digest"}`` without the noise seed.

        The seed is the curator's secret: a recipient who holds it and
        every record but one can rerun the release once per candidate
        for the missing record and match bytes. ``params`` keeps every
        other parameter, and ``digest`` is taken over this seedless
        ``{"kind", "params"}``, so two seeds of one configuration
        publish identical provenance.
        """
        public = self.to_dict()
        public["params"].pop("seed", None)
        return {**public, "digest": canonical_digest(public)}

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        return {
            "kind": self.kind,
            "params": {name: _thaw(value) for name, value in self.params.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MethodSpec":
        if not isinstance(payload, Mapping) or "kind" not in payload:
            raise ValueError("spec dict must have a 'kind' key")
        extra = set(payload) - {"kind", "params"}
        if extra:
            raise ValueError(f"unknown spec keys: {sorted(extra)}")
        return cls(payload["kind"], payload.get("params") or {})

    # -- derivation -------------------------------------------------------------

    def replace(self, **overrides: Any) -> "MethodSpec":
        """A new spec with ``overrides`` merged into the params."""
        return MethodSpec(self.kind, {**self.params, **overrides})

    def build(self):
        """Construct the configured anonymizer (registry lookup)."""
        from repro.api.registry import build

        return build(self)
