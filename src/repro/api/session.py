"""Run a method spec against a dataset and get everything back at once.

:func:`run` is the front door the CLI, the experiment drivers, and
library users share: build the method a :class:`MethodSpec` describes,
anonymize, and return a :class:`RunResult` bundling the output
dataset, the :class:`~repro.core.pipeline.AnonymizationReport` (for
frequency-family methods), the spec itself, and wall-clock timing.

Results travel **with the return value** — nothing is stashed on
shared instances, so concurrent runs can never clobber each other's
reports.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.api.registry import build, method_info
from repro.api.spec import MethodSpec
from repro.core.pipeline import AnonymizationReport, FrequencyAnonymizer
from repro.trajectory.model import TrajectoryDataset

#: Engine choices of :func:`run`. ``"batch"`` shards the local stage
#: of frequency-family methods across a process pool, byte-identical
#: to ``"serial"`` for the same seed.
ENGINE_KINDS = ("serial", "batch")


@dataclass(frozen=True)
class RunResult:
    """Everything one anonymization run produced, bundled together."""

    #: The anonymized dataset D*.
    dataset: TrajectoryDataset
    #: The method's run report; ``None`` for methods that expose no
    #: ``anonymize_with_report`` (the non-DP baselines publish no
    #: budget ledger).
    report: AnonymizationReport | None
    #: The spec that produced this result (provenance; its
    #: :attr:`~repro.api.spec.MethodSpec.digest` identifies the
    #: configuration).
    spec: MethodSpec
    #: Wall-clock seconds of the anonymize call itself.
    seconds: float
    #: Which engine ran it: ``"serial"`` or ``"batch"``.
    engine: str

    @property
    def utility_loss(self) -> float | None:
        """Total modification cost, when the method reports one."""
        return None if self.report is None else self.report.utility_loss

    def to_dict(self) -> dict:
        """JSON-serialisable provenance summary (no dataset payload, and
        no noise seed: see :meth:`~repro.api.spec.MethodSpec.provenance`)."""
        spec = self.spec.provenance()
        digest = spec.pop("digest")
        return {
            "spec": spec,
            "digest": digest,
            "engine": self.engine,
            "seconds": self.seconds,
            "trajectories": len(self.dataset),
            "report": None if self.report is None else self.report.to_dict(),
        }


def as_spec(spec: MethodSpec | str | Mapping[str, Any]) -> MethodSpec:
    """Coerce a spec, bare kind, or ``to_dict`` payload to a spec."""
    if isinstance(spec, MethodSpec):
        return spec
    if isinstance(spec, str):
        return MethodSpec(spec)
    if isinstance(spec, Mapping):
        return MethodSpec.from_dict(spec)
    raise TypeError(
        f"expected a MethodSpec, kind string, or spec dict, "
        f"got {type(spec).__name__}"
    )


def run(
    spec: MethodSpec | str | Mapping[str, Any],
    data: TrajectoryDataset,
    *,
    engine: str = "serial",
    workers: int | None = None,
) -> RunResult:
    """Anonymize ``data`` as ``spec`` describes; return a :class:`RunResult`.

    ``engine="batch"`` routes frequency-family methods through
    :class:`repro.engine.BatchAnonymizer` (``workers`` sizes the
    local-stage process pool) with output byte-identical to the serial
    path for the same seed; other families run the method as-is and
    reject the batch engine explicitly.
    """
    spec = as_spec(spec)
    if engine not in ENGINE_KINDS:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {ENGINE_KINDS}"
        )
    anonymizer = build(spec)
    if engine == "batch":
        if not isinstance(anonymizer, FrequencyAnonymizer):
            info = method_info(spec.kind)
            raise ValueError(
                f"engine='batch' requires a frequency-family method; "
                f"{spec.kind!r} is family {info.family!r}"
            )
        # Lazy so `import repro.api` stays light; the engine is only
        # needed when a batch run is actually requested.
        from repro.engine.batch import BatchAnonymizer

        front = BatchAnonymizer(anonymizer, workers=workers)
        started = time.perf_counter()
        dataset, report = front.anonymize_with_report(data)
        seconds = time.perf_counter() - started
    elif hasattr(anonymizer, "anonymize_with_report"):
        # Frequency pipelines and the DP baselines (DPT/AdaTrace) all
        # return their report — with its composition ledger — alongside
        # the result.
        started = time.perf_counter()
        dataset, report = anonymizer.anonymize_with_report(data)
        seconds = time.perf_counter() - started
    else:
        started = time.perf_counter()
        dataset = anonymizer.anonymize(data)
        seconds = time.perf_counter() - started
        report = None
    return RunResult(
        dataset=dataset, report=report, spec=spec, seconds=seconds, engine=engine
    )


def split_spec(
    spec: MethodSpec | str | Mapping[str, Any], split: float
) -> MethodSpec:
    """Re-split a frequency-family spec's total ε between the stages.

    ``split`` is the fraction of the total budget spent on the global
    TF mechanism (the streaming publisher's pass-1 estimate); the rest
    funds the local PF mechanism.  The result is a canonical
    ``"frequency"``-kind spec whose ``epsilon_global``/``epsilon_local``
    params *carry the split* — the declarative form every report and
    ledger records.  ``split=1.0`` disables the local stage,
    ``split=0.0`` the global one.
    """
    if not 0.0 <= split <= 1.0:
        raise ValueError(f"split must be in [0, 1], got {split}")
    anonymizer = build(as_spec(spec))
    if not isinstance(anonymizer, FrequencyAnonymizer):
        raise ValueError(
            "split applies to frequency-family methods only"
        )
    epsilon = anonymizer.epsilon
    params = anonymizer.config()
    params["epsilon_global"] = epsilon * split or None
    params["epsilon_local"] = epsilon * (1.0 - split) or None
    return MethodSpec("frequency", params)


def publish(
    spec: MethodSpec | str | Mapping[str, Any],
    source: str | os.PathLike | Callable[[], Any],
    *,
    chunk_size: int = 500,
    split: float | None = None,
    publish_workers: int | None = 1,
    spill_dir: str | os.PathLike | None = None,
    sink: Callable | None = None,
    byte_sink: Callable | None = None,
):
    """Publish a chunked dataset as **one** ε-DP release; return the
    merged :class:`~repro.engine.publish.PublishReport`.

    ``source`` is a dataset reference (CSV path, artifact directory,
    or registry name — chunked into ``chunk_size`` trajectories) or a
    chunk factory (``() -> Iterable[TrajectoryDataset]``), consumed
    exactly once: pass 1 spills each parsed chunk to ``spill_dir``
    (default: a self-cleaning tempdir) and pass 2 realises from the
    spills.  The method must be frequency-family; its ε_G/ε_L *are*
    the budget split between the shared pass-1 TF estimate and the
    parallel per-chunk local randomization (``split`` re-splits the
    spec's total ε first — see :func:`split_spec`).

    One parallelism axis, byte-identical to serial for the same seed:
    ``publish_workers > 1`` (``0`` = per core) realises whole spilled
    chunks concurrently across a process pool behind a bounded
    in-flight window; ``1`` realises them in process, through the
    same per-chunk function.  ``sink(chunk, report)`` receives
    each anonymized chunk in stream order as soon as it is ready;
    ``byte_sink(rows, report)`` receives the same chunk's encoded CSV
    data rows (the fast path for file output).
    """
    spec = as_spec(spec)
    if split is not None:
        spec = split_spec(spec, split)
    anonymizer = build(spec)
    if not isinstance(anonymizer, FrequencyAnonymizer):
        info = method_info(spec.kind)
        raise ValueError(
            f"publish requires a frequency-family method; "
            f"{spec.kind!r} is family {info.family!r}"
        )
    # Lazy so `import repro.api` stays light.
    from repro.engine.publish import StreamPublisher, chunk_source

    chunks = source if callable(source) else chunk_source(source, chunk_size)
    return StreamPublisher(
        anonymizer, workers=publish_workers, spill_dir=spill_dir
    ).publish(chunks, sink=sink, byte_sink=byte_sink)
