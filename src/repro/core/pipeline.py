"""The published anonymizers: PureG, PureL, and GL (Section V setup).

* :class:`PureG` — global TF randomization only (ε = ε_G);
* :class:`PureL` — local PF randomization only (ε = ε_L);
* :class:`GL` — both, composed sequentially; by Theorem 1 the total
  privacy budget is ε = ε_G + ε_L (the paper splits it evenly).

All three are thin configurations of :class:`FrequencyAnonymizer`,
which wires the mechanisms to the modification optimisers and records
every draw in a :class:`~repro.core.accounting.CompositionLedger`
capped at the advertised budget.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.accounting import WHOLE_DATASET, CompositionLedger
from repro.core.global_mechanism import GlobalTFMechanism, TFPerturbation
from repro.core.local_mechanism import LocalPFMechanism, PFPerturbation
from repro.core.modification import (
    InterTrajectoryModifier,
    IntraTrajectoryModifier,
    ModificationReport,
)
from repro.core.signature import SignatureExtractor, SignatureIndex
from repro.trajectory.model import Trajectory, TrajectoryDataset

if TYPE_CHECKING:  # imported lazily at runtime to keep core below api
    from repro.api.spec import MethodSpec


def derive_seed(*tokens: object) -> int:
    """A stable 64-bit seed derived from arbitrary tokens.

    Hash-based (BLAKE2b) rather than arithmetic so distinct token
    tuples give statistically independent streams, and stable across
    processes/runs (unlike ``hash()``) — the property the batch engine
    relies on to give every shard the same noise the serial path draws.
    """
    payload = "\x1f".join(str(token) for token in tokens).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def local_stream_seed(base_seed: int, object_id: str) -> int:
    """Seed of the per-trajectory noise stream of the local stage.

    Keyed by object id, not by position, so any sharding of the dataset
    reproduces exactly the serial draws.
    """
    return derive_seed(base_seed, "local", object_id)


def check_epsilon(name: str, value: float, shares: int = 1) -> None:
    """Reject a privacy budget no Laplace mechanism can honour.

    ``name`` is the parameter as the caller spelled it, so :class:`GL`,
    :class:`PureG` and :class:`PureL` report their own ``epsilon``, not
    the per-stage share they derive from it. ``shares`` is how many
    even parts the caller splits ``value`` into (two for :class:`GL`);
    each part's Laplace scale, ``shares / value``, must be finite.
    """
    if math.isnan(value) or value < 0:
        raise ValueError(
            f"{name} must be a non-negative privacy budget, got {value:g}"
        )
    if value == 0:
        raise ValueError(
            f"{name}=0 is a zero privacy budget, which a Laplace "
            f"mechanism cannot honour"
        )
    if math.isinf(value):
        raise ValueError(f"{name} must be a finite privacy budget, got {value:g}")
    if math.isinf(shares / value):
        raise ValueError(
            f"{name}={value:g} is too small: its Laplace scale "
            f"{shares}/{name} overflows to infinity"
        )


#: One per-trajectory result of the local stage:
#: (object id, perturbation, modified trajectory, modification report).
LocalResult = tuple[str, PFPerturbation, Trajectory, ModificationReport]

#: Pluggable executor for the local stage: receives the dataset, its
#: signature index, and the per-call base seed; returns one
#: :data:`LocalResult` per trajectory *in dataset order*.
LocalRunner = Callable[[TrajectoryDataset, SignatureIndex, int], list[LocalResult]]


@dataclass(slots=True)
class AnonymizationReport:
    """Everything observable about one anonymization run."""

    epsilon_total: float
    #: Composition accounting of *this call's own* mechanism draws:
    #: which mechanism spent what over which slice of the data.  For a
    #: plain run both entries are sequential draws over the whole
    #: dataset and the ledger composes to :attr:`epsilon_total`.  Under
    #: the streaming publisher the local draw is scoped to the chunk
    #: and the shared TF draw is recorded once at publisher level, so
    #: a chunk's ledger deliberately composes to *less* than
    #: :attr:`epsilon_total` — the latter keeps stating the end-to-end
    #: guarantee of the published output (the shared draw covers this
    #: chunk too); the publisher's merged ledger is the full story.
    accounting: CompositionLedger
    global_report: ModificationReport | None = None
    local_report: ModificationReport | None = None
    tf_perturbation: TFPerturbation | None = None
    pf_perturbations: dict[str, PFPerturbation] | None = None
    #: Provenance: the :class:`~repro.api.spec.MethodSpec` describing
    #: the configuration that produced this run.
    spec: "MethodSpec | None" = None

    @property
    def budget_ledger(self) -> list[tuple[str, float]]:
        """``(label, epsilon)`` of each draw in :attr:`accounting`, in
        record order."""
        return [(draw.label, draw.epsilon) for draw in self.accounting.draws]

    @property
    def utility_loss(self) -> float:
        total = 0.0
        if self.global_report is not None:
            total += self.global_report.utility_loss
        if self.local_report is not None:
            total += self.local_report.utility_loss
        return total

    def to_dict(self) -> dict:
        """JSON-serialisable summary of the run (for audit trails)."""

        def modification(report: ModificationReport | None) -> dict | None:
            if report is None:
                return None
            return {
                "utility_loss_m": report.utility_loss,
                "insertions": report.insertions,
                "deletions": report.deletions,
                "unrealised": report.unrealised,
            }

        return {
            "method": None if self.spec is None else self.spec.provenance(),
            "epsilon_total": self.epsilon_total,
            "budget_ledger": [
                {"mechanism": label, "epsilon": epsilon}
                for label, epsilon in self.budget_ledger
            ],
            "accounting": self.accounting.to_dict(),
            "global": modification(self.global_report),
            "local": modification(self.local_report),
            "utility_loss_m": self.utility_loss,
            "tf_locations_perturbed": (
                len(self.tf_perturbation.perturbed)
                if self.tf_perturbation is not None
                else 0
            ),
            "trajectories_locally_perturbed": (
                len(self.pf_perturbations)
                if self.pf_perturbations is not None
                else 0
            ),
        }


class FrequencyAnonymizer:
    """Frequency-based DP anonymization for trajectory datasets.

    Parameters
    ----------
    epsilon_global, epsilon_local:
        Privacy budgets of the two mechanisms. Pass ``None`` to disable
        a mechanism; at least one must be enabled. An explicit ``0.0``
        is rejected — a zero budget is not a valid ε and must not be
        silently conflated with "stage disabled" (the ledger records
        what was actually configured).
    signature_size:
        ``m`` — how many signature locations are extracted per
        trajectory. The local mechanism perturbs ``2m`` locations.
    seed:
        RNG seed for reproducible noise; ``None`` draws fresh entropy.
        Repeated :meth:`anonymize` calls on one seeded instance draw
        from *distinct* per-call streams (counter-mixed from the seed),
        so anonymizing several datasets never silently reuses the same
        noise; rebuilding the anonymizer with the same seed replays the
        same call sequence exactly.
    """

    def __init__(
        self,
        epsilon_global: float | None = 0.5,
        epsilon_local: float | None = 0.5,
        signature_size: int = 10,
        seed: int | None = None,
    ) -> None:
        for name, value in (
            ("epsilon_global", epsilon_global),
            ("epsilon_local", epsilon_local),
        ):
            if value is None:
                continue
            if value == 0.0:
                raise ValueError(
                    f"{name}=0 is an explicit zero budget, which a Laplace "
                    f"mechanism cannot honour; pass {name}=None to disable "
                    f"the stage instead"
                )
            check_epsilon(name, value)
        if epsilon_global is None and epsilon_local is None:
            raise ValueError("at least one of the two mechanisms must be enabled")
        self.epsilon_global = 0.0 if epsilon_global is None else float(epsilon_global)
        self.epsilon_local = 0.0 if epsilon_local is None else float(epsilon_local)
        self.signature_size = signature_size
        self.seed = seed
        self.extractor = SignatureExtractor(m=signature_size)
        self._intra = IntraTrajectoryModifier()
        self._inter = InterTrajectoryModifier()
        # Disabled means None (the constructor rejects explicit zeros
        # above), so the stage toggles key off the original arguments,
        # never off the float's truthiness.
        self._global = (
            None if epsilon_global is None else GlobalTFMechanism(self.epsilon_global)
        )
        self._local = (
            None
            if epsilon_local is None
            else LocalPFMechanism(self.epsilon_local, m=signature_size)
        )
        #: How many anonymize() calls this instance has served; mixes
        #: into each call's base seed so successive datasets get fresh
        #: noise while the run as a whole stays reproducible. Reserved
        #: under a lock so concurrent calls never share a stream.
        self._call_count = 0
        self._call_lock = threading.Lock()

    def config(self) -> dict:
        """Constructor kwargs reproducing this configuration.

        Everything here is picklable plain data, so the engine
        rebuilds an equivalent anonymizer from it for every shard,
        sweep item and published chunk, in process or in a worker
        process (the instance itself holds a lock and cannot cross a
        process boundary).
        """
        return {
            "epsilon_global": None if self._global is None else self.epsilon_global,
            "epsilon_local": None if self._local is None else self.epsilon_local,
            "signature_size": self.signature_size,
            "seed": self.seed,
        }

    @property
    def epsilon(self) -> float:
        """Total privacy budget ε = ε_G + ε_L (Theorem 1)."""
        return self.epsilon_global + self.epsilon_local

    def spec(self) -> "MethodSpec":
        """This configuration as a declarative, serializable spec.

        Kind ``"frequency"`` with :meth:`config` as params — the
        canonical form: ``repro.api.build(spec)`` (equivalently
        ``FrequencyAnonymizer(**spec.params)``) rebuilds an equivalent
        instance, and :attr:`~repro.api.spec.MethodSpec.digest` is its
        stable configuration identity. This is the provenance recorded
        in reports; the engine's workers rebuild from :meth:`config`.
        """
        from repro.api.spec import MethodSpec

        return MethodSpec("frequency", self.config())

    def reserve_call_index(self) -> int:
        """Atomically claim the next per-call noise-stream index."""
        with self._call_lock:
            index = self._call_count
            self._call_count = index + 1
            return index

    def base_seed_for(self, call_index: int) -> int:
        """The noise base of call ``call_index`` on this instance.

        The one definition of the per-call seed derivation, shared by
        :meth:`anonymize_with_report` and external drivers that must
        replay it bit-exactly (the streaming publisher derives the
        base all chunks of one publish share from here — drift here
        is drift in the byte-identity contract).
        """
        if self.seed is None:
            # Unseeded runs want fresh entropy; take it from the OS
            # explicitly rather than the process-global Mersenne
            # Twister, whose hidden state seeded runs must never touch.
            return int.from_bytes(os.urandom(8), "big")
        return derive_seed("run", self.seed, call_index)

    def anonymize(self, dataset: TrajectoryDataset) -> TrajectoryDataset:
        """Produce the ε-differentially-private dataset D*: the dataset
        half of :meth:`anonymize_with_report`."""
        return self.anonymize_with_report(dataset)[0]

    def anonymize_with_report(
        self,
        dataset: TrajectoryDataset,
        *,
        local_runner: LocalRunner | None = None,
        call_index: int | None = None,
        tf_target: TFPerturbation | None = None,
        base_seed: int | None = None,
        scope: str = WHOLE_DATASET,
    ) -> tuple[TrajectoryDataset, AnonymizationReport]:
        """Produce D* and its :class:`AnonymizationReport` together.

        The input is never mutated and no result state is stored on
        the instance, so concurrent calls (e.g. the serving daemon's
        jobs on one warm engine) can never observe each other's
        report — only the per-call stream counter is shared, and it is
        reserved atomically.

        Noise streams: each call derives a base seed from ``(seed,
        call index)``, and each stage (and each trajectory within the
        local stage) derives its own sub-stream from that base. Two
        calls on the same instance therefore use different noise, while
        a fresh instance with the same seed replays the same call
        sequence byte-for-byte — and the per-trajectory streams make
        the local stage order- and shard-independent.

        ``local_runner`` overrides the local-stage executor for this
        call only (the batch engine's sharding hook); ``call_index``
        pins the per-call stream explicitly instead of reserving the
        next one (worker processes replaying a specific call).

        ``tf_target`` injects an externally-drawn TF perturbation: the
        global stage then *realises* the given target on this dataset
        (pure modification, no fresh mechanism draw and no ε spend
        here — the draw is accounted for by whoever produced the
        target, e.g. :class:`repro.engine.publish.StreamPublisher`'s
        shared whole-dataset estimate).  ``base_seed`` pins the noise
        base directly (all chunks of one published stream share one
        base; per-trajectory streams stay disjoint because they are
        keyed by object id), and ``scope`` names the slice of the data
        this call covers in the report's composition ledger.
        """
        if base_seed is None:
            if call_index is None:
                call_index = self.reserve_call_index()
            base_seed = self.base_seed_for(call_index)
        report = AnonymizationReport(
            epsilon_total=self.epsilon,
            accounting=CompositionLedger(budget=self.epsilon),
            spec=self.spec(),
        )

        # Global before local: StreamPublisher draws its shared TF over
        # the raw stream, which is what this stage would perturb.
        current = dataset
        if self._global is not None or tf_target is not None:
            current = self._run_global(
                current, base_seed, report, tf_target=tf_target, scope=scope
            )
        if self._local is not None:
            current = self._run_local(
                current, base_seed, report, local_runner, scope=scope
            )
        return current, report

    def _run_global(
        self,
        dataset: TrajectoryDataset,
        base_seed: int,
        report: AnonymizationReport,
        tf_target: TFPerturbation | None = None,
        scope: str = WHOLE_DATASET,
    ) -> TrajectoryDataset:
        if tf_target is not None:
            # Realising an injected target is modification only: the
            # mechanism draw behind it was made (and accounted for)
            # upstream, so this call spends nothing here.
            perturbation = tf_target
        else:
            report.accounting.record(
                "global TF randomization", self.epsilon_global, scope=scope
            )
            signature_index = self.extractor.extract(dataset)
            assert self._global is not None
            rng = random.Random(derive_seed(base_seed, "global"))
            perturbation = self._global.perturb(
                signature_index.tf, len(dataset), rng
            )
        modified, modification = self._inter.apply(dataset, perturbation)
        report.tf_perturbation = perturbation
        report.global_report = modification
        return modified

    def _run_local(
        self,
        dataset: TrajectoryDataset,
        base_seed: int,
        report: AnonymizationReport,
        local_runner: LocalRunner | None = None,
        scope: str = WHOLE_DATASET,
    ) -> TrajectoryDataset:
        report.accounting.record(
            "local PF randomization", self.epsilon_local, scope=scope
        )
        signature_index = self.extractor.extract(dataset)
        runner = local_runner or self._run_local_serial
        results = runner(dataset, signature_index, base_seed)
        perturbations: dict[str, PFPerturbation] = {}
        modified = []
        total = ModificationReport()
        for object_id, perturbation, new_trajectory, modification in results:
            perturbations[object_id] = perturbation
            total.merge(modification)
            modified.append(new_trajectory)
        report.pf_perturbations = perturbations
        report.local_report = total
        return TrajectoryDataset(modified)

    def _run_local_serial(
        self,
        dataset: TrajectoryDataset,
        signature_index: SignatureIndex,
        base_seed: int,
    ) -> list[LocalResult]:
        """The in-process local stage; reference for any parallel runner."""
        assert self._local is not None
        results: list[LocalResult] = []
        for trajectory in dataset:
            rng = random.Random(local_stream_seed(base_seed, trajectory.object_id))
            perturbation = self._local.perturb_trajectory(
                trajectory, signature_index, rng
            )
            new_trajectory, modification = self._intra.apply(trajectory, perturbation)
            results.append(
                (trajectory.object_id, perturbation, new_trajectory, modification)
            )
        return results


class PureG(FrequencyAnonymizer):
    """Global-only variant: ε-DP via TF randomization alone."""

    def __init__(self, epsilon: float = 0.5, **kwargs) -> None:
        check_epsilon("epsilon", epsilon)
        super().__init__(epsilon_global=epsilon, epsilon_local=None, **kwargs)


class PureL(FrequencyAnonymizer):
    """Local-only variant: ε-DP via PF randomization alone."""

    def __init__(self, epsilon: float = 0.5, **kwargs) -> None:
        check_epsilon("epsilon", epsilon)
        super().__init__(epsilon_global=None, epsilon_local=epsilon, **kwargs)


class GL(FrequencyAnonymizer):
    """The full model: global + local, ε split evenly (paper default)."""

    def __init__(self, epsilon: float = 1.0, **kwargs) -> None:
        check_epsilon("epsilon", epsilon, shares=2)
        super().__init__(
            epsilon_global=epsilon / 2.0, epsilon_local=epsilon / 2.0, **kwargs
        )
