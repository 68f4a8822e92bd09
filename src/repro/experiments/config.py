"""Shared experiment configuration.

The paper evaluates on |D| = 1000 trajectories of ~1813 points each
with a C++ implementation on a 20-core Xeon. This pure-Python
reproduction scales the workload down (the mechanisms and metrics are
scale-free; relative method ordering is what we reproduce) and exposes
three presets:

* ``smoke``  — seconds; used by the test-suite and CI;
* ``default``— a few minutes; the standard reproduction scale;
* ``large`` — tens of minutes; closest to the paper's setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.datagen.generator import FleetConfig, generate_fleet

#: Per-process memo for :func:`cached_fleet`, keyed by the config's
#: repr (FleetConfig is a plain dataclass, not hashable). Bounded:
#: evicted wholesale once it grows past a handful of shapes.
_FLEET_CACHE: dict = {}
_FLEET_CACHE_LIMIT = 8


def cached_fleet(fleet_config: FleetConfig):
    """Generate (or reuse) the deterministic fleet for ``fleet_config``.

    Sweep jobs are self-contained so they can run in worker processes,
    which means each regenerates its (seeded, hence identical) fleet;
    this memo collapses that to one generation per process per config.
    """
    key = repr(fleet_config)
    fleet = _FLEET_CACHE.get(key)
    if fleet is None:
        if len(_FLEET_CACHE) >= _FLEET_CACHE_LIMIT:
            _FLEET_CACHE.clear()
        fleet = _FLEET_CACHE[key] = generate_fleet(fleet_config)
    return fleet


@dataclass(slots=True)
class ExperimentInput:
    """What an experiment job evaluates on.

    ``fleet`` is ``None`` in real-data mode: there is no road-network
    ground truth, so the recovery-attack metric family is skipped
    (``evaluate_method(..., with_recovery=False)``) exactly as the
    paper does for datasets without route ground truth.
    """

    dataset: object  # TrajectoryDataset
    fleet: object | None  # FleetResult | None


def load_experiment_input(config: "ExperimentConfig") -> ExperimentInput:
    """The dataset (and ground-truth fleet, when synthetic) to evaluate.

    When ``config.dataset`` names an ingested artifact (registry name
    or path — see :func:`repro.data.registry.load_dataset`), that real
    dataset is loaded (memoised per process, like the fleet); otherwise
    the synthetic fleet is generated from ``config.fleet``.
    """
    if config.dataset:
        key = f"dataset:{config.dataset}"
        dataset = _FLEET_CACHE.get(key)
        if dataset is None:
            from repro.data.registry import load_dataset

            if len(_FLEET_CACHE) >= _FLEET_CACHE_LIMIT:
                _FLEET_CACHE.clear()
            dataset = _FLEET_CACHE[key] = load_dataset(config.dataset)
        return ExperimentInput(dataset=dataset, fleet=None)
    fleet = cached_fleet(config.fleet)
    return ExperimentInput(dataset=fleet.dataset, fleet=fleet)


@dataclass(slots=True)
class ExperimentConfig:
    """All knobs of the evaluation pipeline."""

    #: Synthetic fleet shape.
    fleet: FleetConfig = field(default_factory=lambda: FleetConfig())
    #: Real-data mode: a dataset reference — ingested-artifact registry
    #: name (``repro ingest --name ...``), artifact directory, or planar
    #: CSV path. ``None`` evaluates on the synthetic fleet above.
    dataset: str | None = None
    #: Signature size m (the paper uses 10 at T-Drive scale).
    signature_size: int = 5
    #: Total privacy budget ε (split evenly for GL).
    epsilon: float = 1.0
    #: k-anonymity parameters (paper: k=5, l=3, t=0.1).
    k_anonymity: int = 5
    l_diversity: int = 3
    t_closeness: float = 0.1
    #: RSC radii in metres (paper's α in km: 0.1, 0.5, 1, 3, 5).
    rsc_radii: tuple[float, ...] = (100.0, 500.0, 1000.0, 3000.0, 5000.0)
    #: Recovery-attack evaluation budget.
    recovery_sample: int = 30
    recovery_max_points: int = 100
    #: HMM map-matcher parameters for the recovery attack. The fairly
    #: tight defaults model an attacker calibrated for clean GPS data:
    #: they recover unperturbed routes very well while frequency
    #: perturbation throws them off (the paper's Section V-B3 contrast).
    recovery_sigma: float = 40.0
    recovery_beta: float = 60.0
    recovery_radius: float = 200.0
    #: Which recovery technique the attacker uses: "hmm" (Newson-Krumm
    #: map matching, the paper's choice) or "path" (greedy shortest-path
    #: inference, the other technique the paper names).
    recovery_attack: str = "hmm"
    #: Linkage attack granularity.
    linkage_cell: float = 250.0
    linkage_top_k: int = 10
    #: Master seed for mechanisms.
    seed: int = 7

    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Seconds-scale config for tests."""
        return cls(
            fleet=FleetConfig(
                n_objects=20, points_per_trajectory=80, rows=10, cols=10,
                n_hotspots=8, seed=7,
            ),
            signature_size=3,
            recovery_sample=6,
            recovery_max_points=50,
        )

    @classmethod
    def default(cls) -> "ExperimentConfig":
        """Minutes-scale reproduction config."""
        return cls(
            fleet=FleetConfig(
                n_objects=100, points_per_trajectory=250, rows=24, cols=24,
                n_hotspots=15, seed=7,
            ),
            signature_size=5,
            recovery_sample=30,
            recovery_max_points=100,
        )

    @classmethod
    def large(cls) -> "ExperimentConfig":
        """Closest to the paper's |D| = 1000 setting (slow)."""
        return cls(
            fleet=FleetConfig(
                n_objects=1000, points_per_trajectory=500, rows=40, cols=40,
                n_hotspots=20, seed=7,
            ),
            signature_size=10,
            recovery_sample=100,
            recovery_max_points=200,
        )

    def model_params(self, epsilon: float | None = None) -> dict:
        """Spec params for a frequency model (GL/PureG/PureL) run.

        The shared ``(epsilon, signature_size, seed)`` triple every
        frequency-model :class:`~repro.api.spec.MethodSpec` of the
        experiment harness derives from; ``epsilon`` defaults to the
        config's total budget (Table II halves it for the pure models).
        """
        return {
            "epsilon": self.epsilon if epsilon is None else epsilon,
            "signature_size": self.signature_size,
            "seed": self.seed,
        }

    def with_epsilon(self, epsilon: float) -> "ExperimentConfig":
        return replace(self, epsilon=epsilon)

    def with_dataset(self, dataset: str | None) -> "ExperimentConfig":
        return replace(self, dataset=dataset)


PRESETS = ("smoke", "default", "large")


def parse_driver_args(
    argv: list[str], prog: str
) -> tuple[str, "ExperimentConfig", int]:
    """Shared CLI of the fig4/fig5/table2 drivers.

    ``[preset] [workers] [--dataset REF]`` — positionals stay optional
    and ordered for backwards compatibility with the original
    ``main(["smoke", "2"])`` convention. Returns
    ``(preset, config, workers)``.
    """
    import argparse

    parser = argparse.ArgumentParser(prog=prog)
    parser.add_argument("preset", nargs="?", choices=PRESETS, default="default")
    parser.add_argument(
        "workers",
        nargs="?",
        type=int,
        default=1,
        help="fan the sweep across N worker processes (1 = serial)",
    )
    parser.add_argument(
        "--dataset",
        default=None,
        metavar="REF",
        help="evaluate on an ingested real dataset (registry name, "
        "artifact directory, or CSV path) instead of the synthetic fleet",
    )
    args = parser.parse_args(argv)
    config = {
        "smoke": ExperimentConfig.smoke,
        "default": ExperimentConfig.default,
        "large": ExperimentConfig.large,
    }[args.preset]()
    if args.dataset:
        config = config.with_dataset(args.dataset)
    return args.preset, config, args.workers
