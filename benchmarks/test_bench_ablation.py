"""Ablation benchmarks for the pipeline's design choices.

1. Stage-2 compensation on/off — cardinality preservation vs pure
   signature dilution;
2. GL budget split — 50/50 (the paper) vs skewed splits;
3. shared index — the GL pipeline with the paper's hierarchical grid
   against a brute-force linear scan in the global stage (the
   practical version of Figure 5's claim).
"""

import functools
import random

import pytest

from repro.core import pipeline
from repro.core.local_mechanism import LocalPFMechanism
from repro.core.modification import InterTrajectoryModifier, IntraTrajectoryModifier
from repro.core.pipeline import FrequencyAnonymizer
from repro.core.signature import SignatureExtractor
from repro.index.hierarchical import HierarchicalGridIndex
from repro.index.linear import LinearSegmentIndex


class _Stage1OnlyMechanism(LocalPFMechanism):
    """Local mechanism without Stage 2 (ablation of Algorithm 2)."""

    def perturb_trajectory(self, trajectory, signature_index, rng):
        result = super().perturb_trajectory(trajectory, signature_index, rng)
        stage1_locs = [
            e.loc for e in signature_index.signatures[trajectory.object_id]
        ][: self.m]
        keep = set(stage1_locs) & set(result.original)
        return type(result)(
            object_id=result.object_id,
            original={k: result.original[k] for k in keep},
            perturbed={k: result.perturbed[k] for k in keep},
            stage1_mean_noise=result.stage1_mean_noise,
            epsilon=result.epsilon,
        )


def _run_local(fleet, mechanism_cls, config):
    extractor = SignatureExtractor(m=config.signature_size)
    index = extractor.extract(fleet.dataset)
    mechanism = mechanism_cls(epsilon=0.5, m=config.signature_size)
    modifier = IntraTrajectoryModifier()
    rng = random.Random(0)
    total_points = 0
    for trajectory in fleet.dataset:
        perturbation = mechanism.perturb_trajectory(trajectory, index, rng)
        modified, _ = modifier.apply(trajectory, perturbation)
        total_points += len(modified)
    return total_points


class TestStage2Ablation:
    def test_bench_with_stage2(self, benchmark, bench_timer, config, fleet):
        points = benchmark.pedantic(
            lambda: bench_timer(
                "ablation",
                "stage2_on_s",
                lambda: _run_local(fleet, LocalPFMechanism, config),
            ),
            rounds=2,
            iterations=1,
        )
        assert points > 0

    def test_bench_without_stage2(self, benchmark, bench_timer, config, fleet):
        points = benchmark.pedantic(
            lambda: bench_timer(
                "ablation",
                "stage2_off_s",
                lambda: _run_local(fleet, _Stage1OnlyMechanism, config),
            ),
            rounds=2,
            iterations=1,
        )
        assert points > 0

    def test_bench_stage2_cardinality_property(self, benchmark, config, fleet):
        """The paper's argument for Stage 2: without it the dataset
        shrinks; with it the cardinality stays close to the input."""

        def run_both():
            with_stage2 = _run_local(fleet, LocalPFMechanism, config)
            without_stage2 = _run_local(fleet, _Stage1OnlyMechanism, config)
            return with_stage2, without_stage2

        with_stage2, without_stage2 = benchmark.pedantic(
            run_both, rounds=1, iterations=1
        )
        original = fleet.dataset.total_points()
        assert abs(with_stage2 - original) < abs(without_stage2 - original)


@pytest.mark.parametrize("split", (0.25, 0.5, 0.75))
def test_bench_budget_split(benchmark, config, fleet, split):
    """GL with different eps_G : eps_L allocations (paper: 50/50)."""
    anonymizer = FrequencyAnonymizer(
        epsilon_global=config.epsilon * split,
        epsilon_local=config.epsilon * (1.0 - split),
        signature_size=config.signature_size,
        seed=config.seed,
    )
    result = benchmark.pedantic(
        lambda: anonymizer.anonymize(fleet.dataset), rounds=2, iterations=1
    )
    assert len(result) == len(fleet.dataset)


#: The global stage's shared index, substituted through the
#: ``index_factory`` seam of ``InterTrajectoryModifier``.
SHARED_INDEXES = {
    "linear": lambda extent: LinearSegmentIndex(),
    "hierarchical": lambda extent: HierarchicalGridIndex(extent, levels=10),
}


@pytest.mark.parametrize("backend", sorted(SHARED_INDEXES))
def test_bench_pipeline_backend(benchmark, config, fleet, backend, monkeypatch):
    """Full GL pipeline per global-stage shared index — Figure 5 in
    practice (the local stage always uses its flat stores)."""
    monkeypatch.setattr(
        pipeline,
        "InterTrajectoryModifier",
        functools.partial(InterTrajectoryModifier, SHARED_INDEXES[backend]),
    )
    anonymizer = FrequencyAnonymizer(
        epsilon_global=0.5,
        epsilon_local=0.5,
        signature_size=config.signature_size,
        seed=config.seed,
    )
    result = benchmark.pedantic(
        lambda: anonymizer.anonymize(fleet.dataset), rounds=2, iterations=1
    )
    assert len(result) == len(fleet.dataset)
