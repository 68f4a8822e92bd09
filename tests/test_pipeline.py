"""Integration tests for the PureG / PureL / GL anonymizers."""

import math
import threading

import pytest

from repro.baselines.adatrace import AdaTrace
from repro.baselines.dpt import DPT
from repro.core.pipeline import GL, FrequencyAnonymizer, PureG, PureL
from repro.datagen.generator import FleetConfig, generate_fleet


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(
        FleetConfig(n_objects=15, points_per_trajectory=80, rows=12, cols=12, seed=3)
    )


class TestConfiguration:
    def test_requires_at_least_one_mechanism(self):
        with pytest.raises(ValueError):
            FrequencyAnonymizer(epsilon_global=None, epsilon_local=None)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon_global": -0.5},
            {"epsilon_local": -1.0},
            {"epsilon_global": -0.5, "epsilon_local": -0.5},
            {"epsilon_global": float("nan")},
        ],
    )
    def test_rejects_invalid_epsilon(self, kwargs):
        with pytest.raises(ValueError, match="non-negative"):
            FrequencyAnonymizer(**kwargs)

    def test_pure_variants_reject_negative_epsilon(self):
        with pytest.raises(ValueError, match="non-negative"):
            PureG(epsilon=-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            PureL(epsilon=-1.0)
        with pytest.raises(ValueError, match="non-negative"):
            GL(epsilon=-2.0)

    @pytest.mark.parametrize("cls", [GL, PureG, PureL])
    def test_variants_name_the_epsilon_they_were_given(self, cls):
        """Errors quote the caller's own ``epsilon``, not the per-stage
        share derived from it."""
        with pytest.raises(ValueError) as negative:
            cls(epsilon=-1)
        assert str(negative.value) == (
            "epsilon must be a non-negative privacy budget, got -1"
        )
        with pytest.raises(ValueError) as zero:
            cls(epsilon=0)
        message = str(zero.value)
        assert message.startswith("epsilon=0 ")
        # A variant cannot disable its only budget: no None hint.
        assert "None" not in message
        assert "epsilon_" not in message

    @pytest.mark.parametrize("epsilon", [math.inf, 1e-320])
    @pytest.mark.parametrize(
        "cls, name",
        [
            (GL, "epsilon"),
            (PureG, "epsilon"),
            (PureL, "epsilon"),
            (FrequencyAnonymizer, "epsilon_global"),
            (FrequencyAnonymizer, "epsilon_local"),
        ],
        ids=["GL", "PureG", "PureL", "global", "local"],
    )
    def test_refuses_epsilon_without_finite_laplace_scale(self, cls, name, epsilon):
        """An infinite budget, or one whose 1/epsilon overflows, is
        refused at construction under the caller's parameter name."""
        with pytest.raises(ValueError, match=f"^{name}[ =]"):
            cls(**{name: epsilon})

    def test_gl_checks_the_scale_of_each_half(self):
        """1/1e-308 is finite but each GL stage draws at scale 2/epsilon."""
        with pytest.raises(ValueError, match="^epsilon=1e-308 .* 2/epsilon"):
            GL(epsilon=1e-308)

    def test_explicit_zero_epsilon_is_rejected(self):
        """ε=0 must not be silently conflated with "stage disabled"."""
        with pytest.raises(ValueError, match="explicit zero budget"):
            FrequencyAnonymizer(epsilon_global=0.0, epsilon_local=0.5)
        with pytest.raises(ValueError, match="epsilon_local=0"):
            FrequencyAnonymizer(epsilon_global=0.5, epsilon_local=0.0)

    def test_none_disables_a_stage(self):
        anonymizer = FrequencyAnonymizer(epsilon_global=None, epsilon_local=0.5)
        assert anonymizer.epsilon == pytest.approx(0.5)

    def test_epsilon_composition(self):
        anonymizer = FrequencyAnonymizer(epsilon_global=0.3, epsilon_local=0.7)
        assert anonymizer.epsilon == pytest.approx(1.0)

    def test_gl_splits_evenly(self):
        gl = GL(epsilon=2.0, seed=0)
        assert gl.epsilon_global == pytest.approx(1.0)
        assert gl.epsilon_local == pytest.approx(1.0)

    def test_pure_variants(self):
        assert PureG(epsilon=0.5).epsilon == pytest.approx(0.5)
        assert PureL(epsilon=0.5).epsilon == pytest.approx(0.5)

    @pytest.mark.parametrize("cls", [GL, PureG, PureL])
    def test_rejects_unknown_search_strategy(self, cls):
        """The models take no search strategy any more."""
        with pytest.raises(TypeError, match="'search_strategy'"):
            cls(search_strategy="foo")


class TestAnonymization:
    def test_pureg_changes_tf_only_modestly(self, fleet):
        anonymizer = PureG(epsilon=0.5, signature_size=3, seed=1)
        result, report = anonymizer.anonymize_with_report(fleet.dataset)
        assert len(result) == len(fleet.dataset)
        assert report is not None
        assert report.tf_perturbation is not None
        assert report.local_report is None
        # The realised TF must match the perturbed target for every
        # location where realisation was possible.
        tf = result.trajectory_frequencies()
        unrealised = report.global_report.unrealised
        mismatches = sum(
            1
            for loc, target in report.tf_perturbation.perturbed.items()
            if tf.get(loc, 0) != target
        )
        assert mismatches <= unrealised

    def test_purel_satisfies_perturbed_pf(self, fleet):
        anonymizer = PureL(epsilon=0.5, signature_size=3, seed=2)
        result, report = anonymizer.anonymize_with_report(fleet.dataset)
        assert report.pf_perturbations is not None
        assert report.global_report is None
        for trajectory in result:
            perturbation = report.pf_perturbations[trajectory.object_id]
            pf = trajectory.point_frequencies()
            for loc, target in perturbation.perturbed.items():
                assert pf.get(loc, 0) == target, (trajectory.object_id, loc)

    def test_gl_runs_both_stages(self, fleet):
        anonymizer = GL(epsilon=1.0, signature_size=3, seed=3)
        result, report = anonymizer.anonymize_with_report(fleet.dataset)
        assert report.global_report is not None
        assert report.local_report is not None
        assert report.utility_loss >= 0.0
        assert len(result) == len(fleet.dataset)
        assert [t.object_id for t in result] == [t.object_id for t in fleet.dataset]

    def test_default_global_stage_is_the_serial_loop(self, fleet):
        """No pipeline setting reaches the wave planner: a run never
        builds one."""
        anonymizer = FrequencyAnonymizer(signature_size=3, seed=3)
        _, report = anonymizer.anonymize_with_report(fleet.dataset)
        assert report.global_report.insertions + report.global_report.deletions > 0
        assert anonymizer._inter.last_wave_stats is None

    def test_budget_ledger_matches_stages(self, fleet):
        anonymizer = GL(epsilon=1.0, signature_size=3, seed=4)
        _, report = anonymizer.anonymize_with_report(fleet.dataset)
        ledger = report.budget_ledger
        assert len(ledger) == 2
        assert sum(eps for _, eps in ledger) == pytest.approx(1.0)

    def test_input_never_mutated(self, fleet):
        snapshot = [
            [p.coord for p in trajectory] for trajectory in fleet.dataset
        ]
        GL(epsilon=1.0, signature_size=3, seed=5).anonymize(fleet.dataset)
        for trajectory, coords in zip(fleet.dataset, snapshot, strict=True):
            assert [p.coord for p in trajectory] == coords

    def test_deterministic_for_seed(self, fleet):
        a = GL(epsilon=1.0, signature_size=3, seed=6).anonymize(fleet.dataset)
        b = GL(epsilon=1.0, signature_size=3, seed=6).anonymize(fleet.dataset)
        for ta, tb in zip(a, b, strict=True):
            assert [p.coord for p in ta] == [p.coord for p in tb]

    def test_different_seeds_differ(self, fleet):
        a = GL(epsilon=1.0, signature_size=3, seed=7).anonymize(fleet.dataset)
        b = GL(epsilon=1.0, signature_size=3, seed=8).anonymize(fleet.dataset)
        assert any(
            [p.coord for p in ta] != [p.coord for p in tb]
            for ta, tb in zip(a, b, strict=True)
        )

    def test_repeated_calls_draw_fresh_noise(self, fleet):
        """One seeded instance must not reuse noise across datasets
        (regression: the per-call RNG used to be rebuilt from the same
        seed on every anonymize() call)."""
        anonymizer = GL(epsilon=1.0, signature_size=3, seed=30)
        first = anonymizer.anonymize(fleet.dataset)
        second = anonymizer.anonymize(fleet.dataset)
        assert any(
            [p.coord for p in ta] != [p.coord for p in tb]
            for ta, tb in zip(first, second, strict=True)
        )

    def test_call_sequence_reproducible_across_instances(self, fleet):
        """Fresh instance + same seed replays the same call sequence."""
        runs = []
        for _ in range(2):
            anonymizer = GL(epsilon=1.0, signature_size=3, seed=31)
            runs.append(
                [
                    [[p.coord for p in t] for t in anonymizer.anonymize(fleet.dataset)]
                    for _ in range(2)
                ]
            )
        assert runs[0] == runs[1]

    def test_signature_frequencies_reduced_on_average(self, fleet):
        """The headline behaviour: top signature locations lose occurrences."""
        from repro.core.signature import SignatureExtractor

        extractor = SignatureExtractor(m=3)
        index = extractor.extract(fleet.dataset)
        anonymizer = PureL(epsilon=1.0, signature_size=3, seed=10)
        result = anonymizer.anonymize(fleet.dataset)
        drop = 0
        total = 0
        for trajectory in fleet.dataset:
            modified = result.by_id(trajectory.object_id)
            pf_before = trajectory.point_frequencies()
            pf_after = modified.point_frequencies()
            top = index.signatures[trajectory.object_id][0]
            total += pf_before[top.loc]
            drop += pf_before[top.loc] - pf_after.get(top.loc, 0)
        assert drop / total > 0.5  # most signature mass removed

    def test_cardinality_roughly_preserved(self, fleet):
        """Stage 2 keeps the dataset size in the same ballpark."""
        anonymizer = PureL(epsilon=1.0, signature_size=3, seed=11)
        result = anonymizer.anonymize(fleet.dataset)
        before = fleet.dataset.total_points()
        after = result.total_points()
        assert after > before * 0.7
        assert after < before * 1.3

    def test_report_serialisation(self, fleet):
        import json

        anonymizer = GL(epsilon=1.0, signature_size=3, seed=13)
        _, report = anonymizer.anonymize_with_report(fleet.dataset)
        summary = report.to_dict()
        # Must be valid JSON with the advertised structure.
        encoded = json.dumps(summary)
        decoded = json.loads(encoded)
        assert decoded["epsilon_total"] == pytest.approx(1.0)
        assert len(decoded["budget_ledger"]) == 2
        assert decoded["global"]["insertions"] >= 0
        assert decoded["local"]["deletions"] >= 0
        assert decoded["tf_locations_perturbed"] > 0
        assert decoded["trajectories_locally_perturbed"] == len(fleet.dataset)


def _publish_chunk_report(dataset):
    """A publish chunk: the shared TF target is injected, so the call
    records only its local draw, scoped to the chunk."""
    _, shared = GL(epsilon=1.0, signature_size=3, seed=5).anonymize_with_report(
        dataset
    )
    return GL(epsilon=1.0, signature_size=3, seed=5).anonymize_with_report(
        dataset, tf_target=shared.tf_perturbation, base_seed=7, scope="chunk:0"
    )[1]


@pytest.mark.parametrize(
    "make_report, plain",
    [
        (lambda ds: GL(epsilon=1.0, signature_size=3, seed=5)
            .anonymize_with_report(ds)[1], True),
        (lambda ds: PureG(epsilon=0.7, signature_size=3, seed=5)
            .anonymize_with_report(ds)[1], True),
        (lambda ds: PureL(epsilon=0.7, signature_size=3, seed=5)
            .anonymize_with_report(ds)[1], True),
        (lambda ds: DPT(epsilon=1.0, order=2, seed=5)
            .anonymize_with_report(ds)[1], True),
        (lambda ds: AdaTrace(epsilon=1.0, seed=5)
            .anonymize_with_report(ds)[1], True),
        (_publish_chunk_report, False),
    ],
    ids=["GL", "PureG", "PureL", "DPT", "AdaTrace", "publish-chunk"],
)
def test_budget_ledger_is_the_accounting_view(fleet, make_report, plain):
    """Every report producer records ε once, in ``accounting``;
    ``budget_ledger`` lists its draws in order."""
    report = make_report(fleet.dataset)
    assert report.to_dict()["budget_ledger"] == [
        {"mechanism": draw.label, "epsilon": draw.epsilon}
        for draw in report.accounting.draws
    ]
    assert report.accounting.draws
    if plain:
        # DPT's ε/3 + ε/3 + ε/6 + ε/6 sums one ulp below ε.
        assert report.accounting.epsilon_total == pytest.approx(
            report.epsilon_total, rel=1e-12
        )
    else:
        assert [draw.scope for draw in report.accounting.draws] == ["chunk:0"]


def test_reserve_call_index_hands_out_each_index_once(preempt_often):
    """8 threads x 2,000 claims, each thread giving up the interpreter
    lock before every line of the claim, get exactly ``range(16000)``:
    no index is handed out twice and none is skipped."""
    anonymizer = GL(epsilon=1.0, seed=5)
    barrier = threading.Barrier(8)
    claimed = [[] for _ in range(8)]

    def claim(out):
        barrier.wait(timeout=30)
        for _ in range(2000):
            out.append(anonymizer.reserve_call_index())

    preempt_often("reserve_call_index")
    threads = [threading.Thread(target=claim, args=(out,)) for out in claimed]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert sorted(i for out in claimed for i in out) == list(range(16000))
    assert anonymizer.reserve_call_index() == 16000
