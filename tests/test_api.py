"""Tests for repro.api: MethodSpec, the method registry, and run().

The load-bearing guarantees:

* specs are frozen, picklable, and digest-stable across processes
  (the engine ships them across pool boundaries);
* every Table II label resolves through the registry and
  ``FrequencyAnonymizer(**spec.params)`` round-trips the pipeline's
  canonical spec, and an explicit ``epsilon_*=0.0`` is rejected
  (``None`` is the one way to disable a stage);
* ``run(spec, data)`` is byte-identical to the legacy direct path for
  the same seed, on both engines;
* results travel with the return value — concurrent runs on one
  engine can never clobber each other's reports.
"""

import importlib.metadata
import json
import pickle
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import (
    FAMILIES,
    MethodSpec,
    RunResult,
    as_spec,
    build,
    method_info,
    method_names,
    publish,
    register,
    run,
)
from repro.api import registry as registry_module
from repro.core.pipeline import GL, FrequencyAnonymizer, PureL
from repro.datagen.generator import FleetConfig, generate_fleet
from repro.engine import BatchAnonymizer
from repro.engine import batch as batch_module
from repro.experiments.config import ExperimentConfig
from repro.experiments.methods import (
    SYNTHETIC_METHODS,
    TABLE2_ORDER,
    our_model_specs,
    table2_specs,
)


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(
        FleetConfig(n_objects=12, points_per_trajectory=60, rows=10, cols=10, seed=3)
    )


def coords_of(dataset):
    return [[p.coord for p in trajectory] for trajectory in dataset]


class TestMethodSpec:
    def test_normalizes_kind_and_params(self):
        spec = MethodSpec(" GL ", {"epsilon": 1.0})
        assert spec.kind == "gl"
        assert spec.params == {"epsilon": 1.0}

    def test_frozen(self):
        spec = MethodSpec("gl")
        with pytest.raises(AttributeError):
            spec.kind = "purel"

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            MethodSpec("")
        with pytest.raises(ValueError):
            MethodSpec("no spaces allowed")

    def test_rejects_non_plain_params(self):
        with pytest.raises(TypeError):
            MethodSpec("gl", {"epsilon": object()})
        with pytest.raises(ValueError):
            MethodSpec("gl", {"not an identifier": 1})
        with pytest.raises(TypeError):
            MethodSpec("gl", [("epsilon", 1.0)])

    def test_sequences_normalize_to_tuples(self):
        spec = MethodSpec("gl", {"values": [1, 2, [3, 4]]})
        assert spec.params["values"] == (1, 2, (3, 4))

    def test_dict_round_trip(self):
        spec = MethodSpec("rsc", {"radius": 500.0, "signature_size": 5})
        rebuilt = MethodSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.digest == spec.digest

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            MethodSpec.from_dict({"kind": "gl", "extra": 1})
        with pytest.raises(ValueError):
            MethodSpec.from_dict({"params": {}})

    def test_pickle_round_trip(self):
        spec = MethodSpec("gl", {"epsilon": 2.0, "seed": 7})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.digest == spec.digest

    def test_hashable(self):
        a = MethodSpec("gl", {"epsilon": 1.0})
        b = MethodSpec("gl", {"epsilon": 1.0})
        assert len({a, b}) == 1

    def test_digest_ignores_param_order(self):
        a = MethodSpec("gl", {"epsilon": 1.0, "seed": 7})
        b = MethodSpec("gl", {"seed": 7, "epsilon": 1.0})
        assert a == b
        assert a.digest == b.digest

    def test_digest_distinguishes_configs(self):
        assert (
            MethodSpec("gl", {"epsilon": 1.0}).digest
            != MethodSpec("gl", {"epsilon": 2.0}).digest
        )

    def test_digest_stable_across_processes(self):
        spec = MethodSpec("gl", {"epsilon": 1.0, "seed": 7})
        script = (
            "from repro.api import MethodSpec; "
            "print(MethodSpec('gl', {'epsilon': 1.0, 'seed': 7}).digest)"
        )
        import os
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(repo_root / "src")}
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            cwd=str(repo_root),
        )
        assert out.stdout.strip() == spec.digest

    def test_replace_merges(self):
        spec = MethodSpec("gl", {"epsilon": 1.0, "seed": 7})
        swept = spec.replace(epsilon=5.0)
        assert swept.params == {"epsilon": 5.0, "seed": 7}
        assert spec.params["epsilon"] == 1.0  # original untouched

    def test_as_spec_coercions(self):
        assert as_spec("gl") == MethodSpec("gl")
        assert as_spec({"kind": "gl"}) == MethodSpec("gl")
        spec = MethodSpec("gl", {"epsilon": 3.0})
        assert as_spec(spec) is spec
        with pytest.raises(TypeError):
            as_spec(42)


class TestRegistry:
    def test_builtin_kinds_present(self):
        names = method_names()
        for kind in (
            "frequency", "gl", "pureg", "purel",
            "sc", "rsc", "w4m", "glove", "klt", "dpt", "adatrace",
        ):
            assert kind in names

    def test_unknown_kind_lists_alternatives(self):
        with pytest.raises(ValueError, match="registered methods"):
            method_info("nope")
        with pytest.raises(ValueError, match="registered methods"):
            build(MethodSpec("nope"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register("gl", summary="dup", family="frequency")(lambda: None)

    def test_register_validates_family_and_kind(self):
        with pytest.raises(ValueError):
            register("x", summary="s", family="bogus")(lambda: None)
        with pytest.raises(ValueError):
            register("bad kind", summary="s", family="plugin")(lambda: None)

    def test_replace_flag_allows_override(self):
        sentinel = object()
        original = method_info("gl")

        @register("gl", summary="shadow", family="frequency", replace=True)
        def shadow():
            return sentinel

        try:
            assert build(MethodSpec("gl")) is sentinel
        finally:
            # restore the real entry for the rest of the suite
            registry_module._REGISTRY["gl"] = original
        assert method_info("gl").summary == original.summary

    def test_build_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="accepted"):
            build(MethodSpec("adatrace", {"bogus_knob": 1}))

    def test_families_declared(self):
        for kind in method_names():
            assert method_info(kind).family in FAMILIES

    def test_default_params_match_constructors(self):
        """Factory signatures are the public contract — they must not
        drift from the constructors they wrap."""
        import inspect

        from repro.baselines.adatrace import AdaTrace
        from repro.baselines.dpt import DPT
        from repro.baselines.glove import Glove
        from repro.baselines.klt import KLT
        from repro.baselines.signature_closure import (
            RadiusSignatureClosure,
            SignatureClosure,
        )
        from repro.baselines.w4m import W4M

        pairs = {
            "frequency": FrequencyAnonymizer,
            "sc": SignatureClosure,
            "rsc": RadiusSignatureClosure,
            "w4m": W4M,
            "glove": Glove,
            "klt": KLT,
            "dpt": DPT,
            "adatrace": AdaTrace,
        }
        for kind, cls in pairs.items():
            declared = method_info(kind).default_params()
            actual = {
                name: parameter.default
                for name, parameter in inspect.signature(cls).parameters.items()
                if parameter.default is not inspect.Parameter.empty
            }
            assert declared == actual, f"{kind} drifted from {cls.__name__}"

    def test_entry_point_discovery_tolerates_absence(self, monkeypatch):
        monkeypatch.setattr(registry_module, "_PLUGINS_LOADED", False)
        assert "gl" in method_names()  # discovery ran without error
        assert registry_module._PLUGINS_LOADED


class _FakeEntryPoint:
    """A ``repro.methods`` entry point whose ``load`` runs ``loader``."""

    def __init__(self, name, loader):
        self.name = name
        self.value = f"fakeplugins:{name}"
        self._loader = loader

    def load(self):
        return self._loader()


def _install_plugins(monkeypatch, *entry_points):
    """A registry that has not scanned yet, over ``entry_points``."""
    monkeypatch.setattr(registry_module, "_PLUGINS_LOADED", False)
    monkeypatch.setattr(
        registry_module, "_REGISTRY", dict(registry_module._REGISTRY)
    )

    def fake_entry_points(group=None, **_):
        return list(entry_points) if group == "repro.methods" else []

    monkeypatch.setattr(importlib.metadata, "entry_points", fake_entry_points)


def slowplug():
    """A plugin method that takes a while to import."""
    return GL(epsilon=1.0, seed=1)


class TestPluginScan:
    def test_lookups_wait_for_a_running_scan(self, monkeypatch):
        """A lookup made while another thread's first scan is still
        loading a plugin waits for the scan, and finds the plugin."""
        loading = threading.Event()

        def load():
            loading.set()
            time.sleep(0.5)
            return slowplug

        _install_plugins(monkeypatch, _FakeEntryPoint("slowplug", load))
        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(method_info, "slowplug")
            assert loading.wait(30)
            second = pool.submit(method_info, "slowplug")
            infos = [first.result(timeout=30), second.result(timeout=30)]
        assert [info.kind for info in infos] == ["slowplug", "slowplug"]
        assert infos[0].factory is slowplug
        assert registry_module._PLUGINS_LOADED

    def test_plugin_import_may_look_up_the_registry(self, monkeypatch):
        """A plugin whose import lists the registry, on the scanning
        thread, sees the methods registered so far instead of waiting
        on the scan's own lock."""
        seen = []

        def load():
            seen.append(method_names())
            return slowplug

        _install_plugins(monkeypatch, _FakeEntryPoint("selfaware", load))
        names = []
        scanner = threading.Thread(
            target=lambda: names.append(method_names()), daemon=True
        )
        scanner.start()
        scanner.join(timeout=30)
        assert not scanner.is_alive()
        assert "gl" in seen[0] and "selfaware" not in seen[0]
        assert "selfaware" in names[0]

    def test_a_failing_scan_runs_once(self, monkeypatch):
        calls = []

        def load():
            calls.append(1)
            raise ImportError("broken plugin")

        _install_plugins(monkeypatch, _FakeEntryPoint("broken", load))
        with pytest.warns(RuntimeWarning, match="broken plugin"):
            assert "broken" not in method_names()
        assert "broken" not in method_names()
        assert calls == [1]
        assert registry_module._PLUGINS_LOADED


class TestSpecRoundTrip:
    """config()/spec round-trip for every registered frequency method."""

    @pytest.mark.parametrize("kind", ["frequency", "gl", "pureg", "purel"])
    def test_rebuilds_equivalent_instance(self, kind):
        instance = build(MethodSpec(kind, {"seed": 11}))
        spec = instance.spec()
        assert spec.kind == "frequency"
        rebuilt = FrequencyAnonymizer(**spec.params)
        assert rebuilt.config() == instance.config()
        assert rebuilt.spec().digest == spec.digest

    def test_epsilon_zero_is_rejected_not_normalized(self):
        """An explicit ε=0 raises; None is the one way to disable a
        stage, so every spec digest unambiguously states what ran."""
        none_form = FrequencyAnonymizer(epsilon_global=0.7, epsilon_local=None)
        assert none_form.spec().params["epsilon_local"] is None
        with pytest.raises(ValueError, match="explicit zero budget"):
            FrequencyAnonymizer(epsilon_global=0.7, epsilon_local=0.0)

    def test_spec_is_engine_payload(self, fleet):
        """The spec crosses process boundaries in place of config()."""
        anonymizer = GL(epsilon=1.0, signature_size=3, seed=9)
        payload = pickle.loads(pickle.dumps(anonymizer.spec()))
        rebuilt = build(payload)
        a = anonymizer.anonymize(fleet.dataset)
        b = rebuilt.anonymize(fleet.dataset)
        assert coords_of(a) == coords_of(b)


class TestTable2Completeness:
    def test_every_label_resolves(self):
        config = ExperimentConfig.smoke()
        for label, spec in table2_specs(config).items():
            instance = build(spec)
            assert hasattr(instance, "anonymize"), label

    def test_column_order_matches_paper(self):
        config = ExperimentConfig.smoke()
        labels = list(table2_specs(config))
        collapsed = []
        for label in labels:
            name = "RSC" if label.startswith("RSC-") else label
            if not collapsed or collapsed[-1] != name:
                collapsed.append(name)
        assert collapsed == [label for label, _ in TABLE2_ORDER]

    def test_synthetic_flags_come_from_registry(self):
        assert SYNTHETIC_METHODS == frozenset({"DPT", "AdaTrace"})
        for label, kind in TABLE2_ORDER:
            assert method_info(kind).synthetic == (label in SYNTHETIC_METHODS)

    def test_our_models_epsilon_not_halved(self):
        config = ExperimentConfig.smoke()
        specs = our_model_specs(config)
        assert set(specs) == {"PureG", "PureL", "GL"}
        for spec in specs.values():
            assert spec.params["epsilon"] == config.epsilon


class TestRun:
    def test_byte_identical_to_legacy_serial(self, fleet):
        legacy = GL(epsilon=1.0, signature_size=3, seed=21).anonymize(fleet.dataset)
        spec = MethodSpec("gl", {"epsilon": 1.0, "signature_size": 3, "seed": 21})
        result = run(spec, fleet.dataset)
        assert coords_of(result.dataset) == coords_of(legacy)
        for a, b in zip(legacy, result.dataset, strict=True):
            assert [p.t for p in a] == [p.t for p in b]

    def test_byte_identical_to_legacy_batch(self, fleet, monkeypatch):
        # Cross the pool although the fleet is below the size rule.
        monkeypatch.setattr(batch_module, "MIN_POINTS_PER_WORKER", 0)
        legacy = GL(epsilon=1.0, signature_size=3, seed=21).anonymize(fleet.dataset)
        spec = MethodSpec("gl", {"epsilon": 1.0, "signature_size": 3, "seed": 21})
        result = run(spec, fleet.dataset, engine="batch", workers=3)
        assert result.engine == "batch"
        assert coords_of(result.dataset) == coords_of(legacy)

    def test_result_bundles_everything(self, fleet):
        spec = MethodSpec("purel", {"epsilon": 0.5, "signature_size": 3, "seed": 5})
        result = run(spec, fleet.dataset)
        assert isinstance(result, RunResult)
        assert result.spec == spec
        assert result.seconds >= 0
        assert result.report is not None
        assert result.report.spec.kind == "frequency"
        assert result.utility_loss == result.report.utility_loss
        summary = result.to_dict()
        assert summary["digest"] == spec.provenance()["digest"]
        assert summary["trajectories"] == len(fleet.dataset)
        assert summary["report"]["method"]["kind"] == "frequency"

    def test_baseline_runs_without_report(self, fleet):
        result = run(MethodSpec("sc", {"signature_size": 3}), fleet.dataset)
        assert result.report is None
        assert result.utility_loss is None
        assert result.to_dict()["report"] is None
        assert len(result.dataset) == len(fleet.dataset)

    def test_bare_kind_accepted(self, fleet):
        result = run("sc", fleet.dataset)
        assert len(result.dataset) == len(fleet.dataset)

    def test_batch_engine_rejected_for_baselines(self, fleet):
        with pytest.raises(ValueError, match="frequency-family"):
            run(MethodSpec("sc"), fleet.dataset, engine="batch")

    def test_unknown_engine_rejected(self, fleet):
        with pytest.raises(ValueError, match="unknown engine"):
            run(MethodSpec("gl"), fleet.dataset, engine="gpu")

    @pytest.mark.parametrize(
        "call, keyword, value",
        [
            (run, "executor", "process"),
            (publish, "executor", "process"),
            (publish, "publish_executor", "process"),
            (publish, "apportionment", "balanced"),
            (publish, "window", 4),
            (publish, "engine", "batch"),
            (publish, "workers", 2),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_retired_keyword_is_refused(self, fleet, call, keyword, value):
        """Pool kinds, the apportionment policy, the publisher's
        window and a second publish parallelism axis are not settings:
        each retired keyword is refused by name, even at its old
        default."""
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            call("gl", fleet.dataset, **{keyword: value})

    def test_report_records_spec_provenance(self, fleet):
        spec = MethodSpec("gl", {"epsilon": 1.0, "signature_size": 3, "seed": 2})
        result = run(spec, fleet.dataset)
        method = result.report.to_dict()["method"]
        assert method == result.report.spec.provenance()
        assert method["params"]["signature_size"] == 3
        assert "seed" not in method["params"]


#: Two noise seeds whose digits cannot turn up in a report by accident.
SECRET_SEEDS = (424242, 987654321)


def assert_seedless(artifacts: list) -> None:
    """One artifact per seed of ``SECRET_SEEDS``: identical, and
    neither seed's decimal string appears in either."""
    first, second = artifacts
    assert first == second
    text = json.dumps(artifacts)
    for seed in SECRET_SEEDS:
        assert str(seed) not in text


class TestSeedlessProvenance:
    """A release carries no noise seed: whatever leaves the process
    states every parameter but the seed, and digests only that."""

    def test_provenance_drops_the_seed_and_digests_the_rest(self):
        spec = MethodSpec("gl", {"epsilon": 1.0, "seed": SECRET_SEEDS[0]})
        provenance = spec.provenance()
        assert provenance == {
            "kind": "gl",
            "params": {"epsilon": 1.0},
            "digest": MethodSpec("gl", {"epsilon": 1.0}).digest,
        }
        # The in-process identity still tells the seeds apart (the
        # daemon's engine cache keys on it).
        assert spec.digest != spec.replace(seed=SECRET_SEEDS[1]).digest

    def test_run_result_summary_is_seedless(self, fleet):
        summaries = [
            run(
                MethodSpec("gl", {"epsilon": 1.0, "signature_size": 3, "seed": seed}),
                fleet.dataset,
            ).to_dict()
            for seed in SECRET_SEEDS
        ]
        assert_seedless(
            [{key: summary[key] for key in ("spec", "digest")} for summary in summaries]
        )
        assert_seedless([summary["report"]["method"] for summary in summaries])


class TestConcurrencySafety:
    """The last_report race: results must travel with the return value."""

    def test_concurrent_runs_keep_their_own_reports(self, fleet):
        anonymizer = PureL(epsilon=0.5, signature_size=3, seed=31)
        engine = BatchAnonymizer(anonymizer, workers=1)
        datasets = [fleet.dataset.subset(4 + i) for i in range(6)]

        def job(dataset):
            result, report = engine.anonymize_with_report(dataset)
            return dataset, result, report

        with ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(job, datasets))

        for dataset, result, report in outcomes:
            expected_ids = {t.object_id for t in dataset}
            assert {t.object_id for t in result} == expected_ids
            # The report must describe *this* call's dataset, not
            # whichever call finished last.
            assert set(report.pf_perturbations) == expected_ids

    def test_concurrent_calls_draw_distinct_streams(self, fleet):
        """The call counter is reserved atomically: parallel calls on
        one instance must never share a noise stream."""
        anonymizer = PureL(epsilon=0.5, signature_size=3, seed=33)

        def job(_):
            result, _report = anonymizer.anonymize_with_report(fleet.dataset)
            return coords_of(result)

        with ThreadPoolExecutor(max_workers=4) as pool:
            outputs = list(pool.map(job, range(4)))
        for i in range(len(outputs)):
            for j in range(i + 1, len(outputs)):
                assert outputs[i] != outputs[j]

    def test_pinned_call_index_replays_stream(self, fleet):
        reference = PureL(epsilon=0.5, signature_size=3, seed=35)
        first = reference.anonymize(fleet.dataset)
        second = reference.anonymize(fleet.dataset)

        replay = PureL(epsilon=0.5, signature_size=3, seed=35)
        replay_second, _ = replay.anonymize_with_report(
            fleet.dataset, call_index=1
        )
        assert coords_of(replay_second) == coords_of(second)
        assert coords_of(replay_second) != coords_of(first)
