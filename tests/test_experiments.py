"""Smoke tests for the experiment harness (table2, fig4, fig5)."""

import pytest

from repro.api import run
from repro.experiments.config import ExperimentConfig
from repro.experiments.evaluate import METRIC_COLUMNS, evaluate_method
from repro.experiments.fig4 import PANELS, format_series, run as run_fig4
from repro.experiments.fig5 import (
    SEARCH_METHODS,
    format_timings,
    run as run_fig5,
)
from repro.experiments.methods import our_model_specs, table2_specs
from repro.experiments.table2 import format_table, run as run_table2
from repro.datagen.generator import generate_fleet


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig.smoke()


@pytest.fixture(scope="module")
def fleet(config):
    return generate_fleet(config.fleet)


class TestConfig:
    def test_presets_exist(self):
        for preset in (ExperimentConfig.smoke, ExperimentConfig.default, ExperimentConfig.large):
            config = preset()
            assert config.fleet.n_objects > 0
            assert config.epsilon > 0

    def test_with_epsilon(self, config):
        swept = config.with_epsilon(3.0)
        assert swept.epsilon == 3.0
        assert config.epsilon == 1.0  # original untouched


class TestMethodRegistry:
    def test_all_table2_methods_present(self, config):
        methods = table2_specs(config)
        for label in ("SC", "W4M", "GLOVE", "KLT", "DPT", "AdaTrace",
                      "PureG", "PureL", "GL"):
            assert label in methods
        assert sum(1 for name in methods if name.startswith("RSC-")) == len(
            config.rsc_radii
        )

    def test_our_models(self, config):
        assert set(our_model_specs(config)) == {"PureG", "PureL", "GL"}

    def test_methods_produce_datasets(self, config, fleet):
        specs = table2_specs(config)
        for label in ("SC", "PureL"):
            result = run(specs[label], fleet.dataset).dataset
            assert len(result) == len(fleet.dataset)


class TestEvaluate:
    def test_all_columns_present(self, config, fleet):
        evaluation = evaluate_method(
            fleet.dataset, fleet.dataset, fleet, config, synthetic=False
        )
        assert set(evaluation.values) == set(METRIC_COLUMNS)

    def test_identity_dataset_scores(self, config, fleet):
        """Evaluating the unmodified dataset sets the attack baselines."""
        evaluation = evaluate_method(
            fleet.dataset, fleet.dataset, fleet, config, synthetic=False
        )
        assert evaluation.values["LAs"] > 0.9  # raw data fully linkable
        assert evaluation.values["INF"] == pytest.approx(0.0)
        assert evaluation.values["FFP"] == pytest.approx(1.0)
        assert evaluation.values["MI"] == pytest.approx(1.0)

    def test_path_inference_recovery_variant(self, config, fleet):
        from dataclasses import replace

        path_config = replace(config, recovery_attack="path")
        evaluation = evaluate_method(
            fleet.dataset, fleet.dataset, fleet, path_config, synthetic=False
        )
        # Raw data must still be highly recoverable via greedy inference.
        assert evaluation.values["Recall"] > 0.4
        assert evaluation.values["Precision"] > 0.4

    def test_synthetic_skips_inapplicable(self, config, fleet):
        evaluation = evaluate_method(
            fleet.dataset, fleet.dataset, fleet, config, synthetic=True
        )
        assert evaluation.values["LAt"] is None
        assert evaluation.values["Precision"] is None

    def test_row_rendering(self, config, fleet):
        evaluation = evaluate_method(
            fleet.dataset, fleet.dataset, fleet, config, synthetic=True
        )
        row = evaluation.row()
        assert len(row) == len(METRIC_COLUMNS)
        assert "-" in row


class TestTable2:
    def test_run_subset(self, config):
        results = run_table2(config, methods=["SC", "GL"])
        assert set(results) == {"SC", "GL"}
        for values in results.values():
            assert values["LAs"] is not None
            assert values["INF"] is not None

    def test_unknown_method_rejected(self, config):
        with pytest.raises(ValueError):
            run_table2(config, methods=["Quantum"])

    def test_format_table(self, config):
        results = run_table2(config, methods=["SC"])
        text = format_table(results)
        assert "SC" in text
        assert "LAs" in text


class TestFig4:
    def test_run_produces_series(self, config):
        series = run_fig4(config, epsilons=(0.5, 5.0))
        assert set(series) == set(PANELS)
        for models in series.values():
            for values in models.values():
                assert len(values) == 2

    def test_formatting(self, config):
        series = run_fig4(config, epsilons=(0.5, 5.0))
        text = format_series(series, (0.5, 5.0))
        assert "[LAs vs eps]" in text
        assert "GL" in text


class TestFig5:
    def test_run_structure(self, config):
        results = run_fig5(config, sizes=(8, 16))
        assert set(results["search"]) == set(SEARCH_METHODS)
        for series in results["search"].values():
            assert len(series) == 2
            assert all(v >= 0 for v in series)
        assert set(results["modification"]) == {"Local", "Global"}

    def test_linear_slowest(self, config):
        """The headline of Figure 5: indexes beat the linear scan."""
        results = run_fig5(config, sizes=(16,))
        linear = results["search"]["Linear"][0]
        hg_plus = results["search"]["HG+"][0]
        assert hg_plus < linear

    def test_formatting(self, config):
        results = run_fig5(config, sizes=(8,))
        text = format_timings(results, (8,))
        assert "Linear" in text
        assert "G-share" in text
