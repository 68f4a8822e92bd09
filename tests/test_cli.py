"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.accounting import CompositionLedger
from repro.serve.budget import BudgetStore
from repro.trajectory.io import read_csv


@pytest.fixture
def fleet_csv(tmp_path):
    path = tmp_path / "fleet.csv"
    code = main(
        [
            "generate",
            "--objects", "8",
            "--points", "60",
            "--rows", "10",
            "--cols", "10",
            "--seed", "3",
            "-o", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_csv(self, fleet_csv):
        dataset = read_csv(fleet_csv)
        assert len(dataset) == 8
        assert all(len(t) == 60 for t in dataset)

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            main(["generate", "--objects", "3", "--points", "30",
                  "--rows", "8", "--cols", "8", "--seed", "5", "-o", str(target)])
        assert a.read_text() == b.read_text()


class TestAnonymize:
    @pytest.mark.parametrize("model", ("gl", "pureg", "purel"))
    def test_models(self, fleet_csv, tmp_path, model, capsys):
        out = tmp_path / f"{model}.csv"
        code = main(
            [
                "anonymize",
                "-i", str(fleet_csv),
                "-o", str(out),
                "--model", model,
                "--epsilon", "1.0",
                "--signature-size", "3",
                "--seed", "1",
            ]
        )
        assert code == 0
        result = read_csv(out)
        assert len(result) == 8
        captured = capsys.readouterr().out
        assert "budget" in captured

    def test_custom_backend(self, fleet_csv, tmp_path):
        out = tmp_path / "out.csv"
        code = main(
            [
                "anonymize",
                "-i", str(fleet_csv),
                "-o", str(out),
                "--model", "purel",
                "--signature-size", "3",
                "--index", "uniform",
                "--seed", "2",
            ]
        )
        assert code == 0


class TestMethodsCommand:
    def test_lists_registry(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for kind in ("gl", "pureg", "purel", "sc", "rsc", "w4m", "glove",
                     "klt", "dpt", "adatrace"):
            assert kind in out
        assert "synthetic" in out

    def test_verbose_lists_params(self, capsys):
        assert main(["methods", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "--param epsilon=" in out
        assert "--param radius=" in out


class TestAnonymizeMethod:
    def test_method_baseline_end_to_end(self, fleet_csv, tmp_path, capsys):
        out = tmp_path / "ada.csv"
        code = main(
            [
                "anonymize", "-i", str(fleet_csv), "-o", str(out),
                "--method", "adatrace", "--epsilon", "1.0", "--seed", "1",
            ]
        )
        assert code == 0
        assert len(read_csv(out)) > 0
        captured = capsys.readouterr().out
        assert "ADATRACE" in captured
        assert "config digest" in captured

    def test_method_with_param_overrides(self, fleet_csv, tmp_path, capsys):
        out = tmp_path / "rsc.csv"
        code = main(
            [
                "anonymize", "-i", str(fleet_csv), "-o", str(out),
                "--method", "rsc",
                "--signature-size", "3",
                "--param", "radius=250.0",
            ]
        )
        assert code == 0
        assert "rsc" in capsys.readouterr().out

    def test_method_overrides_model(self, fleet_csv, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main(
            [
                "anonymize", "-i", str(fleet_csv), "-o", str(out),
                "--model", "gl", "--method", "purel",
                "--signature-size", "3", "--seed", "2",
            ]
        )
        assert code == 0
        assert "PUREL" in capsys.readouterr().out

    def test_method_batch_engine(self, fleet_csv, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = main(
            [
                "anonymize", "-i", str(fleet_csv), "-o", str(out),
                "--method", "gl", "--signature-size", "3", "--seed", "4",
                "--engine", "batch", "--workers", "2", "--executor", "thread",
            ]
        )
        assert code == 0
        assert "engine batch" in capsys.readouterr().out

    def test_unknown_method_fails_cleanly(self, fleet_csv, tmp_path, capsys):
        code = main(
            [
                "anonymize", "-i", str(fleet_csv),
                "-o", str(tmp_path / "x.csv"), "--method", "nope",
            ]
        )
        assert code == 2
        assert "registered methods" in capsys.readouterr().err

    def test_bad_param_fails_cleanly(self, fleet_csv, tmp_path, capsys):
        code = main(
            [
                "anonymize", "-i", str(fleet_csv),
                "-o", str(tmp_path / "x.csv"),
                "--method", "sc", "--param", "bogus=1",
            ]
        )
        assert code == 2
        assert "accepted" in capsys.readouterr().err

    def test_non_plain_param_value_fails_cleanly(self, fleet_csv, tmp_path, capsys):
        """A JSON-object --param value is rejected with exit 2, not a
        traceback (MethodSpec only accepts plain scalar/sequence data)."""
        code = main(
            [
                "anonymize", "-i", str(fleet_csv),
                "-o", str(tmp_path / "x.csv"),
                "--method", "sc", "--param", 'signature_size={"a": 1}',
            ]
        )
        assert code == 2
        assert "plain data" in capsys.readouterr().err

    def test_batch_engine_rejected_for_baseline(self, fleet_csv, tmp_path, capsys):
        code = main(
            [
                "anonymize", "-i", str(fleet_csv),
                "-o", str(tmp_path / "x.csv"),
                "--method", "sc", "--engine", "batch",
            ]
        )
        assert code == 2
        assert "frequency-family" in capsys.readouterr().err


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["anonymize", "-i", "{missing}", "-o", "{out}"],
            ["publish", "-i", "{missing}", "-o", "{out}", "--chunk-size", "5"],
            ["attack", "-i", "{missing}", "-a", "{missing}"],
            ["evaluate", "-i", "{missing}", "-a", "{missing}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_input_is_a_clean_error(self, tmp_path, capsys, argv):
        paths = {"missing": tmp_path / "missing.csv", "out": tmp_path / "o.csv"}
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"repro {argv[0]}: ")
        assert "missing.csv" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "ledger",
        [
            [],
            "x",
            3,
            {"draws": [{"label": "global", "epsilon": 1.0, "group": 5}]},
        ],
        ids=["list", "string", "number", "group-not-a-string"],
    )
    def test_tampered_account_file_is_a_clean_serve_error(
        self, tmp_path, capsys, ledger
    ):
        store = BudgetStore(tmp_path / "budgets")
        store.declare("t", 5.0)
        store.reserve("t", "j1", 1.0)
        committed = CompositionLedger()
        committed.record("global", 1.0)
        store.commit("t", "j1", committed)
        path = store.account("t").path
        lines = path.read_text().splitlines()
        entry = json.loads(lines[-1])
        entry["ledger"] = ledger
        path.write_text("\n".join(lines[:-1] + [json.dumps(entry)]) + "\n")
        code = main(
            [
                "serve", "--budget-root", str(tmp_path / "budgets"),
                "--spool", str(tmp_path / "spool"), "--tenant", "t=5",
                "--port", "0",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro serve: ")
        assert "commit 'j1' carries a ledger that does not round-trip" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("model", ["gl", "pureg", "purel"])
    def test_negative_epsilon_names_the_flag_value(
        self, fleet_csv, tmp_path, capsys, model
    ):
        code = main(
            [
                "anonymize", "-i", str(fleet_csv), "-o", str(tmp_path / "x.csv"),
                "--model", model, "--epsilon", "-1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "repro anonymize: epsilon must be a non-negative privacy "
            "budget, got -1\n"
        )

    def test_zero_epsilon_suggests_no_unreachable_setting(
        self, fleet_csv, tmp_path, capsys
    ):
        """No CLI flag can pass ``epsilon_global=None``, so the error
        must not tell the user to."""
        code = main(
            [
                "anonymize", "-i", str(fleet_csv), "-o", str(tmp_path / "x.csv"),
                "--model", "pureg", "--epsilon", "0",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro anonymize: epsilon=0 ")
        assert "None" not in err
        assert "epsilon_global" not in err


class TestAttackAndEvaluate:
    def test_attack_self(self, fleet_csv, capsys):
        code = main(
            ["attack", "-i", str(fleet_csv), "-a", str(fleet_csv), "--kind", "spatial"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "LA_spatial" in out
        # Self-attack must link perfectly.
        assert "1.000" in out

    def test_attack_all_kinds(self, fleet_csv, capsys):
        code = main(["attack", "-i", str(fleet_csv), "-a", str(fleet_csv)])
        assert code == 0
        out = capsys.readouterr().out
        for kind in ("spatial", "temporal", "spatiotemporal", "sequential"):
            assert f"LA_{kind}" in out

    def test_evaluate_identity(self, fleet_csv, capsys):
        code = main(["evaluate", "-i", str(fleet_csv), "-a", str(fleet_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "INF  0.000" in out
        assert "FFP  1.000" in out

    def test_round_trip_anonymize_then_attack(self, fleet_csv, tmp_path, capsys):
        out = tmp_path / "private.csv"
        main(
            [
                "anonymize", "-i", str(fleet_csv), "-o", str(out),
                "--model", "gl", "--signature-size", "3", "--seed", "4",
            ]
        )
        capsys.readouterr()
        code = main(
            ["attack", "-i", str(fleet_csv), "-a", str(out), "--kind", "spatial"]
        )
        assert code == 0
        assert "LA_spatial" in capsys.readouterr().out


class TestExperimentCommand:
    def test_fig5_smoke(self, capsys):
        code = main(["experiment", "fig5", "--preset", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Linear" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table9"])
