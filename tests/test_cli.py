"""Tests for the command-line interface."""

import json
import math

import pytest

from repro.attacks.linkage import SIGNATURE_KINDS
from repro.cli import ATTACK_KINDS, main
from repro.core.accounting import CompositionLedger
from repro.serve.budget import BudgetStore
from repro.trajectory.io import MAX_ABS_COORDINATE, read_csv, write_csv
from repro.trajectory.model import Point, Trajectory, TrajectoryDataset


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

    def test_printed_digest_and_publish_report_hold_no_seed(
        self, fleet_csv, tmp_path, capsys
    ):
        """The noise seed is the curator's secret: the printed `method:`
        line and the publish report's `method` section are the same for
        two seeds, and neither seed's digits appear in them."""
        seeds = ("424242", "987654321")
        printed, methods = [], []
        for seed in seeds:
            common = ["-i", str(fleet_csv), "--signature-size", "3", "--seed", seed]
            assert main(["anonymize", "-o", str(tmp_path / "a.csv"), *common]) == 0
            (line,) = [
                line
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("  method:")
            ]
            printed.append(line.split(",")[0])  # timing follows the digest
            release = tmp_path / "p.csv"
            assert main(
                ["publish", "-o", str(release), "--chunk-size", "3", *common]
            ) == 0
            capsys.readouterr()
            report = json.loads((tmp_path / "p.csv.report.json").read_text())
            methods.append(report["method"])
        assert printed[0] == printed[1]
        assert "config digest" in printed[0]
        assert methods[0] == methods[1]
        assert "seed" not in methods[0]["params"]
        for seed in seeds:
            assert seed not in json.dumps([printed, methods])

    def test_seed_help_calls_it_the_curators_secret(self, capsys):
        for command in ("anonymize", "publish"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            # argparse wraps help to the terminal width.
            assert "curator's secret" in " ".join(capsys.readouterr().out.split())

    def test_index_settings_are_refused(self, fleet_csv, tmp_path, capsys):
        """The global stage always searches the paper's hierarchical
        grid: no flag or parameter picks another index or shape."""
        for command in ("anonymize", "publish"):
            with pytest.raises(SystemExit) as exited:
                main([command, "--help"])
            assert exited.value.code == 0
            assert "--index" not in capsys.readouterr().out
            argv = [command, "-i", str(fleet_csv), "-o", str(tmp_path / "x.csv")]
            with pytest.raises(SystemExit) as exited:
                main([*argv, "--index", "linear"])
            assert exited.value.code == 2
            capsys.readouterr()
            for name in ("index_backend", "levels", "granularity"):
                assert main([*argv, "--param", f"{name}=1"]) == 2
                err = capsys.readouterr().err
                assert f"unexpected keyword argument '{name}'" in err


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

    def test_method_batch_engine(self, fleet_csv, tmp_path, capsys, monkeypatch):
        """``--engine batch`` writes the serial engine's bytes: on the
        in-process branch the size rule picks for this fleet, and with
        the bound at 0 through the real process pool."""
        import repro.engine.batch as batch_module

        def run(engine: list[str]) -> bytes:
            out = tmp_path / "out.csv"
            code = main(
                [
                    "anonymize", "-i", str(fleet_csv), "-o", str(out),
                    "--method", "gl", "--signature-size", "3", "--seed", "4",
                    "--engine", *engine,
                ]
            )
            assert code == 0
            assert f"engine {engine[0]}" in capsys.readouterr().out
            return out.read_bytes()

        shards = []

        def spy(fn, items, **kwargs):
            shards.append(len(items))
            return real_map(fn, items, **kwargs)

        real_map = batch_module.parallel_map
        monkeypatch.setattr(batch_module, "parallel_map", spy)
        serial = run(["serial"])
        assert run(["batch", "--workers", "2"]) == serial
        assert shards == []
        monkeypatch.setattr(batch_module, "MIN_POINTS_PER_WORKER", 0)
        assert run(["batch", "--workers", "2"]) == serial
        assert shards == [8]  # 8 trajectories, 2 workers x 4 shards

    def test_serve_workers_help_reads_the_fork_bound(self, capsys, monkeypatch):
        """The help states ``MIN_POINTS_PER_WORKER``'s current value."""
        import repro.engine.batch as batch_module

        monkeypatch.setattr(batch_module, "MIN_POINTS_PER_WORKER", 12345)
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "a job under N x 12,345 points runs its local stage in process" in text

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
        "flag, value, parameter",
        [
            ("--hotspots", "0", "n_hotspots"),
            ("--rows", "0", "rows"),
            ("--cols", "-1", "cols"),
            ("--points", "0", "points_per_trajectory"),
            ("--objects", "-1", "n_objects"),
        ],
    )
    def test_bad_fleet_shape_is_a_clean_error(
        self, tmp_path, capsys, flag, value, parameter
    ):
        out = tmp_path / "fleet.csv"
        code = main(
            ["generate", "--objects", "4", "--points", "20", flag, value,
             "-o", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"repro generate: {parameter} must be at least ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_zero_klt_categories_is_a_clean_error(self, fleet_csv, tmp_path, capsys):
        code = main(
            ["anonymize", "-i", str(fleet_csv), "-o", str(tmp_path / "x.csv"),
             "--method", "klt", "--param", "n_categories=0"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro anonymize: n_categories must be at least 1")
        assert "Traceback" not in err

    def test_unknown_search_strategy_is_refused(self, fleet_csv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(
            ["anonymize", "-i", str(fleet_csv), "-o", str(out),
             "--param", "search_strategy=foo"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro anonymize: invalid parameters for method 'gl'")
        assert "'search_strategy'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["anonymize", "publish"])
    @pytest.mark.parametrize(
        "setting",
        [
            "search_strategy=top_down",
            "trajectory_selection=index",
            "global_first=true",
        ],
    )
    def test_retired_setting_is_refused(
        self, fleet_csv, tmp_path, capsys, command, setting
    ):
        out = tmp_path / "x.csv"
        code = main(
            [command, "-i", str(fleet_csv), "-o", str(out), "--param", setting]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"repro {command}: invalid parameters for method 'gl'")
        assert repr(setting.partition("=")[0]) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["anonymize", "publish"])
    def test_retired_strategy_flag_is_refused(
        self, fleet_csv, tmp_path, capsys, command
    ):
        with pytest.raises(SystemExit) as exited:
            main([command, "-i", str(fleet_csv), "-o", str(tmp_path / "x.csv"),
                  "--strategy", "top_down"])
        err = capsys.readouterr().err
        assert exited.value.code == 2
        assert "unrecognized arguments: --strategy top_down" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag",
        [
            pytest.param("anonymize", ["--executor", "process"], id="anonymize"),
            pytest.param("publish", ["--executor", "process"], id="publish"),
            pytest.param("serve", ["--executor", "process"], id="serve"),
            # publish has one parallelism axis, --publish-workers.
            pytest.param("publish", ["--engine", "batch"], id="publish-engine"),
            pytest.param("publish", ["--workers", "2"], id="publish-workers"),
        ],
    )
    def test_retired_executor_flag_is_refused(
        self, fleet_csv, tmp_path, capsys, command, flag
    ):
        """The batch engine always maps on processes; no flag picks
        the pool kind, and publish takes no batch-engine flags."""
        out = tmp_path / "x.csv"
        io_args = [] if command == "serve" else ["-i", str(fleet_csv), "-o", str(out)]
        with pytest.raises(SystemExit) as exited:
            main([command, *io_args, *flag])
        err = capsys.readouterr().err
        assert exited.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "x.csv.tmp").exists()

    @pytest.mark.parametrize("command", ["anonymize", "publish"])
    @pytest.mark.parametrize("model", ["gl", "pureg"])
    @pytest.mark.parametrize("epsilon", ["inf", "1e-320"])
    def test_epsilon_without_finite_laplace_scale_is_refused(
        self, fleet_csv, tmp_path, capsys, command, model, epsilon
    ):
        out = tmp_path / "x.csv"
        code = main(
            [command, "-i", str(fleet_csv), "-o", str(out), "--model", model,
             "--epsilon", epsilon, "--seed", "1"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"repro {command}: epsilon")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["anonymize", "publish"])
    @pytest.mark.parametrize("model", ["pureg", "purel"])
    def test_overflowing_laplace_draw_is_a_clean_error(
        self, tmp_path, capsys, command, model
    ):
        """At epsilon=1e-308 the scale is finite but draws overflow to
        infinity, which no count can be rounded from."""
        fleet = tmp_path / "fleet.csv"
        assert main(
            ["generate", "--objects", "12", "--points", "40", "--seed", "1",
             "-o", str(fleet)]
        ) == 0
        capsys.readouterr()
        out = tmp_path / "x.csv"
        code = main(
            [command, "-i", str(fleet), "-o", str(out), "--model", model,
             "--epsilon", "1e-308", "--seed", "1"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(
            f"repro {command}: epsilon=1e-308 is too small: a Laplace draw "
            "at scale 1e+308 overflowed"
        )
        assert "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "x.csv.tmp").exists()

    @pytest.mark.parametrize("flag", ["--workers", "--publish-workers"])
    def test_negative_serve_pool_is_refused_at_boot(
        self, tmp_path, capsys, flag
    ):
        code = main(
            ["serve", "--budget-root", str(tmp_path / "budgets"),
             "--spool", str(tmp_path / "spool"), "--port", "0", flag, "-1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "serving on" not in captured.out
        assert captured.err.startswith("repro serve: ")
        assert "must be non-negative, got -1" in captured.err
        assert "Traceback" not in captured.err

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


class TestCoordinateBounds:
    """Values whose squared differences could overflow float64 are
    refused where the CSV enters, before any stage runs."""

    @pytest.mark.parametrize("command", ["anonymize", "publish"])
    @pytest.mark.parametrize("field", ["t", "x", "y"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e200"])
    def test_unplaceable_value_is_refused_with_its_line(
        self, fleet_csv, tmp_path, capsys, command, field, value
    ):
        lines = fleet_csv.read_text().splitlines()
        object_id, *fields = lines[4].split(",")
        fields["txy".index(field)] = value
        lines[4] = ",".join([object_id, *fields])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        code = main([command, "-i", str(bad), "-o", str(out), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(
            f"repro {command}: {bad}:5: {field}='{value}' is not finite or exceeds"
        )
        assert "Traceback" not in err
        # No output, no staging file, no report.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "fleet.csv"]

    @pytest.mark.parametrize("model", ["gl", "pureg", "purel"])
    def test_fleet_at_the_bound_anonymizes(self, fleet_csv, tmp_path, model):
        """The largest accepted magnitude, on both axes and both signs,
        still gets through the global and local stages."""
        fleet = read_csv(fleet_csv)
        peak = max(
            max(abs(p.x), abs(p.y)) for trajectory in fleet for p in trajectory
        )

        def stretch(v):
            if abs(v) == peak:
                return math.copysign(MAX_ABS_COORDINATE, v)
            return v * (MAX_ABS_COORDINATE / peak)

        scaled = TrajectoryDataset(
            Trajectory(
                trajectory.object_id,
                [Point(stretch(p.x), -stretch(p.y), p.t) for p in trajectory],
            )
            for trajectory in fleet
        )
        edge = tmp_path / "edge.csv"
        write_csv(scaled, edge)
        assert max(
            max(abs(p.x), abs(p.y)) for trajectory in read_csv(edge) for p in trajectory
        ) == MAX_ABS_COORDINATE
        out = tmp_path / "out.csv"
        code = main(
            ["anonymize", "-i", str(edge), "-o", str(out), "--model", model,
             "--signature-size", "3", "--seed", "1"]
        )
        assert code == 0
        assert len(read_csv(out)) == len(fleet)


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

    def test_attack_kind_choices_are_the_linkage_kinds(self):
        """The parser spells the kinds out so it imports no attack code;
        they must stay the ones the linkage attack accepts."""
        assert ATTACK_KINDS == SIGNATURE_KINDS

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
