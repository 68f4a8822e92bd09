"""Tests for the docs↔CLI consistency checker (tools/check_docs.py)."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_docs"] = module
    spec.loader.exec_module(module)
    return module


class TestSpec:
    def test_covers_every_subcommand(self, check_docs):
        spec = check_docs.build_spec()
        assert set(spec) == {
            "generate", "ingest", "methods", "anonymize", "publish",
            "attack", "evaluate", "experiment", "check", "bench",
            "serve",
        }
        assert "--tenant" in spec["serve"]["options"]
        assert "--budget-root" in spec["serve"]["options"]
        assert "--engine" in spec["anonymize"]["options"]
        assert "--method" in spec["anonymize"]["options"]
        assert "--param" in spec["anonymize"]["options"]
        assert "--dataset" in spec["experiment"]["options"]
        assert "--split" in spec["publish"]["options"]
        assert "--chunk-size" in spec["publish"]["options"]


class TestCheckCommand:
    def test_valid_command_passes(self, check_docs):
        spec = check_docs.build_spec()
        tokens = ["repro", "anonymize", "-i", "a.csv", "-o", "b.csv",
                  "--model", "gl"]
        assert check_docs.check_command(tokens, spec) == []

    def test_stale_flag_reported(self, check_docs):
        spec = check_docs.build_spec()
        tokens = ["repro", "anonymize", "--no-such-flag"]
        problems = check_docs.check_command(tokens, spec)
        assert any("--no-such-flag" in p for p in problems)

    def test_unknown_subcommand_reported(self, check_docs):
        spec = check_docs.build_spec()
        assert check_docs.check_command(["repro", "frobnicate"], spec)

    def test_bad_positional_choice_reported(self, check_docs):
        spec = check_docs.build_spec()
        problems = check_docs.check_command(
            ["repro", "experiment", "table9"], spec
        )
        assert any("table9" in p for p in problems)

    def test_long_flag_value_not_mistaken_for_positional(self, check_docs):
        spec = check_docs.build_spec()
        # 'smoke' is --preset's value, not the choice-constrained target.
        tokens = ["repro", "experiment", "--preset", "smoke", "fig4"]
        assert check_docs.check_command(tokens, spec) == []

    def test_multi_value_flag_arity_respected(self, check_docs):
        spec = check_docs.build_spec()
        tokens = ["repro", "ingest", "-i", "raw", "--name", "d",
                  "--origin", "39.9", "116.4", "--bbox", "0", "0", "1", "1"]
        assert check_docs.check_command(tokens, spec) == []

    @pytest.mark.parametrize(
        "selection, name",
        [
            ([], "index_backend"),
            (["--model", "purel"], "levels"),
            (["--method", "w4m"], "radius"),
            (["--method=rsc"], "k"),
        ],
    )
    def test_unknown_param_name_reported(self, check_docs, selection, name):
        spec = check_docs.build_spec()
        for command in ("anonymize", "publish"):
            tokens = ["repro", command, "-i", "a.csv", *selection,
                      "--param", f"{name}=1"]
            problems = check_docs.check_command(tokens, spec)
            assert len(problems) == 1
            assert f"has no parameter {name!r}" in problems[0]
            equals_form = [*tokens[:-2], f"--param={name}=1"]
            assert check_docs.check_command(equals_form, spec) == problems

    def test_declared_param_names_pass(self, check_docs):
        spec = check_docs.build_spec()
        for tokens in (
            ["repro", "anonymize", "--param", "candidate_source=wave"],
            ["repro", "anonymize", "--model", "pureg", "--param",
             "signature_size=4"],
            ["repro", "publish", "--method", "rsc", "--param", "radius=500"],
            # --method wins over --model.
            ["repro", "anonymize", "--model", "gl", "--method", "w4m",
             "--param", "k=10"],
        ):
            assert check_docs.check_command(tokens, spec) == [], tokens

    def test_unknown_method_reported_for_params(self, check_docs):
        spec = check_docs.build_spec()
        problems = check_docs.check_command(
            ["repro", "anonymize", "--method", "nope", "--param", "k=1"], spec
        )
        assert any("unknown method 'nope'" in p for p in problems)

    def test_equals_form_consumes_no_extra_token(self, check_docs):
        spec = check_docs.build_spec()
        tokens = ["repro", "experiment", "--preset=smoke", "fig4"]
        assert check_docs.check_command(tokens, spec) == []


class TestIterDocCommands:
    def test_only_fenced_blocks_scanned(self, check_docs, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "prose repro anonymize --stale\n"
            "```bash\n"
            "$ repro generate --objects 5 -o out.csv\n"
            "repro evaluate -i a.csv \\\n"
            "  -a b.csv\n"
            "```\n"
        )
        commands = list(check_docs.iter_doc_commands(doc))
        assert [tokens[1] for _, tokens in commands] == ["generate", "evaluate"]
        # The continuation line merged into one invocation.
        assert commands[1][1] == ["repro", "evaluate", "-i", "a.csv",
                                  "-a", "b.csv"]

    def test_repo_docs_are_clean(self, check_docs, capsys):
        assert check_docs.main([]) == 0
        assert "stale" not in capsys.readouterr().err

    def test_main_flags_stale_docs(self, check_docs, tmp_path, capsys):
        doc = tmp_path / "stale.md"
        doc.write_text("```\nrepro anonymize --bogus\n```\n")
        assert check_docs.main([str(doc)]) == 1
        assert "--bogus" in capsys.readouterr().err
