"""Tests for tools/check_api.py (the public-API surface snapshot)."""

import copy
import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_api():
    spec = importlib.util.spec_from_file_location(
        "check_api", REPO_ROOT / "tools" / "check_api.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_api"] = module
    spec.loader.exec_module(module)
    return module


class TestSnapshot:
    def test_checked_in_snapshot_matches_live_surface(self, check_api, capsys):
        """The CI api job: the snapshot must always be current."""
        assert check_api.main([]) == 0
        assert "checked" in capsys.readouterr().out

    def test_surface_covers_public_modules(self, check_api):
        surface = check_api.build_surface()
        assert set(surface) == {*check_api.PUBLIC_MODULES, check_api.METHODS_SECTION}
        assert "MethodSpec" in surface["repro.api"]
        assert "BatchAnonymizer" in surface["repro.engine"]
        assert "DatasetRegistry" in surface["repro.data"]
        assert "run" in surface["repro.api"]

    def test_signatures_are_recorded(self, check_api):
        surface = check_api.build_surface()
        assert surface["repro.api"]["run"].startswith("function(")
        batch = surface["repro.engine"]["BatchAnonymizer"]
        assert batch["kind"] == "class"
        assert "anonymize_with_report" in batch["members"]

    def test_dataclass_fields_are_recorded(self, check_api):
        """A data field is surface too: ``Point.loc`` is stored, not a
        property, and must stay pinned alongside ``x``, ``y`` and ``t``."""
        point = check_api.build_surface()["repro"]["Point"]["members"]
        assert {name: point[name] for name in ("x", "y", "t", "loc")} == dict.fromkeys(
            ("x", "y", "t", "loc"), "field"
        )
        assert point["coord"] == "property"


class TestDiff:
    def test_removal_detected(self, check_api):
        actual = check_api.build_surface()
        expected = copy.deepcopy(actual)
        del actual["repro.api"]["run"]
        problems = check_api.diff_surfaces(expected, actual)
        assert any("removed from public API" in p for p in problems)

    def test_signature_change_detected(self, check_api):
        actual = check_api.build_surface()
        expected = copy.deepcopy(actual)
        actual["repro.api"]["run"] = "function(everything_changed)"
        problems = check_api.diff_surfaces(expected, actual)
        assert any("repro.api.run" in p for p in problems)

    def test_method_signature_change_detected(self, check_api):
        """A built-in method's --param contract is snapshotted too, so
        dropping or adding a parameter is reported."""
        actual = check_api.build_surface()
        expected = copy.deepcopy(actual)
        assert "signature_size" in actual["methods"]["gl"]
        actual["methods"]["gl"] = "function(epsilon: 'float' = 1.0)"
        problems = check_api.diff_surfaces(expected, actual)
        assert problems == [
            f"methods.gl: {expected['methods']['gl']!r} -> "
            f"\"function(epsilon: 'float' = 1.0)\""
        ]

    def test_undeclared_addition_detected(self, check_api):
        actual = check_api.build_surface()
        expected = copy.deepcopy(actual)
        actual["repro.api"]["sneaky"] = "function()"
        problems = check_api.diff_surfaces(expected, actual)
        assert any("not in snapshot" in p for p in problems)

    def test_method_level_change_pinpointed(self, check_api):
        actual = check_api.build_surface()
        expected = copy.deepcopy(actual)
        actual["repro.engine"]["BatchAnonymizer"]["members"][
            "anonymize_with_report"
        ] = "method(self)"
        problems = check_api.diff_surfaces(expected, actual)
        assert any("BatchAnonymizer.anonymize_with_report" in p for p in problems)

    def test_identical_surfaces_clean(self, check_api):
        actual = check_api.build_surface()
        assert check_api.diff_surfaces(copy.deepcopy(actual), actual) == []
