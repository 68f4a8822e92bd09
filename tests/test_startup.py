"""The start-up contract: each ``repro`` command imports what it runs.

Every command runs in a fresh interpreter that reports the modules it
loaded (``docs/architecture.md``, "Start-up"). The package exports are
lazy (PEP 562), so the same checks pin that every exported name still
resolves to the object its defining module holds.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
REPO = SRC.parent

#: Runs ``repro.cli.main(argv)`` and writes its exit code and the
#: names in ``sys.modules`` to the file named by the first argument.
PROBE = """
import json, sys
from repro.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""


def loaded_modules(tmp_path, *argv):
    """``(exit code, module names)`` of ``repro <argv>`` in a new process."""
    report = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", PROBE, str(report), *map(str, argv)],
        cwd=tmp_path, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    result = json.loads(report.read_text())
    return result["code"], set(result["modules"])


def under(modules, *packages):
    """The loaded modules that are one of ``packages`` or inside one."""
    return sorted(
        name for name in modules
        for package in packages
        if name == package or name.startswith(package + ".")
    )


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "fleet.csv"
    code, _ = loaded_modules(
        path.parent, "generate", "--objects", 12, "--points", 40, "--seed", 1,
        "-o", path,
    )
    assert code == 0
    return path


class TestCommandImports:
    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--objects", 5, "--points", 20, "-o", "f.csv"),
            ("methods",),
            ("methods", "--verbose"),
            ("check", "clean.py"),
            ("bench", "report", "--history", REPO / "BENCH_history.jsonl"),
        ],
        ids=["generate", "methods", "methods-verbose", "check", "bench-report"],
    )
    def test_light_commands_load_no_numpy_and_no_engine(self, tmp_path, argv):
        (tmp_path / "clean.py").write_text("VALUE = 1\n")
        code, modules = loaded_modules(tmp_path, *argv)
        assert code in (0, 1)  # bench report exits 1 on a degraded key
        assert "numpy" not in modules
        assert under(modules, "repro.core", "repro.index", "repro.engine") == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("anonymize", "--seed", 1),
            ("anonymize", "--seed", 1, "--engine", "batch", "--workers", 2),
            ("publish", "--seed", 1, "--chunk-size", 5),
        ],
        ids=["anonymize", "anonymize-batch", "publish"],
    )
    def test_releases_load_no_evaluation_layers(self, fleet, tmp_path, argv):
        command, *flags = argv
        code, modules = loaded_modules(
            tmp_path, command, "-i", fleet, "-o", "out.csv", *flags
        )
        assert code == 0
        assert under(
            modules,
            "repro.datagen",
            "repro.attacks",
            "repro.metrics",
            "repro.serve",
            "repro.experiments",
            "repro.index.hierarchical",
        ) == []
        if command == "anonymize":
            assert "repro.engine.publish" not in modules


PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


class TestLazyExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        exports = module._EXPORTS
        assert sorted(module.__all__) == sorted(
            name for names in exports.values() for name in names
        )
        listed = dir(module)
        for defining, names in exports.items():
            source = importlib.import_module(defining)
            for name in names:
                assert name in listed
                assert getattr(module, name) is getattr(source, name)
        # `from package import submodule` and `getattr(..., default)`
        # rely on a miss being an AttributeError, which hasattr expects.
        assert not hasattr(module, "no_such_name")
