"""The global stage's index settings are speed knobs: same bytes.

Every index backend answers kNN in the one ``(distance, sid)`` order
under the one distance kernel, and the local stage always edits over a
flat per-trajectory store, so ``repro anonymize`` must write the same
bytes whichever shared index the global stage is given. Driven through
``repro.cli.main`` in-process on small seeded fleets, the way a user
would compare two runs with ``cmp``.
"""

import pytest

from repro.cli import main

VARIANTS = (
    ["--param", "index_backend=linear"],
    ["--param", "index_backend=rtree"],
    ["--param", "index_backend=uniform"],
    ["--param", "levels=3"],
)


@pytest.fixture(scope="module", params=[1, 2], ids=["fleet1", "fleet2"])
def fleet_csv(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet") / "fleet.csv"
    assert main([
        "generate", "--objects", "40", "--points", "80",
        "--seed", str(request.param), "-o", str(path),
    ]) == 0
    return path


@pytest.mark.parametrize("model", ["gl", "pureg", "purel"])
def test_index_settings_do_not_change_output_bytes(fleet_csv, model, tmp_path):
    def anonymize(name, extra):
        out = tmp_path / f"{name}.csv"
        assert main([
            "anonymize", "-i", str(fleet_csv), "-o", str(out),
            "--model", model, "--seed", "5", *extra,
        ]) == 0
        return out.read_bytes()

    default = anonymize("default", [])
    for i, extra in enumerate(VARIANTS):
        assert anonymize(f"variant{i}", extra) == default, extra
