"""The global stage's index never changes output: same bytes.

Every index answers kNN in the one ``(distance, sid)`` order under the
one distance kernel, and the local stage always edits over a flat
per-trajectory store, so ``repro anonymize`` must write the same bytes
whichever shared index the global stage searches. The default (the
paper's hierarchical grid at 10 levels) is compared with the
brute-force :class:`~repro.index.linear.LinearSegmentIndex` and a
coarse 3-level grid, substituted through
:class:`~repro.core.modification.InterTrajectoryModifier`'s
``index_factory`` seam. Driven through ``repro.cli.main`` in-process
on small seeded fleets, the way a user would compare two runs with
``cmp``.
"""

import functools

import pytest

from repro.cli import main
from repro.core import pipeline
from repro.core.modification import InterTrajectoryModifier
from repro.index.hierarchical import HierarchicalGridIndex
from repro.index.linear import LinearSegmentIndex

VARIANTS = {
    "linear": lambda extent: LinearSegmentIndex(),
    "levels=3": lambda extent: HierarchicalGridIndex(extent, levels=3),
}


@pytest.fixture(scope="module", params=[1, 2], ids=["fleet1", "fleet2"])
def fleet_csv(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet") / "fleet.csv"
    assert main([
        "generate", "--objects", "40", "--points", "80",
        "--seed", str(request.param), "-o", str(path),
    ]) == 0
    return path


@pytest.mark.parametrize("model", ["gl", "pureg", "purel"])
def test_index_settings_do_not_change_output_bytes(
    fleet_csv, model, tmp_path, monkeypatch
):
    def anonymize(name):
        out = tmp_path / f"{name}.csv"
        assert main([
            "anonymize", "-i", str(fleet_csv), "-o", str(out),
            "--model", model, "--seed", "5",
        ]) == 0
        return out.read_bytes()

    default = anonymize("default")
    for name, factory in VARIANTS.items():
        built = []

        def counted(extent, factory=factory, built=built):
            built.append(extent)
            return factory(extent)

        with monkeypatch.context() as patch:
            patch.setattr(
                pipeline,
                "InterTrajectoryModifier",
                functools.partial(InterTrajectoryModifier, counted),
            )
            assert anonymize(name) == default, name
        # PureL has no global stage, so it never builds the shared index.
        assert len(built) == (model != "purel"), name
