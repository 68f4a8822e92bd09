"""Argv fuzz through ``repro.cli.main``: every input ends in exit 0 or 2.

``main`` is the CLI's one error boundary: a bad value must come back as
``repro <command>: <message>`` and exit 2 (argparse's own refusals are
``SystemExit(2)``), never as an escaped exception. The draw covers
fleet shapes at and below their limits and one ``--param NAME=VALUE``
per run, NAME from any registered method's signature and VALUE a small
set of wrong-typed and out-of-range JSON values. Values at the scale of
a tiny ε are left out: they are valid input that makes a run slow, not
a clean-error case.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import method_info, method_names
from repro.cli import main

FLEET_FLAGS = ("--objects", "--points", "--rows", "--cols", "--hotspots")
VALUES = ("0", "-1", "2.5", '"x"', "null", "true", "[]")
PARAMS = [
    (method, name)
    for method in method_names()
    for name in method_info(method).signature.parameters
]

generate_argv = st.builds(
    lambda flag, value: ["generate", "--objects", "4", "--points", "20", flag, value],
    st.sampled_from(FLEET_FLAGS),
    st.sampled_from(("-1", "0", "1", "2")),
)
anonymize_argv = st.builds(
    lambda param, value: [
        "anonymize", "--method", param[0], "--param", f"{param[1]}={value}",
    ],
    st.sampled_from(PARAMS),
    st.sampled_from(VALUES),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    assert main([
        "generate", "--objects", "12", "--points", "40", "--seed", "1",
        "-o", str(path / "fleet.csv"),
    ]) == 0
    return path


@settings(max_examples=60, deadline=None)
@given(argv=st.one_of(generate_argv, anonymize_argv))
@example(argv=["generate", "--objects", "4", "--points", "20", "--hotspots", "0"])
@example(argv=["anonymize", "--method", "klt", "--param", "n_categories=0"])
def test_every_argv_exits_zero_or_two(workdir, argv):
    if argv[0] == "generate":
        argv = [*argv, "-o", str(workdir / "generated.csv")]
    else:
        argv = [
            *argv, "-i", str(workdir / "fleet.csv"),
            "-o", str(workdir / "anonymized.csv"),
        ]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exited:
            code = exited.code
    assert code in (0, 2), argv
