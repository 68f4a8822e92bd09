"""Start one ``repro`` CLI process for the benchmark.

Usage: ``python3 perfbench/bootstrap.py [--trace-out=FILE] <repro args>``

Puts the checkout's ``src`` on the import path and calls
``repro.cli.main(argv)``. With ``--trace-out`` it first installs the
span/count wrappers of :mod:`tracer` and writes the recorded spans and
counts to ``FILE`` when the command returns.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv and argv[0].startswith("--trace-out="):
        trace_out = argv.pop(0).partition("=")[2]
    tracer = None
    if trace_out:
        import tracer as tracing

        tracer = tracing.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
