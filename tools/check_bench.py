#!/usr/bin/env python
"""The benchmark regression gate over the committed history.

Loads ``BENCH_history.jsonl`` (one versioned record per line, see
``repro.bench``), and for every ``(bench, scale)`` partition compares
the newest record against the sliding baseline window of the records
before it. Any tracked key classified as a significant degradation
fails the gate; minor degradations (and keys without a baseline yet)
only warn. Records from different scales are never compared — that is
the point of the partitioning.

Usage::

    PYTHONPATH=src python tools/check_bench.py             # CI gate
    PYTHONPATH=src python tools/check_bench.py --json      # machine form
    PYTHONPATH=src python tools/check_bench.py \
        --history BENCH_history.smoke.jsonl --warn-only    # smoke job

Exit codes: 0 clean (or ``--warn-only``), 1 significant degradation,
2 the checker itself failed (missing/corrupt history). CI runs this
enforcing as the ``bench`` section of the unified
``tools/check_static.py`` gate, and warn-only over the smoke history
in the ``bench-smoke`` job (shared-runner timings are noisy).

To bless an intentional regression, append the run that exhibits it
to the history by running the bench suite
(``REPRO_BENCH_SCALE=paper python -m pytest benchmarks``) — once
recorded it joins the baseline window. A missing history is created
the same way. See ``docs/benchmarks.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.jsonl"
DEFAULT_WINDOW = 5


def gate(
    history_path: Path | str | None = None,
    window: int = DEFAULT_WINDOW,
    minor: float = 0.05,
    significant: float = 0.15,
):
    """One comparison per (bench, scale) partition of the history.

    Raises ``repro.bench.HistoryError`` (or ``ValueError`` for bad
    thresholds) — the caller decides whether that is exit 2 or a
    section error.
    """
    from repro.bench import BenchHistory, Thresholds

    history = BenchHistory(history_path or DEFAULT_HISTORY)
    thresholds = Thresholds(minor=minor, significant=significant)
    return history.compare_all(window=window, thresholds=thresholds)


def problems_of(comparison) -> list[str]:
    """The gate-failing lines of one comparison."""
    return [
        f"{comparison.bench} @ {comparison.scale_key}: {shift.render()}"
        for shift in comparison.significant_degradations
    ]


def warnings_of(comparison) -> list[str]:
    """The non-failing notices of one comparison."""
    notices = [
        f"{comparison.bench} @ {comparison.scale_key}: {shift.render()}"
        for shift in comparison.minor_degradations
    ]
    notices.extend(
        f"{comparison.bench} @ {comparison.scale_key}: {key}: "
        f"no baseline yet"
        for key in comparison.new_keys
    )
    notices.extend(
        f"{comparison.bench} @ {comparison.scale_key}: {key}: "
        f"in baseline but absent from candidate"
        for key in comparison.missing_keys
    )
    return notices


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="check_bench")
    parser.add_argument(
        "--history",
        default=None,
        metavar="JSONL",
        help=f"record store to gate (default: {DEFAULT_HISTORY})",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        metavar="N",
        help="baseline window: the last N same-scale records",
    )
    parser.add_argument(
        "--minor", type=float, default=0.05, metavar="FRACTION",
        help="relative shift that warns",
    )
    parser.add_argument(
        "--significant", type=float, default=0.15, metavar="FRACTION",
        help="relative shift that fails",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report degradations but always exit 0/2 (smoke timings "
        "on shared runners are noisy)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        comparisons = gate(
            history_path=args.history,
            window=args.window,
            minor=args.minor,
            significant=args.significant,
        )
    except Exception as exc:  # checker crash, not a finding: exit 2
        print(f"check_bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    failing = [c for c in comparisons if not c.clean]
    if args.json:
        print(
            json.dumps(
                {
                    "version": 1,
                    "clean": not failing,
                    "warn_only": args.warn_only,
                    "comparisons": [c.to_dict() for c in comparisons],
                },
                indent=2,
            )
        )
    else:
        for comparison in comparisons:
            print(comparison.render_human())
        if failing:
            names = ", ".join(
                f"{c.bench} @ {c.scale_key}" for c in failing
            )
            verdict = "warn-only, not failing" if args.warn_only else "FAIL"
            print(f"bench gate: significant degradation in {names} "
                  f"({verdict})")
        else:
            print("bench gate clean")
    if failing and not args.warn_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
