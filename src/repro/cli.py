"""Command-line interface.

Subcommands::

    repro generate   synthesize a fleet and write it as CSV
    repro ingest     preprocess a raw dataset into a cached artifact
    repro methods    list every registered anonymization method
    repro anonymize  apply any registered method to a dataset
    repro publish    publish a chunked dataset as one ε-DP release
    repro attack     run the linkage attack between two datasets
    repro evaluate   compute utility metrics between two datasets
    repro experiment regenerate a table/figure of the paper
    repro check      run the project's static-analysis rules
    repro bench      benchmark history: compare, report
    repro serve      run the anonymization service daemon

Dataset arguments accept a planar CSV path, a preprocessed-artifact
directory, or an ingested registry name (see ``docs/data.md``).

``anonymize`` is a thin shell over :func:`repro.api.run`: pick a
method with ``--model`` (any kind ``repro methods`` lists: the
paper's GL/PureG/PureL and every baseline), tune it with the shared
flags plus repeatable ``--param name=value`` overrides.

Example session::

    repro generate --objects 50 --points 150 -o fleet.csv
    repro anonymize -i fleet.csv -o private.csv --model gl --epsilon 1.0
    repro anonymize -i fleet.csv -o synthetic.csv --model adatrace
    repro attack -i fleet.csv -a private.csv --kind spatial
    repro evaluate -i fleet.csv -a private.csv
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.api.spec import MethodSpec

# Each command imports what it runs when it runs, from the module that
# defines it, so `repro generate` never loads numpy or the modification
# engine (docs/architecture.md, "Start-up").

#: ``repro.attacks.linkage.SIGNATURE_KINDS``, spelled out so building
#: the parser imports no attack code.
ATTACK_KINDS = ("spatial", "temporal", "spatiotemporal", "sequential")


def _add_method_args(parser: argparse.ArgumentParser) -> None:
    """The shared method-selection flags of ``anonymize``/``publish``.

    One definition so the two subcommands (both feeding
    :func:`_build_spec`) can never drift apart.
    """
    parser.add_argument(
        "--model",
        default="gl",
        metavar="KIND",
        help="the method: any kind `repro methods` lists (default: gl)",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="NAME=VALUE",
        help="extra method parameter (repeatable); values are parsed "
        "as JSON, falling back to plain strings",
    )
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--signature-size", type=int, default=10)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="noise seed: the curator's secret, like a key. The same "
        "seed replays the same release; never ship it with one (reports "
        "and the printed digest leave it out)",
    )


class _ForkBound:
    """``repro.engine.batch.MIN_POINTS_PER_WORKER`` as help text.

    argparse expands ``%(name)s`` in a help string from the action's
    attributes only when help is printed, so the engine (about 40 ms of
    imports) stays unloaded for commands that never use it.
    """

    def __str__(self) -> str:
        from repro.engine.batch import MIN_POINTS_PER_WORKER

        return f"{MIN_POINTS_PER_WORKER:,}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Frequency-based DP randomization for spatial trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="synthesize a taxi fleet")
    generate.add_argument("--objects", type=int, default=50)
    generate.add_argument("--points", type=int, default=150)
    generate.add_argument("--rows", type=int, default=16)
    generate.add_argument("--cols", type=int, default=16)
    generate.add_argument("--hotspots", type=int, default=12)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("-o", "--output", required=True)

    ingest = sub.add_parser(
        "ingest",
        help="preprocess a raw dataset (T-Drive or planar CSV) into a "
        "cached artifact",
    )
    ingest.add_argument(
        "-i", "--source", default=None,
        help="raw source: a T-Drive file/directory or a planar CSV "
        "(not needed with --export/--import)",
    )
    ingest.add_argument(
        "--name", default=None,
        help="registry name of the dataset (accepts name@version with "
        "--export)",
    )
    ingest.add_argument(
        "--export",
        default=None,
        metavar="TAR",
        help="pack the named artifact into TAR (a .tar.gz with a "
        "sha256 checksum in its meta.json) instead of ingesting",
    )
    ingest.add_argument(
        "--import",
        dest="import_archive",
        default=None,
        metavar="TAR",
        help="install an exported artifact tarball into the registry "
        "(checksum-verified) instead of ingesting",
    )
    ingest.add_argument(
        "--root",
        default=None,
        help="registry root (default: $REPRO_DATA_ROOT or "
        "~/.cache/repro/datasets)",
    )
    ingest.add_argument(
        "--format", choices=("auto", "planar", "tdrive"), default="auto"
    )
    ingest.add_argument(
        "--origin",
        nargs=2,
        type=float,
        metavar=("LAT", "LON"),
        help="projection origin for T-Drive sources (default: mean "
        "coordinate, computed in an extra pass)",
    )
    ingest.add_argument(
        "--gap", type=float, default=1800.0, metavar="SECONDS",
        help="split trajectories into trips at gaps exceeding this",
    )
    ingest.add_argument(
        "--min-points", type=int, default=2, metavar="N",
        help="drop trips shorter than N points",
    )
    ingest.add_argument(
        "--bbox",
        nargs=4,
        type=float,
        metavar=("MIN_X", "MIN_Y", "MAX_X", "MAX_Y"),
        help="keep only samples inside this planar box (metres)",
    )
    ingest.add_argument(
        "--resample-dt", type=float, default=None, metavar="SECONDS",
        help="resample trips to a fixed interval",
    )
    ingest.add_argument(
        "--snap", type=float, default=None, metavar="METRES",
        help="snap coordinates to a lattice so repeat visits collapse",
    )
    ingest.add_argument(
        "--force", action="store_true",
        help="re-ingest even when a matching artifact is cached",
    )

    methods = sub.add_parser(
        "methods", help="list every registered anonymization method"
    )
    methods.add_argument(
        "-v", "--verbose", action="store_true",
        help="also list each method's parameters and defaults",
    )

    anonymize = sub.add_parser("anonymize", help="anonymize a dataset")
    anonymize.add_argument(
        "-i", "--input", required=True,
        help="planar CSV, artifact directory, or ingested dataset name",
    )
    anonymize.add_argument("-o", "--output", required=True)
    _add_method_args(anonymize)
    anonymize.add_argument(
        "--engine",
        choices=("serial", "batch"),
        default="serial",
        help="'batch' shards the local stage across a worker pool "
        "(output is byte-identical to serial for the same seed)",
    )
    anonymize.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="process-pool size for --engine batch; 0 = one per CPU core",
    )

    publish = sub.add_parser(
        "publish",
        help="publish a chunked dataset as one ε-DP release (shared "
        "TF estimate + composition ledger)",
    )
    publish.add_argument(
        "-i", "--input", required=True,
        help="planar CSV, artifact directory, or ingested dataset name",
    )
    publish.add_argument(
        "-o", "--output", required=True,
        help="merged anonymized CSV (written chunk by chunk)",
    )
    publish.add_argument(
        "--report",
        default=None,
        metavar="JSON",
        help="merged publish report with the composition ledger "
        "(default: <output>.report.json)",
    )
    publish.add_argument(
        "--chunk-size", type=int, default=500, metavar="N",
        help="trajectories per chunk (bounds peak memory)",
    )
    publish.add_argument(
        "--split",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fraction of ε spent on the shared TF estimate (pass 1); "
        "the rest funds the per-chunk local stage (default: the "
        "method's own split)",
    )
    publish.add_argument(
        "--publish-workers",
        type=int,
        default=1,
        metavar="N",
        help="realise this many spilled chunks at once in pass 2 "
        "(0 = one per core; output is byte-identical for any value)",
    )
    publish.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="where pass 1 stages parsed chunks (default: a private "
        "tempdir, cleaned up when the publish finishes)",
    )
    _add_method_args(publish)

    attack = sub.add_parser("attack", help="linkage attack between datasets")
    attack.add_argument("-i", "--original", required=True)
    attack.add_argument("-a", "--anonymized", required=True)
    attack.add_argument("--kind", choices=ATTACK_KINDS + ("all",), default="all")
    attack.add_argument("--cell", type=float, default=250.0)

    evaluate = sub.add_parser("evaluate", help="utility metrics between datasets")
    evaluate.add_argument("-i", "--original", required=True)
    evaluate.add_argument("-a", "--anonymized", required=True)

    experiment = sub.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument(
        "target", choices=("table2", "fig4", "fig5", "publish")
    )
    experiment.add_argument(
        "--preset", choices=("smoke", "default", "large"), default="default"
    )
    experiment.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="chunk size for the publish experiment (default: quarter "
        "of the dataset)",
    )
    experiment.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan the sweep across N worker processes (1 = serial)",
    )
    experiment.add_argument(
        "--dataset",
        default=None,
        metavar="REF",
        help="evaluate on an ingested real dataset (name or path) "
        "instead of the synthetic fleet",
    )

    check = sub.add_parser(
        "check",
        help="run the determinism and lock-order static analyzer "
        "(see docs/analysis.md)",
    )
    check.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro, "
        "falling back to the installed repro package)",
    )
    check.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (json emits the machine-readable schema)",
    )

    bench = sub.add_parser(
        "bench",
        help="benchmark history: compare against the baseline window, "
        "report shift classifications (see docs/benchmarks.md)",
    )
    bench.add_argument(
        "action",
        choices=("compare", "report"),
        help="compare: gate the newest record of one bench/scale; "
        "report: classify every bench/scale partition",
    )
    bench.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        metavar="JSONL",
        help="the append-only record store (default: BENCH_history.jsonl)",
    )
    bench.add_argument(
        "--bench",
        dest="bench_name",
        default="engine",
        metavar="NAME",
        help="bench name to compare (default: engine)",
    )
    bench.add_argument(
        "--scale",
        default=None,
        metavar="KEY",
        help="scale key (paper-500x300-m10) or family (paper/smoke); "
        "required only when the bench has records at several scales",
    )
    bench.add_argument(
        "--window",
        type=int,
        default=5,
        metavar="N",
        help="baseline window: the last N same-scale records",
    )
    bench.add_argument(
        "--minor",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="relative shift that counts as a minor change (warns)",
    )
    bench.add_argument(
        "--significant",
        type=float,
        default=0.15,
        metavar="FRACTION",
        help="relative shift that counts as significant (fails)",
    )
    bench.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json emits the machine-readable schema)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the anonymization service daemon (see docs/serve.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8088,
        help="0 binds an ephemeral port (printed on the serving line)",
    )
    serve.add_argument(
        "--budget-root",
        default="serve-budgets",
        metavar="DIR",
        help="directory of the per-tenant epsilon account files",
    )
    serve.add_argument(
        "--spool",
        default="serve-spool",
        metavar="DIR",
        help="directory job results are spooled to before streaming",
    )
    serve.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME=EPS",
        help="declare a tenant budget at boot (repeatable); an "
        "existing account's budget must match",
    )
    serve.add_argument(
        "--registry",
        default=None,
        metavar="DIR",
        help="dataset registry root for name-based dataset refs",
    )
    serve.add_argument(
        "--job-workers",
        type=int,
        default=2,
        metavar="N",
        help="background job-runner pool width",
    )
    workers = serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="local-stage pool size per job; 0 = one per core; a job "
        "under N x %(fork_bound)s points runs its local stage in process",
    )
    workers.fork_bound = _ForkBound()
    serve.add_argument(
        "--publish-workers",
        type=int,
        default=1,
        metavar="N",
        help="per-chunk realization processes for publish jobs; "
        "0 = one per core (output is byte-identical for any value)",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datagen.generator import FleetConfig, generate_fleet
    from repro.trajectory.io import write_csv

    fleet = generate_fleet(
        FleetConfig(
            n_objects=args.objects,
            points_per_trajectory=args.points,
            rows=args.rows,
            cols=args.cols,
            n_hotspots=args.hotspots,
            seed=args.seed,
        )
    )
    write_csv(fleet.dataset, args.output)
    print(
        f"wrote {len(fleet.dataset)} trajectories "
        f"({fleet.dataset.total_points()} points) to {args.output}"
    )
    return 0


def _parse_param(override: str) -> tuple[str, object]:
    """``name=value`` → (name, value); values parse as JSON or string."""
    name, separator, raw = override.partition("=")
    if not separator or not name:
        raise ValueError(
            f"--param expects NAME=VALUE, got {override!r}"
        )
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    return name, value


def _build_spec(args: argparse.Namespace) -> MethodSpec:
    """The :class:`MethodSpec` an ``anonymize`` invocation describes.

    ``--model`` names any kind in the registry. Shared flags
    (``--epsilon``/``--seed``/...) flow into the spec only when the
    chosen method declares the matching parameter; ``--param``
    overrides win last and may name any declared parameter.
    """
    from repro.api.registry import method_info
    from repro.api.spec import MethodSpec

    kind = args.model
    info = method_info(kind)  # raises listing alternatives
    accepted = set(info.signature.parameters)
    flags = {
        "epsilon": args.epsilon,
        "signature_size": args.signature_size,
        "seed": args.seed,
    }
    params = {name: value for name, value in flags.items() if name in accepted}
    for override in args.param or ():
        name, value = _parse_param(override)
        params[name] = value
    try:
        return MethodSpec(kind, params)
    except TypeError as exc:  # a --param value that is not plain data
        raise ValueError(str(exc)) from None


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.data.preprocess import PreprocessConfig
    from repro.data.registry import DatasetRegistry

    registry = DatasetRegistry(args.root)
    if args.export and args.import_archive:
        print(
            "repro ingest: --export and --import are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.export:
        if not args.name:
            print(
                "repro ingest: --export requires --name", file=sys.stderr
            )
            return 2
        dest = registry.export_artifact(args.name, args.export)
        print(f"exported {args.name} -> {dest}")
        return 0
    if args.import_archive:
        import tarfile

        try:
            result = registry.import_artifact(
                args.import_archive, force=args.force
            )
        except tarfile.TarError as exc:
            print(f"repro ingest: {exc}", file=sys.stderr)
            return 2
        verb = "imported" if result.fresh else "already installed"
        print(f"{verb} {result.name}@{result.version}")
        print(f"  artifact: {result.path}")
        return 0
    if not args.source or not args.name:
        print(
            "repro ingest: -i/--source and --name are required when "
            "not using --export/--import",
            file=sys.stderr,
        )
        return 2

    config = PreprocessConfig(
        gap_threshold_s=args.gap,
        min_points=args.min_points,
        bbox=tuple(args.bbox) if args.bbox else None,
        resample_dt=args.resample_dt,
        snap=args.snap,
    )
    result = registry.ingest(
        args.name,
        args.source,
        config,
        format=args.format,
        origin=tuple(args.origin) if args.origin else None,
        force=args.force,
    )
    if result.fresh:
        print(f"ingested {args.source} as {args.name}@{result.version}")
        print(f"  {result.stats.summary()}")
    else:
        print(
            f"cached artifact {args.name}@{result.version} is up to date "
            f"(use --force to re-ingest)"
        )
    print(f"  artifact: {result.path}")
    return 0


def _cmd_methods(args: argparse.Namespace) -> int:
    from repro.api.registry import method_info, method_names

    names = method_names()
    width = max(len(name) for name in names)
    family_width = max(len(method_info(name).family) for name in names)
    for name in names:
        info = method_info(name)
        marker = "synthetic" if info.synthetic else ""
        print(
            f"{name:<{width}s}  {info.family:<{family_width}s}  "
            f"{marker:<9s}  {info.summary}"
        )
        if args.verbose:
            for parameter, default in info.default_params().items():
                print(f"{'':<{width}s}    --param {parameter}={default!r}")
    return 0


def _cmd_anonymize(args: argparse.Namespace) -> int:
    from repro.api.session import run
    from repro.data.registry import load_dataset
    from repro.trajectory.io import write_csv

    spec = _build_spec(args)
    dataset = load_dataset(args.input)
    try:
        result = run(
            spec,
            dataset,
            engine=args.engine,
            workers=args.workers,
        )
    except TypeError as exc:
        # A --param value of the wrong type fails in the method.
        raise ValueError(str(exc)) from None
    write_csv(result.dataset, args.output)
    report = result.report
    if report is not None:
        print(
            f"anonymized {len(result.dataset)} trajectories with "
            f"{spec.kind.upper()} (eps = {report.epsilon_total:g}) "
            f"-> {args.output}"
        )
        for draw in report.accounting.draws:
            print(f"  budget: {draw.epsilon:g} on {draw.label}")
        print(f"  utility loss: {report.utility_loss / 1000.0:.2f} km")
    else:
        print(
            f"anonymized {len(result.dataset)} trajectories with "
            f"{spec.kind.upper()} -> {args.output}"
        )
    print(f"  method: {spec.kind} (config digest {spec.provenance()['digest']}, "
          f"{result.seconds:.2f}s, engine {result.engine})")
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from repro.api.session import publish as api_publish
    from repro.trajectory.io import staged_csv

    spec = _build_spec(args)
    report_path = args.report or f"{args.output}.report.json"
    # Chunks arrive as worker-encoded CSV row bytes (the byte_sink fast
    # path). The release moves into place only after the publish and
    # its report succeed, so a rejected invocation (wrong method
    # family, bad --split, corrupted spill) never clobbers a previous
    # good output with a partial one.
    try:
        with staged_csv(args.output) as release:
            report = api_publish(
                spec,
                args.input,
                chunk_size=args.chunk_size,
                split=args.split,
                publish_workers=args.publish_workers,
                spill_dir=args.spill_dir,
                byte_sink=lambda rows, _report: release.write(rows),
            )
            # Report first, output last: if the report cannot be
            # written there is no release on disk claiming an audit
            # trail it does not have.
            with open(report_path, "w") as handle:
                json.dump(report.to_dict(), handle, indent=2)
                handle.write("\n")
    except TypeError as exc:
        # A --param value of the wrong type fails in the method.
        raise ValueError(str(exc)) from None
    print(
        f"published {report.trajectories} trajectories in "
        f"{report.chunk_count} chunk(s) with {spec.kind.upper()} "
        f"(end-to-end eps = {report.epsilon_total:g}) -> {args.output}"
    )
    # Sequential draws print individually; parallel groups collapse to
    # one line each (their max is what composes, and a chunked publish
    # would otherwise print one line per chunk).
    for draw in report.accounting.sequential_draws():
        print(
            f"  ledger: {draw.epsilon:g} on {draw.label} "
            f"[{draw.scope}, sequential]"
        )
    for group, draws in report.accounting.groups().items():
        print(
            f"  ledger: {max(d.epsilon for d in draws):g} on {group} "
            f"[parallel over {len(draws)} chunk(s)]"
        )
    print(f"  utility loss: {report.utility_loss / 1000.0:.2f} km")
    print(f"  report: {report_path} ({report.seconds:.2f}s)")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attacks.linkage import SIGNATURE_KINDS, LinkageAttack
    from repro.data.registry import load_dataset

    original = load_dataset(args.original)
    anonymized = load_dataset(args.anonymized)
    attack = LinkageAttack(cell_size=args.cell)
    kinds = SIGNATURE_KINDS if args.kind == "all" else (args.kind,)
    for kind in kinds:
        result = attack.link(original, anonymized, kind=kind)
        print(f"LA_{kind:<15s} {result.accuracy:.3f} "
              f"({result.correct}/{result.total} linked)")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.data.registry import load_dataset
    from repro.metrics.privacy import mutual_information
    from repro.metrics.utility import (
        diameter_error,
        frequent_pattern_f1,
        information_loss,
        trip_error,
    )

    original = load_dataset(args.original)
    anonymized = load_dataset(args.anonymized)
    print(f"MI   {mutual_information(original, anonymized):.3f}")
    print(f"INF  {information_loss(original, anonymized, sample_stride=2):.3f}")
    print(f"DE   {diameter_error(original, anonymized):.3f}")
    print(f"TE   {trip_error(original, anonymized):.3f}")
    print(f"FFP  {frequent_pattern_f1(original, anonymized):.3f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.target == "table2":
        from repro.experiments.table2 import main as experiment_main
    elif args.target == "fig4":
        from repro.experiments.fig4 import main as experiment_main
    elif args.target == "publish":
        from repro.experiments.publish import main as experiment_main
    else:
        from repro.experiments.fig5 import main as experiment_main
    argv = [args.preset, str(args.workers)]
    if args.dataset:
        argv.extend(["--dataset", args.dataset])
    if args.target == "publish" and args.chunk_size is not None:
        argv.extend(["--chunk-size", str(args.chunk_size)])
    experiment_main(argv)
    return 0


def _default_check_paths() -> list[str]:
    """What ``repro check`` analyzes with no path arguments: the source
    tree when run from a checkout, the installed package otherwise."""
    import pathlib

    source_tree = pathlib.Path("src/repro")
    if source_tree.is_dir():
        return [str(source_tree)]
    import repro

    return [str(pathlib.Path(repro.__file__).parent)]


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import AnalysisError, analyze_paths

    try:
        report = analyze_paths(args.paths or _default_check_paths())
    except AnalysisError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_human())
    return report.exit_code()


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench compare|report`` — exit 0/1/2 like ``check``.

    0: stable or better (minor shifts print as warnings), 1: significant
    degradation of any tracked key, 2: the invocation itself failed
    (missing/corrupt history, cross-scale comparison).
    """
    from repro.bench import BenchHistory, Thresholds

    history = BenchHistory(args.history)
    try:
        thresholds = Thresholds(
            minor=args.minor, significant=args.significant
        )
        if args.action == "compare":
            comparisons = [
                history.compare_latest(
                    args.bench_name,
                    scale=args.scale,
                    window=args.window,
                    thresholds=thresholds,
                )
            ]
        else:  # report
            comparisons = history.compare_all(
                window=args.window, thresholds=thresholds
            )
            if not comparisons:
                print(
                    f"repro bench report: {history.path} is empty",
                    file=sys.stderr,
                )
                return 2
    except (ValueError, OSError) as exc:
        # HistoryError, RecordError and CrossScaleError are ValueErrors.
        print(f"repro bench {args.action}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(
            json.dumps(
                {
                    "version": 1,
                    "clean": all(c.clean for c in comparisons),
                    "comparisons": [c.to_dict() for c in comparisons],
                },
                indent=2,
            )
        )
    else:
        for comparison in comparisons:
            print(comparison.render_human())
    return max(comparison.exit_code() for comparison in comparisons)


def _parse_tenant(spec: str) -> tuple[str, float]:
    """``NAME=EPS`` → ``(name, budget)`` with a helpful error."""
    name, sep, raw = spec.partition("=")
    if not sep or not name:
        raise ValueError(
            f"--tenant expects NAME=EPS (a tenant name and its epsilon "
            f"budget), got {spec!r}"
        )
    try:
        budget = float(raw)
    except ValueError:
        raise ValueError(
            f"--tenant {name}: budget {raw!r} is not a number"
        ) from None
    return name, budget


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` — boot the daemon, block until interrupted.

    Prints one machine-parsable ``serving on http://host:port`` line
    once the listener is bound (how callers learn an ephemeral port),
    then serves until SIGINT, which drains in-flight jobs and closes
    the warm engines before exiting.
    """
    from repro.serve import ServeConfig, Daemon

    tenants = tuple(_parse_tenant(spec) for spec in args.tenant)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        budget_root=args.budget_root,
        spool=args.spool,
        job_workers=args.job_workers,
        engine_workers=args.workers,
        publish_workers=args.publish_workers,
        tenants=tenants,
        registry_root=args.registry,
    )
    daemon = Daemon(config)
    for tenant, jobs in sorted(daemon.recovered.items()):
        print(
            f"recovered {len(jobs)} orphaned reservation(s) for "
            f"tenant {tenant!r} (charged in full)",
            file=sys.stderr,
        )
    host, port = daemon.start()
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        # serve_forever runs on the daemon's own thread; this one
        # blocks until SIGINT or a POST /v1/shutdown completes.
        daemon.wait()
    except KeyboardInterrupt:
        print("shutting down (draining in-flight jobs)...", flush=True)
    finally:
        daemon.shutdown(drain=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    # No module under src calls BLAS (tests/test_startup.py walks the
    # source for matrix products), yet importing numpy starts OpenBLAS's
    # helper thread, which spins on CPU that no command uses. Set before
    # any command imports numpy; a value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "ingest": _cmd_ingest,
        "methods": _cmd_methods,
        "anonymize": _cmd_anonymize,
        "publish": _cmd_publish,
        "attack": _cmd_attack,
        "evaluate": _cmd_evaluate,
        "experiment": _cmd_experiment,
        "check": _cmd_check,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like
        # well-behaved CLI tools do.
        os.close(sys.stdout.fileno())
        return 0
    except (ValueError, OSError, KeyError) as exc:
        # The one error boundary: bad input, missing files and unknown
        # names end in a message and exit 2, not a traceback.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"repro {args.command}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
