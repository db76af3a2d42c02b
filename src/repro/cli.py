"""Command-line interface for the CQM reproduction.

Usage::

    python -m repro experiment [--seed N] [--eval-size N] [--radius R]
                               [--save PACKAGE.json]
    python -m repro report     [--seed N]
    python -m repro office     [--seed N] [--blocks N] [--ungated]
                               [--script DSL]
    python -m repro inspect    PACKAGE.json
    python -m repro multiseed  [--seeds N N ...] [--parallel BACKEND]
                               [--workers N]
    python -m repro faults-sweep [--seed N] [--faults NAME ...]
                               [--intensities F F ...] [--policy POLICY]
                               [--parallel BACKEND] [--workers N]
    python -m repro serve      [--package PACKAGE.json] [--seed N]
                               [--listen HOST:PORT] [--max-requests N]
                               [SERVICE FLAGS]
    python -m repro loadgen    [--seed N] [--connect HOST:PORT]
                               [--n-requests N] [--rate HZ]
                               [--report BENCH.json] [--expect-complete]
                               [SERVICE FLAGS]
    python -m repro trace      [--metrics-out TRACE.json] COMMAND [ARGS...]
    python -m repro verify     [--seeds N N ...] [--stage STAGE]
                               [--fuzz-cases N] [--update-golden]
                               [--golden-seed N]
    python -m repro bus        {serve,publish,tail,record,replay,drill}
                               [options...]
    python -m repro scenario   {list,validate,run,record} [options...]

    SERVICE FLAGS (serve, in-process loadgen): [--max-batch N]
        [--queue-capacity N] [--policy POLICY] [--serve-workers N]

``experiment`` runs the full pipeline and prints the evaluation summary;
``report`` prints the paper-style statistics (populations, threshold,
probabilities); ``office`` runs the one-pen office (AwarePen and a
gated or ungated whiteboard camera) through the scenario runner;
``inspect`` describes a saved quality package;
``multiseed`` replicates the experiment across seeds, optionally fanning
the runs out over the ``thread``/``process`` execution backends
(``--parallel``, or the ``REPRO_PARALLEL`` environment variable);
``faults-sweep`` runs the AwarePen pipeline across a sensor-fault
intensity grid and reports the with/without-CQM degradation curves under
a chosen ε-policy; ``serve`` runs the micro-batching inference service
over a trained quality package, reading JSONL requests from stdin (the
default) or a TCP socket (``--listen``, stopped gracefully by SIGINT
or SIGTERM); ``loadgen`` drives a
seeded open-loop workload against an in-process service (default) or a
running ``serve --listen`` endpoint (``--connect``) and prints throughput,
latency percentiles and the shed rate; ``trace`` runs any other command
with observability enabled and prints the span tree and metrics table
afterwards
(``--metrics-out`` additionally writes the round-trippable trace JSON,
e.g. ``repro trace multiseed --seeds 3 --metrics-out out.json``);
``verify`` is the correctness gate: it sweeps the optimized kernels
against the naive reference implementations (per-stage max-ULP/abs/rel
divergence), diffs a fresh pipeline trace against the stored seed-7
golden, and fuzzes degenerate datasets — exiting nonzero on any
divergence (``--update-golden`` re-captures the golden trace instead);
``bus`` is the distributed context-event bus: ``bus serve`` runs the
persistent-log TCP broker, ``bus publish`` streams scripted pen events
at it, ``bus tail`` prints the logged records, ``bus record`` captures
an office-on-bus run plus its golden trace, ``bus replay`` rebuilds the
run from the log alone (exiting nonzero unless bit-identical to the
golden), and ``bus drill`` runs the failure-domain drills; ``scenario``
is the declarative scenario zoo: ``scenario list`` names the registered
scenarios, ``scenario validate`` schema-checks them (or a YAML file via
``--file``), ``scenario run`` executes one on the in-process bus or the
broker (``--bus broker``), and ``scenario record`` writes per-scenario
golden traces.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .core import ConstructionConfig, DegradationPolicy
from .core.persistence import QualityPackage
from .experiment import run_awarepen_experiment
from .parallel import BACKENDS, ENV_VAR
from .verify import STAGE_NAMES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context Quality Measure (CQM) reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment",
                         help="run the full AwarePen experiment")
    exp.add_argument("--seed", type=int, default=7)
    exp.add_argument("--eval-size", type=int, default=24)
    exp.add_argument("--radius", type=float,
                     default=ConstructionConfig().radius)
    exp.add_argument("--save", metavar="PACKAGE.json",
                     help="write the trained quality package to this path")

    rep = sub.add_parser("report",
                         help="print the paper-style statistical report")
    rep.add_argument("--seed", type=int, default=7)
    rep.add_argument("--figures", action="store_true",
                     help="render Fig. 5 / Fig. 6 as ASCII")

    off = sub.add_parser("office", help="simulate the AwareOffice")
    off.add_argument("--seed", type=int, default=7)
    off.add_argument("--blocks", type=int, default=3)
    off.add_argument("--ungated", action="store_true",
                     help="disable the camera's quality gate")
    off.add_argument("--script", metavar="DSL",
                     help="scenario DSL, e.g. 'writing:8 playing:2@erratic'"
                          " (default: the built-in evaluation scenario)")

    ins = sub.add_parser("inspect", help="describe a saved quality package")
    ins.add_argument("package", metavar="PACKAGE.json")

    rep_full = sub.add_parser(
        "full-report", help="write the full markdown experiment report")
    rep_full.add_argument("--seed", type=int, default=7)
    rep_full.add_argument("--out", metavar="REPORT.md",
                          help="write to a file instead of stdout")

    multi = sub.add_parser(
        "multiseed",
        help="replicate the experiment across seeds (optionally parallel)")
    multi.add_argument("--seeds", type=int, nargs="+",
                       default=[3, 7, 11, 19, 42],
                       help="data-generation seeds (>= 1, unique)")
    multi.add_argument("--radius", type=float,
                       default=ConstructionConfig().radius)
    multi.add_argument("--parallel", choices=BACKENDS, default=None,
                       metavar="BACKEND",
                       help=f"execution backend: {', '.join(BACKENDS)} "
                            f"(default: ${ENV_VAR} or serial)")
    multi.add_argument("--workers", type=int, default=None,
                       help="pool size for thread/process backends")

    sweep = sub.add_parser(
        "faults-sweep",
        help="degradation curves under injected sensor faults")
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--faults", nargs="+", default=None, metavar="NAME",
                       help="fault names from the standard suite "
                            "(default: all)")
    sweep.add_argument("--intensities", type=float, nargs="+",
                       default=None, metavar="F",
                       help="fault intensities in (0, 1] "
                            "(default: 0.25 0.5 1.0)")
    sweep.add_argument("--policy", default="reject",
                       choices=[p.value for p in DegradationPolicy],
                       help="epsilon-degradation policy for the gate")
    sweep.add_argument("--blocks", type=int, default=2,
                       help="scenario length of each cell's stream")
    sweep.add_argument("--parallel", choices=BACKENDS, default=None,
                       metavar="BACKEND",
                       help=f"execution backend: {', '.join(BACKENDS)} "
                            f"(default: ${ENV_VAR} or serial)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="pool size for thread/process backends")

    serve = sub.add_parser(
        "serve", help="run the micro-batching inference service")
    serve.add_argument("--package", metavar="PACKAGE.json", default=None,
                       help="serve this saved quality package "
                            "(default: train one from --seed)")
    serve.add_argument("--seed", type=int, default=7,
                       help="seed for the classifier (and, without "
                            "--package, the quality package) training")
    serve.add_argument("--listen", metavar="HOST:PORT", default=None,
                       help="serve JSONL over TCP instead of stdin/stdout")
    _add_serving_knobs(serve)
    serve.add_argument("--max-requests", type=int, default=None,
                       metavar="N",
                       help="socket mode: drain and exit after N requests")

    ver = sub.add_parser(
        "verify",
        help="differential/golden/fuzz correctness gate for the pipeline")
    ver.add_argument("--seeds", type=int, nargs="+", default=[7, 11, 13],
                     metavar="N",
                     help="seeds swept by the differential runner")
    ver.add_argument("--stage", default=None, choices=list(STAGE_NAMES),
                     help="run a single differential stage (skips the "
                          "golden and fuzz gates)")
    ver.add_argument("--fuzz-cases", type=int, default=20, metavar="N",
                     help="fuzzed degenerate datasets (0 disables)")
    ver.add_argument("--update-golden", action="store_true",
                     help="re-capture and store the golden trace, then "
                          "exit")
    ver.add_argument("--golden-seed", type=int, default=7,
                     help="seed of the golden trace (and the fuzzer)")

    gen = sub.add_parser(
        "loadgen", help="seeded open-loop load generator for the service")
    gen.add_argument("--seed", type=int, default=7,
                     help="seed for both the workload and the model")
    gen.add_argument("--n-requests", type=int, default=200)
    gen.add_argument("--rate", type=float, default=2000.0, metavar="HZ",
                     help="open-loop Poisson arrival rate")
    gen.add_argument("--connect", metavar="HOST:PORT", default=None,
                     help="drive a running 'serve --listen' endpoint "
                          "(default: an in-process service)")
    gen.add_argument("--report", metavar="REPORT.json", default=None,
                     help="append this run to a JSON report document")
    gen.add_argument("--expect-complete", action="store_true",
                     help="exit nonzero if any admitted request went "
                          "unanswered (the drain guarantee)")
    _add_serving_knobs(gen)

    from .bus.cli import add_bus_parser
    add_bus_parser(sub)
    from .scenarios.cli import add_scenario_parser
    add_scenario_parser(sub)
    return parser


def _add_serving_knobs(parser: argparse.ArgumentParser) -> None:
    """Service-shape flags shared by ``serve`` and in-process ``loadgen``."""
    parser.add_argument("--max-batch", type=int, default=32,
                        help="most requests per micro-batch (a free "
                             "worker takes whatever has arrived)")
    parser.add_argument("--queue-capacity", type=int, default=256,
                        help="admission bound; beyond it requests are shed")
    parser.add_argument("--policy", default="reject",
                        choices=[p.value for p in DegradationPolicy],
                        help="epsilon-degradation policy for the gate")
    parser.add_argument("--serve-workers", type=int, default=1,
                        metavar="N", help="concurrent batch workers")


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = ConstructionConfig(radius=args.radius)
    result = run_awarepen_experiment(seed=args.seed,
                                     evaluation_size=args.eval_size,
                                     config=config)
    outcome = result.evaluation_outcome
    print(f"seed {args.seed}: quality FIS with "
          f"{result.construction.n_rules} rules")
    print(f"threshold s = {result.threshold:.4f} "
          f"({result.calibration.threshold.method})")
    print(f"evaluation ({outcome.n_total} windows, "
          f"{outcome.n_wrong_total} wrong):")
    print(f"  discarded {outcome.n_discarded} "
          f"({outcome.discard_fraction * 100:.0f}%), of which "
          f"{outcome.n_discarded - outcome.n_right_discarded} were wrong")
    print(f"  accuracy {outcome.accuracy_before:.3f} -> "
          f"{outcome.accuracy_after:.3f} "
          f"(improvement +{outcome.improvement:.3f})")
    if args.save:
        package = QualityPackage.from_calibration(
            result.augmented.quality, result.calibration)
        package.save(args.save)
        print(f"quality package written to {args.save}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    result = run_awarepen_experiment(seed=args.seed)
    cal = result.calibration
    est = cal.estimates
    print("population estimates (MLE):")
    print(f"  right: mu={est.right.mu:.4f} sigma={est.right.sigma:.4f} "
          f"(n={est.n_right})")
    print(f"  wrong: mu={est.wrong.mu:.4f} sigma={est.wrong.sigma:.4f} "
          f"(n={est.n_wrong})")
    print(f"  separation d' = {est.separation:.3f}")
    print(f"threshold s = {cal.s:.4f} ({cal.threshold.method}; "
          f"paper: 0.81)")
    print("selection probabilities (paper: 0.8112 / 0.8112 / "
          "0.0217 / 0.0846):")
    for key, value in cal.probabilities.as_dict().items():
        if key != "s":
            print(f"  {key:<14} = {value:.4f}")
    print(f"epsilon windows on the analysis set: {cal.data.n_epsilon}")
    if args.figures:
        from .viz import density_plot, quality_series
        print("\nFig. 5 (24-point evaluation set):")
        print(quality_series(result.evaluation_qualities,
                             result.evaluation_correct))
        print("\nFig. 6 (densities and threshold):")
        print(density_plot(est.right, est.wrong, threshold=cal.s))
    return 0


def _cmd_office(args: argparse.Namespace) -> int:
    from .datasets.activities import evaluation_script
    from .scenarios import office_spec, run_scenario

    if args.script:
        from .datasets.dsl import parse_scenario
        script = parse_scenario(args.script)
    else:
        script = evaluation_script(np.random.default_rng(args.seed + 100),
                                   blocks=args.blocks)
    run = run_scenario(office_spec(script, gated=not args.ungated),
                       seed=args.seed)
    print_office_run(run)
    return 0


def print_office_run(run) -> None:
    """Print a one-pen office run: pen accuracy, camera gate, snapshots."""
    [camera] = run.cameras
    mode = ("ungated" if camera.threshold is None
            else f"gated at s={camera.threshold:.3f}")
    print(f"office run ({mode}): {run.n_windows} windows, raw pen "
          f"accuracy {run.accuracy:.2f}")
    print(f"camera: accepted {camera.accepted_events}, rejected "
          f"{camera.rejected_events}, snapshots {camera.n_snapshots}")
    for time_s, start_s, n_writing in zip(camera.snapshot_times,
                                          camera.session_starts,
                                          camera.n_writing_events):
        print(f"  snapshot at t={time_s:7.1f}s "
              f"(session from {start_s:.1f}s, "
              f"{n_writing} writing events)")


def _cmd_inspect(args: argparse.Namespace) -> int:
    package = QualityPackage.load(args.package)
    system = package.quality.system
    print(f"quality package: {args.package}")
    print(f"  FIS: {system.n_rules} rules, {system.n_inputs} inputs "
          f"({package.quality.n_cues} cues + class id), "
          f"order {system.order}")
    print(f"  threshold s = {package.threshold:.4f}")
    print(f"  right population: N({package.right.mu:.4f}, "
          f"{package.right.sigma:.4f}^2)")
    print(f"  wrong population: N({package.wrong.mu:.4f}, "
          f"{package.wrong.sigma:.4f}^2)")
    return 0


def _cmd_full_report(args: argparse.Namespace) -> int:
    from .evaluation.report import generate_report

    text = generate_report(seed=args.seed)
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_multiseed(args: argparse.Namespace) -> int:
    import time

    from .evaluation import MultiSeedRunner
    from .parallel import as_executor

    executor = as_executor(args.parallel, max_workers=args.workers)
    runner = MultiSeedRunner(seeds=args.seeds,
                             config=ConstructionConfig(radius=args.radius),
                             parallel=executor)
    start = time.perf_counter()
    report = runner.run()
    elapsed = time.perf_counter() - start
    print(report.to_text())
    print(f"backend: {executor.backend}, {len(args.seeds)} runs "
          f"in {elapsed:.2f}s")
    return 0


def _cmd_faults_sweep(args: argparse.Namespace) -> int:
    import time

    from .evaluation.faults import (DEFAULT_INTENSITIES, run_faults_sweep)
    from .parallel import as_executor

    executor = as_executor(args.parallel, max_workers=args.workers)
    intensities = (tuple(args.intensities) if args.intensities
                   else DEFAULT_INTENSITIES)
    start = time.perf_counter()
    report = run_faults_sweep(seed=args.seed, faults=args.faults,
                              intensities=intensities, policy=args.policy,
                              blocks=args.blocks, parallel=executor)
    elapsed = time.perf_counter() - start
    print(report.to_text())
    print(f"backend: {executor.backend}, {len(report.cells)} cells "
          f"in {elapsed:.2f}s")
    return 0


def _serving_config(args: argparse.Namespace) -> "object":
    from .serving import ServingConfig
    return ServingConfig(queue_capacity=args.queue_capacity,
                         max_batch=args.max_batch,
                         policy=DegradationPolicy(args.policy),
                         n_workers=args.serve_workers)


def _build_registry(args: argparse.Namespace) -> "object":
    """Train or load the model behind ``serve``/``loadgen``.

    With ``--package`` the saved quality package is served as-is and
    only the classifier is (re)trained from the seed; otherwise the
    whole pipeline runs once and the freshly calibrated package is used.
    Returns ``(registry, material)`` with the model published and active.
    """
    from .datasets.generator import make_awarepen_material
    from .experiment import train_default_classifier
    from .serving import ModelRegistry

    package_path = getattr(args, "package", None)
    if package_path:
        package = QualityPackage.load(package_path)
        material = make_awarepen_material(seed=args.seed)
        classifier = train_default_classifier(material)
        tag = f"loaded:{package_path}"
    else:
        result = run_awarepen_experiment(seed=args.seed)
        package = QualityPackage.from_calibration(
            result.augmented.quality, result.calibration)
        material = result.material
        classifier = result.classifier
        tag = f"trained:seed={args.seed}"
    registry = ModelRegistry()
    registry.publish_and_activate(package, classifier=classifier, tag=tag)
    return registry, material


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .exceptions import ConfigurationError
    from .serving import serve_socket, serve_stdio
    from .serving.framing import parse_host_port, stop_on_signals

    try:
        config = _serving_config(args)
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.max_requests is not None and args.max_requests < 1:
        print(f"--max-requests must be >= 1, got {args.max_requests}",
              file=sys.stderr)
        return 2
    if args.listen is not None:
        try:
            host, port = parse_host_port(args.listen)
        except ValueError as exc:
            print(f"--listen {exc}", file=sys.stderr)
            return 2
    registry, _ = _build_registry(args)
    if args.listen is None:
        n = serve_stdio(registry, sys.stdin, sys.stdout, config=config)
        print(f"served {n} requests", file=sys.stderr)
        return 0

    async def _serve() -> None:
        stop = asyncio.Event()
        stop_on_signals(stop)
        await serve_socket(registry, host, port, config=config, stop=stop,
                           max_requests=args.max_requests)

    asyncio.run(_serve())
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .datasets.generator import make_awarepen_material
    from .exceptions import ConfigurationError
    from .serving import (InferenceService, LoadgenConfig, run_loadgen,
                          run_loadgen_socket)
    from .serving.framing import parse_host_port

    try:
        config = LoadgenConfig(n_requests=args.n_requests,
                               rate_hz=args.rate, seed=args.seed)
        serving_config = _serving_config(args)
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.connect is not None:
        try:
            host, port = parse_host_port(args.connect)
        except ValueError as exc:
            print(f"--connect {exc}", file=sys.stderr)
            return 2
        cue_pool = make_awarepen_material(seed=args.seed).analysis.cues
        report = run_loadgen_socket(host, port, config, cue_pool)
    else:
        registry, material = _build_registry(args)
        report = run_loadgen(
            lambda: InferenceService(registry, config=serving_config),
            config, material.analysis.cues)
    print(report.to_text())
    if args.report:
        import json
        from pathlib import Path
        Path(args.report).write_text(json.dumps(report.as_dict(), indent=2)
                                     + "\n")
        print(f"report written to {args.report}")
    if args.expect_complete and report.n_unanswered > 0:
        print(f"FAIL: {report.n_unanswered} admitted requests went "
              f"unanswered", file=sys.stderr)
        return 1
    return 0


def _run_traced(argv: List[str]) -> int:
    """``repro trace [--metrics-out PATH] COMMAND [ARGS...]``.

    Runs the inner command under :func:`repro.observability.observed`,
    then prints the span tree and the metrics table.  ``--metrics-out``
    may appear anywhere in *argv*; everything else is handed to the
    inner command verbatim.
    """
    from . import observability as obs
    from .observability.export import (render_span_tree, render_table,
                                       write_trace_json)

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="run a repro command with observability enabled")
    parser.add_argument("--metrics-out", metavar="TRACE.json", default=None,
                        help="write the span trees + metrics snapshot as "
                             "a round-trippable JSON document")
    opts, inner = parser.parse_known_args(argv)
    if not inner:
        parser.error("trace needs a command to run, "
                     "e.g. 'repro trace experiment --seed 7'")
    if inner[0] == "trace":
        parser.error("'trace' cannot be nested")

    with obs.observed(fresh=True) as (registry, tracer):
        code = main(inner)
        snapshot = registry.snapshot()
        roots = list(tracer.roots)
    print()
    print("-- trace " + "-" * 51)
    print(render_span_tree(roots))
    print()
    print("-- metrics " + "-" * 49)
    print(render_table(snapshot))
    if opts.metrics_out:
        path = write_trace_json(opts.metrics_out, roots, snapshot,
                                command=inner)
        print(f"\ntrace document written to {path}")
    return code


def _cmd_verify(args: argparse.Namespace) -> int:
    from .exceptions import ScenarioError
    from .verify import (DifferentialRunner, check_against_golden,
                         run_fuzz, update_golden)

    if args.update_golden:
        path = update_golden(seed=args.golden_seed)
        print(f"golden trace for seed {args.golden_seed} written to {path}")
        return 0

    stages = [args.stage] if args.stage else None
    report = DifferentialRunner(seeds=tuple(args.seeds), stages=stages).run()
    print(report.to_text())
    ok = report.passed
    if args.stage is None:
        diff = check_against_golden(seed=args.golden_seed)
        if diff is None:
            print(f"no golden trace stored for seed "
                  f"{args.golden_seed}; capture one with "
                  f"'repro verify --update-golden'")
        else:
            print(diff.to_text())
            ok = ok and diff.passed
        if args.fuzz_cases > 0:
            corpus = None
            try:
                from .scenarios.corpus import scenario_corpus
                corpus = scenario_corpus()
            except ScenarioError as exc:
                print(f"scenario corpus unavailable ({exc}); fuzzing "
                      f"built-in kinds only")
            fuzz = run_fuzz(seed=args.golden_seed,
                            n_cases=args.fuzz_cases, corpus=corpus)
            print(fuzz.to_text())
            ok = ok and fuzz.passed
    return 0 if ok else 1


def _cmd_bus(args: argparse.Namespace) -> int:
    from .bus.cli import run_bus_command
    return run_bus_command(args)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .scenarios.cli import run_scenario_command
    return run_scenario_command(args)


_COMMANDS = {
    "experiment": _cmd_experiment,
    "multiseed": _cmd_multiseed,
    "faults-sweep": _cmd_faults_sweep,
    "report": _cmd_report,
    "office": _cmd_office,
    "inspect": _cmd_inspect,
    "full-report": _cmd_full_report,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "verify": _cmd_verify,
    "bus": _cmd_bus,
    "scenario": _cmd_scenario,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return _run_traced(list(argv[1:]))
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
