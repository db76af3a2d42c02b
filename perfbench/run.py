"""One command for the repository's benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload office-eventbus --seed 1 \
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``office-eventbus`` -- a generated multi-pen AwareOffice spec through
  the scenario runner on the in-process ``EventBus``;
* ``office-broker`` -- the same spec on the ``repro.bus`` broker with a
  group-commit fsync'd event log, then read back and deduped;
* ``serve-jsonl`` -- seeded open-loop Poisson traffic over one TCP
  connection to ``repro serve --listen`` in its own process, at a
  nominal rate and then up a fixed ladder of rates.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run that wraps each layer's public entry
points with spans (kept in memory, written to ``.bench_run/`` at the
end) and reports the per-layer metrics, a per-layer table, the
additivity check and the tracing overhead.

Every run checks the program's outputs; a failed check makes the run
exit with status 1 after printing its result.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--plant wrong-q`` and ``--plant server-delay`` plant a fault (the
negative controls in ``perfbench/tests``); ``--pin-seeds`` records the
office digests that the digest gate compares against.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("office-eventbus", "office-broker", "serve-jsonl")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", choices=("wrong-q", "server-delay"),
                        default=None, help="plant a fault (negative control)")
    parser.add_argument("--pin-seeds", type=int, nargs=2, default=None,
                        metavar=("FIRST", "LAST"),
                        help="record office digests for seeds FIRST..LAST")
    args = parser.parse_args(argv)
    if args.workload is None and args.pin_seeds is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def load_program() -> bool:
    """Put the checkout's source on the path; False when it is missing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return False
    return True


def pin_seeds(first: int, last: int) -> int:
    from perfbench import office
    from repro.scenarios import runner

    path = office.PINNED
    doc = json.loads(path.read_text()) if path.exists() else {"office": {}}
    for seed in range(first, last + 1):
        office.build_model(seed)
        result = runner.run_scenario(office.make_spec(seed), seed=seed)
        doc["office"][str(seed)] = office.digest(result)
        print(f"seed {seed}: {doc['office'][str(seed)]}", flush=True)
    doc["office"] = dict(sorted(doc["office"].items(),
                                key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another; the last
    line sums their results, metrics prefixed by workload."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.plant:
            argv += ["--plant", args.plant]
        out = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= bool(result["correct"]) and out.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse(argv)
    if not load_program():
        return 2
    from perfbench import common, layers

    if args.pin_seeds is not None:
        return pin_seeds(*args.pin_seeds)
    if args.workload == "all":
        return run_all(args)
    # A terminated run still unwinds, so the server process it started
    # is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ticks = common.cpu_ticks()

    from repro import observability
    if observability.is_enabled():
        print("the program's own tracing is on; turn it off",
              file=sys.stderr)
        return 2
    if args.workload.startswith("office-"):
        from perfbench import office
        transport = args.workload.split("-", 1)[1]
        if args.plant == "wrong-q":
            office.plant_wrong_q()
        run = office.run_traced if args.trace else office.run_untraced
        metrics, attempted, failed, report = run(transport, args.seed,
                                                 args.seconds)
        input_size = {"pens": office.N_PENS,
                      "pen_seconds": office.PEN_SECONDS,
                      "windows_per_repetition":
                          report.get("windows_per_repetition")}
    else:
        from perfbench import serve
        run = serve.run_traced if args.trace else serve.run_untraced
        metrics, attempted, failed, report = run(args.seed, args.seconds,
                                                 plant=args.plant)
        input_size = serve.input_size(args.seconds)

    table = report.pop("table", None)
    samples = report.pop("samples", {})
    prov = common.provenance(args.workload, args.seed, args.seconds,
                             bool(args.trace), input_size)
    prov["cpu_steal_share"] = common.steal_share(ticks, common.cpu_ticks())
    gates = report.get("gates", [])
    if args.trace:
        units = {k: v[0] for k, v in layers.PER_LAYER.items()}
        wanted = list(layers.PER_LAYER)
    else:
        units = {k: v[0] for k, v in layers.END_TO_END.items()}
        wanted = list(layers.END_TO_END)
    bad = [k for k in wanted
           if not isinstance(metrics.get(k), (int, float))
           or not math.isfinite(metrics[k])
           or (not args.trace and metrics[k] <= 0)]
    if bad:
        gates.append(f"metrics not measured: {bad}")
        failed = max(failed, 1)

    if table:
        print(f"per-layer table ({args.workload}, traced):")
        print(table)
    for name in wanted:
        if name in metrics:
            n = f"  n={samples[name]}" if name in samples else ""
            print(f"{name:<40} {metrics[name]:>14.6g} "
                       f"{units[name]:<5}{n}")
    for key, value in report.items():
        print(f"{key}: {value}")
    print(f"failed_share: {failed / max(attempted, 1):.6f} "
               f"({failed} of {attempted} operations)")
    for gate in gates:
        print(f"GATE FAILED: {gate}")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    correct = failed == 0 and not gates
    result = {
        "correct": correct,
        "attempted": int(max(attempted, 1)),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in wanted if k in metrics and k not in bad},
    }
    common.RUN_DIR.mkdir(parents=True, exist_ok=True)
    out = common.RUN_DIR / (f"result-{args.workload}-{args.seed}-"
                            f"trace{args.trace}.json")
    out.write_text(json.dumps({"result": result, "report": report,
                               "provenance": prov}, indent=1,
                              default=str) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
