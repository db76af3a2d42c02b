"""``repro bus`` — operational surface of the distributed event bus.

Subcommands::

    python -m repro bus serve   --log-dir DIR [--listen HOST:PORT]
                                [--partitions N] [--credits N]
                                [--tick-ms F]
    python -m repro bus publish --connect HOST:PORT [--source NAME]
                                [--n-events N] [--seed N] [--topic T]
    python -m repro bus tail    --log-dir DIR [--start N] [--count N]
    python -m repro bus record  --log-dir DIR [--seed N] [--blocks N]
                                [--ungated] [--golden-out TRACE.json]
    python -m repro bus replay  --log-dir DIR [--golden TRACE.json]
                                [--out TRACE.json]
    python -m repro bus drill   --log-dir DIR [--network]
                                [--publishers N] [--events N] [--seed N]

``serve`` runs the TCP broker over an event-log directory; ``publish``
streams scripted pen events at it from this process; ``tail`` prints
logged records; ``record`` runs the one-pen office through the scenario
runner *on* the broker, into an empty log directory, leaving behind the
event log, its ``meta.json`` sidecar and the golden trace of what the
live camera saw; ``replay`` rebuilds the run from the log alone and
(with ``--golden``) exits nonzero unless the replay is bit-identical;
``drill`` executes a failure-domain drill — in-process frame faults by
default, the multi-process partition-kill drill with ``--network`` —
and exits nonzero unless the system converged and the replay matches.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def add_bus_parser(sub) -> None:
    """Attach the ``bus`` subcommand tree to the main CLI parser."""
    bus = sub.add_parser("bus", help="distributed context-event bus")
    ops = bus.add_subparsers(dest="bus_command", required=True)

    srv = ops.add_parser("serve", help="run the TCP broker")
    srv.add_argument("--log-dir", required=True, metavar="DIR",
                     help="event-log directory (created if missing)")
    srv.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                     help="bind address (port 0: OS-assigned)")
    srv.add_argument("--partitions", type=int, default=2)
    srv.add_argument("--credits", type=int, default=32,
                     help="per-subscriber inflight credit window")
    srv.add_argument("--tick-ms", type=float, default=50.0,
                     help="redelivery timer tick (milliseconds)")

    pub = ops.add_parser("publish", help="stream scripted events over TCP")
    pub.add_argument("--connect", required=True, metavar="HOST:PORT")
    pub.add_argument("--source", default="awarepen")
    pub.add_argument("--topic", default="context.pen")
    pub.add_argument("--n-events", type=int, default=50)
    pub.add_argument("--seed", type=int, default=7)

    tail = ops.add_parser("tail", help="print logged records as JSONL")
    tail.add_argument("--log-dir", required=True, metavar="DIR")
    tail.add_argument("--start", type=int, default=0, metavar="OFFSET")
    tail.add_argument("--count", type=int, default=None, metavar="N")

    rec = ops.add_parser(
        "record", help="run the one-pen office on the bus")
    rec.add_argument("--log-dir", required=True, metavar="DIR")
    rec.add_argument("--seed", type=int, default=7)
    rec.add_argument("--blocks", type=int, default=2)
    rec.add_argument("--ungated", action="store_true",
                     help="disable the camera's quality gate")
    rec.add_argument("--golden-out", metavar="TRACE.json", default=None,
                     help="trace path (default: DIR/golden.json)")

    rep = ops.add_parser(
        "replay", help="rebuild a run from its event log")
    rep.add_argument("--log-dir", required=True, metavar="DIR")
    rep.add_argument("--golden", metavar="TRACE.json", default=None,
                     help="diff against this stored trace "
                          "(default: DIR/golden.json if present)")
    rep.add_argument("--out", metavar="TRACE.json", default=None,
                     help="write the replayed trace to this path")

    drl = ops.add_parser("drill", help="run a failure-domain drill")
    drl.add_argument("--log-dir", required=True, metavar="DIR")
    drl.add_argument("--network", action="store_true",
                     help="TCP broker + publisher processes + "
                          "partition kill (default: in-process faults)")
    drl.add_argument("--publishers", type=int, default=2,
                     help="publisher processes (network drill)")
    drl.add_argument("--events", type=int, default=250,
                     help="events per publisher (network) or total "
                          "(in-process)")
    drl.add_argument("--seed", type=int, default=7)
    drl.add_argument("--timeout", type=float, default=120.0,
                     help="network-drill convergence timeout (seconds)")


def run_bus_command(args: argparse.Namespace) -> int:
    handler = {
        "serve": _cmd_serve,
        "publish": _cmd_publish,
        "tail": _cmd_tail,
        "record": _cmd_record,
        "replay": _cmd_replay,
        "drill": _cmd_drill,
    }[args.bus_command]
    return handler(args)


def _parse_listen(value: str) -> "tuple[str, int]":
    from ..serving.framing import parse_host_port

    try:
        return parse_host_port(value)
    except ValueError as exc:
        print(f"address {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from ..serving.framing import stop_on_signals
    from .broker import BrokerCore, BusConfig
    from .server import serve_bus

    host, port = _parse_listen(args.listen)
    config = BusConfig(n_partitions=args.partitions, credits=args.credits)

    async def _serve(core: BrokerCore) -> None:
        stop = asyncio.Event()
        stop_on_signals(stop)
        await serve_bus(core, host, port, stop=stop,
                        tick_interval_s=args.tick_ms / 1e3)

    with BrokerCore(args.log_dir, config) as core:
        asyncio.run(_serve(core))
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from .client import SocketLink
    from .drill import scripted_pen_events

    host, port = _parse_listen(args.connect)
    link = SocketLink(host, port)
    try:
        last = None
        for event in scripted_pen_events(args.seed, args.n_events,
                                         source=args.source,
                                         topic=args.topic):
            last = link.publish(event.to_wire())
        print(f"published {args.n_events} events from {args.source!r} "
              f"(last partition={last[0]}, offset={last[1]})")
    finally:
        link.close()
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    from .log import EventLog

    with EventLog(args.log_dir) as log:
        n = 0
        for offset, record in log.read(start=args.start, count=args.count):
            print(json.dumps({"offset": offset, "record": record},
                             sort_keys=True))
            n = n + 1
    print(f"{n} records (next offset {log.next_offset})", file=sys.stderr)
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    import numpy as np

    from ..cli import print_office_run
    from ..datasets.activities import evaluation_script
    from ..scenarios import office_spec, run_scenario_on
    from .log import EventLog
    from .replay import RunMeta, capture_bus_trace, dedupe_events, \
        read_log_events

    log_dir = pathlib.Path(args.log_dir)
    with EventLog(log_dir) as log:
        used = log.next_offset
    if used:
        print(f"{log_dir} already holds {used} records; record into an "
              "empty log directory", file=sys.stderr)
        return 2
    script = evaluation_script(np.random.default_rng(args.seed + 100),
                               blocks=args.blocks)
    spec = office_spec(script, gated=not args.ungated)
    run = run_scenario_on(spec, seed=args.seed, transport="broker",
                          log_dir=log_dir)
    [camera] = run.cameras
    [pen] = spec.sensing_appliances()
    RunMeta(seed=args.seed, gate_threshold=camera.threshold,
            camera_topic=pen.resolved_topic()).save(log_dir)
    events = dedupe_events(read_log_events(log_dir))
    trace = capture_bus_trace(args.seed, events, camera=camera)
    golden_path = pathlib.Path(args.golden_out) if args.golden_out \
        else log_dir / "golden.json"
    trace.save(golden_path)
    print_office_run(run)
    print(f"event log in {log_dir} ({len(events)} events), "
          f"golden trace at {golden_path}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from ..verify.golden import GoldenTrace, diff_traces
    from .replay import replay_log

    log_dir = pathlib.Path(args.log_dir)
    trace = replay_log(log_dir)
    if args.out:
        trace.save(pathlib.Path(args.out))
        print(f"replayed trace written to {args.out}")
    golden_path = (pathlib.Path(args.golden) if args.golden
                   else log_dir / "golden.json")
    if not golden_path.exists():
        if args.golden:
            print(f"no golden trace at {golden_path}", file=sys.stderr)
            return 2
        print(f"replayed {len(trace.stages)} stages "
              f"(no golden at {golden_path} to diff against)")
        return 0
    diff = diff_traces(trace, GoldenTrace.load(golden_path),
                       rtol=0.0, atol=0.0)
    print(diff.to_text())
    return 0 if diff.passed else 1


def _cmd_drill(args: argparse.Namespace) -> int:
    from .drill import run_inproc_fault_drill, run_network_drill

    if args.network:
        report = run_network_drill(args.log_dir,
                                   n_publishers=args.publishers,
                                   events_per_publisher=args.events,
                                   seed=args.seed,
                                   timeout_s=args.timeout)
    else:
        report = run_inproc_fault_drill(args.log_dir, seed=args.seed,
                                        n_events=args.events)
    print(report.to_text())
    return 0 if report.passed else 1
