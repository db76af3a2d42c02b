"""Start the JSONL server the way ``repro serve --listen`` does, optionally
with the benchmark's span wrappers or a planted delay installed first.

    python3 perfbench/serve_launcher.py [--spans FILE] [--plant-delay]

It builds the same model registry as ``repro serve``, calls the public
:func:`repro.serving.transport.serve_socket` on an OS-chosen port, and
on SIGTERM drains, restores the wrapped functions and writes the spans.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.serve import build_registry  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402

#: The planted delay: the gate call that stalls, and for how long.
DELAY_CALL = 300
DELAY_S = 3.0


def install_wrappers(rec: Recorder, registry) -> None:
    """Spans around the serving path's public entry points."""
    import numpy as np

    from repro.core.degradation import GracefulDegrader
    from repro.core.quality import QualityMeasure
    from repro.serving import service
    from repro.serving.protocol import ServeRequest, ServeResponse

    batches = [0]

    def request_id(span, _args, _kwargs, result) -> None:
        if result is not None:
            span[4] = result.request_id

    def response_id(span, args, _kwargs, _result) -> None:
        span[4] = args[0].request_id

    def submit_id(_args, kwargs):
        return kwargs.get("request_id")

    def batch(span, _args, _kwargs, result) -> None:
        batches[0] += 1
        span[4] = batches[0]
        span[5] = {"ids": [p.request.request_id for p in result],
                   "enqueued": [p.enqueued_s for p in result]}
        rec.set_id(batches[0])  # the worker's next spans belong to it

    def rows(args, _kwargs, _result):
        return {"rows": int(np.atleast_2d(args[1]).shape[0])}

    clf_type = type(registry.current().classifier)
    rec.wrap(ServeRequest, "from_json", "serving.decode", after=request_id)
    rec.wrap(service.InferenceService, "submit", "serving.submit",
             new_id=submit_id)
    rec.wrap(ServeResponse, "to_json", "serving.encode", after=response_id)
    rec.wrap(service, "extend_batch", "serving.collect", after=batch)
    rec.wrap(clf_type, "predict_indices", "classifiers.predict_indices",
             attrs=rows)
    rec.wrap(QualityMeasure, "measure_batch", "core.quality.measure_batch",
             attrs=rows)
    rec.wrap(GracefulDegrader, "decide", "serving.gate")


def plant_delay() -> None:
    """Negative control: one gate decision stalls the server."""
    from repro.core.degradation import GracefulDegrader

    original = GracefulDegrader.decide
    calls = [0]

    def decide(self, quality):
        calls[0] += 1
        if calls[0] == DELAY_CALL:
            time.sleep(DELAY_S)
        return original(self, quality)

    GracefulDegrader.decide = decide


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--plant-delay", action="store_true")
    args = parser.parse_args()

    from repro.serving import ServingConfig, serve_socket

    registry = build_registry()
    rec = Recorder()
    if args.spans is not None:
        install_wrappers(rec, registry)
    if args.plant_delay:
        plant_delay()

    async def serve() -> None:
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM,
                                                      stop.set)
        await serve_socket(registry, "127.0.0.1", 0, config=ServingConfig(),
                           stop=stop)

    try:
        asyncio.run(serve())
    finally:
        rec.restore()
        if args.spans is not None:
            rec.write(args.spans, meta={"side": "server"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
