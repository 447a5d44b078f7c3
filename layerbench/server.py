"""The ``route-http`` server child: gateway + host over the benchmark network.

Run by ``route_http.py`` as ``python3 layerbench/server.py --dataset FLA
--num-points 3 --trace 0|1``.  It builds the deployment, serves
``GatewayApp`` with the bundled server on an ephemeral loopback port, and
prints one ``READY`` JSON line.  It then obeys one command per stdin line,
answering each with one JSON line on stdout:

* ``trace on`` / ``trace off`` — start or stop hot-path span recording;
  the serving counters between the two are kept as one interval;
* ``dump`` — the spans, serving counter intervals and traffic stats;
* ``quit`` (or end of input) — shut everything down and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import DEPLOYMENT, SPEC, import_program
from ledger import stats_delta
from spans import Recorder

#: Edge limits high enough that nothing is refused; every request still
#: passes the rate limiter and the in-flight gate.
RATE_LIMIT_QPS = 1e9
RATE_LIMIT_BURST = 1_000_000_000
MAX_IN_FLIGHT = 1_000_000


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--num-points", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    import_program()

    recorder = Recorder()
    if args.trace:
        recorder.install()
        recorder.enabled = True

    from repro.datasets.catalog import load_dataset
    from repro.gateway import GatewayApp, GatewayConfig, serve_in_background
    from repro.serving import EngineHost
    from repro.traffic import TrafficController

    started = time.perf_counter()
    with recorder.span("setup.dataset"):
        graph = load_dataset(args.dataset, num_points=args.num_points)
    host = EngineHost()
    host.deploy(DEPLOYMENT, SPEC, graph)
    build_s = time.perf_counter() - started
    app = GatewayApp(
        host,
        config=GatewayConfig(
            max_in_flight=MAX_IN_FLIGHT,
            rate_limit_qps=RATE_LIMIT_QPS,
            rate_limit_burst=RATE_LIMIT_BURST,
        ),
    )
    controller = TrafficController(host, DEPLOYMENT)
    app.attach_controller(controller)
    handle = serve_in_background(app)
    recorder.enabled = False
    _reply({"ready": True, "port": handle.port, "build_s": build_s,
            "setup_spans": recorder.take()})

    deltas = []
    before = None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on":
                before = host.stats(DEPLOYMENT)
                recorder.enabled = True
                _reply({"ok": True})
            elif command == "trace off" and before is not None:
                recorder.enabled = False
                deltas.append(stats_delta(before, host.stats(DEPLOYMENT)))
                before = None
                _reply({"ok": True})
            elif command == "dump":
                _reply({"spans": recorder.take(), "deltas": deltas,
                        "traffic": controller.stats().to_dict()})
            elif command == "quit":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        handle.close()
        controller.close()
        host.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
