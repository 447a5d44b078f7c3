"""Layer benchmark entry point.

Usage, from the root of a checkout::

    python3 layerbench/run.py --workload route-http --seed 1 --seconds 10 --trace 0

Workloads: ``route-http`` and ``live-updates`` (see their modules and
``BENCHMARK.json``).  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it wraps every layer's entry points
(:mod:`spans`) and prints the per-layer ledger instead, writing the spans to
``.bench_work/spans-<workload>.jsonl``.  The last stdout line is the result
object; the line before it holds the provenance and run details.  The
run, and the server child it starts, is pinned to one CPU
(:func:`common.pin_to_one_cpu`).  A run whose program cannot be imported
exits non-zero without a result.

``--dataset``, ``--setup-repeats`` and ``--min-samples`` shrink a run for
the smoke test; measured runs leave them at their defaults.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import sys
import traceback

import common
from workload import Config

WORKLOADS = {
    "route-http": "route_http",
    "live-updates": "live_updates",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dataset", default=common.DATASET)
    parser.add_argument("--setup-repeats", type=int, default=common.SETUP_REPEATS)
    parser.add_argument("--min-samples", type=int, default=common.MIN_SAMPLES)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cpu = common.pin_to_one_cpu()
    common.import_program()
    tmp = common.private_tempdir()
    cfg = Config(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        dataset=args.dataset,
        setup_repeats=args.setup_repeats,
        min_samples=args.min_samples,
    )
    ticks = common.cpu_ticks()
    try:
        if cfg.trace:
            from spans import Recorder

            cfg.recorder = Recorder()
            cfg.recorder.install()
        module = importlib.import_module(WORKLOADS[args.workload])
        result = module.run(cfg)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if cfg.recorder is not None:
            cfg.recorder.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)

    details = {
        "provenance": common.provenance(
            args.workload, args.seed, args.seconds, cfg.trace, cfg.dataset
        ),
        **result.details,
        "host_steal_share": common.steal_share(ticks, common.cpu_ticks()),
        "pinned_cpu": cpu,
        "end_to_end": {name: value for name, (value, _unit) in result.metrics.items()},
    }
    if cfg.trace:
        from spans import write_spans

        write_spans(common.WORK / f"spans-{args.workload}.jsonl", result.spans)
    common.emit(
        correct=result.correct,
        attempted=result.attempted,
        failed=result.failed,
        metrics=result.layers if cfg.trace else result.metrics,
        details=details,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
