"""One campaign of one workload, in a fresh process.

``python3 -m perfbench.campaign --workload W --mode M --seed N
--episodes E [--trace PATH] [--spool DIR]`` runs from the checkout root
and prints one JSON object on its last line of standard output.

Modes:

* ``timed`` -- the measured call, tracing off;
* ``traced`` -- the same call with every wrapper of
  :func:`perfbench.layers.targets` installed, then restored;
* ``reference`` -- the ``fleet_stock`` campaign at ``workers=1``,
  whose fingerprint every timed fleet campaign must match;
* ``record`` -- records the ``retry_storm`` trace ``trace_replay`` replays.

Set-up time runs from the start of this module to the timed call: it
covers importing ``repro`` and its entry points.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the reaped workers.
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


def _traced_call(call, spool: str, run_id: str):
    """Run ``call`` with every layer wrapper installed; restore after."""
    from perfbench import layers
    from perfbench.tracing import ROOT_SPAN, ProcessSpans, SpanRecorder, install

    os.makedirs(spool, exist_ok=True)
    recorder = SpanRecorder(run_id, spool_dir=spool)
    installed = install(recorder, layers.targets())
    try:
        root = recorder.open(ROOT_SPAN)
        started = time.perf_counter()
        outcome = call()
        wall = time.perf_counter() - started
        recorder.close(root)
    finally:
        installed.restore()
    processes = [recorder.snapshot()]
    for name in sorted(os.listdir(spool)):
        path = os.path.join(spool, name)
        processes.append(ProcessSpans.load(path))
        os.remove(path)
    metrics = layers.layer_metrics(processes)
    return outcome, wall, metrics, installed.restored(), len(processes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--mode",
        choices=("timed", "traced", "reference", "record"),
        required=True,
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--episodes", type=int, required=True)
    parser.add_argument("--trace")
    parser.add_argument("--spool")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from perfbench import workloads

    workload = workloads.WORKLOADS[args.workload]
    workloads.import_entry_points()

    if args.mode == "record":
        call = functools.partial(
            workloads.record_trace, args.seed, args.episodes, args.trace
        )
    else:
        call = functools.partial(
            workloads.run,
            workload,
            args.seed,
            args.episodes,
            trace_path=args.trace,
            workers=1 if args.mode == "reference" else None,
        )

    record = {"setup_s": time.perf_counter() - STARTED}
    cpu_before = _cpu_s()
    if args.mode == "traced":
        outcome, wall, layer, restored, n_proc = _traced_call(
            call, args.spool, f"{args.workload}-{args.seed}-{os.getpid()}"
        )
        record.update(layer=layer, restored=restored, processes=n_proc)
    else:
        started = time.perf_counter()
        outcome = call()
        wall = time.perf_counter() - started
    record.update(
        wall_s=wall,
        cpu_s=_cpu_s() - cpu_before,
        peak_rss_mb=_peak_rss_mb(),
        ticks=outcome.ticks,
        fingerprint=outcome.fingerprint,
        healing=workloads.healing_stats(outcome),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
