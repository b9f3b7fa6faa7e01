"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fleet_stock --seed 1 --seconds 35 --trace 0

Run from the checkout root; ``--workload all`` runs every workload in
turn.  Each campaign runs in a fresh process
(``perfbench/campaign.py``); campaigns of one seed repeat while the
next still fits in ``--seconds`` (at least three run), and host
metrics are their medians.  Time metrics are at reference host speed:
a fixed kernel sampled while each campaign runs measures how fast the
shared host runs right then, and an import probe run just before it
how fast the host imports (:mod:`perfbench.hostspeed`); the raw
``ticks_per_s`` is printed beside them.
The simulated healing figures are a pure function of (workload, seed),
so every campaign of a run must reproduce them exactly, and each
campaign's fingerprint must match the workload's reference:

* ``fleet_stock`` -- the same seed and shape run at ``workers=1``;
* ``trace_replay`` -- the recorded ``retry_storm`` run the trace came
  from;
* ``campaign_wide`` -- every other campaign of the run.

The replayed pack is ``retry_storm``, not ``flash_crowd``, because a
``flash_crowd`` replay does not reproduce its recording on about a
quarter of seeds.  Its recurring load bursts trip the detector while no
fault is active.  When that happens while the recorded campaign settles
between episodes, the loop heals it, but ``run_campaign`` keeps only
the episodes of injected faults, and ``replay_campaign`` returns every
episode of its loop: the replay has more (seed 1 at 30 episodes: 25
recorded, 26 replayed).  ``cache_stampede`` (3 of 12 seeds) and
``diurnal`` (1 of 100 seeds at 40 episodes) diverge the same way.
``retry_storm`` runs at constant load: none of its replays diverged
over 222 seeds (12 at 30 episodes, 60 at 40, 150 at 96), and none of
the 210 checked for it held a detection without an active fault (about
17,000 episodes).  Its traces also vary little in length from seed to
seed (ticks over seeds 101-120: IQR/median 0.03 at 80 episodes, against
0.20 for ``black_friday`` at 48), so ``peak_rss_mb`` is steady too.
The traced output counts a divergence as ``scenarios.replay_mismatch``.

The fingerprints canonicalize ``hung-<N>`` fix targets, which come from
a process-global counter in ``HungQueryFault``; the benchmark neither
tests that defect nor canonicalizes anything itself.

References and recorded traces are cached per seed under
``.perfbench/`` in the checkout, keyed by a hash of ``src/repro`` and
``perfbench/workloads.py``.
``--trace 1`` adds one traced campaign (wrappers from
``perfbench/layers.py``) and prints the per-layer metrics instead.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (operations are injected faults; those of
a campaign that raised or failed its output check count as failed) and
``metrics``.  The healing layer's own failures -- faults that went
undetected or needed the administrator -- are ``healing.ops_failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import hostspeed  # noqa: E402
from perfbench import manifest  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, planned_ops  # noqa: E402

MIN_CAMPAIGNS = 3
SAMPLE_EVERY_S = 0.25
MAX_CAMPAIGNS = 40
# Budget of one workload, references included: one run of one workload
# must end within 180 s.  ``--workload all`` gives each workload its own.
DEADLINE_S = 170.0
CACHE = os.path.join(ROOT, ".perfbench")
KEEP_TRACES = 8
# What each workload's campaigns must match (see the module docstring).
REFERENCE = {
    "fleet_stock": "the workers=1 run",
    "campaign_wide": "the first campaign",
    "trace_replay": "the recorded run",
}


class CampaignFailed(RuntimeError):
    """A campaign process exited non-zero or ran out of time."""


# ----------------------------------------------------------------------
# Child processes.
# ----------------------------------------------------------------------


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_campaign(args: list[str], timeout: float) -> dict:
    """Run ``perfbench.campaign`` with ``args``; return its JSON record.

    While the campaign runs, this process samples the host's speed
    (:func:`hostspeed.measure`) every ``SAMPLE_EVERY_S``; the record's
    ``host_speed`` is their mean, and its ``import_speed`` the import
    probe's reading just before.  The campaign prints one short line,
    well inside the pipe's buffer, so waiting before reading cannot
    block it.
    """
    deadline = time.monotonic() + max(1.0, timeout)
    import_speed = hostspeed.import_speed()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.campaign", *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    speeds = []
    try:
        while True:
            try:
                proc.wait(timeout=SAMPLE_EVERY_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    raise CampaignFailed(f"campaign {args} timed out") from None
                speeds.append(hostspeed.measure())
        out = proc.stdout.read()
    finally:
        # Kills a campaign that timed out, and fleet workers a crashed
        # one left behind.
        _reap_group(proc.pid)
        proc.wait()
        proc.stdout.close()
    lines = out.decode("utf-8").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CampaignFailed(f"campaign {args} exited {proc.returncode}")
    record = json.loads(lines[-1])
    record["host_speed"] = statistics.fmean(speeds or [hostspeed.measure()])
    record["import_speed"] = import_speed
    return record


# ----------------------------------------------------------------------
# References.
# ----------------------------------------------------------------------


def code_hash() -> str:
    """The cache key's version: a hash of ``src/repro`` and the workloads.

    ``perfbench/workloads.py`` is in it because it picks what a
    reference runs (the replayed pack, the fleet's shape).
    """
    digest = hashlib.sha256()
    base = os.path.join(ROOT, "src", "repro")
    paths = [os.path.join(ROOT, "perfbench", "workloads.py")]
    for folder, dirs, files in os.walk(base):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [
            os.path.join(folder, name)
            for name in sorted(files)
            if name.endswith(".py")
        ]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def reference(
    workload: Workload, seed: int, episodes: int, deadline: float
) -> tuple[str | None, str | None]:
    """(expected fingerprint or None, trace path or None) for a seed.

    Computed once per (seed, size, source) and cached; untimed.
    """
    if workload.name == "campaign_wide":
        return None, None
    os.makedirs(CACHE, exist_ok=True)
    key = os.path.join(
        CACHE, f"{workload.name}-{seed}-{episodes}-{code_hash()}"
    )
    trace = key + ".jsonl" if workload.name == "trace_replay" else None
    if os.path.exists(key + ".json") and (trace is None or os.path.exists(trace)):
        with open(key + ".json", encoding="utf-8") as handle:
            return json.load(handle)["fingerprint"], trace
    common = [
        "--workload", workload.name,
        "--seed", str(seed),
        "--episodes", str(episodes),
    ]
    if trace is None:
        record = run_campaign(
            [*common, "--mode", "reference"], deadline - time.monotonic()
        )
    else:
        _prune_traces()
        partial = trace + ".partial"
        record = run_campaign(
            [*common, "--mode", "record", "--trace", partial],
            deadline - time.monotonic(),
        )
        os.replace(partial, trace)
    with open(key + ".json", "w", encoding="utf-8") as handle:
        json.dump({"fingerprint": record["fingerprint"]}, handle)
    return record["fingerprint"], trace


def _prune_traces() -> None:
    traces = sorted(
        (os.path.join(CACHE, n) for n in os.listdir(CACHE) if n.endswith(".jsonl")),
        key=os.path.getmtime,
    )
    for path in traces[: max(0, len(traces) - KEEP_TRACES + 1)]:
        os.remove(path)


# ----------------------------------------------------------------------
# Accounting and metrics.
# ----------------------------------------------------------------------


def account(
    campaigns: list[dict | None], expected: str | None, planned: int
) -> dict:
    """Operations attempted and failed, and which output checks failed.

    ``campaigns`` holds each campaign's record, or None for one that
    raised.  Without a reference fingerprint, the first campaign's is
    the one every other must match.
    """
    done = [c for c in campaigns if c is not None]
    if expected is None and done:
        expected = done[0]["fingerprint"]
    attempted = failed = 0
    mismatched = 0
    for campaign in campaigns:
        if campaign is None:
            attempted += planned
            failed += planned
            continue
        ops = campaign["healing"]["healing.ops"]
        attempted += ops
        if campaign["fingerprint"] != expected:
            failed += ops
            mismatched += 1
    healing = [c["healing"] for c in done]
    return {
        "attempted": attempted,
        "failed": failed,
        "raised": sum(c is None for c in campaigns),
        "mismatched": mismatched,
        "healing_repeats": all(h == healing[0] for h in healing),
    }


def end_to_end(campaigns: list[dict]) -> dict[str, float]:
    """Host metrics: medians over the run's campaigns.

    Times are at reference host speed (see :mod:`perfbench.hostspeed`):
    campaign work by the speed sampled while it ran, set-up time by the
    import probe run right before it.
    """
    return {
        "ticks_per_s": statistics.median(
            c["ticks"] / c["wall_s"] / c["host_speed"] for c in campaigns
        ),
        "cpu_us_per_tick": statistics.median(
            c["cpu_s"] * 1e6 / c["ticks"] * c["host_speed"] for c in campaigns
        ),
        "setup_s": statistics.median(
            c["setup_s"] * c["import_speed"] for c in campaigns
        ),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in campaigns),
    }


def run_header(workload: Workload, seed: int) -> dict:
    import numpy

    cpus = os.cpu_count() or 1
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus
    return {
        "workload": workload.name,
        "seed": seed,
        "cpu_count": cpus,
        "usable_cpus": usable,
        "workers": workload.workers,
        "effective_workers": min(workload.workers, usable),
        "oversubscribed": workload.workers > usable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
    }


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` outside git)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


# ----------------------------------------------------------------------
# Main.
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--episodes",
        type=int,
        help="override the workload's campaign size (smoke tests)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        status = run_workload(WORKLOADS[name], args)
        if status:
            return status
    return 0


def run_workload(workload: Workload, args: argparse.Namespace) -> int:
    """Run one workload; print its report and result line."""
    deadline = time.monotonic() + DEADLINE_S
    episodes = args.episodes or workload.episodes
    planned = planned_ops(workload, episodes)
    header = run_header(workload, args.seed)
    header.update(seconds=args.seconds, episodes=episodes, trace=args.trace)
    print("# header " + json.dumps(header, sort_keys=True))
    print(f"# workload {workload.name}: {manifest.why(workload.name)}")

    try:
        expected, trace = reference(workload, args.seed, episodes, deadline)
    except CampaignFailed as exc:
        print(f"error: reference run failed: {exc}", file=sys.stderr)
        return 1
    common = [
        "--workload", workload.name,
        "--seed", str(args.seed),
        "--episodes", str(episodes),
    ]
    if trace is not None:
        common += ["--trace", trace]

    campaigns: list[dict | None] = []
    loop_started = time.monotonic()
    cost = 0.0  # mean seconds per campaign, process start-up included
    while len(campaigns) < MAX_CAMPAIGNS:
        now = time.monotonic()
        if len(campaigns) >= MIN_CAMPAIGNS and now - loop_started + cost > args.seconds:
            break
        if campaigns and now + 2 * cost > deadline:
            break
        try:
            campaigns.append(
                run_campaign([*common, "--mode", "timed"], deadline - now)
            )
        except CampaignFailed as exc:
            print(f"# campaign failed: {exc}", file=sys.stderr)
            campaigns.append(None)
        cost = (time.monotonic() - loop_started) / len(campaigns)
    done = [c for c in campaigns if c is not None]
    if not done:
        print("error: every campaign failed", file=sys.stderr)
        return 1
    tally = account(campaigns, expected, planned)
    correct = (
        tally["raised"] == 0 and tally["mismatched"] == 0 and tally["healing_repeats"]
    )

    host = end_to_end(done)
    healing = done[0]["healing"]
    speeds = [c["host_speed"] for c in done]
    print(
        f"# host speed {statistics.median(speeds):.3f} of reference "
        f"(range {min(speeds):.3f}-{max(speeds):.3f}); raw ticks_per_s "
        f"{statistics.median(c['ticks'] / c['wall_s'] for c in done):.6g}"
    )
    for name, unit in manifest.metrics("end_to_end"):
        print(
            f"# {name} = {host[name]:.6g} {unit} "
            f"(median of {len(done)} campaigns)"
        )
    print(
        "# healing (exact for this seed): "
        + ", ".join(f"{k[len('healing.'):]}={v}" for k, v in healing.items())
    )
    print(
        f"# checks: {len(done) - tally['mismatched']}/{len(campaigns)} campaigns "
        f"match the fingerprint of {REFERENCE[workload.name]}; "
        f"healing figures repeat: {tally['healing_repeats']}"
    )

    if args.trace:
        spool = os.path.join(CACHE, f"spool-{os.getpid()}")
        try:
            traced = run_campaign(
                [*common, "--mode", "traced", "--spool", spool],
                deadline - time.monotonic(),
            )
        except CampaignFailed as exc:
            print(f"error: traced campaign failed: {exc}", file=sys.stderr)
            return 1
        finally:
            if os.path.isdir(spool):
                for name in os.listdir(spool):
                    os.remove(os.path.join(spool, name))
                os.rmdir(spool)
        traced_ok = traced["restored"] and traced["fingerprint"] == (
            expected or done[0]["fingerprint"]
        )
        correct = correct and traced_ok
        tally["attempted"] += traced["healing"]["healing.ops"]
        if not traced_ok:
            tally["failed"] += traced["healing"]["healing.ops"]
        values = dict(traced["layer"])
        values.update(healing)
        values["tracing_overhead"] = (
            traced["ticks"] / traced["wall_s"] / traced["host_speed"]
        ) / host["ticks_per_s"]
        values["scenarios.replay_mismatch"] = int(
            trace is not None and done[0]["fingerprint"] != expected
        )
        values["scenarios.trace_mb"] = (
            os.path.getsize(trace) / 1e6 if trace is not None else 0.0
        )
        print(
            f"# traced campaign: {traced['processes']} processes, wrappers "
            f"restored: {traced['restored']}, fingerprint matches: {traced_ok}"
        )
        per_layer = manifest.metrics("per_layer")
        for name, unit in per_layer:
            print(f"# {name} = {values[name]:.6g} {unit}")
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in per_layer
        }
    else:
        metrics = {
            name: {"value": host[name], "unit": unit}
            for name, unit in manifest.metrics("end_to_end")
        }
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": tally["attempted"],
                "failed": tally["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
