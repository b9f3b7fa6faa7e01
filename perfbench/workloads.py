"""The benchmark's workloads and the public entry point each one calls.

Every workload calls a public ``repro`` entry point with its default
knobs (``engine``, ``fuse`` and ``staleness_rounds`` are never passed),
so a later change to what those defaults select needs no benchmark
edit.  A campaign is a closed loop: one process drives it to
completion, and the only inputs the program receives are the seed and
the sizes below (plus, for ``trace_replay``, a trace recorded for the
seed before timing).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

FLEET_SERVICES = 8
FLEET_WORKERS = 2
# The scenario pack whose recorded trace ``trace_replay`` replays (see
# ``perfbench/run.py`` for why not ``flash_crowd``).
REPLAY_PACK = "retry_storm"


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Its one-line rationale, with the layers it loads and bypasses, is in
    ``BENCHMARK.json``.

    Attributes:
        name: the ``--workload`` value.
        episodes: fault episodes per service of one campaign.
        workers: worker processes the campaign asks for.
    """

    name: str
    episodes: int
    workers: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fleet_stock", episodes=16, workers=FLEET_WORKERS),
        Workload("campaign_wide", episodes=24),
        Workload("trace_replay", episodes=96),
    )
}


@dataclass
class Outcome:
    """What one campaign produced, reduced to what the benchmark checks."""

    ticks: int
    reports: list
    injected: int
    undetected: int
    fingerprint: str


def _fleet_outcome(result) -> Outcome:
    from repro.scenarios.corpus import fingerprint_fleet

    pooled = result.pooled
    return Outcome(
        ticks=pooled.total_ticks,
        reports=pooled.reports,
        injected=pooled.injected,
        undetected=pooled.undetected,
        fingerprint=fingerprint_fleet(result),
    )


def _campaign_outcome(result) -> Outcome:
    from repro.scenarios.corpus import fingerprint_result

    return Outcome(
        ticks=result.total_ticks,
        reports=result.reports,
        injected=result.injected,
        undetected=result.undetected,
        fingerprint=fingerprint_result(result),
    )


def import_entry_points() -> None:
    """Import everything the entry points need (part of set-up time)."""
    import repro.fleet.campaign  # noqa: F401
    import repro.scenarios.corpus  # noqa: F401
    import repro.scenarios.runner  # noqa: F401


def run(
    workload: Workload,
    seed: int,
    episodes: int,
    trace_path: str | None = None,
    workers: int | None = None,
) -> Outcome:
    """Drive one campaign of ``workload`` to completion."""
    from repro.fleet import campaign as fleet
    from repro.scenarios import runner

    if workload.name == "fleet_stock":
        result = fleet.run_fleet_campaign(
            n_services=FLEET_SERVICES,
            episodes_per_service=episodes,
            seed=seed,
            workers=workload.workers if workers is None else workers,
        )
        return _fleet_outcome(result)
    if workload.name == "campaign_wide":
        run_result = runner.run_scenario(
            "wide_mix", seed=seed, n_episodes=episodes
        )
        return _campaign_outcome(run_result.result)
    if workload.name == "trace_replay":
        if trace_path is None:
            raise ValueError("trace_replay needs a recorded trace")
        return _campaign_outcome(runner.replay_campaign(trace_path).result)
    raise KeyError(f"unknown workload {workload.name!r}")


def record_trace(seed: int, episodes: int, path: str) -> Outcome:
    """Record the ``REPLAY_PACK`` campaign that ``trace_replay`` replays."""
    from repro.scenarios import runner

    run_result = runner.run_scenario(
        REPLAY_PACK, seed=seed, n_episodes=episodes, record_path=path
    )
    return _campaign_outcome(run_result.result)


def planned_ops(workload: Workload, episodes: int) -> int:
    """Faults a campaign injects; what a campaign that raised loses."""
    if workload.name == "fleet_stock":
        return FLEET_SERVICES * episodes
    return episodes


def healing_stats(outcome: Outcome) -> dict[str, float]:
    """Simulated healing figures: a pure function of (workload, seed).

    An operation is one injected fault; it fails when it goes
    undetected or an administrator had to finish the episode (Figure
    3's fallback).
    """
    recoveries = [
        r.recovery_ticks for r in outcome.reports if r.recovery_ticks is not None
    ]
    detections = [r.detection_ticks for r in outcome.reports]
    p75 = (
        statistics.quantiles(recoveries, n=4)[2]
        if len(recoveries) > 1
        else float(sum(recoveries))
    )
    return {
        "healing.episodes": len(outcome.reports),
        "healing.recoveries": len(recoveries),
        "healing.mttr_ticks_p50": (
            statistics.median(recoveries) if recoveries else 0
        ),
        "healing.mttr_ticks_p75": p75,
        "healing.mttr_above_p75": sum(1 for t in recoveries if t > p75),
        "healing.detect_ticks_p50": (
            statistics.median(detections) if detections else 0
        ),
        "healing.ops": outcome.injected,
        "healing.ops_failed": outcome.undetected
        + sum(1 for r in outcome.reports if r.admin_resolved),
    }
