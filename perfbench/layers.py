"""Which ``repro`` functions the traced run wraps, and what they add up to.

Every span name is ``<layer>.<part>``, where the layer is a package of
``src/repro``.  :func:`targets` builds the wrapper table (the traced run
installs it around the public entry points and restores it afterwards);
:func:`layer_metrics` turns the spans and counters of all processes of
one traced campaign into the per-layer metrics listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics

from perfbench import manifest
from perfbench.tracing import (
    END,
    PARENT,
    ROOT_SPAN,
    START,
    TAG,
    ProcessSpans,
    Target,
)

NS_PER_MS = 1_000_000

# ----------------------------------------------------------------------
# Counting hooks: ``hook(recorder, args, kwargs, result) -> tag``.
# ----------------------------------------------------------------------


def _on_service_step(recorder, args, kwargs, snapshot):
    recorder.count("simulator.ticks")
    if not snapshot.available:
        recorder.count("simulator.downtime_ticks")


def _on_engine_tick(recorder, args, kwargs, result):
    query_counts = args[1] if len(args) > 1 else kwargs["query_counts"]
    recorder.count("database.engine.queries", result.total_queries)
    recorder.sample(
        "database.engine.width",
        sum(1 for count in query_counts.values() if count > 0),
    )


def _on_detector(recorder, args, kwargs, event):
    if event is not None:
        recorder.count("monitoring.detector.events")


def _on_outcome(recorder, args, kwargs, result):
    fixed = args[3] if len(args) > 3 else kwargs["fixed"]
    recorder.count("healing.fix_attempts")
    if fixed:
        recorder.count("healing.fix_verified")


def _member_round_tag(recorder, args, kwargs, result):
    return args[0].index


def _on_absorb(recorder, args, kwargs, absorbed):
    recorder.count("fleet.knowledge.absorbed", absorbed)


def _on_log_append(recorder, args, kwargs, result):
    lengths = args[2] if len(args) > 2 else kwargs["lengths"]
    recorder.count("fleet.knowledge.published", len(lengths))


def _on_contribute(recorder, args, kwargs, entry):
    if entry is not None:
        recorder.count("fleet.knowledge.published")


def _defining(base: type, attr: str) -> list[type]:
    """``base`` and its loaded subclasses that define ``attr`` themselves."""
    found, pending, seen = [], [base], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        method = cls.__dict__.get(attr)
        if method is not None and not getattr(
            method, "__isabstractmethod__", False
        ):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__qualname__)


def targets() -> list[Target]:
    """The wrapper table, one row per wrapped function."""
    from repro.core.approaches.base import FixIdentifier
    from repro.core.approaches.signature import SignatureApproach
    from repro.database.engine import DatabaseEngine
    from repro.faults.injector import FaultInjector
    from repro.fixes.base import Fix
    import repro.fixes.catalog  # noqa: F401 - loads every fix class
    from repro.fleet import transport
    from repro.fleet.knowledge import (
        KnowledgeSharingApproach,
        SharedKnowledgeBase,
    )
    from repro.fleet.loadbalancer import FleetLoadBalancer
    from repro.fleet.member import FleetMember
    from repro.healing import loop
    from repro.monitoring.baseline import BaselineModel
    from repro.monitoring.collectors import MetricCollector
    from repro.monitoring.detector import FailureDetector
    from repro.monitoring.timeseries import MetricStore
    from repro.monitoring.tracing import CallMatrixTracer
    from repro.scenarios import trace
    from repro.simulator.service import MultitierService
    from repro.simulator.tiers.app import AppTier
    from repro.simulator.tiers.db import DatabaseTier
    from repro.simulator.tiers.web import WebTier
    from repro.simulator.workload import Workload

    rows = [
        Target(Workload, "requests_at", "simulator.workload"),
        Target(WebTier, "process", "simulator.web"),
        Target(AppTier, "process", "simulator.app"),
        Target(DatabaseTier, "attribute", "simulator.db_attribute"),
        Target(MultitierService, "step", "simulator.step", _on_service_step),
        Target(
            DatabaseEngine, "process_tick", "database.engine", _on_engine_tick
        ),
        Target(MetricCollector, "collect", "monitoring.collect"),
        Target(MetricStore, "append", "monitoring.store"),
        Target(CallMatrixTracer, "observe", "monitoring.tracer"),
        Target(CallMatrixTracer, "freeze_baseline", "monitoring.tracer"),
        Target(BaselineModel, "fit_baseline", "monitoring.baseline_fit"),
        Target(FailureDetector, "observe", "monitoring.detector", _on_detector),
        Target(loop.HealingHarness, "observe", "monitoring.harness"),
        Target(SignatureApproach, "recommend", "core.recommend"),
        Target(KnowledgeSharingApproach, "recommend", "core.recommend"),
        Target(FixIdentifier, "observe_tick", "core.learn"),
        Target(SignatureApproach, "observe_outcome", "core.learn", _on_outcome),
        Target(SignatureApproach, "observe_admin_fix", "core.learn"),
        Target(KnowledgeSharingApproach, "observe_tick", "core.learn"),
        Target(KnowledgeSharingApproach, "observe_outcome", "core.learn"),
        Target(KnowledgeSharingApproach, "observe_admin_fix", "core.learn"),
        Target(loop.SelfHealingLoop, "step_once", "healing.step"),
        Target(loop, "drive_ticks", "healing.control"),
        Target(FleetMember, "run_round", "fleet.member_round", _member_round_tag),
        Target(FleetMember, "absorb", "fleet.absorb", _on_absorb),
        Target(transport, "acquire_with_liveness", "fleet.wait"),
        Target(transport.ControlSegment, "publish_round", "fleet.dispatch"),
        Target(transport.ControlSegment, "read_round", "fleet.transport"),
        Target(
            transport.KnowledgeLogSegment, "read_entries", "fleet.transport"
        ),
        Target(transport.WorkerOutSegment, "write_round", "fleet.transport"),
        Target(transport.WorkerOutSegment, "read_round", "fleet.merge"),
        Target(
            transport.KnowledgeLogSegment,
            "append_batch",
            "fleet.merge",
            _on_log_append,
        ),
        Target(SharedKnowledgeBase, "contribute", "fleet.merge", _on_contribute),
        Target(SharedKnowledgeBase, "contribute_batch_coded", "fleet.merge"),
        Target(FleetLoadBalancer, "rebalance", "fleet.rebalance"),
        Target(trace, "load_trace", "scenarios.load_trace"),
        Target(trace.ReplayService, "step", "scenarios.replay_step"),
        Target(trace.ReplayInjector, "on_tick", "faults.on_tick"),
    ]
    rows += [
        Target(cls, "on_tick", "faults.on_tick")
        for cls in _defining(FaultInjector, "on_tick")
    ]
    rows += [
        Target(cls, "apply", "fixes.apply") for cls in _defining(Fix, "apply")
    ]
    return rows


# ----------------------------------------------------------------------
# Spans -> per-layer metrics.
# ----------------------------------------------------------------------


def _busy_by_worker_round(worker: ProcessSpans) -> dict[int, int]:
    """ns a worker spent in member rounds, per fleet round.

    A member's k-th ``run_round`` call is its round k (every member
    runs exactly one call per round), so rounds are recovered from the
    member index carried in the span tag.
    """
    rows = worker.of("fleet.member_round")
    rows = rows[rows[:, START].argsort(kind="stable")]
    calls: dict[int, int] = {}
    busy: dict[int, int] = {}
    for row in rows:
        member = int(row[TAG])
        k = calls.get(member, 0)
        calls[member] = k + 1
        busy[k] = busy.get(k, 0) + int(row[END] - row[START])
    return busy


def fleet_metrics(processes: list[ProcessSpans]) -> dict[str, float]:
    """Coordinator/worker split of the fleet layer's time.

    Busy time is the mean over workers of their member-round time; the
    straggler time sums, over rounds, the slowest worker's busy time
    minus the fastest one's.  Waits are ``acquire_with_liveness`` spans:
    the coordinator's are barrier waits, the workers' dispatch waits.
    """
    coordinator = [p for p in processes if p.role == "coordinator"]
    workers = [p for p in processes if p.role == "worker"]
    out = {
        "fleet.startup_ms": 0.0,
        "fleet.worker_busy_ms": 0.0,
        "fleet.straggler_ms": 0.0,
        "fleet.barrier_wait_ms": 0.0,
        "fleet.dispatch_wait_ms": 0.0,
    }
    for proc in coordinator:
        dispatches = proc.of("fleet.dispatch")
        roots = proc.of(ROOT_SPAN)
        if len(dispatches) and len(roots):
            out["fleet.startup_ms"] += (
                int(dispatches[:, START].min()) - int(roots[:, START].min())
            ) / NS_PER_MS
        out["fleet.barrier_wait_ms"] += _span_ns(proc.of("fleet.wait")) / NS_PER_MS
    if workers:
        per_worker = [_busy_by_worker_round(w) for w in workers]
        out["fleet.worker_busy_ms"] = (
            statistics.fmean(sum(b.values()) for b in per_worker) / NS_PER_MS
        )
        rounds = set().union(*per_worker)
        out["fleet.straggler_ms"] = (
            sum(
                max(b.get(r, 0) for b in per_worker)
                - min(b.get(r, 0) for b in per_worker)
                for r in rounds
            )
            / NS_PER_MS
        )
        out["fleet.dispatch_wait_ms"] = (
            sum(_span_ns(w.of("fleet.wait")) for w in workers) / NS_PER_MS
        )
    return out


def _span_ns(rows) -> int:
    return int((rows[:, END] - rows[:, START]).sum())


def layer_metrics(processes: list[ProcessSpans]) -> dict[str, float]:
    """Per-layer metrics of one traced campaign (all its processes)."""
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    widths: list[float] = []
    wall_ns = 0
    unattributed_ns = 0
    for proc in processes:
        for name, ns in proc.self_ns_by_name().items():
            self_ns[name] = self_ns.get(name, 0) + ns
        for name, n in proc.calls_by_name().items():
            calls[name] = calls.get(name, 0) + n
        for name, value in proc.counters.items():
            counters[name] = counters.get(name, 0) + value
        widths += proc.samples.get("database.engine.width", [])
        roots = proc.spans[:, PARENT] < 0
        wall_ns += int(proc.durations()[roots].sum())
        unattributed_ns += int(proc.self_times()[roots].sum())

    # Spans whose self time, summed over processes, is the manifest's
    # ``<span>.self_ms`` metric.
    self_timed = [
        name[: -len(".self_ms")]
        for name, _ in manifest.metrics("per_layer")
        if name.endswith(".self_ms")
    ]
    out = {
        f"{span}.self_ms": self_ns.get(span, 0) / NS_PER_MS
        for span in self_timed
    }
    for name in (
        "simulator.ticks",
        "simulator.downtime_ticks",
        "database.engine.queries",
        "monitoring.detector.events",
        "healing.fix_attempts",
        "fleet.knowledge.published",
        "fleet.knowledge.absorbed",
    ):
        out[name] = counters.get(name, 0)
    out["database.engine.calls"] = calls.get("database.engine", 0)
    out["database.engine.width_p50"] = (
        statistics.median(widths) if widths else 0
    )
    out["monitoring.baseline_fit.calls"] = calls.get(
        "monitoring.baseline_fit", 0
    )
    out["core.recommend.calls"] = calls.get("core.recommend", 0)
    attempts = counters.get("healing.fix_attempts", 0)
    out["healing.fix_success_ratio"] = (
        counters.get("healing.fix_verified", 0) / attempts if attempts else 0.0
    )
    out.update(fleet_metrics(processes))
    out["traced_wall_ms"] = wall_ns / NS_PER_MS
    out["unattributed_ms"] = unattributed_ns / NS_PER_MS
    return out
