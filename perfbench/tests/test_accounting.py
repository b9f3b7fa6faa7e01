"""Failure accounting and healing figures on fabricated results."""

from __future__ import annotations

from repro.healing.report import EpisodeReport

from perfbench.run import account, end_to_end
from perfbench.workloads import WORKLOADS, Outcome, healing_stats, planned_ops


def _report(injected, detected, recovered, admin=False):
    return EpisodeReport(
        event_id=0,
        fault_kinds=("x",),
        fault_category="software",
        injected_at=injected,
        detected_at=detected,
        recovered_at=recovered,
        escalated=admin,
        admin_resolved=admin,
    )


def _campaign(fingerprint, ops=10, wall=2.0, speed=1.0, import_speed=1.0):
    return {
        "host_speed": speed,
        "import_speed": import_speed,
        "fingerprint": fingerprint,
        "healing": {"healing.ops": ops, "healing.ops_failed": 3},
        "ticks": 1000,
        "wall_s": wall,
        "cpu_s": 1.5,
        "setup_s": 0.5,
        "peak_rss_mb": 80.0,
    }


def test_healing_stats_counts_undetected_and_admin_as_failed():
    outcome = Outcome(
        ticks=500,
        reports=[
            _report(0, 4, 20),
            _report(100, 102, 130),
            _report(200, 203, 500, admin=True),
            _report(600, 610, None, admin=True),
        ],
        injected=6,
        undetected=2,
        fingerprint="f",
    )
    stats = healing_stats(outcome)
    assert stats["healing.ops"] == 6
    assert stats["healing.ops_failed"] == 2 + 2
    assert stats["healing.episodes"] == 4
    assert stats["healing.recoveries"] == 3
    # Recovery ticks 20, 30, 300; detection ticks 4, 2, 3, 10.
    assert stats["healing.mttr_ticks_p50"] == 30
    assert stats["healing.mttr_ticks_p75"] == 300
    assert stats["healing.mttr_above_p75"] == 0
    assert stats["healing.detect_ticks_p50"] == 3.5


def test_a_campaign_that_raised_fails_all_its_planned_ops():
    tally = account([_campaign("a"), None, _campaign("a")], "a", planned=12)
    assert tally["attempted"] == 10 + 12 + 10
    assert tally["failed"] == 12
    assert tally["raised"] == 1 and tally["mismatched"] == 0


def test_a_fingerprint_mismatch_fails_every_op_of_that_campaign():
    tally = account([_campaign("a"), _campaign("b"), _campaign("a")], "a", 10)
    assert tally["failed"] == 10 and tally["mismatched"] == 1


def test_without_a_reference_campaigns_must_agree_with_the_first():
    tally = account([_campaign("a"), _campaign("a"), _campaign("b")], None, 10)
    assert tally["mismatched"] == 1
    assert account([_campaign("a")] * 3, None, 10)["failed"] == 0


def test_healing_figures_must_repeat():
    other = _campaign("a")
    other["healing"] = {"healing.ops": 10, "healing.ops_failed": 4}
    assert not account([_campaign("a"), other], None, 10)["healing_repeats"]


def test_end_to_end_metrics_are_medians():
    metrics = end_to_end(
        [_campaign("a", wall=1.0), _campaign("a", wall=2.0), _campaign("a", wall=4.0)]
    )
    assert metrics["ticks_per_s"] == 500.0
    assert metrics["cpu_us_per_tick"] == 1500.0
    assert metrics["setup_s"] == 0.5
    assert metrics["peak_rss_mb"] == 80.0


def test_time_metrics_are_at_reference_host_speed():
    # A host running at half speed takes twice as long for the same work.
    slow = end_to_end(
        [_campaign("a", wall=4.0, speed=0.5, import_speed=0.8)] * 3
    )
    assert slow["ticks_per_s"] == 1000 / 4.0 / 0.5
    assert slow["cpu_us_per_tick"] == 1500.0 * 0.5
    # Set-up time follows the import probe, not the kernel.
    assert slow["setup_s"] == 0.5 * 0.8
    assert slow["peak_rss_mb"] == 80.0


def test_planned_ops_cover_every_service():
    assert planned_ops(WORKLOADS["fleet_stock"], 3) == 8 * 3
    assert planned_ops(WORKLOADS["campaign_wide"], 3) == 3
