"""Tests for the end-to-end self-healing loop."""

from types import SimpleNamespace

import pytest

from repro.core.approaches.bottleneck import BottleneckAnalysisApproach
from repro.core.approaches.manual import ManualRuleBased, Rule
from repro.core.approaches.signature import SignatureApproach
from repro.core.synopses import NearestNeighborSynopsis
from repro.faults.app_faults import DeadlockedThreadsFault
from repro.faults.db_faults import StaleStatisticsFault
from repro.faults.infra_faults import TierCapacityLossFault
from repro.faults.injector import FaultInjector
from repro.fixes.catalog import ALL_FIX_KINDS
from repro.healing.loop import SelfHealingLoop, drive_ticks
from repro.simulator.config import ServiceConfig
from repro.simulator.service import MultitierService


def _loop(approach, seed=11, threshold=5):
    service = MultitierService(ServiceConfig(seed=seed))
    injector = FaultInjector(service)
    loop = SelfHealingLoop(
        service, approach, injector=injector, threshold=threshold, seed=seed
    )
    loop.warmup()
    return service, injector, loop


class TestHealing:
    def test_bottleneck_approach_heals_capacity_loss(self):
        service, injector, loop = _loop(BottleneckAnalysisApproach())
        injector.inject(TierCapacityLossFault("app"), service.tick)
        reports = loop.run(250)
        assert len(reports) == 1
        report = reports[0]
        assert report.recovered
        assert not report.escalated
        assert report.successful_fix == "provision_tier"
        assert report.fault_kinds == ("tier_capacity_loss",)
        assert report.detection_ticks >= 0
        assert report.repair_ticks > 0

    def test_signature_approach_learns_across_episodes(self):
        approach = SignatureApproach(NearestNeighborSynopsis(ALL_FIX_KINDS))
        service, injector, loop = _loop(approach)
        injector.inject(DeadlockedThreadsFault("ItemBean"), service.tick)
        first = loop.run(400)[0]
        assert first.recovered
        samples_after_first = approach.synopsis.n_samples
        assert samples_after_first >= 1

        injector.inject(DeadlockedThreadsFault("ItemBean"), service.tick)
        second = loop.run(400)[0]
        assert second.recovered
        # The recurrence should need no more attempts than first time.
        assert second.attempts <= first.attempts

    def test_escalation_path_reaches_admin(self):
        # Rules that recommend only a useless fix for stale statistics:
        # the loop must walk Figure 3's lines 18-20.
        rules = [Rule("useless", lambda e: True, "kill_hung_query")]
        service, injector, loop = _loop(
            ManualRuleBased(rules), threshold=2
        )
        injector.inject(StaleStatisticsFault(), service.tick)
        reports = loop.run(200)
        assert len(reports) == 1
        report = reports[0]
        assert report.escalated
        # Restart was tried (line 19) but statistics survive restarts,
        # so the administrator had to finish it.
        assert report.admin_resolved
        assert report.recovered
        assert "notify_admin" in [a.kind for a in report.applications]
        assert not injector.any_active

    def test_report_phases_are_consistent(self):
        service, injector, loop = _loop(BottleneckAnalysisApproach())
        injector.inject(TierCapacityLossFault("db"), service.tick)
        report = loop.run(250)[0]
        assert report.injected_at <= report.detected_at
        assert report.detected_at <= report.recovered_at
        assert report.recovery_ticks == (
            report.detection_ticks + report.repair_ticks
        )


class TestLoopValidation:
    def test_threshold_validated(self):
        service = MultitierService(ServiceConfig(seed=1))
        with pytest.raises(ValueError):
            SelfHealingLoop(service, BottleneckAnalysisApproach(), threshold=0)

    def test_warmup_required_amount(self):
        service, injector, loop = _loop(BottleneckAnalysisApproach())
        assert loop.harness.baseline.ready


class _ScriptedLoop:
    """A stand-in loop whose ticks replay scripted ``slo_violated`` flags."""

    def __init__(self, flags):
        self.flags = list(flags)
        self.steps = 0

    def step_once(self):
        snapshot = SimpleNamespace(slo_violated=self.flags[self.steps])
        self.steps += 1
        return snapshot, None


class TestDriveTicks:
    """The one multi-tick pump behind warmup, fix costs, verify, settle."""

    def test_plain_budget_spends_every_tick(self):
        loop = _ScriptedLoop([False] * 10)
        assert drive_ticks(loop, 7) == (False, 7)
        assert loop.steps == 7

    @pytest.mark.parametrize("ticks", [0, -3])
    def test_non_positive_budget_spends_nothing(self, ticks):
        loop = _ScriptedLoop([])
        assert drive_ticks(loop, ticks) == (False, 0)
        assert drive_ticks(loop, ticks, stable_ticks=2) == (False, 0)
        assert loop.steps == 0

    def test_streak_stops_on_the_completing_tick(self):
        loop = _ScriptedLoop([True, False, False, False, False, False])
        assert drive_ticks(loop, 6, stable_ticks=3) == (True, 4)
        assert loop.steps == 4

    def test_violation_resets_the_streak(self):
        flags = [False, False, True, False, False, False, False]
        loop = _ScriptedLoop(flags)
        assert drive_ticks(loop, 7, stable_ticks=3) == (True, 6)
        assert loop.steps == 6

    def test_exhausted_budget_reports_unstable(self):
        loop = _ScriptedLoop([False, True] * 5)
        assert drive_ticks(loop, 10, stable_ticks=2) == (False, 10)
        assert loop.steps == 10


class TestAttemptLedger:
    """The retry-bookkeeping piece shared with the live loop."""

    def test_fresh_ledger_allows_everything(self):
        from repro.healing.loop import AttemptLedger

        ledger = AttemptLedger()
        assert ledger.allows("restart_service")
        assert ledger.excluded == set()

    def test_repeat_failure_on_same_target_excludes_the_kind(self):
        from repro.healing.loop import AttemptLedger

        ledger = AttemptLedger()
        ledger.note("restart_service", "db", fixed=False)
        assert ledger.allows("restart_service")
        ledger.note("restart_service", "db", fixed=False)
        assert not ledger.allows("restart_service")

    def test_new_target_keeps_the_kind_available(self):
        from repro.healing.loop import AttemptLedger

        ledger = AttemptLedger()
        ledger.note("restart_service", "db:100", fixed=False)
        ledger.note("restart_service", "db:200", fixed=False)
        assert ledger.allows("restart_service")

    def test_success_never_excludes(self):
        from repro.healing.loop import AttemptLedger

        ledger = AttemptLedger()
        ledger.note("clear_cache", "db", fixed=False)
        ledger.note("clear_cache", "db", fixed=True)
        assert ledger.allows("clear_cache")
