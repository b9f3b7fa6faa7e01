"""Tests for the dataset generator and injection campaigns."""

import numpy as np
import pytest

from repro.core.approaches.bottleneck import BottleneckAnalysisApproach
from repro.experiments.campaign import run_campaign
from repro.experiments.data import (
    FailureEpisodeGenerator,
    generate_failure_dataset,
)
from repro.faults.catalog import catalog_entry
from repro.fixes.catalog import ALL_FIX_KINDS


class TestEpisodeGenerator:
    def test_episodes_have_valid_labels(self):
        generator = FailureEpisodeGenerator(seed=31)
        for _ in range(6):
            symptoms, label, kind = generator.next_episode()
            assert label in ALL_FIX_KINDS
            assert symptoms.shape == (generator.n_features,)
            assert np.all(np.isfinite(symptoms))
            # The label is the catalogued canonical fix of the fault.
            assert label == catalog_entry(kind).candidate_fixes[0]

    def test_feature_names_align(self):
        generator = FailureEpisodeGenerator(seed=31)
        generator.next_episode()
        names = generator.feature_names
        assert len(names) == generator.n_features
        assert names[0].startswith("z.")

    def test_deterministic_given_seed(self):
        a = FailureEpisodeGenerator(seed=77)
        b = FailureEpisodeGenerator(seed=77)
        sa, la, ka = a.next_episode()
        sb, lb, kb = b.next_episode()
        assert ka == kb and la == lb
        assert np.allclose(sa, sb)

    def test_restricted_fault_pool(self):
        generator = FailureEpisodeGenerator(
            seed=5, fault_kinds=("network_fault",)
        )
        _, label, kind = generator.next_episode()
        assert kind == "network_fault"
        assert label == "failover_network"

    def test_dataset_materialization(self):
        dataset, kinds = generate_failure_dataset(8, seed=13)
        assert dataset.n_samples == 8
        assert len(kinds) == 8
        assert set(dataset.labels) <= set(ALL_FIX_KINDS)


class TestCampaign:
    @pytest.mark.parametrize("knob", ["settle_ticks", "max_episode_wait"])
    def test_patience_below_one_rejected(self, knob):
        with pytest.raises(ValueError, match=knob):
            run_campaign(
                approach=BottleneckAnalysisApproach(),
                n_episodes=1,
                seed=41,
                **{knob: -5},
            )

    def test_campaign_produces_reports(self):
        campaign = run_campaign(
            approach=BottleneckAnalysisApproach(),
            n_episodes=4,
            seed=41,
            category_mix={"hardware": 0.5, "software": 0.5},
        )
        assert len(campaign.reports) == 4
        for report in campaign.reports:
            assert report.fault_category in ("hardware", "software")
            assert report.attempts >= 0

    def test_explicit_fault_schedule(self):
        from repro.faults.infra_faults import TierCapacityLossFault

        campaign = run_campaign(
            approach=BottleneckAnalysisApproach(),
            n_episodes=2,
            seed=42,
            faults=[
                TierCapacityLossFault("app"),
                TierCapacityLossFault("web"),
            ],
        )
        assert len(campaign.reports) == 2
        assert all(
            r.fault_kinds == ("tier_capacity_loss",)
            for r in campaign.reports
        )
        assert all(not r.escalated for r in campaign.reports)

    def test_by_category_grouping(self):
        campaign = run_campaign(
            approach=BottleneckAnalysisApproach(),
            n_episodes=3,
            seed=43,
            category_mix={"network": 1.0},
        )
        grouped = campaign.by_category()
        assert set(grouped) == {"network"}
        assert len(grouped["network"]) == 3

    def test_schedule_exhaustion_stops_campaign(self):
        # Asking for more episodes than the explicit schedule holds
        # must stop at exhaustion, not loop or resample.
        from repro.faults.infra_faults import TierCapacityLossFault

        campaign = run_campaign(
            approach=BottleneckAnalysisApproach(),
            n_episodes=5,
            seed=44,
            faults=[TierCapacityLossFault("app")],
        )
        assert campaign.injected == 1
        assert len(campaign.reports) <= 1

    def test_undetected_fault_accounting(self):
        # A barely-perceptible surge never violates the SLO: it must be
        # cleared and counted as undetected, with no episode report.
        from repro.faults.infra_faults import LoadSurgeFault

        campaign = run_campaign(
            approach=BottleneckAnalysisApproach(),
            n_episodes=1,
            seed=45,
            faults=[LoadSurgeFault(factor=1.01, duration_ticks=30)],
            max_episode_wait=40,
        )
        assert campaign.undetected == 1
        assert campaign.injected == 1
        assert campaign.reports == []
        assert np.isnan(campaign.mean_detection_ticks())

    def test_detection_latency_statistic(self):
        from repro.faults.infra_faults import TierCapacityLossFault

        campaign = run_campaign(
            approach=BottleneckAnalysisApproach(),
            n_episodes=2,
            seed=46,
            faults=[
                TierCapacityLossFault("app"),
                TierCapacityLossFault("db"),
            ],
        )
        assert len(campaign.reports) == 2
        expected = np.mean(
            [r.detected_at - r.injected_at for r in campaign.reports]
        )
        assert campaign.mean_detection_ticks() == pytest.approx(expected)
        assert campaign.mean_detection_ticks() >= 0.0
