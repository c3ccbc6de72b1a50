"""Gray-failure scorecard campaigns: SLO grading plus prober passivity.

Two properties carry the PR's acceptance criteria: the opt-in
``--gray`` campaigns must grade green on the fast platform, and an
enabled prober with *no* gray faults must be a pure observer — the
SLO probe's measurements are indistinguishable from a run without the
prober, and no verdict ever moves off healthy.
"""

from repro.chaos import Campaign
from repro.experiments import resilience_scorecard as rs


def gray_index(name):
    return next(i for i, entry in enumerate(rs.REGISTRY["gray"])
                if entry.name == name)


class TestGrayCorruptionCampaign:
    def test_conviction_probation_and_detection_all_grade_green(self):
        params = rs.ScorecardParams.fast()
        result = rs.run_unit(params, gray_index("gray-corruption"),
                             family="gray")
        assert result.all_hold, result.render()
        assert result.metrics["gray-corruption.gray_convictions"] >= 1
        assert result.metrics["gray-corruption.gray_suspensions"] >= 1
        assert result.metrics["gray-corruption.gray_rejoins"] >= 1
        # Detection latency is a first-class scorecard output.
        assert "gray-corruption.gray_ttd_s" in result.metrics
        assert "gray-corruption.gray_evidence_to_conviction_s" \
            in result.metrics


class TestGrayQuorumGuardCampaign:
    def test_mass_gray_failure_degrades_but_keeps_serving(self):
        params = rs.ScorecardParams.fast()
        result = rs.run_unit(params, gray_index("gray-quorum-guard"),
                             family="gray")
        assert result.all_hold, result.render()
        budget = result.metrics["gray-quorum-guard.gray_suspensions"]
        assert budget <= result.metrics[
            "gray-quorum-guard.gray_convictions"]
        assert result.metrics["gray-quorum-guard.gray_denials"] >= 1
        assert result.metrics[
            "gray-quorum-guard.gray_window_availability"] >= 0.5


class TestProberPassivity:
    def test_idle_prober_changes_no_slo_measurement(self):
        params = rs.ScorecardParams.fast()

        def idle(deployment, seed):
            return Campaign("idle", duration=30.0, seed=seed)

        base = rs.run_campaign(params, rs.Entry("idle", idle, ()))
        probed = rs.run_campaign(
            params, rs.Entry("idle", idle, (rs.gray_machine_convicted,)))
        assert base.gray is None
        for attr in ("overall_availability", "worst_window_availability",
                     "total_servfails", "total_timeouts"):
            assert getattr(probed.report, attr) \
                == getattr(base.report, attr)
        assert probed.gray.prober.convictions == 0
        assert probed.gray.prober.suspensions == 0
        assert set(probed.gray.prober.verdict_counts()) == {"healthy"}
