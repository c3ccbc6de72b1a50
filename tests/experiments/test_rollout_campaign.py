"""The rollout campaigns: containment holds and runs are deterministic."""

import json

from repro.experiments import resilience_scorecard as scorecard

PARAMS = scorecard.ScorecardParams.fast()


def index_of(name):
    for i, entry in enumerate(scorecard.REGISTRY["standard"]):
        if entry.name == name:
            return i
    raise AssertionError(f"campaign {name!r} not in the standard suite")


def serialized(result):
    return json.dumps(result.to_dict(include_series=True),
                      sort_keys=True).encode("utf-8")


class TestContainmentCampaign:
    def test_double_run_is_byte_identical(self):
        index = index_of("rollout-containment")
        first = scorecard.run_unit(PARAMS, index)
        second = scorecard.run_unit(PARAMS, index)
        assert serialized(first) == serialized(second)
        assert first.all_hold

    def test_blast_radius_confined_to_canaries(self):
        entry = scorecard.REGISTRY["standard"][
            index_of("rollout-containment")]
        assert scorecard.blast_contained in entry.checks
        assert entry.harnesses == (scorecard.RolloutTrain,)
        outcome = scorecard.run_campaign(PARAMS, entry)
        hit = set(outcome.rollout.blast)
        canaries = outcome.rollout.canary_ids
        assert hit, "the corruption never reached a canary"
        assert hit <= canaries, \
            f"blast escaped the cohort: {hit - canaries}"
        rollback_s = outcome.rollout.rollback_seconds()
        assert rollback_s is not None
        assert rollback_s <= scorecard.ROLLOUT_SOAK


class TestValidationCampaign:
    def test_all_bad_releases_rejected_without_blast(self):
        index = index_of("rollout-validation")
        result = scorecard.run_unit(PARAMS, index)
        assert result.all_hold
        assert result.metrics["rollout-validation.rejections"] == 3.0


class TestCampaignFilter:
    def test_only_substring_selects_campaigns(self):
        result = scorecard.run(PARAMS, only="rollout-validation")
        names = {comp.metric.split(":")[0] for comp in result.comparisons}
        assert names == {"rollout-validation"}

    def test_unknown_filter_exits(self):
        import pytest
        with pytest.raises(SystemExit):
            scorecard.run(PARAMS, only="no-such-campaign")
