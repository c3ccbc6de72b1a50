"""The scorecard's campaign registry: one build per campaign, no flags.

Each registered campaign is built from the deployment it runs on, so a
suite run builds exactly one deployment per campaign and counting the
suite builds none. Campaign names key the metric prefixes and the
``--campaign`` filter, so they must be unique across every family.
"""

import pytest

from repro.experiments import resilience_scorecard as rs
from repro.experiments.runner import run_all

PARAMS = rs.ScorecardParams.fast()


def all_entries():
    return [entry for entries in rs.REGISTRY.values() for entry in entries]


class TestBuilds:
    def test_suite_run_builds_one_deployment_per_campaign(self, monkeypatch):
        calls = []
        build = rs.build_deployment

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(rs, "build_deployment", counting)
        (result,) = run_all(fast=True, jobs=1, only=["resilience"],
                            verbose=False)
        assert len(calls) == len(rs.REGISTRY["standard"]) == 10
        assert result.comparisons

    def test_unit_count_builds_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("unit_count built a deployment")

        monkeypatch.setattr(rs, "build_deployment", refuse)
        for family, entries in rs.REGISTRY.items():
            assert rs.unit_count(family) == len(entries)
        assert rs.unit_count() == 10


class TestRegistry:
    def test_campaign_names_unique_across_families(self):
        names = [entry.name for entry in all_entries()]
        assert len(names) == len(set(names))

    def test_builders_name_their_entry_and_ignore_harness_settings(self):
        # A campaign's targets come from PoP, cloud and machine ids,
        # which no harness setting changes: the campaign built on its
        # own harnessed deployment equals one built on a bare platform.
        bare = rs.build_deployment(PARAMS)
        harnessed = {}
        for entry in all_entries():
            campaign = entry.build(bare, PARAMS.seed)
            assert campaign.name == entry.name
            key = entry.harnesses
            if key not in harnessed:
                harnessed[key] = rs.build_deployment(PARAMS, *key)
            assert entry.build(harnessed[key], PARAMS.seed) == campaign

    def test_harnesses_follow_from_checks(self):
        by_name = {entry.name: entry for entry in all_entries()}
        assert by_name["pop-loss"].harnesses == ()
        assert by_name["defense-guardrail"].harnesses == (rs.DefenseLadder,)
        assert by_name["rollout-validation"].harnesses == (rs.RolloutTrain,)
        assert by_name["dnssec-expiry-rollback"].harnesses == (
            rs.RolloutTrain,)
        assert by_name["gray-quorum-guard"].harnesses == (rs.GrayProber,)


class TestCli:
    def test_dnssec_and_gray_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            rs.main(["--fast", "--dnssec", "--gray"])
        assert exit_info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
