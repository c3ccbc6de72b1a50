"""CLI entry-point tests: dig tool and the experiment runner's flags."""

import json

import pytest


class TestDigMain:
    def test_main_resolves_and_exits_zero(self, capsys):
        from repro.tools.dig import main
        code = main(["www.acme.net", "A", "--seed", "11"])
        out = capsys.readouterr().out
        assert code == 0
        assert ";; QUESTION: www.acme.net. A" in out
        assert "203.0.113.10" in out

    def test_main_trace_flag(self, capsys):
        from repro.tools.dig import main
        code = main(["www.acme.net", "--trace", "--seed", "11"])
        out = capsys.readouterr().out
        assert code == 0
        assert ";; TRACE:" in out
        assert "198.41.0.4" in out

    def test_unknown_qtype_rejected(self):
        from repro.tools.dig import main
        with pytest.raises(ValueError):
            main(["www.acme.net", "BOGUS"])


class TestRunnerJSON:
    def test_json_export_roundtrips(self, tmp_path):
        # Use one cheap experiment directly to keep the test fast, then
        # exercise the same serialization path the runner's --json uses.
        from repro.experiments import fig1_qps
        result = fig1_qps.run()
        path = tmp_path / "out.json"
        path.write_text(json.dumps(
            [result.to_dict(include_series=True)], indent=2))
        loaded = json.loads(path.read_text())
        assert loaded[0]["experiment_id"] == "fig1"
        assert loaded[0]["all_hold"] is True
        assert len(loaded[0]["series"]["qps"][0]) > 100


class TestFiguresTool:
    def test_render_markdown(self):
        from repro.experiments import fig1_qps
        from repro.tools.figures import render_markdown
        doc = render_markdown([fig1_qps.run()])
        assert "## fig1" in doc
        assert "```" in doc
        assert "* qps" in doc


class TestBenchMain:
    def test_check_runs_without_consulting_drift_guard(
            self, tmp_path, monkeypatch, capsys):
        # --check never rewrites BENCH_experiments.json, so a host unlike
        # the recorder must still measure and compare.
        from repro.tools import bench

        fresh = {"metrics": {metric: 1.0 for metric in bench._GATED},
                 "info": {}}
        micro = tmp_path / "BENCH_micro.json"
        micro.write_text(json.dumps(fresh))
        experiments = tmp_path / "BENCH_experiments.json"
        experiments.write_text(json.dumps(
            {"machine": {"cpus": -1, "python": "0.0"}}))

        def drift_guard(_recorded):
            raise AssertionError("drift guard consulted under --check")

        monkeypatch.setattr(bench, "MICRO_PATH", micro)
        monkeypatch.setattr(bench, "EXPERIMENTS_PATH", experiments)
        monkeypatch.setattr(bench, "check_machine_drift", drift_guard)
        monkeypatch.setattr(bench, "run_micro", lambda: fresh)
        assert bench.main(["--check"]) == 0
        assert "gated metrics within" in capsys.readouterr().out

    def test_rewriting_experiments_still_refuses_a_drifted_host(
            self, tmp_path, monkeypatch):
        from repro.tools import bench

        experiments = tmp_path / "BENCH_experiments.json"
        experiments.write_text(json.dumps(
            {"machine": {"cpus": -1, "python": "0.0"}}))

        def no_micro():
            raise AssertionError("measured before the drift guard")

        monkeypatch.setattr(bench, "EXPERIMENTS_PATH", experiments)
        monkeypatch.setattr(bench, "run_micro", no_micro)
        assert bench.main([]) == 1


class TestRunnerModule:
    def test_python_m_runner_raises_no_runpy_warning(self):
        # The package must not import .runner eagerly: runpy warns when
        # the module it is about to execute is already in sys.modules.
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.experiments.runner", "--help"],
            capture_output=True, text=True, env=env, timeout=120)
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert "RuntimeWarning" not in completed.stderr

    def test_run_all_still_importable_from_the_package(self):
        from repro.experiments import run_all
        from repro.experiments.runner import run_all as runner_run_all
        assert run_all is runner_run_all


class TestProfileTool:
    def test_regenerating_keeps_the_hand_kept_records(
            self, tmp_path, monkeypatch, capsys):
        from repro.experiments import parallel
        from repro.tools import profile

        path = tmp_path / "PROFILES.md"
        records = f"{profile.RECORDS_HEADING}\n\n| metric | before | after |\n"
        path.write_text("# Experiment hotspot profiles\n\nstale\n\n" + records)
        monkeypatch.setattr(parallel, "JOB_ORDER", ())
        profile.profile_all_figures(path=path)
        text = path.read_text()
        assert "stale" not in text
        assert text.endswith(records)
