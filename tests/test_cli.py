"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["list"]).command == "list"
        assert parser.parse_args(["figure", "10"]).id == "10"
        assert parser.parse_args(["table", "2"]).id == "2"
        args = parser.parse_args(["run", "--app", "HSD", "--rate", "0.5"])
        assert args.app == "HSD" and args.rate == 0.5

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "99"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "HSD",
                                       "--policy", "magic"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "HSD" in out and "hybridsort" in out

    def test_run(self, capsys):
        assert main(["run", "--app", "STN", "--policy", "lru",
                     "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "faults" in out and "IPC" in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "16 GB/s" in capsys.readouterr().out

    def test_figure_with_subset(self, capsys):
        assert main(["figure", "9", "--apps", "HOT", "--scale", "0.5"]) == 0
        assert "regular" in capsys.readouterr().out

    def test_ablation_subset(self, capsys):
        assert main(["ablation", "--apps", "STN",
                     "--variants", "full,always-lru", "--scale", "0.5"]) == 0
        assert "always-lru" in capsys.readouterr().out

    def test_overhead_search(self, capsys):
        assert main(["overhead", "search"]) == 0
        assert "comparisons" in capsys.readouterr().out


class TestDiffCommand:
    def test_small_slice_is_bit_identical(self, capsys):
        assert main(["diff", "--seeds", "5", "--length", "256",
                     "--generators", "strided",
                     "--policies", "lru,hpe"]) == 0
        out = capsys.readouterr().out
        assert "4 cells: ok" in out
        assert "bit-identical" in out

    def test_unknown_policy_exits_2(self, capsys):
        assert main(["diff", "--policies", "lru,bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown policy 'bogus'" in err
        assert "hpe" in err  # the known policies are listed

    def test_non_integer_seed_exits_2(self, capsys):
        assert main(["diff", "--seeds", "5,x"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_retired_tier3_flags_are_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["diff", "--relaxed"])
        for flag in (["--skip-trends"], ["--trend-dir", "x"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["golden", *flag])


class TestHarnessCommands:
    @pytest.fixture
    def fresh_cache(self, tmp_path, monkeypatch):
        """An empty cache (chaos only reaches cells that run) and an
        environment restored afterwards: ``main`` writes the flags'
        variables into ``os.environ``."""
        from repro.resil import chaos as resil_chaos
        from repro.sim import cache as sim_cache

        for name in ("REPRO_CHAOS", "REPRO_JOBS"):
            monkeypatch.setenv(name, "")
            monkeypatch.delenv(name)
        previous = sim_cache.cache_dir()
        sim_cache.configure(enabled=True, directory=tmp_path / "cache")
        resil_chaos.deactivate()
        yield tmp_path / "cache"
        resil_chaos.deactivate()
        sim_cache.configure(enabled=True, directory=previous)

    def test_unknown_app_exits_2_before_any_cell_runs(self, fresh_cache,
                                                      capsys):
        from repro.resil import journal as resil_journal

        assert main(["figure", "10", "--apps", "BOGUS,STN",
                     "--scale", "0.25"]) == 2
        err = capsys.readouterr().err
        assert "unknown application(s) BOGUS" in err
        assert "STN" in err and "HYB" in err  # the known list
        assert resil_journal.list_runs() == []

    def test_interrupted_figure_exits_75_then_completes(self, fresh_cache,
                                                        monkeypatch, capsys):
        command = ["figure", "13", "--apps", "STN,HOT", "--scale", "0.25"]
        assert main(command + ["--chaos", "sigterm=1"]) == 75
        assert "resume with: hpe-repro resume run-" in capsys.readouterr().err
        monkeypatch.delenv("REPRO_CHAOS")
        assert main(command) == 0
        out = capsys.readouterr().out
        assert "STN 75%" in out and "DEGRADED" not in out


class TestUnknownApplication:
    @pytest.mark.parametrize("command", [
        ["run", "--app", "BOGUS"],
        ["trace", "BOGUS"],
        ["trace", "--app", "bogus", "--out", "F"],
        ["stats", "BOGUS"],
        ["check", "invariants", "BOGUS"],
        ["check", "determinism", "bogus"],
        ["analyze", "--app", "BOGUS"],
    ], ids=["run", "trace", "trace-dump", "stats", "check-invariants",
            "check-determinism", "analyze"])
    def test_exits_2_with_the_known_list(self, command, tmp_path,
                                          monkeypatch, capsys):
        # Relative outputs (F, trace's default events file) land here.
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--scale", "0.25"]) == 2
        err = capsys.readouterr().err
        assert f"{command[0]}: unknown application(s) BOGUS" in err
        assert "STN" in err and "HYB" in err  # the known list
        assert list(tmp_path.iterdir()) == []

    def test_check_journal_positional_stays_a_run_id(self, capsys):
        assert main(["check", "journal", "run-0000"]) == 1
        captured = capsys.readouterr()
        assert "run-0000: no journal on disk" in captured.out
        assert "unknown application" not in captured.err


class TestCacheCommand:
    def test_info_reports_location(self, capsys):
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "directory" in out
        assert "cached results" in out

    def test_clear_empties_cache(self, capsys):
        from repro.sim import cache as sim_cache
        main(["run", "--app", "STN", "--policy", "lru", "--scale", "0.5"])
        assert sim_cache.result_cache().entry_count() >= 1
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert sim_cache.result_cache().entry_count() == 0

    def test_invalid_action_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "evaporate"])


class TestRuntimeFlags:
    def test_jobs_flag_sets_env(self, capsys, monkeypatch):
        import os
        from repro.experiments.runner import ENV_JOBS
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert main(["run", "--app", "STN", "--policy", "lru",
                     "--scale", "0.5", "--jobs", "2"]) == 0
        assert os.environ[ENV_JOBS] == "2"

    def test_timeout_zero_disables_enforcement(self, monkeypatch):
        from repro.cli import _apply_runtime_flags
        from repro.resil.settings import resolve

        # setenv then delenv: unset for the test, restored afterwards
        # (the flags write os.environ directly).
        for name in ("REPRO_WORKER_TIMEOUT", "REPRO_TIMEOUT"):
            monkeypatch.setenv(name, "1")
            monkeypatch.delenv(name)
        args = build_parser().parse_args(["figure", "3", "--timeout", "0"])
        _apply_runtime_flags(args)
        assert resolve().worker_timeout == 0.0

    def test_no_cache_disables_store(self, capsys):
        from repro.sim import cache as sim_cache
        main(["cache", "clear"])
        capsys.readouterr()
        try:
            assert main(["run", "--app", "STN", "--policy", "lru",
                         "--scale", "0.5", "--no-cache"]) == 0
            assert sim_cache.result_cache().entry_count() == 0
        finally:
            sim_cache.configure(enabled=True)


class TestTraceAndAnalyze:
    def test_trace_dump_and_analyze_file(self, tmp_path, capsys):
        out = tmp_path / "stn.trace"
        assert main(["trace", "--app", "STN", "--out", str(out),
                     "--scale", "0.5"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--file", str(out),
                     "--capacities", "100,200"]) == 0
        text = capsys.readouterr().out
        assert "inferred pattern : II" in text
        assert "miss curves" in text

    def test_analyze_app_directly(self, capsys):
        assert main(["analyze", "--app", "HOT", "--scale", "0.5"]) == 0
        text = capsys.readouterr().out
        assert "reuse fraction   : 0.0%" in text
        assert "inferred pattern : I" in text

    def test_analyze_requires_source(self):
        with pytest.raises(SystemExit):
            main(["analyze"])

    def test_sensitivity_prefetch(self, capsys):
        assert main(["sensitivity", "prefetch", "--apps", "STN",
                     "--scale", "0.5"]) == 0
        assert "prefetch degree" in capsys.readouterr().out

    def test_trace_without_app_or_positional_errors(self):
        with pytest.raises(SystemExit):
            main(["trace"])


class TestObservability:
    @pytest.fixture(autouse=True)
    def _reset_obs_override(self, monkeypatch):
        from repro import obs as obs_module

        monkeypatch.setattr(obs_module, "_enabled_override", None)

    def test_event_trace_mode(self, tmp_path, capsys):
        out = tmp_path / "stn.events.jsonl"
        assert main(["trace", "STN", "hpe", "0.75",
                     "--scale", "0.25", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "schema-valid events" in text
        assert "fault" in text
        from repro.obs import validate_file

        assert validate_file(out) > 0

    def test_event_trace_default_output_name(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "STN", "--scale", "0.25"]) == 0
        assert (tmp_path / "STN-hpe-75.events.jsonl").is_file()

    def test_stats_with_app_dumps_registry(self, capsys):
        assert main(["stats", "STN", "lru", "0.75",
                     "--scale", "0.25"]) == 0
        text = capsys.readouterr().out
        assert "driver.faults = " in text
        assert "engine.cycles = " in text

    def test_stats_without_app_reports_state(self, capsys):
        assert main(["stats"]) == 0
        text = capsys.readouterr().out
        assert "observability    : disabled" in text
        assert "cache.result_hits" in text

    def test_obs_flag_enables_observation(self, capsys):
        from repro import obs as obs_module

        assert main(["run", "--app", "STN", "--scale", "0.25",
                     "--obs", "--no-cache"]) == 0
        assert obs_module.enabled()
        assert "intervals obs." in capsys.readouterr().out

    def test_run_without_obs_prints_no_snapshots(self, capsys):
        assert main(["run", "--app", "STN", "--scale", "0.25",
                     "--no-cache"]) == 0
        assert "intervals obs." not in capsys.readouterr().out
