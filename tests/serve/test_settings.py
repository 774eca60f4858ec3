"""The typed REPRO_* settings resolver (ISSUE 9 satellite 2)."""

from __future__ import annotations

import pytest

from repro.resil import settings as resil_settings
from repro.resil.settings import KNOBS, ResilSettings, field_names, resolve


class TestResolveOrder:
    def test_defaults_without_env(self, monkeypatch):
        for knob in KNOBS:
            monkeypatch.delenv(knob.env, raising=False)
        monkeypatch.delenv(resil_settings.ENV_LEGACY_TIMEOUT, raising=False)
        settings = resolve()
        for knob in KNOBS:
            assert getattr(settings, knob.name) == knob.default

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_RATE_LIMIT", "12.5")
        monkeypatch.setenv("REPRO_MAX_QUEUE", "3")
        settings = resolve()
        assert settings.rate_limit == 12.5
        assert settings.max_queue == 3

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "9")
        assert resolve(retries=1).retries == 1

    def test_none_override_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "9")
        assert resolve(retries=None).retries == 9

    def test_unknown_override_raises(self):
        with pytest.raises(TypeError, match="unknown settings override"):
            resolve(not_a_knob=1)

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKOFF", "sideways")
        monkeypatch.setenv("REPRO_MAX_CONCURRENT", "-2")
        monkeypatch.delenv("REPRO_WORKER_TIMEOUT", raising=False)
        monkeypatch.setenv(resil_settings.ENV_LEGACY_TIMEOUT, "soon")
        monkeypatch.setenv("REPRO_RETRIES", "-3")
        settings = resolve()
        assert settings.backoff == 0.25
        assert settings.max_concurrent == 4
        assert settings.worker_timeout == 600.0
        assert settings.retries == 2


class TestZeroSemantics:
    def test_worker_timeout_zero_is_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "0")
        assert resolve().worker_timeout == 0.0

    def test_legacy_timeout_cannot_express_zero(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKER_TIMEOUT", raising=False)
        monkeypatch.setenv(resil_settings.ENV_LEGACY_TIMEOUT, "0")
        assert resolve().worker_timeout == 600.0

    def test_legacy_timeout_positive_still_works(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKER_TIMEOUT", raising=False)
        monkeypatch.setenv(resil_settings.ENV_LEGACY_TIMEOUT, "42.5")
        assert resolve().worker_timeout == 42.5

    def test_preferred_name_beats_legacy(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "10")
        monkeypatch.setenv(resil_settings.ENV_LEGACY_TIMEOUT, "99")
        assert resolve().worker_timeout == 10.0

    def test_zero_invalid_where_meaningless(self, monkeypatch):
        monkeypatch.setenv("REPRO_RATE_BURST", "0")
        monkeypatch.setenv("REPRO_SERVE_JOBS", "0")
        settings = resolve()
        assert settings.rate_burst == 100.0
        assert settings.serve_jobs == 2


class TestIntrospection:
    def test_every_field_has_a_knob_and_vice_versa(self):
        assert set(field_names()) == {knob.name for knob in KNOBS}

    def test_describe_reports_sources(self, monkeypatch):
        for knob in KNOBS:
            monkeypatch.delenv(knob.env, raising=False)
        monkeypatch.delenv(resil_settings.ENV_LEGACY_TIMEOUT, raising=False)
        monkeypatch.setenv("REPRO_RETRIES", "5")
        rows = {row["name"]: row for row in resolve(backoff=1.5).describe()}
        assert rows["retries"]["source"] == "env"
        assert rows["backoff"]["source"] == "override"
        assert rows["rate_limit"]["source"] == "default"

    def test_lines_mention_every_env_name(self):
        dump = "\n".join(ResilSettings().lines())
        for knob in KNOBS:
            assert knob.env in dump

    def test_every_knob_documented(self):
        for knob in KNOBS:
            assert len(knob.description) > 10
            assert knob.kind in ("float", "int")

    def test_supervisor_resolvers_route_through_settings(self, monkeypatch):
        from repro.resil.supervisor import WorkerSupervisor

        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "0")
        monkeypatch.setenv("REPRO_RETRIES", "7")
        for jobs in (1, 2):
            supervisor = WorkerSupervisor(abs, jobs)
            assert supervisor.timeout == 0.0
            assert supervisor.retries == 7
        assert WorkerSupervisor(abs, 1, retries=1).retries == 1
