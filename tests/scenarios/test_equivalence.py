"""Acceptance: every spelling of one grid is one identity.

A :class:`~repro.scenarios.spec.MatrixSpec` built with ``config=None``
and one built with the explicit default ``GPUConfig()`` must produce the
same run id, so the second resumes the journal the first wrote — the
regression the spec refactor exists to fix.  Plus the prefetch sweep's
caching and NaN handling.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.runner import ResultMatrix, RunKey, run_scenario
from repro.resil import MatrixInterrupted
from repro.resil import chaos as resil_chaos
from repro.resil import journal as resil_journal
from repro.scenarios.spec import MatrixSpec
from repro.sim import cache as sim_cache
from repro.sim.config import GPUConfig

APPS = ("STN", "HOT")
POLICIES = ("lru", "ideal")
RATES = (0.5,)
SCALE = 0.25


@pytest.fixture(autouse=True)
def _chaos_clean():
    resil_chaos.deactivate()
    yield
    resil_chaos.deactivate()


@pytest.fixture
def fresh_cache(tmp_path):
    previous = sim_cache.cache_dir()
    sim_cache.configure(enabled=True, directory=tmp_path / "cache")
    yield tmp_path / "cache"
    sim_cache.configure(enabled=True, directory=previous)


class TestLegacyAndSpecForms:
    def test_run_id_ignores_explicit_default_configs(self):
        """The drift bug: None and default instances hash identically."""
        bare = MatrixSpec(POLICIES, RATES, APPS, seed=7, scale=SCALE)
        explicit = MatrixSpec(POLICIES, RATES, APPS, seed=7, scale=SCALE,
                              config=GPUConfig())
        assert (bare.run_id(), bare.spec_hash()) == \
            (explicit.run_id(), explicit.spec_hash())
        # A config that actually differs still separates the runs.
        tuned = MatrixSpec(POLICIES, RATES, APPS, seed=7, scale=SCALE,
                           config=GPUConfig().with_walk_latency(20))
        assert tuned.run_id() != bare.run_id()

    def test_cross_form_resume(self, fresh_cache):
        """A run interrupted under the bare form resumes under the
        explicit-default-config form — the exact pair the old run-id
        helper split into two unrelated journals."""
        with pytest.raises(MatrixInterrupted) as excinfo:
            run_scenario(MatrixSpec(POLICIES, RATES, APPS, scale=SCALE),
                         chaos="sigterm=2,seed=3", backoff=0.0)
        interrupted = excinfo.value
        assert interrupted.completed == 2

        resumed = run_scenario(MatrixSpec(POLICIES, RATES, APPS, scale=SCALE,
                                          config=GPUConfig()))
        assert resumed.run_id == interrupted.run_id
        assert len(resumed.results) == 4
        summary = resil_journal.load(interrupted.run_id)
        assert summary is not None
        assert summary.ended and summary.segments == 2

    def test_journal_records_spec_hash(self, fresh_cache):
        spec = MatrixSpec(policies=("lru",), rates=RATES, apps=("STN",),
                          scale=SCALE)
        matrix = run_scenario(spec)
        summary = resil_journal.load(matrix.run_id)
        assert summary is not None
        assert summary.spec["spec_hash"] == spec.spec_hash()
        assert "custom_config" not in summary.spec
        assert summary.spec["family"] == "paper"
        assert summary.spec["prefetch"] == 0


class TestPrefetchSweepCaching:
    def test_sweep_cells_are_cached(self, fresh_cache):
        from repro.experiments.sensitivity import prefetch

        first = prefetch(apps=["HOT"], degrees=(0, 3), scale=SCALE)
        hits_before = sim_cache.result_cache().stats.result_hits
        second = prefetch(apps=["HOT"], degrees=(0, 3), scale=SCALE)
        hits_after = sim_cache.result_cache().stats.result_hits
        assert hits_after - hits_before == 2  # both cells served warm
        assert first.rows == second.rows

    def test_nan_baseline_stays_nan(self, monkeypatch):
        """A NaN degree-0 mean must surface as NaN columns, not silently
        normalise every row by a NaN (the old ``or 1.0`` treated NaN as
        truthy and propagated it as a denominator)."""
        from repro.experiments import sensitivity

        class _Result:
            faults = 10
            ipc = float("nan")
            extras: dict = {}

        def _nan_run(spec, **kwargs):
            matrix = ResultMatrix()
            for cell in spec.cells():
                key = RunKey(cell.workload, cell.policy, cell.rate)
                matrix.put(key, _Result())
            return matrix

        monkeypatch.setattr(sensitivity, "run_scenario", _nan_run)
        with pytest.warns(RuntimeWarning):
            result = sensitivity.prefetch(apps=["HOT"], degrees=(0, 3))
        for row in result.rows:
            assert math.isnan(row[2])
