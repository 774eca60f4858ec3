"""Scenario registry, manifest pinning, and the three-hash round trip."""

from __future__ import annotations

import pytest

from repro.resil import journal as resil_journal
from repro.scenarios import (
    MatrixSpec,
    ScenarioError,
    ScenarioSpec,
    all_scenarios,
    get_scenario,
    register,
    registry_digests,
    scenario_names,
    unregister,
    verify_manifest,
)
from repro.scenarios.manifest import SCENARIO_DIGESTS
from repro.sim import cache as sim_cache


def _tiny_spec() -> MatrixSpec:
    return MatrixSpec(policies=("lru",), rates=(0.75,), apps=("BFS",))


class TestRegistry:
    def test_builtins_present(self):
        names = scenario_names()
        for expected in ("paper-grid", "paper-baselines", "smoke",
                         "walk-latency-20", "prefetch-64k"):
            assert expected in names

    def test_unknown_name_lists_known(self):
        with pytest.raises(ScenarioError, match="paper-grid"):
            get_scenario("definitely-not-registered")

    def test_register_unregister(self):
        try:
            entry = register("tmp-test-scenario", _tiny_spec(), "scratch")
            assert get_scenario("tmp-test-scenario") is entry
            with pytest.raises(ScenarioError, match="already registered"):
                register("tmp-test-scenario", _tiny_spec())
            register("tmp-test-scenario", _tiny_spec(), replace=True)
        finally:
            unregister("tmp-test-scenario")
        with pytest.raises(ScenarioError):
            get_scenario("tmp-test-scenario")

    def test_bad_names_rejected(self):
        with pytest.raises(ScenarioError):
            register("", _tiny_spec())
        with pytest.raises(ScenarioError):
            register("has space", _tiny_spec())

    def test_paper_grid_covers_full_suite(self):
        from repro.experiments.runner import PAPER_RATES, POLICY_NAMES
        from repro.workloads.suite import APPLICATION_ORDER

        spec = get_scenario("paper-grid").spec
        assert spec.policies == tuple(POLICY_NAMES)
        assert spec.rates == PAPER_RATES
        assert spec.apps == tuple(APPLICATION_ORDER)


class TestManifest:
    def test_manifest_matches_registry(self):
        """The committed digests pin every registered scenario (CI gate)."""
        assert verify_manifest() == []

    def test_drift_is_reported(self):
        try:
            register("tmp-unpinned", _tiny_spec())
            problems = verify_manifest()
            assert any("tmp-unpinned" in p and "not pinned" in p
                       for p in problems)
        finally:
            unregister("tmp-unpinned")
        assert verify_manifest() == []

    def test_digests_are_full_sha256(self):
        for name, digest in SCENARIO_DIGESTS.items():
            assert len(digest) == 64, name
            int(digest, 16)


class TestThreeHashRoundTrip:
    """Every registered scenario derives all three hashes from one spec."""

    def test_run_id_is_spec_hash_prefix(self):
        for entry in all_scenarios():
            assert entry.spec.run_id() == f"run-{entry.spec.spec_hash()[:12]}"

    def test_cell_digests_equal_cache_fingerprints(self):
        for entry in all_scenarios():
            cell = entry.spec.cells()[0]
            assert cell.digest() == ScenarioSpec(
                cell.workload, cell.policy, cell.rate,
                seed=cell.seed, scale=cell.scale, config=cell.config,
                hpe_config=cell.hpe_config,
                prefetch_degree=cell.prefetch_degree,
            ).digest()

    def test_journal_run_start_round_trips_to_same_hash(self):
        """A spec rebuilt from the journaled v2 fields reproduces the
        recorded hash — the proof `hpe-repro resume` relies on."""
        for entry in all_scenarios():
            spec = entry.spec
            if spec.config is not None:
                continue  # configs (by design) don't travel in the journal
            journaled = {
                "spec_hash": spec.spec_hash(),
                "family": spec.family,
                "policies": list(spec.policies),
                "rates": list(spec.rates),
                "apps": list(spec.apps),
                "seed": spec.seed,
                "scale": spec.scale,
                "prefetch": spec.prefetch_degree,
            }
            rebuilt = MatrixSpec(
                policies=tuple(journaled["policies"]),
                rates=tuple(journaled["rates"]),
                apps=tuple(journaled["apps"]),
                seed=journaled["seed"],
                scale=journaled["scale"],
                family=journaled["family"],
                prefetch_degree=journaled["prefetch"],
            )
            assert rebuilt.spec_hash() == journaled["spec_hash"], entry.name

    def test_custom_config_scenario_refuses_journal_round_trip(self):
        """walk-latency-20's config can't travel in the journal, so the
        rebuilt default-config spec must NOT reproduce its hash."""
        spec = get_scenario("walk-latency-20").spec
        assert spec.config is not None
        rebuilt = MatrixSpec(
            policies=spec.policies, rates=spec.rates, apps=spec.apps,
            seed=spec.seed, scale=spec.scale, family=spec.family,
            prefetch_degree=spec.prefetch_degree,
        )
        assert rebuilt.spec_hash() != spec.spec_hash()

    def test_hashes_pin_schema_versions(self):
        """Scenario hashes fold in both schema versions, so a bump moves
        every digest and the manifest must be updated deliberately."""
        spec = _tiny_spec()
        canonical = spec.canonical()
        assert f"journal-schema={resil_journal.JOURNAL_SCHEMA_VERSION}" in \
            canonical
        assert f"cache-schema={sim_cache.CACHE_SCHEMA_VERSION}" in canonical
