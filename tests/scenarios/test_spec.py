"""Scenario specs: canonical-form stability and hash consistency."""

from __future__ import annotations

import pickle

import pytest

from repro.core.hpe import HPEConfig
from repro.scenarios.spec import (
    DEFAULT_SEED,
    GOLDEN_FAMILY,
    MatrixSpec,
    ScenarioError,
    ScenarioSpec,
    stable_config_repr,
)
from repro.sim import cache as sim_cache
from repro.sim.config import GPUConfig


class TestScenarioSpecCanonical:
    def test_default_vs_explicit_construction(self):
        """Every normalisation rule: defaults and explicit values agree."""
        implicit = ScenarioSpec(workload="bfs", policy="LRU", rate=0.75)
        explicit = ScenarioSpec(
            workload="BFS",
            policy="lru",
            rate=0.75,
            seed=DEFAULT_SEED,
            scale=1.0,
            family="paper",
            config=GPUConfig(),
            hpe_config=HPEConfig(),  # ignored: lru can't see it
            prefetch_degree=0,
            params=(),
        )
        assert implicit.canonical() == explicit.canonical()
        assert implicit.digest() == explicit.digest()

    def test_keyword_order_is_irrelevant(self):
        a = ScenarioSpec(workload="STN", policy="hpe", rate=0.5, seed=11,
                         scale=0.25)
        b = ScenarioSpec(scale=0.25, seed=11, rate=0.5, policy="hpe",
                         workload="STN")
        assert a == b
        assert a.canonical() == b.canonical()

    def test_hpe_config_only_counts_for_hpe(self):
        tuned = HPEConfig(transfer_interval=32)
        lru_default = ScenarioSpec(workload="BFS", policy="lru", rate=0.75)
        lru_tuned = ScenarioSpec(workload="BFS", policy="lru", rate=0.75,
                                 hpe_config=tuned)
        assert lru_default.digest() == lru_tuned.digest()
        hpe_default = ScenarioSpec(workload="BFS", policy="hpe", rate=0.75)
        hpe_tuned = ScenarioSpec(workload="BFS", policy="hpe", rate=0.75,
                                 hpe_config=tuned)
        assert hpe_default.digest() != hpe_tuned.digest()
        hpe_explicit = ScenarioSpec(workload="BFS", policy="hpe", rate=0.75,
                                    hpe_config=HPEConfig())
        assert hpe_default.digest() == hpe_explicit.digest()

    def test_every_identity_field_moves_the_digest(self):
        base = ScenarioSpec(workload="BFS", policy="lru", rate=0.75)
        variants = [
            ScenarioSpec(workload="STN", policy="lru", rate=0.75),
            ScenarioSpec(workload="BFS", policy="hpe", rate=0.75),
            ScenarioSpec(workload="BFS", policy="lru", rate=0.5),
            ScenarioSpec(workload="BFS", policy="lru", rate=0.75, seed=8),
            ScenarioSpec(workload="BFS", policy="lru", rate=0.75, scale=0.5),
            ScenarioSpec(workload="BFS", policy="lru", rate=0.75,
                         prefetch_degree=1),
            ScenarioSpec(workload="BFS", policy="lru", rate=0.75,
                         config=GPUConfig().with_walk_latency(20)),
            ScenarioSpec(workload="bfs", policy="lru", rate=0.75,
                         family=GOLDEN_FAMILY,
                         params=(("length", 2048),)),
        ]
        digests = [base.digest()] + [v.digest() for v in variants]
        assert len(set(digests)) == len(digests)

    def test_params_sorted_and_validated(self):
        a = ScenarioSpec(workload="x", policy="lru", rate=0.5,
                         family=GOLDEN_FAMILY,
                         params=(("b", 2), ("a", 1)))
        b = ScenarioSpec(workload="x", policy="lru", rate=0.5,
                         family=GOLDEN_FAMILY,
                         params={"a": 1, "b": 2})
        assert a.params == (("a", 1), ("b", 2))
        assert a.digest() == b.digest()
        with pytest.raises(ScenarioError):
            ScenarioSpec(workload="x", policy="lru", rate=0.5,
                         params=(("a", 1), ("a", 2)))
        with pytest.raises(ScenarioError):
            ScenarioSpec(workload="x", policy="lru", rate=0.5,
                         params=(("a", [1, 2]),))

    def test_unknown_family_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(workload="x", policy="lru", rate=0.5, family="ml")

    def test_negative_prefetch_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(workload="BFS", policy="lru", rate=0.5,
                         prefetch_degree=-1)

    def test_from_dict_rejects_unknown_fields(self):
        spec = ScenarioSpec.from_dict(
            {"workload": "BFS", "policy": "lru", "rate": 0.75}
        )
        assert spec == ScenarioSpec(workload="BFS", policy="lru", rate=0.75)
        with pytest.raises(ScenarioError, match="unknown ScenarioSpec"):
            ScenarioSpec.from_dict(
                {"workload": "BFS", "policy": "lru", "rate": 0.75,
                 "prefetch": 3}
            )

    def test_from_dict_coerces_config_mappings(self):
        spec = ScenarioSpec.from_dict({
            "workload": "BFS", "policy": "hpe", "rate": 0.75,
            "hpe_config": {"transfer_interval": 32},
        })
        assert spec.hpe_config == HPEConfig(transfer_interval=32)
        with pytest.raises(ScenarioError, match="unknown HPEConfig"):
            ScenarioSpec.from_dict({
                "workload": "BFS", "policy": "hpe", "rate": 0.75,
                "hpe_config": {"transfer_cadence": 32},
            })

    def test_spec_pickles_to_same_digest(self):
        """Workers must journal the digest the parent computed."""
        spec = ScenarioSpec(workload="BFS", policy="hpe", rate=0.75,
                            hpe_config=HPEConfig(transfer_interval=32),
                            prefetch_degree=3)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_digest_matches_cache_fingerprint(self):
        """sim_cache.fingerprint is a pure alias of ScenarioSpec.digest."""
        spec = ScenarioSpec(workload="BFS", policy="hpe", rate=0.75,
                            seed=11, scale=0.5, prefetch_degree=3)
        assert spec.digest() == sim_cache.fingerprint(
            "BFS", "hpe", 0.75, seed=11, scale=0.5, prefetch_degree=3
        )
        assert spec.digest() == sim_cache.fingerprint(
            "bfs", "HPE", 0.75, seed=11, scale=0.5,
            config=GPUConfig(), hpe_config=HPEConfig(), prefetch_degree=3,
        )

    def test_stable_config_repr_none(self):
        assert stable_config_repr(None) == "None"
        assert stable_config_repr(GPUConfig()).startswith("GPUConfig(")


class TestMatrixSpec:
    def test_config_none_equals_default_instance(self):
        """The run-id drift bug: None and GPUConfig() are the same matrix."""
        bare = MatrixSpec(policies=("lru",), rates=(0.75,), apps=("BFS",))
        explicit = MatrixSpec(policies=("LRU",), rates=(0.75,),
                              apps=("bfs",), config=GPUConfig())
        assert bare.spec_hash() == explicit.spec_hash()
        assert bare.run_id() == explicit.run_id()

    def test_hpe_config_only_counts_when_grid_runs_hpe(self):
        tuned = HPEConfig(transfer_interval=32)
        no_hpe = MatrixSpec(policies=("lru", "fifo"), rates=(0.75,),
                            apps=("BFS",), hpe_config=tuned)
        no_hpe_bare = MatrixSpec(policies=("lru", "fifo"), rates=(0.75,),
                                 apps=("BFS",))
        assert no_hpe.spec_hash() == no_hpe_bare.spec_hash()
        with_hpe = MatrixSpec(policies=("lru", "hpe"), rates=(0.75,),
                              apps=("BFS",), hpe_config=tuned)
        with_hpe_bare = MatrixSpec(policies=("lru", "hpe"), rates=(0.75,),
                                   apps=("BFS",))
        assert with_hpe.spec_hash() != with_hpe_bare.spec_hash()

    def test_cells_fold_order(self):
        spec = MatrixSpec(policies=("lru", "hpe"), rates=(0.75, 0.5),
                          apps=("BFS", "STN"))
        triples = [(c.rate, c.workload, c.policy) for c in spec.cells()]
        assert triples == [
            (rate, app, policy)
            for rate in (0.75, 0.5)
            for app in ("BFS", "STN")
            for policy in ("lru", "hpe")
        ]

    def test_cell_digest_matches_standalone_spec(self):
        spec = MatrixSpec(policies=("hpe",), rates=(0.5,), apps=("BFS",),
                          seed=11, scale=0.25, prefetch_degree=3)
        [cell] = spec.cells()
        standalone = ScenarioSpec(workload="BFS", policy="hpe", rate=0.5,
                                  seed=11, scale=0.25, prefetch_degree=3)
        assert cell.digest() == standalone.digest()

    def test_from_dict_rejects_unknown_and_scalar_sequences(self):
        with pytest.raises(ScenarioError, match="unknown MatrixSpec"):
            MatrixSpec.from_dict({"policies": ["lru"], "rates": [0.75],
                                  "apps": ["BFS"], "jobs": 4})
        with pytest.raises(ScenarioError, match="sequence"):
            MatrixSpec.from_dict({"policies": "lru", "rates": [0.75],
                                  "apps": ["BFS"]})

    def test_describe_is_json_able(self):
        import json

        spec = MatrixSpec(policies=("lru",), rates=(0.75,), apps=("BFS",))
        described = json.loads(json.dumps(spec.describe()))
        assert described["run_id"] == spec.run_id()
        assert described["cells"] == 1


class TestFastpathField:
    """The requested simulator tier: validated, never in the identity."""

    def test_bit_exact_tiers_share_one_identity(self):
        base = ScenarioSpec(workload="BFS", policy="lru", rate=0.75)
        for level in (0, 1, 2):
            pinned = ScenarioSpec(workload="BFS", policy="lru", rate=0.75,
                                  fastpath=level)
            assert pinned.digest() == base.digest(), level

    def test_out_of_range_tier_rejected(self):
        for bad in (-1, 3, 4, 99):
            with pytest.raises(ScenarioError, match="fastpath"):
                ScenarioSpec(workload="BFS", policy="lru", rate=0.75,
                             fastpath=bad)

    def test_from_dict_accepts_fastpath(self):
        spec = ScenarioSpec.from_dict({
            "workload": "BFS", "policy": "lru", "rate": 0.75,
            "fastpath": 0,
        })
        assert spec.fastpath == 0
        assert spec.describe()["fastpath"] == 0

    def test_run_spec_threads_the_tier_to_the_engine(self):
        from repro.experiments.runner import run_spec

        spec = ScenarioSpec(workload="STN", policy="lru", rate=0.75,
                            scale=0.25, fastpath=0)
        result = run_spec(spec, use_cache=False)
        assert result.extras["fastpath"]["requested"] == 0
        assert result.extras["fastpath"]["executed"] == 0
