"""End-to-end integration tests asserting the paper's result *shapes*.

These drive the full stack (workload generator → TLBs → walker → driver →
policy → timing) and check the qualitative claims of Section V rather
than absolute numbers.
"""

import pytest

from repro import (
    ClockProPolicy,
    HPEConfig,
    HPEPolicy,
    IdealPolicy,
    LRUPolicy,
    RandomPolicy,
    RRIPConfig,
    RRIPPolicy,
    simulate,
)
from repro.core.classifier import Category
from repro.core.strategies import StrategyKind
from repro.experiments.runner import run_spec
from repro.scenarios.spec import ScenarioSpec
from repro.workloads import get_application, streaming, thrashing


def run(trace, policy, rate):
    return simulate(trace.pages, policy, trace.capacity_for(rate))


class TestThrashingShape:
    """Type II: HPE must beat LRU decisively (Fig. 10)."""

    def test_hpe_beats_lru_on_cyclic_thrash(self):
        trace = thrashing(2048, 6)
        lru = run(trace, LRUPolicy(), 0.75)
        hpe = run(trace, HPEPolicy(), 0.75)
        assert hpe.evictions < 0.6 * lru.evictions
        assert hpe.ipc > 1.5 * lru.ipc

    def test_hpe_close_to_ideal_on_thrash(self):
        trace = thrashing(2048, 6)
        ideal = run(trace, IdealPolicy(), 0.75)
        hpe = run(trace, HPEPolicy(), 0.75)
        assert hpe.evictions <= 1.35 * ideal.evictions

    def test_hsd_best_case_speedup(self):
        """HSD is the paper's 2.81x headline; ours must exceed 2x."""
        lru = run_spec(ScenarioSpec("HSD", "lru", 0.75))
        hpe = run_spec(ScenarioSpec("HSD", "hpe", 0.75))
        assert hpe.ipc / lru.ipc > 2.0


class TestStreamingShape:
    """Type I: every reasonable policy matches Ideal (Fig. 3, Fig. 10)."""

    def test_all_policies_equal_on_pure_streaming(self):
        trace = streaming(2048)
        capacity = trace.capacity_for(0.75)
        expected = trace.footprint_pages - capacity
        for policy in (LRUPolicy(), HPEPolicy(), IdealPolicy(),
                       RandomPolicy(), ClockProPolicy(capacity)):
            result = simulate(trace.pages, policy, capacity)
            assert result.evictions == expected
            assert result.faults == trace.footprint_pages


class TestPolicyOrdering:
    """Fig. 12: HPE beats Random/RRIP/CLOCK-Pro on average."""

    @pytest.mark.parametrize("app", ["HSD", "MRQ", "GEM"])
    def test_hpe_not_worse_than_baselines(self, app):
        spec = get_application(app)
        hpe = run_spec(ScenarioSpec(app, "hpe", 0.75))
        for baseline in ("random", "rrip", "clock-pro"):
            other = run_spec(ScenarioSpec(app, baseline, 0.75))
            assert hpe.evictions <= other.evictions * 1.05

    def test_ideal_lower_bounds_everyone(self):
        for app in ("HSD", "BFS", "HOT"):
            ideal = run_spec(ScenarioSpec(app, "ideal", 0.75))
            for policy in ("lru", "hpe", "random", "rrip", "clock-pro"):
                other = run_spec(ScenarioSpec(app, policy, 0.75))
                assert ideal.faults <= other.faults

    def test_lru_wins_type_vi_over_rrip(self):
        """Fig. 12: frequency-based policies lose on region moving."""
        lru = run_spec(ScenarioSpec("B+T", "lru", 0.75))
        rrip = run_spec(ScenarioSpec("B+T", "rrip", 0.75))
        assert lru.evictions <= rrip.evictions


class TestClassificationShape:
    """Table III / Fig. 9 groupings, including the paper's outliers."""

    EXPECTED = {
        "HOT": Category.REGULAR,
        "HSD": Category.REGULAR,
        "SRD": Category.REGULAR,
        "PAT": Category.REGULAR,
        "SGM": Category.REGULAR,      # type V outlier
        "KMN": Category.IRREGULAR_2,  # type III outlier
        "SAD": Category.IRREGULAR_2,  # type III outlier
        "MVT": Category.IRREGULAR_2,
        "B+T": Category.IRREGULAR_1,
        "HYB": Category.IRREGULAR_1,
        "BFS": Category.IRREGULAR_1,
    }

    @pytest.mark.parametrize("app,category", sorted(
        EXPECTED.items(), key=lambda kv: kv[0]
    ))
    def test_category(self, app, category):
        result = run_spec(ScenarioSpec(app, "hpe", 0.75))
        assert result.extras["policy"].category is category


class TestDynamicAdjustmentShape:
    """Fig. 13 behaviours."""

    def test_bfs_switches_to_mru_c(self):
        result = run_spec(ScenarioSpec("BFS", "hpe", 0.75))
        policy = result.extras["policy"]
        timeline = policy.adjustment.timeline(policy.stats.faults)
        assert timeline[0].strategy is StrategyKind.LRU
        assert any(seg.strategy is StrategyKind.MRU_C for seg in timeline)

    def test_srd_adjusts_search_point(self):
        result = run_spec(ScenarioSpec("SRD", "hpe", 0.75))
        policy = result.extras["policy"]
        assert policy.adjustment.stats.jump_adjustments >= 1

    def test_stn_jump_is_gated(self):
        result = run_spec(ScenarioSpec("STN", "hpe", 0.75))
        policy = result.extras["policy"]
        assert not policy.adjustment.jump_allowed
        assert policy.adjustment.jump == 0

    @pytest.mark.parametrize("app", ["KMN", "NW", "MVT", "SPV", "B+T", "HYB"])
    def test_lru_entire_group(self, app):
        result = run_spec(ScenarioSpec(app, "hpe", 0.75))
        policy = result.extras["policy"]
        timeline = policy.adjustment.timeline(policy.stats.faults)
        assert all(seg.strategy is StrategyKind.LRU for seg in timeline)

    @pytest.mark.parametrize("app", ["HOT", "PAT", "MRQ", "STN", "GEM"])
    def test_mru_c_entire_group(self, app):
        result = run_spec(ScenarioSpec(app, "hpe", 0.75))
        policy = result.extras["policy"]
        timeline = policy.adjustment.timeline(policy.stats.faults)
        assert all(seg.strategy is StrategyKind.MRU_C for seg in timeline)


class TestDivisionShape:
    def test_nw_divides_page_sets(self):
        result = run_spec(ScenarioSpec("NW", "hpe", 0.75))
        policy = result.extras["policy"]
        assert policy.stats.divisions > 0
        # Division is partial: "some page sets do not meet the division
        # requirement" (Section V-B).
        total_sets = result.footprint_pages // 16
        assert policy.stats.divisions < total_sets

    @pytest.mark.parametrize("app", ["HOT", "HSD", "PAT", "B+T"])
    def test_most_apps_never_divide(self, app):
        result = run_spec(ScenarioSpec(app, "hpe", 0.75))
        assert result.extras["policy"].stats.divisions == 0


class TestMeanSpeedupBand:
    """The headline numbers, allowed a generous band around the paper's."""

    def test_mean_speedup_at_75(self):
        from repro.experiments.figures import figure10
        result = figure10(rates=[0.75])
        mean = next(row for row in result.rows if row[0] == "MEAN")[2]
        assert 1.10 <= mean <= 1.60  # paper: 1.34

    def test_hpe_evicts_fewer_pages_on_average_at_75(self):
        from repro.experiments.figures import figure11
        result = figure11(rates=[0.75])
        mean = next(row for row in result.rows if row[0] == "MEAN")[2]
        assert mean < 0.95  # paper: 0.82 (18% fewer)


class TestClassificationStability:
    """Categories must not flip between the two evaluated rates."""

    @pytest.mark.parametrize("app", ["HOT", "HSD", "KMN", "NW", "MVT",
                                     "SGM", "B+T", "HYB", "BFS", "HWL"])
    def test_same_category_at_both_rates(self, app):
        categories = []
        for rate in (0.75, 0.50):
            result = run_spec(ScenarioSpec(app, "hpe", rate))
            categories.append(result.extras["policy"].category)
        assert categories[0] is categories[1]


class TestExtendedBaselines:
    """The Section VI related-work policies slot into the comparison."""

    @pytest.mark.parametrize("policy", ["arc", "car", "wsclock"])
    def test_hpe_beats_related_work_on_thrashing(self, policy):
        hpe = run_spec(ScenarioSpec("HSD", "hpe", 0.75))
        other = run_spec(ScenarioSpec("HSD", policy, 0.75))
        assert hpe.evictions < other.evictions

    def test_arc_ghosts_bounded_end_to_end(self):
        result = run_spec(ScenarioSpec("HIS", "arc", 0.75))
        policy = result.extras["policy"]
        assert policy.ghost_count <= 2 * result.capacity_pages
