"""Smoke tests for every figure/table/sensitivity/overhead harness.

Run on a small application subset so the whole file stays fast; the
full-suite reproductions live in the benchmarks and EXPERIMENTS.md.
"""

import warnings

import pytest

from repro.experiments import runner as runner_module
from repro.experiments.ablation import ablation
from repro.experiments.figures import (
    figure3, figure7, figure8, figure9, figure10, figure11, figure12,
    figure13, figure14, figure15, FIGURES,
)
from repro.experiments.overhead import (
    classification_cost, core_load, hir_storage, search_cost,
)
from repro.experiments.report import format_markdown_table, format_table
from repro.experiments.sensitivity import (
    prefetch, transfer_interval, walk_latency,
)
from repro.experiments.tables import table1, table2, table3
from repro.sim import cache as sim_cache

SMALL = ["HOT", "STN"]


class TestReportFormatting:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3.14159]],
                            title="demo")
        assert "demo" in text
        assert "3.14" in text

    def test_markdown_table(self):
        text = format_markdown_table(["a"], [[1.234]])
        assert text.splitlines()[1] == "|---|"
        assert "1.23" in text


class TestFigureHarnesses:
    def test_figure3(self):
        result = figure3(apps=SMALL)
        assert result.figure_id == "Fig.3"
        assert len(result.rows) == len(SMALL) + 1  # + MEAN
        assert "LRU/Ideal" in result.headers
        assert result.render()

    def test_figure7(self):
        result = figure7(apps=SMALL, sizes=(8, 16))
        assert any(row[0] == "MEAN" for row in result.rows)

    def test_figure8(self):
        result = figure8(apps=SMALL, lengths=(32, 64))
        assert any(row[0] == "MEAN" for row in result.rows)

    def test_figure9(self):
        result = figure9(apps=SMALL)
        categories = [row[4] for row in result.rows]
        assert "regular" in categories

    def test_figure10(self):
        result = figure10(apps=SMALL, rates=[0.75])
        mean_row = next(row for row in result.rows if row[0] == "MEAN")
        assert mean_row[2] > 0

    def test_figure11(self):
        result = figure11(apps=SMALL, rates=[0.75])
        assert len(result.rows) == len(SMALL) + 1

    def test_figure12(self):
        result = figure12(apps=SMALL, rates=[0.75])
        policies = {row[1] for row in result.rows}
        assert policies == {"lru", "random", "rrip", "clock-pro", "hpe"}

    def test_figure13(self):
        result = figure13(apps=SMALL, rates=[0.75])
        for row in result.rows:
            lru_frac, mru_frac = row[2], row[3]
            assert lru_frac + mru_frac == pytest.approx(1.0)

    def test_figure14(self):
        result = figure14(apps=SMALL, rates=[0.75])
        # Both HOT and STN use MRU-C, so both must be reported.
        assert len(result.rows) == 2

    def test_figure15(self):
        result = figure15(apps=SMALL)
        for row in result.rows:
            assert row[1] >= 0

    def test_registry_complete(self):
        assert set(FIGURES) == {"3", "7", "8", "9", "10", "11", "12",
                                "13", "14", "15"}


class TestTableHarnesses:
    def test_table1(self):
        result = table1()
        assert any("16 GB/s" in str(row[1]) for row in result.rows)

    def test_table2(self):
        result = table2(apps=SMALL)
        assert len(result.rows) == 2
        assert result.rows[0][0] == "HOT"

    def test_table3(self):
        result = table3(apps=SMALL)
        assert result.rows[0][2] in ("regular", "irregular#1", "irregular#2")


class TestSensitivityHarnesses:
    def test_transfer_interval(self):
        result = transfer_interval(apps=SMALL, intervals=(8, 16))
        assert len(result.rows) == 2

    def test_walk_latency(self):
        result = walk_latency(apps=SMALL, latencies=(8, 20))
        assert [row[0] for row in result.rows] == ["lru", "hpe"]
        for row in result.rows:
            assert row[1] == pytest.approx(1.0)  # normalised baseline


class TestOverheadHarnesses:
    def test_hir_storage(self):
        result = hir_storage(apps=SMALL, rates=(0.75,))
        assert len(result.rows) == 1

    def test_core_load(self):
        result = core_load(apps=SMALL, rates=(0.75,), policies=("lru", "hpe"))
        loads = {row[1]: row[2] for row in result.rows}
        assert 0.0 <= loads["lru"] <= 1.0
        assert 0.0 <= loads["hpe"] <= 1.0

    def test_classification_cost(self):
        result = classification_cost(app="STN", repeats=5)
        assert result.rows[0][1] > 0

    def test_search_cost(self):
        result = search_cost(comparisons=100, repeats=50)
        assert result.rows[0][1] > 0


class TestPrefetchHarness:
    def test_prefetch_sweep(self):
        from repro.experiments.sensitivity import prefetch
        result = prefetch(apps=["HOT"], degrees=(0, 3))
        assert [row[0] for row in result.rows] == [0, 3]
        # Sequential streaming: degree 3 quarters the faults.
        assert result.rows[1][1] < result.rows[0][1]
        # IPC normalised to degree 0.
        assert result.rows[0][2] == 1.0


#: STN (regular, MRU-C group) and NW (irregular, LRU group, divides
#: page sets) at scale 0.25.
PAIR = dict(apps=["STN", "NW"], scale=0.25)

#: The harnesses that once looped cells in process, with their arguments.
HARNESSES = {
    "figure7": (figure7, PAIR),
    "figure8": (figure8, PAIR),
    "figure9": (figure9, PAIR),
    "figure13": (figure13, PAIR),
    "figure14": (figure14, PAIR),
    "figure15": (figure15, PAIR),
    "table3": (table3, PAIR),
    "transfer_interval": (transfer_interval, PAIR),
    "walk_latency": (walk_latency, PAIR),
    "prefetch": (prefetch, PAIR),
    "hir_storage": (hir_storage, PAIR),
    "core_load": (core_load, PAIR),
    "classification_cost": (
        classification_cost, dict(app="NW", scale=0.25, repeats=5)
    ),
    "ablation": (ablation, PAIR),
}


@pytest.fixture
def cold_cache(tmp_path):
    """A fresh cache per run: a cached cell never reaches a worker."""
    previous = sim_cache.cache_dir()
    directories = iter(tmp_path / f"cache{n}" for n in range(10))

    def next_cache():
        sim_cache.configure(enabled=True, directory=next(directories))

    yield next_cache
    sim_cache.configure(enabled=True, directory=previous)


class TestEveryHarnessRunsItsCellsThroughRunScenario:
    @pytest.mark.parametrize("name", sorted(HARNESSES))
    def test_jobs_2_borrows_the_cell_pool_and_matches_jobs_1(
        self, name, cold_cache, monkeypatch
    ):
        harness, kwargs = HARNESSES[name]
        cold_cache()
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = harness(**kwargs)
        assert runner_module._CELL_POOL.pool is None
        cold_cache()
        monkeypatch.setenv("REPRO_JOBS", "2")
        pooled = harness(**kwargs)
        pool = runner_module._CELL_POOL.pool
        assert pool is not None
        assert pool.pool_stats()["spawned"] == 2
        if name == "classification_cost":
            # The second column is a host timing; the chain length is not.
            assert pooled.rows[0][0] == serial.rows[0][0]
        else:
            assert pooled.rows == serial.rows
        assert pooled.notes == serial.notes

    @pytest.mark.parametrize("name", sorted(HARNESSES))
    def test_crashed_cells_degrade_the_result_not_raise(
        self, name, cold_cache, monkeypatch
    ):
        harness, kwargs = HARNESSES[name]
        cold_cache()
        monkeypatch.setenv("REPRO_CHAOS", "crash=1.0")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_BACKOFF", "0")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = harness(**kwargs)
        degraded = [n for n in result.notes if n.startswith("DEGRADED:")]
        assert degraded, result.notes
        assert "failed after retries" in degraded[0]
        assert result.render()

    def test_fully_degraded_hir_storage_renders_nan(
        self, cold_cache, monkeypatch
    ):
        # With every cell failed there is no saving to average: the row
        # reads NaN, never a measured 0.00.
        cold_cache()
        monkeypatch.setenv("REPRO_CHAOS", "crash=1.0")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_BACKOFF", "0")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = hir_storage(**PAIR)
        lines = result.render().splitlines()
        rows = lines[3:3 + len(result.rows)]
        assert [row.split()[0] for row in rows] == ["75%", "50%"]
        for row in rows:
            assert row.split()[1:] == ["nan", "nan", "nan"], row
