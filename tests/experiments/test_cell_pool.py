"""The long-lived cell pool that ``run_scenario`` lends to ``jobs >= 2``
matrices, and the result cache seen through long-lived workers."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import check as check_module
from repro.experiments import runner as runner_module
from repro.experiments.runner import (
    close_cell_pool,
    run_scenario,
    run_spec,
    start_cell_pool,
)
from repro.resil import MatrixInterrupted
from repro.resil import chaos as resil_chaos
from repro.scenarios.spec import MatrixSpec
from repro.sim import cache as sim_cache

ONE_CELL = MatrixSpec(("lru",), (0.5,), ("STN",), scale=0.25)
#: The grid fields of two apps at one rate (four cells under two policies).
TWO_APPS = dict(rates=(0.5,), apps=("STN", "HOT"), scale=0.25)


def lent_pool():
    return runner_module._CELL_POOL.pool


def workers(pool):
    return [worker.process for worker in pool._workers]


def key_metrics(matrix):
    return {key: r.key_metrics() for key, r in matrix.results.items()}


@pytest.fixture
def no_cache():
    previous = sim_cache.cache_enabled()
    sim_cache.configure(enabled=False)
    yield
    sim_cache.configure(enabled=previous)


@pytest.fixture
def fresh_cache(tmp_path):
    previous = sim_cache.cache_dir()
    sim_cache.configure(enabled=True, directory=tmp_path / "cache")
    yield tmp_path / "cache"
    sim_cache.configure(enabled=True, directory=previous)


@pytest.fixture(autouse=True)
def _chaos_clean():
    resil_chaos.deactivate()
    yield
    resil_chaos.deactivate()


class TestBorrowedPool:
    def test_consecutive_matrices_fork_two_workers(self, no_cache):
        pools = []
        for seed in (21, 22, 23):
            spec = MatrixSpec(("lru", "hpe"), seed=seed, **TWO_APPS)
            parallel = run_scenario(spec, jobs=2)
            pools.append(lent_pool())
            serial = run_scenario(spec, jobs=1)
            assert len(parallel.results) == 4
            assert key_metrics(parallel) == key_metrics(serial)
        assert all(pool is pools[0] for pool in pools)
        assert pools[0].pool_stats()["spawned"] == 2

    @pytest.mark.parametrize("change", [
        "cache_dir", "repro_env", "sanitizer", "timeout",
    ])
    def test_changed_state_starts_a_new_pool(
        self, no_cache, tmp_path, monkeypatch, change
    ):
        run_scenario(ONE_CELL, jobs=2)
        old = lent_pool()
        old_workers = workers(old)
        timeout = None
        if change == "cache_dir":
            previous = sim_cache.cache_dir()
            sim_cache.configure(directory=tmp_path / "elsewhere")
        elif change == "repro_env":
            monkeypatch.setenv("REPRO_STDERR_TAIL", "2048")
        elif change == "sanitizer":
            monkeypatch.setattr(check_module, "_enabled_override", True)
        else:
            timeout = 123.0
        try:
            matrix = run_scenario(ONE_CELL, jobs=2, timeout=timeout)
        finally:
            if change == "cache_dir":
                sim_cache.configure(directory=previous)
        assert len(matrix.results) == 1
        assert lent_pool() is not old
        assert not any(process.is_alive() for process in old_workers)
        assert lent_pool().pool_stats()["spawned"] == 2

    def test_interrupt_closes_the_pool(self, no_cache):
        run_scenario(ONE_CELL, jobs=2)
        pool = lent_pool()
        pool_workers = workers(pool)
        with pytest.raises(MatrixInterrupted):
            run_scenario(MatrixSpec(("lru", "hpe"), **TWO_APPS), jobs=2,
                         chaos="sigterm=2")
        assert lent_pool() is None
        assert not any(process.is_alive() for process in pool_workers)
        matrix = run_scenario(MatrixSpec(("lru", "hpe"), **TWO_APPS), jobs=2)
        assert len(matrix.results) == 4
        assert lent_pool() is not pool

    def test_other_settings_never_interrupt_a_running_matrix(
        self, no_cache, monkeypatch
    ):
        real_run_spec = runner_module.run_spec

        def slowish(spec, obs=None):
            time.sleep(0.2)
            return real_run_spec(spec, obs=obs)

        # Forked after the patch, both pools' workers run the slow cell.
        monkeypatch.setattr(runner_module, "run_spec", slowish)
        real_start = runner_module.start_cell_pool
        started = []

        def recording_start(*args, **kwargs):
            pool = real_start(*args, **kwargs)
            started.append((pool, workers(pool)))
            return pool

        monkeypatch.setattr(runner_module, "start_cell_pool", recording_start)
        answers: dict[str, object] = {}

        def call(name, **kwargs):
            try:
                answers[name] = run_scenario(
                    MatrixSpec(("lru", "hpe", "ideal"), **TWO_APPS), jobs=2,
                    **kwargs,
                )
            except Exception as exc:  # reported to the test thread
                answers[name] = exc

        first = threading.Thread(target=call, args=("first",))
        first.start()
        deadline = time.monotonic() + 30.0
        while (lent_pool() is None or lent_pool().pool_stats()["busy"] == 0) \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        pool = lent_pool()
        assert pool is not None and first.is_alive()
        second = threading.Thread(target=call, args=("second",),
                                  kwargs={"timeout": 321.0})
        second.start()
        first.join(timeout=60.0)
        second.join(timeout=60.0)
        assert not first.is_alive() and not second.is_alive()
        for name in ("first", "second"):
            matrix = answers[name]
            assert not isinstance(matrix, Exception), matrix
            assert len(matrix.results) == 6 and not matrix.degraded
        # The second call ran on a pool of its own: the lent one is
        # untouched and forked nothing more.
        assert lent_pool() is pool
        assert pool.pool_stats()["spawned"] == 2
        # That private pool forked its two workers and was closed when
        # the second call returned.
        [private] = [procs for started_pool, procs in started
                     if started_pool is not pool]
        assert len(private) == 2
        assert not any(process.is_alive() for process in private)

    def test_concurrent_borrowers_stress(self, no_cache):
        """Eight threads borrow at once, two under another timeout: every
        matrix completes, one pool serves the six, and its run count
        returns to zero."""
        run_scenario(ONE_CELL, jobs=2)
        answers: list[object] = []

        def call(seed, timeout):
            try:
                answers.append(run_scenario(
                    MatrixSpec(("lru", "hpe"), seed=seed, **TWO_APPS),
                    jobs=2, timeout=timeout,
                ))
            except Exception as exc:  # reported to the test thread
                answers.append(exc)

        threads = [
            threading.Thread(target=call,
                             args=(30 + index, 456.0 if index < 2 else None))
            for index in range(8)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 8
        for matrix in answers:
            assert not isinstance(matrix, Exception), matrix
            assert len(matrix.results) == 4 and not matrix.degraded
        assert runner_module._CELL_POOL._runs == 0
        # The pool may have been replaced while idle between borrowers
        # under different timeouts; whichever is lent now is idle.
        assert lent_pool() is not None
        assert lent_pool().pool_stats()["busy"] == 0

    def test_process_exits_without_closing_the_pool(self, tmp_path):
        code = (
            "from repro.sim import cache\n"
            "from repro.experiments.runner import run_scenario\n"
            "from repro.scenarios.spec import MatrixSpec\n"
            "cache.configure(enabled=False)\n"
            "matrix = run_scenario(MatrixSpec(('lru',), (0.5,), ('STN',),\n"
            "                                 scale=0.25), jobs=2)\n"
            "assert len(matrix.results) == 1\n"
            "print('done', flush=True)\n"
        )
        src = Path(runner_module.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        child = subprocess.Popen(
            [sys.executable, "-c", code], env=env, cwd=tmp_path,
            stdout=subprocess.PIPE, start_new_session=True,
        )
        watchdog = threading.Timer(60.0, child.kill)  # bounds readline
        watchdog.start()
        try:
            assert child.stdout.readline() == b"done\n"
            done = time.monotonic()
            assert child.wait(timeout=30.0) == 0
            assert time.monotonic() - done < 5.0
        finally:
            watchdog.cancel()
            child.kill()
            child.wait()
            child.stdout.close()
        left = session_members(child.pid)
        for _ in range(50):
            if not left:
                break
            time.sleep(0.02)
            left = session_members(child.pid)
        assert left == []

    def test_forked_child_forgets_the_pool(self, no_cache):
        # Closing the pool from a child would stop its parent's workers.
        run_scenario(ONE_CELL, jobs=2)
        pool = lent_pool()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.write(write_end, b"1" if lent_pool() is None else b"0")
            os._exit(0)
        os.close(write_end)
        try:
            assert os.read(read_end, 1) == b"1"
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)
        assert lent_pool() is pool
        assert pool.pool_stats()["workers"] == 2

    def test_close_cell_pool_is_idempotent(self, no_cache):
        close_cell_pool()
        run_scenario(ONE_CELL, jobs=2)
        pool_workers = workers(lent_pool())
        close_cell_pool()
        close_cell_pool()
        assert lent_pool() is None
        assert not any(process.is_alive() for process in pool_workers)


def session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


class TestDispatchedCellsAreNotLookedUpAgain:
    @pytest.mark.parametrize("own_pool", [True, False],
                             ids=["started-pool", "borrowed-pool"])
    def test_deleted_entry_heals(self, fresh_cache, own_pool):
        """A cell its parent missed is simulated and stored again by a
        long-lived worker, so a deleted entry heals."""
        spec = MatrixSpec(policies=("lru",), rates=(0.5,), apps=("STN",),
                          seed=3, scale=0.25)
        [cell] = spec.cells()
        pool = start_cell_pool(2) if own_pool else None
        try:
            run_scenario(spec, jobs=2, supervisor=pool)
            [entry] = fresh_cache.rglob(f"{cell.digest()}.pkl")
            entry.unlink()
            run_scenario(spec, jobs=2, supervisor=pool)
            assert entry.is_file()
        finally:
            if pool is not None:
                pool.close()

    def test_lookups_resume_after_an_in_process_matrix(self, fresh_cache):
        # jobs=1 runs the dispatched cells in this thread: the skipped
        # lookup must end with the cell, not leak into later calls.
        spec = MatrixSpec(policies=("lru",), rates=(0.5,), apps=("STN",),
                          seed=3, scale=0.25)
        [cell] = spec.cells()
        run_scenario(spec, jobs=1)
        stats = sim_cache.result_cache().stats
        hits, misses = stats.result_hits, stats.result_misses
        run_spec(cell)
        assert (stats.result_hits, stats.result_misses) == (hits + 1, misses)
