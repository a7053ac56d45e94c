"""Fault-injection tests for the supervised sweep engine.

Faults are injected through module-level cell functions driven by marker
files in shared temp directories (workers see the same filesystem), so a
fault fires a controlled number of times and then clears -- letting each
test assert both the recovery *and* that recovered results are
bit-identical to a fault-free serial run.
"""

import json
import multiprocessing
import os
import signal
import time
from concurrent.futures import Future, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.core.resilience import Backoff, CellTimeout, WorkerCrash
from repro.experiments import engine
from repro.experiments.engine import (
    Cell,
    CellCache,
    SweepInterrupted,
    SweepSpec,
    cell_key,
    derive_seed,
    result_digest,
    rows_to_table,
    run_sweep,
)
from repro.obs import MetricsRegistry, Tracer

# Module-level cell functions: worker processes unpickle them by
# reference, so they cannot be closures or lambdas.  Fault parameters
# never influence the returned row, which is what makes the
# bit-identity-under-faults assertions meaningful.


def _row(index: int, seed: int) -> list:
    s = derive_seed(seed, index)
    return [index, s % 1000, (s % 7919) / 7919.0]


def plain_row(*, index: int, seed: int, **_faults) -> list:
    return _row(index, seed)


def flaky_row(*, index: int, seed: int, fail_dir: str = "",
              fail_times: int = 0) -> list:
    """Fail transiently ``fail_times`` times per cell, then succeed."""
    if fail_dir and fail_times:
        marker = Path(fail_dir) / f"cell-{index}"
        n = int(marker.read_text()) if marker.exists() else 0
        if n < fail_times:
            marker.write_text(str(n + 1))
            raise OSError(f"transient failure {n + 1} in cell {index}")
    return _row(index, seed)


def killer_row(*, index: int, seed: int, kill_dir: str = "",
               always: bool = False) -> list:
    """Kill the hosting worker process hard (once per cell, or always)."""
    if kill_dir and multiprocessing.parent_process() is not None:
        marker = Path(kill_dir) / f"killed-{index}"
        if always or not marker.exists():
            marker.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
    return _row(index, seed)


def sleepy_row(*, index: int, seed: int, slow_dir: str = "") -> list:
    """Overrun any sane cell timeout, once per cell."""
    if slow_dir:
        marker = Path(slow_dir) / f"slow-{index}"
        if not marker.exists():
            marker.write_text("x")
            time.sleep(60.0)
    return _row(index, seed)


def interrupting_row(*, index: int, seed: int, interrupt_at: int = -1) -> list:
    """Simulate Ctrl-C landing while this cell runs."""
    if index == interrupt_at:
        raise KeyboardInterrupt
    return _row(index, seed)


def chaos_row(*, index: int, seed: int, fault_dir: str = "",
              kill_at: int = -1, slow_at: int = -1) -> list:
    """Combined faults: one cell kills its worker, one overruns."""
    if fault_dir and index == kill_at:
        if multiprocessing.parent_process() is not None:
            marker = Path(fault_dir) / f"killed-{index}"
            if not marker.exists():
                marker.write_text("x")
                os.kill(os.getpid(), signal.SIGKILL)
    if fault_dir and index == slow_at:
        marker = Path(fault_dir) / f"slow-{index}"
        if not marker.exists():
            marker.write_text("x")
            time.sleep(60.0)
    return _row(index, seed)


def _spec(fn, n: int, seed: int = 0, **fault_params) -> SweepSpec:
    return SweepSpec(
        name="fault-grid",
        fn=fn,
        cells=[
            Cell(label=f"i={i}",
                 params={"index": i, "seed": seed, **fault_params})
            for i in range(n)
        ],
        assemble=rows_to_table("fault grid", ["i", "a", "b"]),
    )


RETRY = Backoff(max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.0)


def _breaking_pool(break_at: int, executed: list[int]):
    """A deterministic ``ProcessPoolExecutor`` stand-in and its ``wait``.

    Cells run in-process: the oldest in-flight cell finishes whenever
    more than ``max_workers`` are in flight, and the rest when the engine
    waits.  The ``break_at``-th submit (counted across pool generations)
    breaks the pool as a killed worker does: every unfinished future
    fails with ``BrokenProcessPool``, and so does that submit and any
    later one to the same pool.
    """
    submits = 0

    def run(fut: Future) -> None:
        try:
            fut.set_result(fut.work())
        except Exception as exc:
            fut.set_exception(exc)

    class Pool:
        def __init__(self, max_workers: int) -> None:
            self.max_workers = max_workers
            self.inflight: list[Future] = []
            self.broken = False

        def submit(self, fn, *args) -> Future:
            nonlocal submits
            submits += 1
            if submits == break_at:
                self.broken = True
                for fut in self.inflight:
                    if not fut.done():
                        fut.set_exception(BrokenProcessPool("worker killed"))
                self.inflight = []
            if self.broken:
                raise BrokenProcessPool("worker killed")
            fut = Future()

            def work():
                executed.append(args[1]["index"])
                return fn(*args)

            fut.work = work
            self.inflight.append(fut)
            if len(self.inflight) > self.max_workers:
                run(self.inflight.pop(0))
            return fut

        def shutdown(self, wait: bool = True,
                     cancel_futures: bool = False) -> None:
            pass

    def run_then_wait(fs, return_when):
        for fut in fs:
            if not fut.done():
                run(fut)
        return wait(fs, return_when=return_when)

    return Pool, run_then_wait


class TestRetries:
    def test_transient_failures_retried_to_success(self, tmp_path):
        out = run_sweep(
            _spec(flaky_row, 4, fail_dir=str(tmp_path), fail_times=1),
            retry=RETRY,
        )
        assert out.retries == 4  # every cell failed exactly once
        assert out.table.rows == run_sweep(_spec(plain_row, 4)).table.rows

    def test_parallel_retries_match_serial(self, tmp_path):
        out = run_sweep(
            _spec(flaky_row, 4, fail_dir=str(tmp_path), fail_times=1),
            retry=RETRY,
            jobs=2,
        )
        assert out.retries >= 1
        assert out.table.rows == run_sweep(_spec(plain_row, 4)).table.rows

    def test_exhausted_retries_raise_the_cell_error(self, tmp_path):
        with pytest.raises(OSError, match="transient"):
            run_sweep(
                _spec(flaky_row, 2, fail_dir=str(tmp_path), fail_times=99),
                retry=RETRY,
            )

    def test_no_policy_fails_fast(self, tmp_path):
        with pytest.raises(OSError, match="failure 1"):
            run_sweep(
                _spec(flaky_row, 2, fail_dir=str(tmp_path), fail_times=1)
            )

    def test_retry_metrics_and_platform_events(self, tmp_path):
        metrics = MetricsRegistry()
        tracer = Tracer()
        run_sweep(
            _spec(flaky_row, 2, fail_dir=str(tmp_path), fail_times=1),
            retry=RETRY,
            metrics=metrics,
            instrumentation=tracer,
        )
        labels = {"experiment": "fault-grid"}
        assert metrics.counter("sweep_retries_total", "", labels).value == 2
        retries = [e for e in tracer.events if e["kind"] == "platform_event"
                   and e["event"] == "retry"]
        assert len(retries) == 2
        assert retries[0]["experiment"] == "fault-grid"
        assert retries[0]["detail"] == "OSError"


class TestCellTimeouts:
    def test_timed_out_cell_retries_to_success(self, tmp_path):
        out = run_sweep(
            _spec(sleepy_row, 2, slow_dir=str(tmp_path)),
            retry=RETRY,
            cell_timeout_s=0.3,
            jobs=2,
        )
        assert out.timeouts == 2 and out.retries == 2
        assert out.table.rows == run_sweep(_spec(plain_row, 2)).table.rows

    def test_timeout_without_retry_raises(self, tmp_path):
        with pytest.raises(CellTimeout, match="timeout"):
            run_sweep(
                _spec(sleepy_row, 1, slow_dir=str(tmp_path)),
                cell_timeout_s=0.3,
            )


class TestWorkerCrashes:
    def test_pool_rebuilt_and_lost_cells_redispatched(self, tmp_path):
        metrics = MetricsRegistry()
        out = run_sweep(
            _spec(killer_row, 4, kill_dir=str(tmp_path)),
            jobs=2,
            metrics=metrics,
        )
        assert out.worker_crashes >= 1 and out.pool_rebuilds >= 1
        assert out.table.rows == run_sweep(_spec(plain_row, 4)).table.rows
        labels = {"experiment": "fault-grid"}
        assert metrics.counter(
            "sweep_worker_crashes_total", "", labels
        ).value >= 1

    def test_persistent_crasher_raises_worker_crash(self, tmp_path):
        with pytest.raises(WorkerCrash, match="pool broke") as info:
            run_sweep(
                _spec(killer_row, 2, kill_dir=str(tmp_path), always=True),
                jobs=2,
                max_pool_rebuilds=1,
            )
        report = info.value.report
        assert report["context"]["experiment"] == "fault-grid"
        assert report["context"]["lost_cells"]

    @pytest.mark.parametrize(
        "break_at", [1, 4, 6], ids=["first", "middle", "last"]
    )
    def test_submit_into_a_broken_pool_loses_no_cell(self, monkeypatch,
                                                     break_at):
        executed: list[int] = []
        pool, run_then_wait = _breaking_pool(break_at, executed)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(engine, "wait", run_then_wait)
        out = run_sweep(_spec(plain_row, 6), jobs=2)
        assert out.table.rows == run_sweep(_spec(plain_row, 6)).table.rows
        # cells that finished before the break are never re-run
        assert sorted(executed) == list(range(6))
        assert out.worker_crashes == 1 and out.pool_rebuilds == 1

    def test_serial_mode_never_kills_the_parent(self, tmp_path):
        # killer_row only fires inside worker processes; jobs=1 runs in
        # the parent, so the sweep must complete untouched.
        out = run_sweep(_spec(killer_row, 2, kill_dir=str(tmp_path)))
        assert out.worker_crashes == 0
        assert out.table.rows == run_sweep(_spec(plain_row, 2)).table.rows


class TestCacheIntegrity:
    def _poison(self, cache, spec, i, text):
        path = cache.path(cell_key(spec, spec.cells[i]))
        path.write_text(text)
        return path

    def test_truncated_entry_quarantined_and_recomputed(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        spec = _spec(plain_row, 3)
        clean = run_sweep(spec, cache=cache)
        good = cache.path(cell_key(spec, spec.cells[1])).read_text()
        self._poison(cache, spec, 1, good[: len(good) // 2])
        again = run_sweep(_spec(plain_row, 3), cache=cache)
        assert again.quarantined == 1
        assert (again.hits, again.misses) == (2, 1)
        assert again.table.rows == clean.table.rows
        assert len(list(cache.quarantine_dir().iterdir())) == 1

    def test_bit_flipped_result_fails_checksum(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        spec = _spec(plain_row, 1)
        run_sweep(spec, cache=cache)
        path = cache.path(cell_key(spec, spec.cells[0]))
        doc = json.loads(path.read_text())
        doc["result"][1] += 1  # silent corruption: valid JSON, wrong data
        path.write_text(json.dumps(doc))
        metrics = MetricsRegistry()
        again = run_sweep(_spec(plain_row, 1), cache=cache, metrics=metrics)
        assert again.quarantined == 1 and again.misses == 1
        assert metrics.counter(
            "sweep_quarantined_total", "", {"experiment": "fault-grid"}
        ).value == 1

    def test_pre_checksum_entries_still_hit(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        spec = _spec(plain_row, 1)
        run_sweep(spec, cache=cache)
        path = cache.path(cell_key(spec, spec.cells[0]))
        doc = json.loads(path.read_text())
        del doc["sha256"]  # entry written before checksums existed
        path.write_text(json.dumps(doc))
        again = run_sweep(_spec(plain_row, 1), cache=cache)
        assert again.hits == 1 and again.quarantined == 0

    def test_digest_matches_stored_entries(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        spec = _spec(plain_row, 1)
        run_sweep(spec, cache=cache)
        doc = json.loads(
            cache.path(cell_key(spec, spec.cells[0])).read_text()
        )
        assert doc["sha256"] == result_digest(doc["result"])


class TestInterrupt:
    def test_serial_interrupt_reports_partial_progress(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        with pytest.raises(SweepInterrupted) as info:
            run_sweep(
                _spec(interrupting_row, 5, interrupt_at=3), cache=cache
            )
        assert info.value.completed == 3 and info.value.n_cells == 5
        # completed cells were flushed: a resume (same cell params, so
        # same cache keys) only runs the rest
        resumed = run_sweep(
            _spec(plain_row, 5, interrupt_at=3), cache=cache
        )
        assert resumed.hits == 3

    def test_parallel_interrupt_raises_sweep_interrupted(self):
        with pytest.raises(SweepInterrupted):
            run_sweep(
                _spec(interrupting_row, 4, interrupt_at=2), jobs=2
            )

    def test_sweep_interrupted_is_a_keyboard_interrupt(self):
        assert issubclass(SweepInterrupted, KeyboardInterrupt)


class TestAcceptance:
    def test_kill_plus_corruption_plus_timeout_is_bit_identical(
        self, tmp_path
    ):
        """The acceptance scenario: one sweep survives a worker kill,
        a corrupted cache file and a forced cell timeout, and its table
        is bit-identical to a fault-free serial run."""
        fault_dir = tmp_path / "faults"
        fault_dir.mkdir()
        faults = {
            "fault_dir": str(fault_dir), "kill_at": 0, "slow_at": 5
        }
        fault_free = run_sweep(
            _spec(plain_row, 6, **faults)  # plain_row ignores fault params
        ).table

        # Plant a corrupted (truncated) cache entry for cell 2.
        cache = CellCache(tmp_path / "cache")
        spec = _spec(chaos_row, 6, **faults)
        path = cache.path(cell_key(spec, spec.cells[2]))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"experiment": "fault-grid", "result": [2, 4')

        out = run_sweep(
            spec,
            jobs=2,
            retry=RETRY,
            cell_timeout_s=2.0,
            cache=cache,
        )
        assert out.quarantined == 1  # the planted corruption was caught
        assert out.worker_crashes >= 1  # the kill broke (a) pool
        assert out.table.rows == fault_free.rows
        assert out.table.render() == fault_free.render()
        # And the survivors are all cached: a re-run is pure hits.
        again = run_sweep(_spec(chaos_row, 6, **faults), cache=cache)
        assert again.hits == 6
        assert again.table.rows == fault_free.rows
