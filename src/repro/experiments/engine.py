"""Parallel, cache-aware experiment engine behind ``ccf sweep``.

The paper's evaluation (Figures 5-9 and the tables) is a grid of
*independent* simulation cells: each sweep point plans and simulates on
its own, sharing nothing with its neighbours.  This module exploits that
twice:

* **Parallelism** -- the cells of a sweep fan out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`; serial execution
  (``jobs=1``) stays available as the fallback path and produces
  bit-identical :class:`~repro.experiments.tables.ResultTable`\\ s, since
  every cell is deterministic given its parameters and the table is
  assembled in declaration order regardless of completion order.
* **Memoization** -- each completed cell is written to an on-disk
  content-addressed cache keyed by a canonical hash of (cell parameters,
  sweep name + spec version, repro-header code fields).  Re-running a
  sweep after an unrelated change is a near-instant cache hit, and an
  interrupted sweep resumes from the cells that already completed.

Experiments participate by declaring their grid as a
:class:`SweepSpec`: a list of :class:`Cell`\\ s plus a **module-level**
cell function (module-level so worker processes can unpickle it by
reference) and an assembler that turns the per-cell rows back into the
experiment's ``ResultTable``.

The cache key deliberately excludes the git revision and wall-clock
time: a commit that does not change cell semantics must still hit.  When
an experiment's cell function changes meaning, bump its spec
``version`` to invalidate old entries.

**Supervised execution.**  Long sweeps die in boring ways: a worker gets
OOM-killed, one cell spins, a cache file is truncated by a full disk.
:func:`run_sweep` survives all three through the
:mod:`repro.core.resilience` primitives -- per-cell hard timeouts
(:class:`~repro.core.resilience.CellTimeout`), bounded retries with
deterministic backoff (:class:`~repro.core.resilience.Backoff`),
process-pool rebuilds that re-dispatch only the cells the dead worker
took with it (bounded, then :class:`~repro.core.resilience.WorkerCrash`)
and per-entry SHA-256 integrity checks that *quarantine* corrupt cache
files instead of crashing a ``--resume``.  None of it changes results:
fault-injected runs stay bit-identical to clean serial runs, because
recovery only ever re-executes deterministic cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.checks import at_least, non_negative
from repro.core.resilience import (
    Backoff,
    CellTimeout,
    WorkerCrash,
    crash_report,
    retry_call,
    run_with_timeout,
)
from repro.core.seeds import _canonical, derive_seed
from repro.experiments.tables import ResultTable

__all__ = [
    "Cell",
    "SweepSpec",
    "SweepOutcome",
    "SweepInterrupted",
    "CellCache",
    "run_sweep",
    "rows_to_table",
    "cell_key",
    "derive_seed",
    "default_cache_dir",
    "result_digest",
]


@dataclass(frozen=True)
class Cell:
    """One independent sweep point.

    Parameters
    ----------
    label:
        Human-readable cell name for progress lines (``"nodes=300"``).
    params:
        Keyword arguments of the spec's cell function.  Every value must
        be JSON-serializable (numbers, strings, booleans, lists, dicts):
        the parameters are both the call site and the cache identity.
    """

    label: str
    params: dict[str, Any]


@dataclass
class SweepSpec:
    """A sweep experiment declared as a grid of independent cells.

    Parameters
    ----------
    name:
        Registry name of the experiment (also the cache namespace).
    fn:
        Module-level callable invoked as ``fn(**cell.params)`` for each
        cell, returning a JSON-serializable result (typically one table
        row).  It must be importable by reference so worker processes
        can unpickle it.
    cells:
        The grid, in table row order.
    assemble:
        Turns the per-cell results (in ``cells`` order) into the
        experiment's :class:`ResultTable`.  Runs in the parent process
        only, so closures are fine here.
    version:
        Cache-invalidation tag: bump whenever ``fn``'s semantics change
        so stale cached cells cannot be replayed.
    context:
        Extra code-relevant configuration folded into every cell's cache
        key (shared constants that are not per-cell parameters).
    """

    name: str
    fn: Callable[..., Any]
    cells: list[Cell]
    assemble: Callable[[list[Any]], ResultTable]
    version: str = "1"
    context: dict[str, Any] = field(default_factory=dict)


@dataclass
class SweepOutcome:
    """What one :func:`run_sweep` call did.

    Parameters
    ----------
    table:
        The assembled experiment table.
    n_cells:
        Total cells in the grid.
    hits:
        Cells restored from the cache.
    misses:
        Cells actually executed (``n_cells - hits``).
    jobs:
        Worker processes used.
    elapsed_seconds:
        Wall-clock time of the whole sweep.
    retries:
        Cell attempts re-run under the retry policy.
    timeouts:
        Cell attempts that hit the per-cell timeout.
    worker_crashes:
        Process-pool breakages observed (workers dying hard).
    pool_rebuilds:
        Pools rebuilt after a breakage (lost cells re-dispatched).
    quarantined:
        Corrupt cache entries moved aside and recomputed.
    """

    table: ResultTable
    n_cells: int
    hits: int
    misses: int
    jobs: int
    elapsed_seconds: float
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    quarantined: int = 0


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C during a sweep, annotated with how far the grid got.

    Subclasses :class:`KeyboardInterrupt` so generic interrupt handling
    keeps working; the extra fields let the CLI print a partial summary
    (completed cells are already flushed to the cache) before exiting
    with the conventional interrupt status 130.
    """

    def __init__(self, completed: int, n_cells: int) -> None:
        super().__init__(f"interrupted after {completed}/{n_cells} cells")
        self.completed = completed
        self.n_cells = n_cells


def rows_to_table(
    title: str, columns: Sequence[str], notes: Sequence[str] = ()
) -> Callable[[list[Any]], ResultTable]:
    """Standard assembler: one cell result per row, notes appended.

    Parameters
    ----------
    title, columns:
        Forwarded to :class:`ResultTable`.
    notes:
        Free-text notes rendered under the table.

    Returns
    -------
    Callable[[list], ResultTable]
        An ``assemble`` callback for :class:`SweepSpec`.
    """

    def assemble(rows: list[Any]) -> ResultTable:
        table = ResultTable(title=title, columns=list(columns))
        for row in rows:
            table.add_row(*row)
        for note in notes:
            table.add_note(note)
        return table

    return assemble


# -- cache identity -----------------------------------------------------


def _code_fields() -> dict[str, Any]:
    """Repro-header fields that describe the *code*, not one run.

    Volatile fields are dropped on purpose: ``created_unix`` changes
    every call, and ``git`` changes on every commit -- including commits
    that do not touch the experiment, which must still be cache hits.
    Package/numpy/python versions stay in: a dependency bump may change
    floating-point results, and a stale hit would be silent corruption.
    """
    from repro.obs.header import repro_header

    header = repro_header()
    header.pop("created_unix", None)
    header.pop("git", None)
    return header


def cell_key(spec: SweepSpec, cell: Cell) -> str:
    """Content-addressed identity of one cell.

    SHA-256 over the canonical JSON of (experiment name, spec version,
    spec context, cell parameters, code-describing repro-header fields).

    Raises
    ------
    TypeError
        If a cell parameter is not JSON-serializable (cells must be
        declared with plain data, or they cannot be cached or shipped
        to worker processes).
    """
    payload = {
        "experiment": spec.name,
        "spec_version": spec.version,
        "context": spec.context,
        "params": cell.params,
        "header": _code_fields(),
    }
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def result_digest(value: Any) -> str:
    """Integrity checksum of one cell result: SHA-256 of canonical JSON.

    Stored inside each cache entry and re-verified on every read, so a
    truncated or bit-flipped file is detected instead of silently fed
    into a table.  Canonical JSON (not raw file bytes) keeps the digest
    independent of cosmetic re-serialization.
    """
    return hashlib.sha256(_canonical(value).encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """Cell-cache root: ``$CCF_CACHE_DIR`` or ``~/.cache/ccf/sweeps``."""
    env = os.environ.get("CCF_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "ccf" / "sweeps"


class CellCache:
    """On-disk content-addressed store of completed sweep cells.

    One JSON document per cell under ``root/<key[:2]>/<key>.json``,
    holding the result plus a full reproducibility header for
    provenance and a SHA-256 digest of the result
    (:func:`result_digest`).  Writes are atomic (temp file + rename) so
    a sweep killed mid-write never leaves a half-entry.

    Reads verify integrity: an entry that is unparseable, structurally
    wrong or fails its checksum is **quarantined** -- moved to
    ``root/quarantine/`` for post-mortems -- and reported as a miss, so
    the cell is recomputed and a resumed sweep never crashes on (or
    silently trusts) a damaged file.  Entries written before checksums
    existed carry no ``sha256`` field and are still honoured.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: Entries moved to quarantine over this instance's lifetime.
        self.quarantined = 0

    def path(self, key: str) -> Path:
        """Where one cell's document lives (sharded by key prefix)."""
        return self.root / key[:2] / f"{key}.json"

    def quarantine_dir(self) -> Path:
        """Where damaged entries are preserved for inspection."""
        return self.root / "quarantine"

    def _quarantine(self, path: Path) -> None:
        qdir = self.quarantine_dir()
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        n = 0
        while target.exists():
            n += 1
            target = qdir / f"{path.name}.{n}"
        try:
            os.replace(path, target)
        except OSError:
            return  # already removed by a concurrent reader
        self.quarantined += 1

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored document for ``key``, or None on any miss.

        Damaged entries (bad JSON, missing result, checksum mismatch)
        are quarantined before reporting the miss.
        """
        path = self.path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            doc = json.loads(text)
        except ValueError:
            self._quarantine(path)  # truncated / garbled: preserve, recompute
            return None
        if not isinstance(doc, dict) or "result" not in doc:
            self._quarantine(path)
            return None
        digest = doc.get("sha256")
        if digest is not None and digest != result_digest(doc["result"]):
            self._quarantine(path)  # bit-flip or tampering: never trust it
            return None
        return doc

    def put(self, key: str, document: dict[str, Any]) -> None:
        """Atomically persist one cell document (checksum stamped here)."""
        if "result" in document and "sha256" not in document:
            document = {**document, "sha256": result_digest(document["result"])}
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(document))
        os.replace(tmp, path)


# -- execution ----------------------------------------------------------


def _invoke(
    fn: Callable[..., Any],
    params: dict[str, Any],
    timeout_s: float | None = None,
    label: str = "cell",
) -> tuple[Any, float]:
    """Run one cell (module-level so worker processes can pickle it).

    The timeout is armed *inside* the worker (SIGALRM on its main
    thread), so a spinning cell raises :class:`CellTimeout` in place
    rather than wedging the pool.
    """
    start = time.perf_counter()
    value = run_with_timeout(lambda: fn(**params), timeout_s, what=label)
    return value, time.perf_counter() - start


def _run_serial(
    spec: SweepSpec,
    pending: list[int],
    record: Callable[[int, Any, float], None],
    retry: Backoff | None,
    cell_timeout_s: float | None,
    stats: dict[str, int],
    note: Callable[..., None],
) -> None:
    """In-process execution path: declaration order, fail-fast.

    Retries and timeouts apply exactly as in the parallel path (the
    SIGALRM timeout arms on this process's main thread instead of a
    worker's), so ``jobs=1`` exercises the same supervision machinery.
    """
    for i in pending:
        cell = spec.cells[i]
        what = f"{spec.name} cell {cell.label}"

        def once() -> tuple[Any, float]:
            return _invoke(spec.fn, cell.params, cell_timeout_s, what)

        def on_retry(attempt: int, exc: BaseException, delay: float) -> None:
            stats["retries"] += 1
            if isinstance(exc, CellTimeout):
                stats["timeouts"] += 1
                note("cell_timeout", cell=cell.label, attempt=attempt,
                     detail=str(exc))
            note("retry", cell=cell.label, attempt=attempt,
                 detail=type(exc).__name__)

        try:
            if retry is not None:
                value, elapsed = retry_call(once, policy=retry, on_retry=on_retry)
            else:
                value, elapsed = once()
        except CellTimeout as exc:  # the final (or only) attempt timed out
            stats["timeouts"] += 1
            note("cell_timeout", cell=cell.label, detail=str(exc))
            raise
        record(i, value, elapsed)


def _run_parallel(
    spec: SweepSpec,
    pending: list[int],
    jobs: int,
    record: Callable[[int, Any, float], None],
    retry: Backoff | None,
    cell_timeout_s: float | None,
    max_pool_rebuilds: int,
    stats: dict[str, int],
    note: Callable[..., None],
    *,
    completed_so_far: Callable[[], int],
    n_cells: int,
) -> None:
    """Process-pool execution path with crash recovery.

    One pool *generation* dispatches every outstanding cell and drains
    completions.  A worker dying hard breaks the whole pool
    (``BrokenProcessPool`` surfaces on every unfinished future); the
    cells those futures carried, and any cell whose submit found the pool
    already broken, are collected as *lost* and re-dispatched into a
    fresh generation -- finished cells are never re-run.  After
    ``max_pool_rebuilds`` breakages the sweep gives up with
    :class:`WorkerCrash` carrying a crash report.
    """
    errors: list[tuple[int, BaseException]] = []
    attempts = {i: 0 for i in pending}
    todo = list(pending)
    breaks = 0

    while todo:
        lost: set[int] = set()
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(todo)))

        def dispatch(i: int) -> None:
            fut = pool.submit(
                _invoke, spec.fn, spec.cells[i].params, cell_timeout_s,
                f"{spec.name} cell {spec.cells[i].label}",
            )
            inflight[fut] = i

        inflight: dict[Any, int] = {}
        try:
            for sent, i in enumerate(todo):
                try:
                    dispatch(i)
                except BrokenProcessPool:
                    # A worker died before every cell went out: this cell
                    # and the rest wait for the next generation.
                    lost.update(todo[sent:])
                    break
            todo = []
            while inflight:
                done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
                for fut in done:
                    i = inflight.pop(fut)
                    label = spec.cells[i].label
                    try:
                        value, elapsed = fut.result()
                    except (BrokenProcessPool, CancelledError):
                        lost.add(i)  # the dead worker took this cell
                        continue
                    except Exception as exc:
                        attempts[i] += 1
                        if isinstance(exc, CellTimeout):
                            stats["timeouts"] += 1
                            note("cell_timeout", cell=label,
                                 attempt=attempts[i], detail=str(exc))
                        if retry is not None and attempts[i] < retry.max_attempts:
                            pause = retry.delay(attempts[i])
                            stats["retries"] += 1
                            note("retry", cell=label, attempt=attempts[i],
                                 detail=type(exc).__name__)
                            if pause > 0:
                                time.sleep(pause)
                            try:
                                dispatch(i)
                            except BrokenProcessPool:
                                lost.add(i)
                        else:
                            errors.append((i, exc))
                        continue
                    record(i, value, elapsed)
        except KeyboardInterrupt:
            pool.shutdown(wait=False, cancel_futures=True)
            done_n = completed_so_far()
            note("interrupt", detail=f"{done_n}/{n_cells} cells completed")
            raise SweepInterrupted(done_n, n_cells) from None
        finally:
            pool.shutdown()

        if not lost:
            break
        stats["worker_crashes"] += 1
        breaks += 1
        note("worker_crash",
             detail=f"pool broke; {len(lost)} cells lost")
        if breaks > max_pool_rebuilds:
            labels = [spec.cells[i].label for i in sorted(lost)]
            err = WorkerCrash(
                f"process pool broke {breaks} times "
                f"(max_pool_rebuilds={max_pool_rebuilds}); "
                f"{len(lost)} cells still unfinished"
            )
            err.report = crash_report(err, context={
                "experiment": spec.name,
                "lost_cells": labels[:20],
                "pool_rebuilds": breaks - 1,
                "completed": completed_so_far(),
                "n_cells": n_cells,
            })
            raise err
        stats["pool_rebuilds"] += 1
        note("pool_rebuild", attempt=breaks,
             detail=f"re-dispatching {len(lost)} lost cells")
        todo = sorted(lost)

    if errors:
        raise min(errors, key=lambda e: e[0])[1]


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    cache: CellCache | None = None,
    progress: Callable[[str], None] | None = None,
    metrics: Any = None,
    retry: Backoff | None = None,
    cell_timeout_s: float | None = None,
    max_pool_rebuilds: int = 3,
    instrumentation: Any = None,
) -> SweepOutcome:
    """Execute a sweep grid: cache lookups, then (parallel) cell runs.

    Cells found in ``cache`` are restored without executing; the rest
    run serially in declaration order (``jobs=1``) or fan out over a
    process pool.  Either way the table is assembled in declaration
    order, so for deterministic cell functions the result is
    bit-identical across ``jobs`` values and across cold/warm caches --
    and across faults: retries, timeouts and pool rebuilds only ever
    *re-execute* deterministic cells, never change them.

    Completed cells are cached *as they finish*, so an interrupted or
    partially failed sweep resumes from the survivors on the next call.
    If cells fail, the error of the earliest failing cell is re-raised
    after the remaining cells have been collected and cached.  A worker
    process dying hard (OOM kill, segfault) breaks the pool; the pool is
    rebuilt and only the cells the dead worker took are re-dispatched,
    up to ``max_pool_rebuilds`` times before :class:`WorkerCrash`.
    ``KeyboardInterrupt`` is re-raised as :class:`SweepInterrupted`
    after cancelling undispatched cells, so callers can report partial
    progress; everything already recorded stays cached.

    Parameters
    ----------
    spec:
        The grid to run.
    jobs:
        Worker processes; 1 (default) executes in-process.
    cache:
        Cell store; None disables both lookup and write-back.
    progress:
        Optional sink for one human-readable line per cell.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; receives
        ``sweep_cells_total``, ``sweep_cache_hits_total``,
        ``sweep_cells_executed_total``, ``sweep_retries_total``,
        ``sweep_cell_timeouts_total``, ``sweep_worker_crashes_total``,
        ``sweep_pool_rebuilds_total``, ``sweep_quarantined_total``
        counters and a ``sweep_jobs`` gauge, all labelled by experiment.
    retry:
        Optional :class:`Backoff` policy: failed cell attempts are
        re-run (with backoff sleeps) up to ``retry.max_attempts`` times
        before the failure counts.  None (default) fails fast.
    cell_timeout_s:
        Optional hard wall-clock bound per cell attempt, enforced by
        SIGALRM inside the worker; overruns raise :class:`CellTimeout`
        (retryable like any other failure).
    max_pool_rebuilds:
        How many pool breakages to absorb before giving up with
        :class:`WorkerCrash`.
    instrumentation:
        Optional :class:`repro.obs.Instrumentation`; receives one
        ``platform_event`` per retry / timeout / crash / rebuild /
        quarantine / interrupt, stamped with wall-clock time.

    Returns
    -------
    SweepOutcome
        The assembled table plus cache-hit, fault and timing counters.
    """
    at_least("jobs", jobs, 1)
    non_negative("max_pool_rebuilds", max_pool_rebuilds)
    start = time.perf_counter()
    say = progress or (lambda msg: None)
    n = len(spec.cells)
    results: list[Any] = [None] * n
    keys: list[str | None] = [None] * n
    pending: list[int] = []
    hits = 0
    stats = {
        "retries": 0,
        "timeouts": 0,
        "worker_crashes": 0,
        "pool_rebuilds": 0,
        "quarantined": 0,
    }

    def note(event: str, *, cell: str = "", attempt: int = 0,
             detail: str = "") -> None:
        if instrumentation is not None and instrumentation.enabled:
            instrumentation.emit(
                "platform_event", time.time(), event=event,
                experiment=spec.name, cell=cell, attempt=attempt,
                detail=detail,
            )

    for i, cell in enumerate(spec.cells):
        if cache is not None:
            keys[i] = cell_key(spec, cell)
            before = cache.quarantined
            doc = cache.get(keys[i])
            if cache.quarantined > before:
                stats["quarantined"] += cache.quarantined - before
                note("quarantine", cell=cell.label,
                     detail="cache entry failed integrity check")
                say(f"[{i + 1}/{n}] {spec.name} {cell.label}: "
                    "cache entry quarantined, recomputing")
            if doc is not None:
                results[i] = doc["result"]
                hits += 1
                say(f"[{i + 1}/{n}] {spec.name} {cell.label}: cached")
                continue
        pending.append(i)

    completed = hits

    def record(i: int, value: Any, elapsed: float) -> None:
        nonlocal completed
        results[i] = value
        completed += 1
        cell = spec.cells[i]
        if cache is not None and keys[i] is not None:
            from repro.obs.header import repro_header

            cache.put(
                keys[i],
                {
                    "key": keys[i],
                    "experiment": spec.name,
                    "spec_version": spec.version,
                    "label": cell.label,
                    "params": cell.params,
                    "elapsed_seconds": round(elapsed, 6),
                    "header": repro_header(experiment=spec.name),
                    "result": value,
                },
            )
        say(f"[{i + 1}/{n}] {spec.name} {cell.label}: ran in {elapsed:.2f}s")

    if pending and (jobs == 1 or len(pending) == 1):
        try:
            _run_serial(
                spec, pending, record, retry, cell_timeout_s, stats, note
            )
        except SweepInterrupted:
            raise
        except KeyboardInterrupt:
            note("interrupt", detail=f"{completed}/{n} cells completed")
            raise SweepInterrupted(completed, n) from None
    elif pending:
        _run_parallel(
            spec, pending, jobs, record, retry, cell_timeout_s,
            max_pool_rebuilds, stats, note,
            completed_so_far=lambda: completed, n_cells=n,
        )

    misses = n - hits
    if metrics is not None:
        labels = {"experiment": spec.name}
        metrics.counter(
            "sweep_cells_total", "sweep cells assembled (hit or run)", labels
        ).inc(n)
        metrics.counter(
            "sweep_cache_hits_total", "cells restored from the cell cache", labels
        ).inc(hits)
        metrics.counter(
            "sweep_cells_executed_total", "cells actually executed", labels
        ).inc(misses)
        metrics.counter(
            "sweep_retries_total", "cell attempts re-run under retry", labels
        ).inc(stats["retries"])
        metrics.counter(
            "sweep_cell_timeouts_total", "cell attempts that timed out", labels
        ).inc(stats["timeouts"])
        metrics.counter(
            "sweep_worker_crashes_total", "process-pool breakages", labels
        ).inc(stats["worker_crashes"])
        metrics.counter(
            "sweep_pool_rebuilds_total", "pools rebuilt after a crash", labels
        ).inc(stats["pool_rebuilds"])
        metrics.counter(
            "sweep_quarantined_total", "corrupt cache entries quarantined",
            labels,
        ).inc(stats["quarantined"])
        metrics.gauge(
            "sweep_jobs", "worker processes of the last sweep", labels
        ).set(jobs)

    return SweepOutcome(
        table=spec.assemble(results),
        n_cells=n,
        hits=hits,
        misses=misses,
        jobs=jobs,
        elapsed_seconds=time.perf_counter() - start,
        retries=stats["retries"],
        timeouts=stats["timeouts"],
        worker_crashes=stats["worker_crashes"],
        pool_rebuilds=stats["pool_rebuilds"],
        quarantined=stats["quarantined"],
    )
