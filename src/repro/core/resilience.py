"""Reusable resilience primitives: retries, budgets, stalls, crash reports.

PRs 1-2 made the *simulated* fabric fault-tolerant; this module makes the
*platform itself* survive.  Everything the supervised execution layer
needs lives here and nowhere else:

* a structured **error taxonomy** (:class:`StallError`,
  :class:`BudgetExceeded`, :class:`CellTimeout`, :class:`WorkerCrash`,
  :class:`CacheCorruption`) so supervisors can react to *what* went
  wrong instead of pattern-matching message strings;
* :class:`Backoff` + :func:`retry_call` -- bounded retries with
  exponential backoff and **deterministic jitter** (hash-derived, so the
  same attempt of the same task always waits the same time: retry
  schedules are reproducible across processes and platforms, the same
  property :func:`repro.core.seeds.derive_seed` gives seeds);
* :class:`Deadline` -- a wall-clock budget that raises
  :class:`BudgetExceeded` when overrun;
* :class:`StallDetector` -- counts consecutive no-progress observations
  (a simulation clock that stops advancing) and trips after a bound;
* :func:`run_with_timeout` -- SIGALRM-based hard timeout for one call
  (how sweep workers bound a single cell);
* :func:`crash_report` / :func:`write_crash_report` -- the structured
  post-mortem document every watchdog abort attaches to its error.

The primitives are dependency-free and synchronous on purpose: the
simulator's epoch loop, the sweep engine's worker pool and the chaos
campaign runner all thread through them without an event loop or a
supervisor daemon.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.core.checks import at_least, in_range, non_negative, positive

__all__ = [
    "ResilienceError",
    "StallError",
    "BudgetExceeded",
    "CellTimeout",
    "WorkerCrash",
    "CacheCorruption",
    "Backoff",
    "retry_call",
    "Deadline",
    "StallDetector",
    "run_with_timeout",
    "crash_report",
    "write_crash_report",
]


# -- error taxonomy -----------------------------------------------------


class ResilienceError(RuntimeError):
    """Base of the supervised-execution error taxonomy.

    Subclasses of :class:`RuntimeError` on purpose: call sites that
    predate the taxonomy (``except RuntimeError``) keep working, while
    supervisors can catch the precise failure class.  Every instance can
    carry a structured crash ``report`` (see :func:`crash_report`).
    """

    def __init__(self, message: str = "", *, report: dict | None = None) -> None:
        super().__init__(message)
        self.report = report

    def __reduce__(self):  # keep ``report`` across pickling (worker -> parent)
        return (
            self.__class__,
            (self.args[0] if self.args else "",),
            {"report": self.report},
        )


class StallError(ResilienceError):
    """The watched computation stopped making progress (clock frozen)."""


class BudgetExceeded(ResilienceError):
    """A resource budget (wall clock, epochs) was exhausted."""


class CellTimeout(BudgetExceeded):
    """One unit of work overran its per-call wall-clock budget."""


class WorkerCrash(ResilienceError):
    """A worker process died hard (killed / segfaulted), taking work with it."""


class CacheCorruption(ResilienceError):
    """A persisted artifact failed its integrity check (truncated / garbled)."""


# -- retry / backoff ----------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _jitter_factor(seed: int, attempt: int, jitter: float) -> float:
    """Deterministic jitter multiplier in ``[1 - jitter, 1 + jitter]``.

    Hash-derived (like :func:`~repro.core.seeds.derive_seed`)
    rather than drawn from a shared RNG, so the factor depends only on
    ``(seed, attempt, jitter)`` -- stable across processes, platforms
    and numpy versions, which keeps retry schedules reproducible and
    testable.  Being a pure function of its arguments, it is memoized: a
    fixed :class:`Backoff` has at most ``max_attempts`` distinct factors,
    and a deferral-heavy service run asks for them thousands of times.
    """
    if jitter == 0.0:
        return 1.0
    digest = hashlib.sha256(
        json.dumps([int(seed), int(attempt)]).encode()
    ).digest()
    unit = int.from_bytes(digest[:8], "big") / float(2**64)  # [0, 1)
    return 1.0 + jitter * (2.0 * unit - 1.0)


@dataclass(frozen=True)
class Backoff:
    """Bounded exponential backoff with deterministic jitter.

    The *base* schedule is ``base_delay * multiplier**k`` capped at
    ``max_delay`` -- monotone non-decreasing by construction.  Jitter
    multiplies each delay by a hash-derived factor in
    ``[1 - jitter, 1 + jitter]`` so independent retriers decorrelate
    without sacrificing reproducibility.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (so ``max_attempts - 1``
        retries).  Must be >= 1.
    base_delay:
        Delay before the first retry, in seconds.
    multiplier:
        Exponential growth factor (>= 1 keeps the schedule monotone).
    max_delay:
        Upper clamp on the un-jittered delay.
    jitter:
        Fractional jitter amplitude in ``[0, 1)``; 0 disables it.
    seed:
        Decorrelates the jitter streams of different retriers.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        at_least("max_attempts", self.max_attempts, 1)
        non_negative("base_delay", self.base_delay)
        at_least("multiplier", self.multiplier, 1)  # a monotone schedule
        at_least("max_delay", self.max_delay, self.base_delay)
        in_range("jitter", self.jitter, 0, 1, "[)")

    def base_schedule(self, attempt: int) -> float:
        """Un-jittered delay after the ``attempt``-th failure (1-based)."""
        at_least("attempt (1-based)", attempt, 1)
        return min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )

    def delay(self, attempt: int) -> float:
        """Jittered delay after the ``attempt``-th failure (1-based)."""
        return self.base_schedule(attempt) * _jitter_factor(
            self.seed, attempt, self.jitter
        )

    def delays(self) -> Iterator[float]:
        """The full retry-delay sequence (``max_attempts - 1`` values)."""
        for attempt in range(1, self.max_attempts):
            yield self.delay(attempt)


def retry_call(
    fn: Callable[..., Any],
    *args: Any,
    policy: Backoff | None = None,
    retry_on: tuple[type[BaseException], ...] = (Exception,),
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, BaseException, float], None] | None = None,
    **kwargs: Any,
) -> Any:
    """Call ``fn`` under a bounded retry/backoff policy.

    Parameters
    ----------
    fn, args, kwargs:
        The call to supervise.
    policy:
        Backoff schedule; defaults to :class:`Backoff` defaults.
    retry_on:
        Exception classes worth retrying.  Anything else propagates
        immediately (``KeyboardInterrupt``/``SystemExit`` are never
        retried: they do not subclass :class:`Exception`).
    sleep:
        Injectable clock for tests.
    on_retry:
        Observer called as ``on_retry(attempt, error, delay)`` before
        each backoff sleep.

    Returns
    -------
    Any
        ``fn``'s value on the first successful attempt.

    Raises
    ------
    BaseException
        The final attempt's error, once ``policy.max_attempts`` is
        exhausted.
    """
    policy = policy or Backoff()
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn(*args, **kwargs)
        except retry_on as exc:
            if attempt >= policy.max_attempts:
                raise
            pause = policy.delay(attempt)
            if on_retry is not None:
                on_retry(attempt, exc, pause)
            if pause > 0:
                sleep(pause)


# -- budgets and stalls -------------------------------------------------


class Deadline:
    """A wall-clock budget; :meth:`check` raises once it is overrun.

    Parameters
    ----------
    budget_s:
        Seconds allowed from construction, or None (or ``inf``) for
        unlimited (every check passes -- lets call sites keep one code
        path).
    clock:
        Injectable monotonic clock for tests.
    """

    def __init__(
        self,
        budget_s: float | None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_s is not None:
            positive("budget_s", budget_s, inf_ok=True)
        self.budget_s = budget_s
        self._clock = clock
        self._start = clock()

    def elapsed(self) -> float:
        """Seconds spent since construction."""
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left (``inf`` when unlimited; can go negative)."""
        if self.budget_s is None:
            return float("inf")
        return self.budget_s - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() < 0

    def check(self, what: str = "operation") -> None:
        """Raise :class:`BudgetExceeded` if the budget is overrun."""
        if self.expired:
            raise BudgetExceeded(
                f"{what} exceeded its wall-clock budget of "
                f"{self.budget_s:.6g}s (elapsed {self.elapsed():.6g}s)"
            )


class StallDetector:
    """Trips after N consecutive observations without forward progress.

    The simulator feeds it the simulation clock once per epoch: an epoch
    that leaves the clock exactly where it was is a *no-progress* epoch.
    Bounded bursts of those are legitimate (simultaneous discrete events
    each consume an epoch), so the detector only trips after
    ``max_stalled`` consecutive ones -- the signature of a scheduler /
    dynamics interaction that will spin forever.
    """

    def __init__(self, max_stalled: int) -> None:
        at_least("max_stalled", max_stalled, 1)
        self.max_stalled = max_stalled
        self.stalled = 0
        self._last: float | None = None

    def observe(self, value: float) -> bool:
        """Record one observation; True when the stall bound is hit."""
        if self._last is not None and value <= self._last:
            self.stalled += 1
        else:
            self.stalled = 0
        self._last = value
        return self.stalled >= self.max_stalled


# -- hard per-call timeouts ---------------------------------------------


def run_with_timeout(
    fn: Callable[..., Any],
    timeout_s: float | None,
    *args: Any,
    what: str = "call",
    **kwargs: Any,
) -> Any:
    """Run ``fn`` with a hard wall-clock timeout via ``SIGALRM``.

    Raises :class:`CellTimeout` when the call overruns.  The alarm only
    works on POSIX main threads; anywhere else (Windows, worker threads)
    the call runs unbounded -- callers needing a guarantee there must
    layer a :class:`Deadline` inside ``fn`` instead.  Sweep workers are
    POSIX processes running cells on their main thread, which is exactly
    the case this exists for.
    """
    if (
        timeout_s is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return fn(*args, **kwargs)
    positive("timeout_s", timeout_s)

    def _alarm(signum, frame):
        raise CellTimeout(f"{what} exceeded its timeout of {timeout_s:.6g}s")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- crash reports ------------------------------------------------------


def crash_report(
    error: BaseException,
    *,
    context: dict[str, Any] | None = None,
    events: Sequence[dict[str, Any]] | None = None,
    max_events: int = 50,
) -> dict[str, Any]:
    """Build the structured post-mortem attached to watchdog errors.

    Parameters
    ----------
    error:
        The triggering exception.
    context:
        Caller-specific state (simulation clock, active coflows, sweep
        cell label, ...), merged under ``"context"``.
    events:
        The run's structured event stream (``repro.obs`` tracer events);
        only the last ``max_events`` are kept.

    Returns
    -------
    dict
        JSON-ready document with a reproducibility header, the error
        class/message, the context and the event tail.
    """
    from repro.obs.header import repro_header

    report: dict[str, Any] = {
        "kind": "crash_report",
        "error": {"type": type(error).__name__, "message": str(error)},
        "header": repro_header(),
        "context": dict(context or {}),
    }
    if events is not None:
        tail = list(events)[-max_events:]
        report["events_total"] = len(events)
        report["last_events"] = tail
    return report


def write_crash_report(
    report: dict[str, Any], directory: str | Path
) -> Path:
    """Persist one crash report as pretty JSON; returns the path.

    File names embed the wall clock and pid plus a disambiguating
    counter, so concurrent crashing workers never clobber each other.
    Writing is best-effort durable (temp file + rename) like the cell
    cache: a crash while writing the crash report must not leave a
    half-document that later tooling chokes on.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"crash-{int(time.time())}-{os.getpid()}"
    path = directory / f"{stem}.json"
    n = 0
    while path.exists():
        n += 1
        path = directory / f"{stem}-{n}.json"
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(json.dumps(report, indent=1, default=str) + "\n")
    os.replace(tmp, path)
    return path
