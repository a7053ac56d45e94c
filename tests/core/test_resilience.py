"""Tests for the supervised-execution primitives (repro.core.resilience)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resilience import (
    Backoff,
    BudgetExceeded,
    CacheCorruption,
    CellTimeout,
    Deadline,
    ResilienceError,
    StallDetector,
    StallError,
    WorkerCrash,
    _jitter_factor,
    crash_report,
    retry_call,
    run_with_timeout,
    write_crash_report,
)


class TestErrorTaxonomy:
    def test_hierarchy(self):
        # Everything is a RuntimeError so pre-taxonomy call sites keep
        # working; CellTimeout is a budget breach by nature.
        for cls in (StallError, BudgetExceeded, WorkerCrash, CacheCorruption):
            assert issubclass(cls, ResilienceError)
            assert issubclass(cls, RuntimeError)
        assert issubclass(CellTimeout, BudgetExceeded)

    def test_report_survives_pickling(self):
        # Worker -> parent transport: the pool pickles exceptions.
        err = StallError("stuck", report={"context": {"t": 1.5}})
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, StallError)
        assert str(back) == "stuck"
        assert back.report == {"context": {"t": 1.5}}

    def test_report_defaults_to_none(self):
        assert BudgetExceeded("over").report is None


class TestBackoff:
    def test_validation(self):
        with pytest.raises(ValueError):
            Backoff(max_attempts=0)
        with pytest.raises(ValueError):
            Backoff(base_delay=-1.0)
        with pytest.raises(ValueError):
            Backoff(multiplier=0.5)
        with pytest.raises(ValueError):
            Backoff(jitter=1.0)
        with pytest.raises(ValueError):
            Backoff(base_delay=5.0, max_delay=1.0)

    def test_deterministic(self):
        a = Backoff(seed=7)
        b = Backoff(seed=7)
        assert list(a.delays()) == list(b.delays())
        c = Backoff(seed=8)
        assert list(a.delays()) != list(c.delays())

    @given(
        max_attempts=st.integers(1, 12),
        base=st.floats(0.0, 10.0, allow_nan=False),
        mult=st.floats(1.0, 4.0, allow_nan=False),
        extra=st.floats(0.0, 100.0, allow_nan=False),
        jitter=st.floats(0.0, 0.99, allow_nan=False),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_properties(self, max_attempts, base, mult, extra, jitter, seed):
        policy = Backoff(
            max_attempts=max_attempts,
            base_delay=base,
            multiplier=mult,
            max_delay=base + extra,
            jitter=jitter,
            seed=seed,
        )
        delays = list(policy.delays())
        # Bounded attempts: exactly max_attempts - 1 retry delays.
        assert len(delays) == max_attempts - 1
        schedule = [policy.base_schedule(k) for k in range(1, max_attempts)]
        # The un-jittered schedule is monotone non-decreasing and capped.
        assert all(a <= b for a, b in zip(schedule, schedule[1:]))
        assert all(s <= policy.max_delay for s in schedule)
        # Jitter stays within its amplitude around the base schedule.
        for d, s in zip(delays, schedule):
            assert (1 - jitter) * s - 1e-12 <= d <= (1 + jitter) * s + 1e-12

    @given(
        seed=st.integers(0, 2**31),
        attempt=st.integers(1, 12),
        jitter=st.floats(0.0, 0.99, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_memoized_jitter_is_the_hash(self, seed, attempt, jitter):
        """The memo returns what the hash derivation computes, on the
        first call and on a repeat, and the delays built on it match."""
        for _ in range(2):
            assert _jitter_factor(seed, attempt, jitter) == (
                _jitter_factor.__wrapped__(seed, attempt, jitter)
            )
        policy = Backoff(max_attempts=attempt + 1, jitter=jitter, seed=seed)
        assert list(policy.delays()) == [
            policy.base_schedule(k)
            * _jitter_factor.__wrapped__(seed, k, jitter)
            for k in range(1, attempt + 1)
        ]

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            Backoff().base_schedule(0)

    def test_golden_jitter_sequences(self):
        """Pinned delay sequences: the hash-derived jitter is part of the
        reproducibility contract (service deferrals replay bit-for-bit),
        so a change to the jitter derivation must fail loudly here."""
        a = Backoff(
            max_attempts=5, base_delay=0.5, multiplier=2.0,
            max_delay=30.0, jitter=0.1, seed=0,
        )
        assert list(a.delays()) == pytest.approx(
            [0.50711442676, 0.977965347008, 1.993866726139, 4.153213699613]
        )
        b = Backoff(
            max_attempts=6, base_delay=1.0, multiplier=3.0,
            max_delay=10.0, jitter=0.25, seed=42,
        )
        assert list(b.delays()) == pytest.approx(
            [1.072051952799, 2.523315476325, 6.880743620149,
             8.959171256009, 8.357291407044]
        )
        # The jittered delays stay inside the clamp's jitter envelope.
        assert all(d <= 10.0 * 1.25 for d in b.delays())


class TestRetryCall:
    def test_retries_until_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        slept = []
        out = retry_call(
            flaky,
            policy=Backoff(max_attempts=5, base_delay=0.01, seed=1),
            sleep=slept.append,
        )
        assert out == "ok"
        assert len(calls) == 3
        assert len(slept) == 2

    def test_exhausted_attempts_raise_last_error(self):
        def always():
            raise ValueError("nope")

        with pytest.raises(ValueError, match="nope"):
            retry_call(
                always,
                policy=Backoff(max_attempts=3, base_delay=0.0),
                sleep=lambda s: None,
            )

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def bad():
            calls.append(1)
            raise TypeError("bug, not transience")

        with pytest.raises(TypeError):
            retry_call(
                bad,
                policy=Backoff(max_attempts=5, base_delay=0.0),
                retry_on=(OSError,),
                sleep=lambda s: None,
            )
        assert len(calls) == 1

    def test_keyboard_interrupt_never_retried(self):
        calls = []

        def interrupted():
            calls.append(1)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            retry_call(interrupted, sleep=lambda s: None)
        assert len(calls) == 1

    def test_on_retry_observer(self):
        seen = []

        def flaky():
            if not seen:
                raise OSError("once")
            return 42

        retry_call(
            flaky,
            policy=Backoff(max_attempts=2, base_delay=0.0),
            sleep=lambda s: None,
            on_retry=lambda attempt, err, delay: seen.append(
                (attempt, type(err).__name__)
            ),
        )
        assert seen == [(1, "OSError")]


class TestDeadline:
    def test_unlimited(self):
        d = Deadline(None)
        assert d.remaining() == float("inf")
        d.check()  # never raises

    def test_expiry(self):
        now = [0.0]
        d = Deadline(2.0, clock=lambda: now[0])
        d.check()
        now[0] = 1.9
        assert not d.expired
        d.check()
        now[0] = 2.5
        assert d.expired
        with pytest.raises(BudgetExceeded, match="wall-clock budget"):
            d.check("the sweep")

    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestStallDetector:
    def test_trips_after_consecutive_stalls(self):
        det = StallDetector(3)
        assert not det.observe(0.0)  # first observation sets the baseline
        assert not det.observe(0.0)
        assert not det.observe(0.0)
        assert det.observe(0.0)  # third consecutive no-progress epoch

    def test_progress_resets_counter(self):
        det = StallDetector(2)
        det.observe(0.0)
        det.observe(0.0)
        assert not det.observe(1.0)  # clock advanced: reset
        det.observe(1.0)
        assert det.observe(1.0)

    def test_stall_then_recover_then_stall(self):
        # One shy of the bound, recover, and the full budget is back.
        det = StallDetector(3)
        det.observe(0.0)
        for _ in range(2):  # max_stalled - 1 no-progress epochs
            assert not det.observe(0.0)
        assert det.stalled == 2
        assert not det.observe(5.0)  # progress
        assert det.stalled == 0
        for _ in range(2):
            assert not det.observe(5.0)
        assert det.observe(5.0)  # stalls again: trips at the full bound

    def test_validation(self):
        with pytest.raises(ValueError):
            StallDetector(0)


class TestRunWithTimeout:
    def test_fast_call_passes_through(self):
        assert run_with_timeout(lambda x: x + 1, 5.0, 41) == 42

    def test_none_disables(self):
        assert run_with_timeout(lambda: "ok", None) == "ok"

    def test_slow_call_times_out(self):
        import time as _time

        with pytest.raises(CellTimeout, match="timeout"):
            run_with_timeout(_time.sleep, 0.05, 5.0, what="sleepy cell")

    def test_alarm_restored_after_call(self):
        import signal as _signal

        before = _signal.getsignal(_signal.SIGALRM)
        run_with_timeout(lambda: None, 5.0)
        assert _signal.getsignal(_signal.SIGALRM) is before

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            run_with_timeout(lambda: None, -1.0)


class TestCrashReport:
    def test_structure(self):
        report = crash_report(
            StallError("frozen"),
            context={"sim_time": 3.5, "active_coflows": [1, 2]},
            events=[{"kind": "epoch", "t": float(i)} for i in range(80)],
            max_events=10,
        )
        assert report["kind"] == "crash_report"
        assert report["error"] == {"type": "StallError", "message": "frozen"}
        assert report["context"]["sim_time"] == 3.5
        assert "version" in report["header"]
        assert report["events_total"] == 80
        assert len(report["last_events"]) == 10
        assert report["last_events"][-1]["t"] == 79.0

    def test_write_is_json_and_collision_free(self, tmp_path):
        report = crash_report(BudgetExceeded("over"), context={})
        import json

        p1 = write_crash_report(report, tmp_path / "crashes")
        p2 = write_crash_report(report, tmp_path / "crashes")
        assert p1 != p2
        for p in (p1, p2):
            doc = json.loads(p.read_text())
            assert doc["error"]["type"] == "BudgetExceeded"
