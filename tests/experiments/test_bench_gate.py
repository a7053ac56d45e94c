"""Unit tests for the bench regression gate (``check_regression``).

The gate compares per-case ``batch_events`` off/on speedups, not
absolute epochs/sec, so a uniformly slower or faster machine must not
trip it.
"""

from repro.experiments.hotpath import check_regression


def _case(speedup, eps=1000.0, bit_identical=True):
    return {
        "bit_identical": bit_identical,
        "speedup": speedup,
        "on": {"epochs_per_sec": eps},
    }


class TestCheckRegression:
    def test_identical_payload_passes(self):
        payload = {"fleet": {"a": _case(2.0), "b": _case(3.0)}}
        assert check_regression(payload, payload) == []

    def test_uniform_machine_slowdown_passes(self):
        # Same speedups, half the absolute throughput: a slow runner,
        # not a regression.
        base = {"fleet": {"a": _case(2.0, eps=1000.0)}}
        cur = {"fleet": {"a": _case(2.0, eps=500.0)}}
        assert check_regression(cur, base) == []

    def test_speedup_collapse_fails(self):
        base = {"fleet": {"a": _case(2.5)}}
        cur = {"fleet": {"a": _case(1.0)}}
        problems = check_regression(cur, base, tolerance=0.3)
        assert len(problems) == 1
        assert "speedup 1.00x" in problems[0]

    def test_tolerance_boundary(self):
        base = {"fleet": {"a": _case(2.0)}}
        assert check_regression(
            {"fleet": {"a": _case(1.5)}}, base, tolerance=0.3
        ) == []  # 1.5 >= 2.0 * 0.7
        assert check_regression(
            {"fleet": {"a": _case(1.3)}}, base, tolerance=0.3
        )  # 1.3 < 1.4

    def test_bit_identity_break_always_fails(self):
        base = {"fleet": {"a": _case(2.0)}}
        cur = {"fleet": {"a": _case(2.0, bit_identical=False)}}
        problems = check_regression(cur, base)
        assert problems == ["a: batch_events off/on results differ"]

    def test_unknown_case_is_skipped(self):
        # A quick run checked against a full baseline only compares the
        # shared keys; extra current-side cases don't error.
        base = {"fleet": {"a": _case(2.0)}}
        cur = {"fleet": {"a": _case(2.0), "new": _case(0.1)}}
        assert check_regression(cur, base) == []

    def test_no_matched_key_fails(self):
        # A renamed case, or a baseline regenerated without it, leaves
        # nothing to compare: the gate must say so instead of passing.
        base = {"fleet": {"old-key": _case(2.0)}}
        cur = {"fleet": {"new-key": _case(2.0)}}
        problems = check_regression(cur, base)
        assert len(problems) == 1
        assert "nothing was compared" in problems[0]

    def test_baseline_without_fleet_fails(self):
        cur = {"fleet": {"a": _case(2.0)}}
        problems = check_regression(cur, {"cases": {"a": _case(2.0)}})
        assert len(problems) == 1
        assert "nothing was compared" in problems[0]
