"""The numeric input checks every constructor and ``ccf`` option uses."""

import math

import numpy as np
import pytest

from repro.core.checks import (
    at_least,
    finite_entries,
    in_range,
    non_negative,
    positive,
)

NAN, INF = math.nan, math.inf


class TestScalars:
    @pytest.mark.parametrize(
        "check, good, bad",
        [
            (positive, [1e-300, 2, 5.5], [0, -1, NAN, INF, -INF]),
            (non_negative, [0, 0.0, 3], [-1e-9, NAN, INF, -INF]),
            (lambda n, v: at_least(n, v, 2), [2, 7.5], [1.9, NAN, INF]),
            (lambda n, v: in_range(n, v, 0, 1, "[)"), [0, 0.5],
             [1, -0.1, NAN, INF]),
            (lambda n, v: in_range(n, v, 0, 1, "(]"), [1, 0.5], [0, NAN]),
            (lambda n, v: in_range(n, v, 1, INF, "()"), [1.5, 1e9],
             [1, INF, NAN]),
        ],
        ids=["positive", "non_negative", "at_least", "[)", "(]", "()"],
    )
    def test_admits_and_refuses(self, check, good, bad):
        for value in good:
            assert check("x", value) == value
        for value in bad:
            with pytest.raises(ValueError, match=f"^x must be .*, got {value}$"):
                check("x", value)

    @pytest.mark.parametrize("check", [positive, non_negative])
    def test_inf_only_when_the_field_defines_it(self, check):
        assert check("budget", INF, inf_ok=True) == INF
        for value in (NAN, -INF):
            with pytest.raises(ValueError, match=r"\(or inf\), got"):
                check("budget", value, inf_ok=True)

    def test_message_names_the_field_and_the_value(self):
        with pytest.raises(ValueError) as exc:
            positive("port rate", NAN)
        assert str(exc.value) == (
            "port rate must be finite and strictly positive, got nan"
        )

    def test_empty_name_leaves_the_bare_constraint(self):
        with pytest.raises(ValueError) as exc:
            in_range("", 2.0, 0, 1)
        assert str(exc.value) == "must be in [0, 1], got 2.0"


class TestArrays:
    def test_admits_finite_entries(self):
        arr = np.array([0.0, 1.0, 2.5])
        assert finite_entries("loads", arr) is arr
        assert finite_entries("rates", arr[1:], strict=True) is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_shows_the_first_bad_entry(self, bad):
        with pytest.raises(ValueError, match=f"loads must be .*, got {bad}$"):
            finite_entries("loads", np.array([1.0, bad, np.nan]))

    def test_strict_refuses_zero(self):
        with pytest.raises(ValueError, match="strictly positive, got 0.0"):
            finite_entries("rates", np.array([1.0, 0.0]), strict=True)
