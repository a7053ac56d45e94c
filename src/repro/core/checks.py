"""Numeric input checks: each constraint stated once, refused one way.

A leaf module (standard library only), like :mod:`repro.core.seeds`:
every dataclass validator and every ``ccf`` option type states its
numeric precondition with one call.  NaN is never valid; ``+inf`` only
with ``inf_ok=True``, passed for a field whose docstring says what it
means (a failure time or a budget that never fires).  A helper returns
the value it admits and otherwise raises :class:`ValueError` naming
the field and showing the value it got.
"""

from __future__ import annotations

import math

__all__ = ["positive", "non_negative", "at_least", "in_range", "finite_entries"]


def _refuse(name: str, value, what: str):
    # An empty ``name`` leaves the bare constraint (argparse names the flag).
    raise ValueError(f"{name} must be {what}, got {value}".lstrip())


def positive(name: str, value, *, inf_ok: bool = False):
    """``value`` if it is finite and > 0 (or ``+inf`` when ``inf_ok``)."""
    if 0 < value < math.inf or (inf_ok and value == math.inf):
        return value
    _refuse(name, value, "strictly positive (or inf)" if inf_ok
            else "finite and strictly positive")


def non_negative(name: str, value, *, inf_ok: bool = False):
    """``value`` if it is finite and >= 0 (or ``+inf`` when ``inf_ok``)."""
    if 0 <= value < math.inf or (inf_ok and value == math.inf):
        return value
    _refuse(name, value, "non-negative (or inf)" if inf_ok
            else "finite and non-negative")


def at_least(name: str, value, low):
    """``value`` if it is finite and >= ``low``."""
    if low <= value < math.inf:
        return value
    _refuse(name, value, f"finite and >= {low}")


def in_range(name: str, value, low, high, bounds: str = "[]"):
    """``value`` if it lies between ``low`` and ``high``.

    ``bounds`` gives each end's bracket as in interval notation: ``"[)"``
    admits ``low`` but not ``high``, ``"(]"`` the reverse.
    """
    lo_ok = low <= value if bounds[0] == "[" else low < value
    hi_ok = value <= high if bounds[1] == "]" else value < high
    if lo_ok and hi_ok:
        return value
    _refuse(name, value, f"in {bounds[0]}{low}, {high}{bounds[1]}")


def finite_entries(name: str, arr, *, strict: bool = False):
    """``arr`` (an ndarray) if every entry is finite and >= 0 (> 0 when
    ``strict``); the message shows the first entry that is not."""
    ok = arr > 0 if strict else arr >= 0
    ok &= arr < math.inf
    if ok.all():
        return arr
    bad = arr.flat[int((~ok).argmax())]
    _refuse(name, bad, "finite and strictly positive" if strict
            else "finite and non-negative")
