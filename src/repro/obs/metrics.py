"""Minimal metrics registry: counters, gauges and histograms.

Prometheus-flavoured but dependency-free: metric identity is
``(name, labels)``, histograms use cumulative ``le`` buckets, and
:func:`render_prometheus` emits the text exposition format.  The
registry is plain Python on purpose -- it is only touched when
instrumentation is enabled, never on the simulator hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.checks import in_range, non_negative

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
]

#: Default histogram buckets: log-spaced over the CCT ranges the
#: simulator produces (sub-second fluid runs up to 1e9-second clocks).
DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(-3, 10))

LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict[str, str] | None) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonically increasing value."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        non_negative("counter increment", amount)
        self.value += amount


@dataclass
class Gauge:
    """Point-in-time value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    n: int = 0

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be ascending")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # + the +Inf bucket

    def observe(self, value: float) -> None:
        self.n += 1
        self.total += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[int]:
        """Cumulative counts per ``le`` bound (ending with +Inf = n)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts (upper bound)."""
        in_range("quantile", q, 0, 1)
        if self.n == 0:
            return math.nan
        target = q * self.n
        for bound, cum in zip(self.buckets, self.cumulative()):
            if cum >= target:
                return bound
        return math.inf


class MetricsRegistry:
    """Named metrics, each a family of ``(labels -> instrument)``."""

    def __init__(self) -> None:
        self._metrics: dict[str, dict[LabelSet, object]] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    def _get(self, kind, name, help_text, labels, factory):
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
            self._help[name] = help_text
            self._metrics[name] = {}
        elif known != kind:
            raise ValueError(
                f"metric {name!r} already registered as {known}, not {kind}"
            )
        family = self._metrics[name]
        key = _labelset(labels)
        inst = family.get(key)
        if inst is None:
            inst = family[key] = factory()
        return inst

    def counter(
        self,
        name: str,
        help_text: str = "",
        labels: dict[str, str] | None = None,
    ) -> Counter:
        return self._get("counter", name, help_text, labels, Counter)

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: dict[str, str] | None = None,
    ) -> Gauge:
        return self._get("gauge", name, help_text, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: dict[str, str] | None = None,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(
            "histogram", name, help_text, labels,
            lambda: Histogram(buckets=buckets),
        )

    def families(self):
        """Iterate ``(name, kind, help, {labelset: instrument})``."""
        for name in sorted(self._metrics):
            yield (
                name,
                self._kinds[name],
                self._help[name],
                self._metrics[name],
            )


def _fmt_labels(labels: LabelSet, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + inner + "}"


def _fmt_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Text exposition format (``# HELP`` / ``# TYPE`` / samples)."""
    lines: list[str] = []
    for name, kind, help_text, family in registry.families():
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, inst in sorted(family.items()):
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{_fmt_labels(labels)} {_fmt_value(inst.value)}"
                )
            else:  # histogram
                cum = inst.cumulative()
                bounds = list(inst.buckets) + [math.inf]
                for bound, count in zip(bounds, cum):
                    le = _fmt_labels(labels, (("le", _fmt_value(bound)),))
                    lines.append(f"{name}_bucket{le} {count}")
                lines.append(
                    f"{name}_sum{_fmt_labels(labels)} {_fmt_value(inst.total)}"
                )
                lines.append(
                    f"{name}_count{_fmt_labels(labels)} {inst.n}"
                )
    return "\n".join(lines) + "\n"
