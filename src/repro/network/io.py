"""JSON serialization for coflows and execution plans.

Lets the scheduling layer and the data plane live in different processes:
``ccf plan`` writes a plan's coflow to JSON, ``ccf simulate`` replays any
set of serialized coflows through a chosen discipline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.network.flow import Coflow, Flow

__all__ = [
    "coflow_to_dict",
    "coflow_from_dict",
    "save_coflows",
    "load_coflows",
]

_FORMAT_VERSION = 1


def coflow_to_dict(coflow: Coflow) -> dict[str, Any]:
    """Plain-dict representation of a coflow (stable, versioned)."""
    out: dict[str, Any] = {
        "version": _FORMAT_VERSION,
        "coflow_id": coflow.coflow_id,
        "name": coflow.name,
        "arrival_time": coflow.arrival_time,
        "flows": [
            {"src": f.src, "dst": f.dst, "volume": f.volume} for f in coflow.flows
        ],
    }
    if coflow.deadline is not None:
        out["deadline"] = coflow.deadline
    if coflow.weight != 1.0:
        out["weight"] = coflow.weight
    return out


def coflow_from_dict(data: dict[str, Any]) -> Coflow:
    """Inverse of :func:`coflow_to_dict`; the :class:`Flow` and
    :class:`Coflow` constructors check every value."""
    try:
        version = data.get("version", _FORMAT_VERSION)
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported coflow format version {version}")
        flows = [
            Flow(src=int(f["src"]), dst=int(f["dst"]), volume=float(f["volume"]))
            for f in data["flows"]
        ]
        deadline = data.get("deadline")
        return Coflow(
            flows=flows,
            arrival_time=float(data.get("arrival_time", 0.0)),
            coflow_id=int(data.get("coflow_id", -1)),
            name=str(data.get("name", "")),
            deadline=float(deadline) if deadline is not None else None,
            weight=float(data.get("weight", 1.0)),
        )
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise ValueError(f"malformed coflow record: {exc}") from exc


def save_coflows(coflows: list[Coflow], path: str | Path) -> None:
    """Write coflows to a JSON file."""
    payload = {
        "version": _FORMAT_VERSION,
        "coflows": [coflow_to_dict(c) for c in coflows],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_coflows(path: str | Path) -> list[Coflow]:
    """Read coflows from a JSON file written by :func:`save_coflows`."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or not isinstance(data.get("coflows"), list):
        raise ValueError(f"{path}: not a coflow file")
    return [coflow_from_dict(c) for c in data["coflows"]]
