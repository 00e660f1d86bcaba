"""Metrics registry: hierarchical gauges and adopted stats sources.

The registry is the reproduction's single namespace for numeric
telemetry.  Names are dotted paths mirroring the system hierarchy::

    sim.rounds                      orchestrator round count
    sim.rate_mhz                    achieved simulation rate
    switch.switch0.packets_dropped  per-switch counters
    blade.node0.l2.misses           per-blade cache counters

Two registration styles coexist:

* **gauges** — :meth:`MetricsRegistry.gauge` creates a value the caller
  sets or a callback reads;
* **sources** — :meth:`MetricsRegistry.register_source` adopts an
  existing stats object (any dataclass or plain object with numeric
  attributes).  Its fields are read reflectively at snapshot time, so
  the owning subsystem keeps its public dataclass API and pays zero
  cost per event.

Snapshots are flat ``{name: value}`` dicts; :meth:`to_json` /
:meth:`to_csv` export machine-readable artifacts (the
gem5-standardization argument: stats you can diff and script against,
not free-form logs).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

Number = float

#: Metrics snapshot format marker embedded in exported JSON.
METRICS_SCHEMA = "repro.obs.metrics/v1"


def _validate_name(name: str) -> str:
    if not name or name.startswith(".") or name.endswith(".") or ".." in name:
        raise ValueError(f"bad metric name {name!r}")
    return name


class Gauge:
    """A point-in-time value, set directly or read through a callback."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(
        self, name: str, fn: Optional[Callable[[], Number]] = None
    ) -> None:
        self.name = name
        self._value: Number = 0.0
        self._fn = fn

    def set(self, value: Number) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name} is callback-driven")
        self._value = value

    @property
    def value(self) -> Number:
        return self._fn() if self._fn is not None else self._value


def _numeric_attrs(obj: Any) -> List[str]:
    """Attribute names on ``obj`` exporting int/float values.

    Dataclass fields come first, then read-only properties defined on
    the class (``utilization``, ``miss_rate`` and friends), so derived
    ratios export alongside their raw counters.
    """
    names: List[str] = []
    if dataclasses.is_dataclass(obj):
        names.extend(f.name for f in dataclasses.fields(obj))
    else:
        names.extend(
            k for k in vars(obj) if not k.startswith("_")
        )
    for klass in type(obj).__mro__:
        for key, member in vars(klass).items():
            if isinstance(member, property) and not key.startswith("_"):
                if key not in names:
                    names.append(key)
    return [
        name for name in names
        if isinstance(getattr(obj, name), (int, float))
        and not isinstance(getattr(obj, name), bool)
    ]


class MetricsRegistry:
    """The process's metric namespace."""

    def __init__(self) -> None:
        self._gauges: Dict[str, Gauge] = {}
        #: prefix -> stats object read reflectively at snapshot time.
        self._sources: List[Tuple[str, Any]] = []

    # -- gauges --------------------------------------------------------

    def gauge(
        self, name: str, fn: Optional[Callable[[], Number]] = None
    ) -> Gauge:
        if name in self._gauges and fn is None:
            return self._gauges[name]
        _validate_name(name)
        if name in self._gauges:
            raise ValueError(f"metric {name!r} already registered")
        self._gauges[name] = gauge = Gauge(name, fn)
        return gauge

    # -- adopted sources -----------------------------------------------

    def register_source(self, prefix: str, stats: Any) -> None:
        """Adopt an existing stats object under ``prefix``.

        The object's numeric dataclass fields and properties are read at
        snapshot time as ``prefix.field`` — the owner keeps mutating its
        own dataclass and never touches the registry again.
        """
        _validate_name(prefix)
        for existing_prefix, existing in self._sources:
            if existing_prefix == prefix and existing is stats:
                return  # idempotent: re-registration is a no-op
        if not _numeric_attrs(stats):
            raise ValueError(
                f"source {prefix!r} ({type(stats).__name__}) exports no "
                "numeric fields"
            )
        self._sources.append((prefix, stats))

    # -- reads ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Number]:
        """One flat, sorted ``{name: value}`` view of everything."""
        out: Dict[str, Number] = {}
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for prefix, stats in self._sources:
            for attr in _numeric_attrs(stats):
                out[f"{prefix}.{attr}"] = getattr(stats, attr)
        return dict(sorted(out.items()))

    # -- export ----------------------------------------------------------

    def to_json(self, extra: Optional[Dict[str, Any]] = None) -> str:
        document: Dict[str, Any] = {
            "schema": METRICS_SCHEMA,
            "metrics": self.snapshot(),
        }
        if extra:
            document.update(extra)
        return json.dumps(document, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["name,value"]
        lines.extend(
            f"{name},{value}" for name, value in self.snapshot().items()
        )
        return "\n".join(lines) + "\n"
