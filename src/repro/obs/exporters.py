"""Metric exporters: Prometheus text format, JSON snapshot, JSONL sink.

``render_prometheus`` emits text-format 0.0.4 — what a Prometheus server
(or ``curl``) scrapes off the daemon's ``/metrics`` endpoint:

    # HELP convgpu_alloc_decision_seconds Latency of one allocation decision
    # TYPE convgpu_alloc_decision_seconds histogram
    convgpu_alloc_decision_seconds_bucket{policy="BF",le="0.001"} 42
    ...
    convgpu_alloc_decision_seconds_sum{policy="BF"} 0.012
    convgpu_alloc_decision_seconds_count{policy="BF"} 42

``JsonlSink`` appends timestamped registry snapshots as JSON lines — the
poor operator's time-series database, and what long simulation runs use
to keep a metrics trail next to their results.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, TextIO

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "render_prometheus",
    "snapshot_json",
    "JsonlSink",
    "parse_prometheus",
]


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_str(names: tuple[str, ...], values: tuple[str, ...],
               extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"' for name, value in zip(names, values)
    ]
    pairs.extend(f'{name}="{_escape_label(value)}"' for name, value in extra)
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry in Prometheus text format 0.0.4."""
    lines: list[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, sample in family.samples():
            if family.kind == "histogram":
                for bound, count in sample["buckets"]:
                    labels = _label_str(
                        family.labelnames, values, (("le", _format_value(bound)),)
                    )
                    lines.append(f"{family.name}_bucket{labels} {count}")
                inf_labels = _label_str(
                    family.labelnames, values, (("le", "+Inf"),)
                )
                lines.append(f"{family.name}_bucket{inf_labels} {sample['count']}")
                plain = _label_str(family.labelnames, values)
                lines.append(
                    f"{family.name}_sum{plain} {_format_value(sample['sum'])}"
                )
                lines.append(f"{family.name}_count{plain} {sample['count']}")
            else:
                labels = _label_str(family.labelnames, values)
                lines.append(
                    f"{family.name}{labels} {_format_value(sample['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_json(registry: MetricsRegistry, *, indent: int | None = None) -> str:
    """The registry snapshot as a JSON document (the ``/metrics.json`` body)."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


def parse_prometheus(text: str) -> dict[str, dict[str, Any]]:
    """Parse text format back into ``{name: {help, type, samples}}``.

    Powering ``repro metrics``'s pretty-printer; tolerant of anything a
    conforming exporter emits (one metric per line, ``# HELP``/``# TYPE``
    comments, optional labels).  Sample keys are the full label string.
    """
    families: dict[str, dict[str, Any]] = {}

    def family(name: str) -> dict[str, Any]:
        return families.setdefault(
            name, {"help": "", "type": "untyped", "samples": {}}
        )

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "HELP":
                family(parts[2])["help"] = parts[3]
            elif len(parts) >= 4 and parts[1] == "TYPE":
                family(parts[2])["type"] = parts[3]
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            labels, value_part = rest.rsplit("}", 1)
            key = "{" + labels + "}"
        else:
            name, _, value_part = line.partition(" ")
            key = ""
        value_text = value_part.strip().split()[0]
        try:
            value = float(value_text)
        except ValueError:
            continue
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                key = (name[len(base):]) + key
                break
        family(base)["samples"][key] = value
    return families


class JsonlSink:
    """Append timestamped registry snapshots as JSON lines.

    Args:
        stream_or_path: an open text stream, or a path to append to.
        clock: timestamp source.
    """

    def __init__(
        self,
        stream_or_path: TextIO | str,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.clock = clock
        if isinstance(stream_or_path, str):
            self._fh: TextIO = open(stream_or_path, "a", encoding="utf-8")
            self._owns = True
        else:
            self._fh = stream_or_path
            self._owns = False
        self.records_written = 0

    def write(self, registry: MetricsRegistry, **extra: Any) -> None:
        """Append one snapshot line (``extra`` fields ride alongside)."""
        record = {"ts": self.clock(), "metrics": registry.snapshot(), **extra}
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        self.records_written += 1

    def close(self) -> None:
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
