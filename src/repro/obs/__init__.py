"""Live observability for the ConVGPU middleware.

The experiments package computes metrics *post-hoc* from finished
schedules; this package is the *runtime* counterpart — what a production
deployment of the daemon exposes while it is serving traffic:

- :mod:`repro.obs.metrics` — dependency-free counters, gauges and
  fixed-bucket histograms behind a :class:`~repro.obs.metrics.MetricsRegistry`;
- :mod:`repro.obs.log` — structured JSON-lines logging;
- :mod:`repro.obs.exporters` — Prometheus text format, JSON snapshots and
  a JSONL sink;
- :mod:`repro.obs.chrome` — Chrome trace-event (``about://tracing``)
  export for simulated schedules' scheduler events;
- :mod:`repro.obs.http` — the daemon's localhost ``/metrics`` endpoint;
- :mod:`repro.obs.recorder` — the always-on flight recorder (fixed-size
  per-thread rings of typed binary events, dumped as versioned JSONL on
  crash, SIGUSR2, watchdog stall, or ``repro dump``);
- :mod:`repro.obs.stages` — sampled per-request stage-latency attribution
  (recv → frame → decode → dispatch → lock → transition → fsync_wait →
  encode → send) with a slow-request buffer;
- :mod:`repro.obs.doctor` — post-mortem correlation of a flight dump,
  the journal and a metrics snapshot (what ``repro doctor`` renders).

Everything here is import-cheap and stdlib-only, so instrumentation can
stay on by default (the overhead ablation holds it under 5%).
"""

from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.recorder import RECORDER, FlightRecorder, read_dump

__all__ = [
    "RECORDER",
    "FlightRecorder",
    "read_dump",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "get_logger",
    "configure_logging",
]
