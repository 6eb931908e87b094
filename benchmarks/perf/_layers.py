"""Per-layer metrics of a traced run, rolled up from the spans.

Every name in ``metrics.json``'s ``per_layer`` table is emitted on every
workload; a layer that does no work in a workload reports 0 there (that is
the statement "this workload starves that layer", not a missing value).

``*.self_us`` figures are self time inside the blocking tree of the
workload's primary operation, per operation: a wrapped ``cudaMalloc`` on
``call_depth1`` and ``contend_handoff``, one decision of a window on
``saturate_pipelined``, one allocation request on ``sweep_sim``.  The other
span figures are plain means of a function's spans wherever they ran.
"""

from __future__ import annotations

from _common import median, tail
from _tracer import Analysis, Tracer

US = 1e6

#: Primary operation of each workload: (root span, operations per root).
PRIMARY = {
    "call_depth1": ("wrapper.cudaMalloc", 1),
    "contend_handoff": ("wrapper.cudaMalloc", 1),
    "saturate_pipelined": ("generator.window", 32),
}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    workload: str,
    names: list[str],
    tracer: Tracer,
    analysis: Analysis,
    inputs: dict[str, float],
    micro: dict[str, float],
    traced_wall: float,
) -> dict[str, float]:
    out = dict.fromkeys(names, 0.0)
    out.update({k: v for k, v in micro.items() if k in out})
    out.update({k: v for k, v in inputs.items() if k in out})
    ops = max(inputs.get("ops", 0.0), 1.0)

    # -- blocking-tree self times ---------------------------------------
    if workload in PRIMARY:
        root, per_root = PRIMARY[workload]
        count, total, layers = analysis.trees(root)
        primary_ops = max(count * per_root, 1)
        for layer in ("wrapper", "retry", "transport", "service"):
            out[f"{layer}.self_us"] = layers.get(layer, 0.0) / primary_ops * US
        out["trace.sum_over_e2e"] = sum(layers.values()) / total if total else 0.0
    elif workload == "sweep_sim":
        # The simulator resumes many programs on one thread, so spans are
        # per resume; everything under run_schedule that is not a wrapped
        # layer is the simulator's own time.
        count, total, layers = analysis.trees("sim.run_schedule")
        requests = max(len(analysis.named("scheduler.request")), 1)
        out["wrapper.self_us"] = layers.get("wrapper", 0.0) / requests * US
        out["service.self_us"] = layers.get("service", 0.0) / requests * US
        out["sim.self_share"] = layers.get("sim", 0.0) / total if total else 0.0
        out["sim.schedules_per_s"] = count / traced_wall
        out["sim.events_per_s"] = inputs.get("sim.events", 0.0) / traced_wall
        out["trace.sum_over_e2e"] = sum(layers.values()) / total if total else 0.0
        ops = float(requests)
    else:
        out["trace.sum_over_e2e"] = 1.0  # no spans: the timed calls are the layer

    # -- plain span statistics --------------------------------------------
    mallocs = len(analysis.named("wrapper.cudaMalloc"))
    if mallocs and workload in ("call_depth1", "contend_handoff"):
        ipc = sum(
            len(analysis.named(f"retry.{kind}", tag))
            for kind, tag in (("call", "alloc_request"), ("notify", "alloc_commit"),
                              ("notify", "alloc_abort"))
        )
        out["wrapper.ipc_per_malloc"] = ipc / mallocs
    out["cuda.native_malloc_us"] = _mean(analysis.named("cuda.cudaMalloc")) * US
    out["cuda.native_free_us"] = _mean(analysis.named("cuda.cudaFree")) * US
    out["transport.notify_us"] = _mean(analysis.named("transport.notify")) * US
    out["transport.connect_us"] = _mean(analysis.named("transport.connect", all_time=True)) * US
    out["transport.send_window_us"] = _mean(analysis.named("transport.pipeline_send")) * US
    out["transport.collect_window_us"] = _mean(analysis.named("transport.pipeline_collect")) * US
    if workload in ("call_depth1", "contend_handoff"):
        codec = sum(
            micro.get(f"protocol.{step}_ns.binary", 0.0)
            for step in ("encode_request", "decode_request", "encode_reply", "decode_reply")
        ) / 1e3
        out["transport.residual_us"] = (
            out["transport.self_us"] - micro.get("transport.bare_rtt_us", 0.0) - codec
        )
    out["daemon.register_us"] = (
        _mean(analysis.named("transport.call", "register_container", all_time=True)) * US
    )

    batches = analysis.batch_sizes()
    out["service.batch_msgs_mean"] = _mean([float(size) for size in batches])
    out["service.busy_us_per_decision"] = (
        analysis.busy(("service",)) / ops * US if workload != "sweep_sim"
        else _mean(analysis.named("service.handle")) * US
    )
    out["service.deferred"] = float(tracer.counts.get("service.deferred", 0))

    for verb in ("request", "commit", "release"):
        out[f"scheduler.{verb}_self_us"] = _mean(analysis.self_of(f"scheduler.{verb}")) * US
        out[f"state.{verb}_us"] = _mean(analysis.named(f"state.{verb}")) * US
    out["state.release_resume_us"] = _mean(tracer.resume_transitions) * US
    picks = analysis.named("policies.pick")
    out["policies.pick_us"] = _mean(picks) * US
    out["policies.picks"] = float(len(picks))
    for counter in ("pauses", "resumes", "rejects"):
        out[f"state.{counter}"] = float(tracer.counts.get(f"state.{counter}", 0))
    transitions = sum(
        len(analysis.named(f"state.{verb}"))
        for verb in ("request", "commit", "release", "register", "container_exit",
                     "process_exit")
    )
    out["state.transitions_per_s"] = transitions / traced_wall if traced_wall else 0.0

    waits = analysis.named("journal.wait_durable")
    if waits:
        out["journal.wait_p50_us"] = median(waits) * US
        out["journal.wait_p99_us"] = tail(waits)[0] * US
    records = analysis.named("journal.record")
    out["journal.waits_per_decision"] = len(waits) / ops
    out["journal.record_us"] = _mean(records) * US
    out["journal.events_per_decision"] = len(records) / ops
    out["journal.fsyncs_per_kdecision"] = len(analysis.named("journal.fsync")) / ops * 1000.0
    if inputs.get("journal.events"):
        # Whole journal of the traced daemon (set-up and warm-up included),
        # per journaled event times the events one decision writes.
        per_event = inputs["journal.bytes"] / inputs["journal.events"]
        out["journal.bytes_per_decision"] = per_event * out["journal.events_per_decision"]
    return out
