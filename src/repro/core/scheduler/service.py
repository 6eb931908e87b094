"""Protocol service: binds the scheduler core to any IPC transport.

The handler below implements the ``handler(message, reply_handle) ->
reply | DEFER`` contract shared by :class:`repro.ipc.UnixSocketServer` and
:class:`repro.ipc.InProcessChannel`.
A paused allocation is expressed as ``DEFER``: the reply handle is captured
into the scheduler's pending record and completed when redistribution (or a
release) resumes the container — at which point the wrapper's blocked
``recv`` wakes up.

The resume closure below performs socket I/O, which is safe because the
scheduler runtime delivers resume callbacks *outside* its transition lock
and only after the triggering events are journal-durable (DESIGN.md §11)
— a slow or dead client can never stall a scheduling decision.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.core.scheduler.core import Decision, GpuMemoryScheduler
from repro.errors import (
    ClusterError,
    LimitExceededError,
    SchedulerError,
    UnknownContainerError,
)
from repro.ipc import protocol
from repro.ipc.unix_socket import DEFER
from repro.obs.log import get_logger
from repro.obs.metrics import LATENCY_BUCKETS, REGISTRY

__all__ = ["SchedulerService"]

_LOG = get_logger("scheduler-service")

_MESSAGES = REGISTRY.counter(
    "convgpu_messages_total",
    "Protocol messages handled by the scheduler service",
    labelnames=("type",),
)
_DECISION_SECONDS = REGISTRY.histogram(
    "convgpu_alloc_decision_seconds",
    "Wall time to decide one alloc_request (excluding any pause wait)",
    buckets=LATENCY_BUCKETS,
    labelnames=("policy",),
)


class SchedulerService:
    """Stateless adapter from protocol messages to scheduler-core calls.

    ``scheduler`` is the one device's :class:`GpuMemoryScheduler`; the
    service calls its verbs (``begin_batch``/``commit_batch`` and
    ``policy`` included) directly.

    ``heartbeat_sink`` (when set by the daemon) receives the container id of
    every handled message — any traffic from a container is proof of life,
    so the liveness monitor piggybacks on the normal message flow and the
    explicit ``heartbeat`` notification only matters for idle containers.
    The service trusts the id a message names; the daemon's per-container
    sockets only pass it messages naming their own container.
    """

    def __init__(
        self,
        scheduler: GpuMemoryScheduler,
        *,
        heartbeat_sink: Callable[[str], None] | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.heartbeat_sink = heartbeat_sink
        # Label resolution takes the family lock; cache the children so the
        # per-message cost is one dict get plus the bare inc()/observe().
        self._message_counts: dict[str, Any] = {}
        self._decision_seconds: Any = None
        # Bound-method dispatch table: one dict get per message instead of
        # an f-string + getattr on every request.
        self._dispatch: dict[str, Callable[..., Any]] = {
            name[len("_on_"):]: getattr(self, name)
            for name in dir(type(self))
            if name.startswith("_on_")
        }

    # The transport calls this for every decoded, validated request.
    def handle(self, message: dict[str, Any], reply_handle) -> Any:
        msg_type = message["type"]
        counter = self._message_counts.get(msg_type)
        if counter is None:
            counter = self._message_counts[msg_type] = _MESSAGES.labels(type=msg_type)
        counter.inc()
        if self.heartbeat_sink is not None and "container_id" in message:
            self.heartbeat_sink(message["container_id"])
        handler = self._dispatch.get(msg_type)
        if handler is None:
            return protocol.make_error_reply(message, f"unsupported type {msg_type!r}")
        try:
            reply = handler(message, reply_handle)
        except (
            UnknownContainerError,
            LimitExceededError,
            SchedulerError,
            ClusterError,
        ) as exc:
            reply = protocol.make_error_reply(message, str(exc))
            if msg_type in protocol.NOTIFICATION_TYPES:
                # The error reply is dropped below and a refused verb
                # journals no event: this warning is the refusal's only trace.
                _LOG.warning(
                    "notification_refused",
                    type=msg_type,
                    container_id=message.get("container_id", ""),
                    error=str(exc),
                )
        if msg_type in protocol.NOTIFICATION_TYPES:
            # Fire-and-forget bookkeeping: the wrapper is not waiting, so
            # no reply goes on the wire (a refusal was logged above).
            return None
        return reply

    __call__ = handle

    # -- batch hooks ------------------------------------------------------
    #
    # The socket servers' batch dispatcher brackets each frame batch with
    # these, and a dispatch turn holds a bracket open around all of its
    # batches, so the turn's decisions share one journal group-commit wait
    # (see GpuMemoryScheduler.begin_batch).  ``then`` runs after that wait.

    def batch_begin(self) -> None:
        self.scheduler.begin_batch()

    def batch_commit(self, then: Callable[[], None] | None = None) -> None:
        self.scheduler.commit_batch(then)

    # -- per-message handlers --------------------------------------------

    def _on_register_container(self, message: dict[str, Any], reply_handle) -> Any:
        try:
            record = self.scheduler.register_container(
                message["container_id"], message["limit"]
            )
        except SchedulerError as exc:
            # Reattach path: after a daemon restart the container is already
            # registered (restored from the journal).  A re-register with the
            # same limit is the wrapper/plugin confirming it is still alive —
            # idempotently acknowledge instead of failing the reconnect.
            try:
                record = self.scheduler.container(message["container_id"])
            except UnknownContainerError:
                raise exc
            if record.limit != message["limit"]:
                raise
            return protocol.make_reply(
                message,
                assigned=record.assigned,
                limit=record.limit,
                reattached=True,
            )
        return protocol.make_reply(
            message, assigned=record.assigned, limit=record.limit
        )

    def _on_container_exit(self, message: dict[str, Any], reply_handle) -> Any:
        reclaimed = self.scheduler.container_exit(message["container_id"])
        return protocol.make_reply(message, reclaimed=reclaimed)

    def _on_alloc_request(self, message: dict[str, Any], reply_handle) -> Any:
        def resume(payload: dict[str, Any]) -> None:
            # Deliver the withheld reply; the container was paused until now.
            try:
                reply_handle.send(protocol.make_reply(message, **payload))
            # reprolint: ignore[swallowed-exception] -- the wrapper's socket
            # is gone (container killed while paused); container_exit
            # cleanup already reconciles the scheduler state.
            except Exception:
                pass

        began = time.perf_counter()
        decision = self.scheduler.request_allocation(
            message["container_id"],
            message["pid"],
            message["size"],
            api=message["api"],
            on_resume=resume,
        )
        histogram = self._decision_seconds
        if histogram is None:
            histogram = self._decision_seconds = _DECISION_SECONDS.labels(
                policy=self.scheduler.policy.name
            )
        histogram.observe(time.perf_counter() - began)
        if decision.paused:
            return DEFER
        if decision.granted:
            return protocol.make_reply(message, decision=Decision.GRANT)
        return protocol.make_reply(
            message, decision=Decision.REJECT, reason=decision.reason
        )

    def _on_alloc_commit(self, message: dict[str, Any], reply_handle) -> Any:
        self.scheduler.commit_allocation(
            message["container_id"],
            message["pid"],
            message["address"],
            message["size"],
        )
        return protocol.make_reply(message)

    def _on_alloc_abort(self, message: dict[str, Any], reply_handle) -> Any:
        self.scheduler.abort_allocation(
            message["container_id"], message["pid"], message["size"]
        )
        return protocol.make_reply(message)

    def _on_alloc_release(self, message: dict[str, Any], reply_handle) -> Any:
        released = self.scheduler.release_allocation(
            message["container_id"], message["pid"], message["address"]
        )
        return protocol.make_reply(message, released=released)

    def _on_mem_get_info(self, message: dict[str, Any], reply_handle) -> Any:
        free, total = self.scheduler.mem_get_info(
            message["container_id"], message["pid"]
        )
        return protocol.make_reply(message, free=free, total=total)

    def _on_process_exit(self, message: dict[str, Any], reply_handle) -> Any:
        reclaimed = self.scheduler.process_exit(
            message["container_id"], message["pid"]
        )
        return protocol.make_reply(message, reclaimed=reclaimed)

    def _on_heartbeat(self, message: dict[str, Any], reply_handle) -> Any:
        # Proof of life from an idle container.  The beat itself was already
        # recorded by the heartbeat_sink hook in handle(); nothing else to do
        # (notification: no reply goes on the wire).
        return None
