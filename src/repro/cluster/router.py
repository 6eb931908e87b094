"""Consistent-hash router fronting the shard daemon fleet.

DESIGN.md §15: the sharded control plane runs one complete daemon process
per GPU device (:mod:`repro.cluster.supervisor`), and this router is the
single control address, and control plane only:
``register_container`` / ``container_exit`` land on the router's control
socket; the container id is consistent-hashed onto the
:class:`~repro.cluster.ring.HashRing`, the request is forwarded to the
owning shard over a plain blocking client, and the shard's reply comes
back unchanged.  Its ``socket_dir`` is the shard's own
``<base>/shard-i/<dir>``, which nvidia-docker mounts into the container
(§III-B/D), and its ``shard`` identity field lets a client verify ring
agreement end-to-end.

Allocation traffic never reaches the router: the wrapper talks to the
owning shard's per-container socket, exactly as it talks to an unsharded
daemon.  That path is stable across a shard restart — the supervisor pins
each shard's base directory, and a recovering daemon re-creates every
restored container's socket at the path its registration reply gave.

Failure semantics: when a shard dies, its wrappers' connections EOF and
every in-flight caller gets a typed :class:`~repro.errors.IpcDisconnected`
from its own transport — the same error surface as a crashed unsharded
daemon.  A control call to a dead shard answers with a typed error reply.
Once the supervisor has restarted the shard from its journal,
:meth:`refresh_shard` adopts its new ready-file endpoints and drops the
cached control client; the next forwarded call redials.

Lock discipline (reprolint-enforced): ``_clients_lock`` only claims and
publishes table entries — connecting, forwarding and scraping all happen
outside it.  The hash ring's ``_ring_lock`` is a leaf: nothing may be
acquired under it.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.cluster.ring import HashRing
from repro.errors import ClusterError, TransportError
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient, UnixSocketServer
from repro.obs.exporters import merge_prometheus, render_prometheus
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.recorder import RECORDER

if TYPE_CHECKING:
    from repro.obs.http import MetricsServer

__all__ = ["ShardEndpoint", "ShardRouter"]

_REC = RECORDER
_EV_FORWARD = RECORDER.declare(
    "router.forward", s="container", a="shard"
)
_EV_REFRESH = RECORDER.declare("router.refresh", s="shard")

_ROUTED = REGISTRY.counter(
    "convgpu_router_forwarded_total",
    "Control-plane requests forwarded to a shard",
    labelnames=("type",),
)
_RETRIES = REGISTRY.counter(
    "convgpu_router_shard_retries_total",
    "Control-plane calls retried after a shard connection failure",
)

#: The only verbs the control socket routes; allocation traffic goes to the
#: owning shard's per-container socket.
_ROUTED_TYPES = (protocol.MSG_REGISTER_CONTAINER, protocol.MSG_CONTAINER_EXIT)

# Router-internal control calls time out instead of hanging the handler
# when a shard wedges without closing its socket.
_SHARD_CALL_TIMEOUT = 10.0
_SCRAPE_TIMEOUT = 1.0


@dataclass
class ShardEndpoint:
    """One shard's client-visible addresses, parsed from its ready file."""

    shard_id: int
    base_dir: str
    control: str
    metrics_url: str | None = None

    @classmethod
    def from_ready(cls, shard_id: int, endpoints: Mapping[str, Any]) -> "ShardEndpoint":
        """Build from the daemon's ready-file JSON (see ``repro daemon``)."""
        return cls(
            shard_id=shard_id,
            base_dir=endpoints["base_dir"],
            control=endpoints["control"],
            metrics_url=endpoints.get("metrics"),
        )


class ShardRouter:
    """Thin consistent-hash front for N single-device shard daemons.

    Args:
        shards: endpoint records, typically built via
            :meth:`ShardEndpoint.from_ready` from the supervisor's ready
            files.
        base_dir: directory for the router's control socket.  A temp
            directory is created (and removed on stop) when omitted.
        codec: control-socket codec negotiation mode.
        metrics_port: serve the aggregated observability endpoint on this
            port (0 = ephemeral, ``None`` = off).  ``/metrics`` merges the
            router's own registry with every shard's scrape, each sample
            labelled ``shard="<i>"``; ``/top.json`` merges shard rows.
    """

    def __init__(
        self,
        shards: Sequence[ShardEndpoint],
        *,
        base_dir: str | None = None,
        codec: str = "auto",
        metrics_port: int | None = None,
    ) -> None:
        if not shards:
            raise ClusterError("router needs at least one shard")
        self.codec = codec
        self.metrics_port = metrics_port
        self.log = get_logger("router")
        self._owns_base_dir = base_dir is None
        self.base_dir = base_dir or tempfile.mkdtemp(prefix="convgpu-router-")
        os.makedirs(self.base_dir, exist_ok=True)
        self._shards: dict[int, ShardEndpoint] = {
            shard.shard_id: shard for shard in shards
        }
        self.ring = HashRing(shard.shard_id for shard in shards)
        self._clients: dict[int, UnixSocketClient] = {}
        self._clients_lock = threading.Lock()
        self._control_server: UnixSocketServer | None = None
        self.metrics_server: MetricsServer | None = None
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def control_path(self) -> str:
        return os.path.join(self.base_dir, "router.sock")

    def start(self) -> "ShardRouter":
        if self._started:
            return self
        # One call per container lifecycle event: the server's private
        # loop is all the control socket needs.
        self._control_server = UnixSocketServer(
            self.control_path,
            self._handle_control,
            codec=self.codec,
            identity={"router": True, "shards": len(self._shards)},
        )
        self._control_server.start()
        if self.metrics_port is not None:
            # http.server loads only with a metrics port (DESIGN.md §11).
            from repro.obs.http import MetricsServer

            self.metrics_server = MetricsServer(
                REGISTRY,
                port=self.metrics_port,
                top_source=self.top_snapshot,
                text_source=self.aggregate_metrics_text,
            )
            self.metrics_server.start()
        self._started = True
        self.log.info(
            "router_started",
            shards=len(self._shards),
            base_dir=self.base_dir,
        )
        return self

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        if self.metrics_server is not None:
            self.metrics_server.stop()
            self.metrics_server = None
        if self._control_server is not None:
            self._control_server.stop()
            self._control_server = None
        with self._clients_lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()
        if self._owns_base_dir:
            shutil.rmtree(self.base_dir, ignore_errors=True)
        self.log.info("router_stopped")

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- introspection -------------------------------------------------------

    def shard_of(self, container_id: str) -> int:
        return self.ring.shard_of(container_id)

    # -- control plane -------------------------------------------------------

    def _handle_control(self, message: dict[str, Any], reply_handle) -> Any:
        """Forward one lifecycle verb to the ring's owner (DESIGN.md §15).

        The shard's reply comes back unchanged but for the caller's ``seq``.
        A ``container_exit`` is the shard's whole effect order (§10): it
        resumes its waiters and tears the container's socket down inside
        the forwarded call, so the router has nothing to clean up after it
        — and nothing to keep while the shard is unreachable.  The owner
        is the ring's, as at registration (the ring is fixed for the
        router's lifetime).
        """
        msg_type = message["type"]
        if msg_type not in _ROUTED_TYPES:
            return protocol.make_error_reply(
                message,
                f"unsupported type {msg_type!r}: the router control socket "
                "only routes registration and exit — allocation traffic "
                "goes to the owning shard's per-container socket",
            )
        container_id = message["container_id"]
        shard_id = self.ring.shard_of(container_id)
        _ROUTED.labels(type=msg_type).inc()
        _REC.record(_EV_FORWARD, s=container_id[:12], a=shard_id)
        fields = {
            field: message[field] for field in protocol.REQUEST_FIELDS[msg_type]
        }
        try:
            reply = self._call_shard(shard_id, msg_type, **fields)
        except TransportError as exc:
            return protocol.make_error_reply(
                message, f"shard {shard_id} unavailable: {exc}"
            )
        if reply.get("status") != "ok":
            return protocol.make_error_reply(
                message, reply.get("error", f"shard {shard_id} refused")
            )
        payload = {
            key: value
            for key, value in reply.items()
            if key not in ("type", "seq", "status")
        }
        return protocol.make_reply(message, **payload)

    # -- shard control clients ----------------------------------------------

    # reprolint: ignore[double-lock] -- get-or-create: the connect happens
    # between check and publish on purpose; a losing racer closes its
    # socket and adopts the winner's client.
    def _shard_client(self, shard_id: int) -> UnixSocketClient:
        with self._clients_lock:
            client = self._clients.get(shard_id)
        if client is not None:
            return client
        endpoint = self._shards.get(shard_id)
        if endpoint is None:
            raise ClusterError(f"unknown shard {shard_id}")
        # Control forwarding stays on the JSON codec: the rate is one call
        # per container lifecycle event, and pinning JSON skips a handshake
        # round-trip per (re)connect.
        fresh = UnixSocketClient(
            endpoint.control, timeout=_SHARD_CALL_TIMEOUT, codec="json"
        )
        with self._clients_lock:
            current = self._clients.get(shard_id)
            if current is None:
                self._clients[shard_id] = fresh
                return fresh
        fresh.close()
        return current

    def _drop_client(
        self, shard_id: int, client: UnixSocketClient | None = None
    ) -> None:
        with self._clients_lock:
            current = self._clients.get(shard_id)
            if client is not None and current is not client:
                return  # someone already replaced it
            stale = self._clients.pop(shard_id, None)
        if stale is not None:
            stale.close()

    # reprolint: ignore[double-lock] -- the retry loop re-enters the client
    # table per attempt; the blocking call itself runs outside any lock.
    def _call_shard(self, shard_id: int, msg_type: str, **payload: Any) -> dict:
        last_error: TransportError | None = None
        for attempt in range(2):
            if attempt:
                _RETRIES.inc()
            try:
                client = self._shard_client(shard_id)
            except TransportError as exc:
                last_error = exc
                continue
            try:
                return client.call(msg_type, **payload)
            except TransportError as exc:
                # The shard may have restarted between calls; drop the dead
                # client and redial its control socket (same path) once.
                last_error = exc
                self._drop_client(shard_id, client)
        assert last_error is not None
        raise last_error

    # -- shard restart -------------------------------------------------------

    def refresh_shard(
        self, shard_id: int, endpoints: Mapping[str, Any] | None = None
    ) -> None:
        """Adopt a restarted shard's endpoints.

        Hooked to :class:`~repro.cluster.supervisor.ShardSupervisor`'s
        ``on_restart``: adopts the new ready-file endpoints (the metrics
        URL may change) and drops the cached control client, so the next
        forwarded call dials the new incarnation.  The containers need
        nothing from the router: the shard restored them from its journal
        with their sockets at the paths their registration replies gave.
        """
        if endpoints is not None:
            self._shards[shard_id] = ShardEndpoint.from_ready(shard_id, endpoints)
        self._drop_client(shard_id)
        _REC.record(_EV_REFRESH, s=str(shard_id))
        self.log.info("shard_refreshed", shard=shard_id)

    # -- observability aggregation ------------------------------------------

    # -- observability aggregation ------------------------------------------

    def _scrape(self, url: str) -> str | None:
        import urllib.request  # only a router with a metrics port scrapes

        try:
            with urllib.request.urlopen(url, timeout=_SCRAPE_TIMEOUT) as resp:
                return resp.read().decode("utf-8")
        except (OSError, ValueError):
            return None  # shard down or mid-restart: skip this scrape

    def aggregate_metrics_text(self) -> str:
        """Fleet-wide Prometheus text: router series + labelled shard series."""
        parts: list[tuple[dict[str, str], str]] = [
            ({}, render_prometheus(REGISTRY))
        ]
        for shard_id, endpoint in sorted(self._shards.items()):
            if endpoint.metrics_url is None:
                continue
            text = self._scrape(endpoint.metrics_url)
            if text is not None:
                parts.append(({"shard": str(shard_id)}, text))
        return merge_prometheus(parts)

    def top_snapshot(self) -> list[dict[str, Any]]:
        """Fleet-wide `repro top` rows, one scrape per live shard."""
        rows: list[dict[str, Any]] = []
        for shard_id, endpoint in sorted(self._shards.items()):
            if endpoint.metrics_url is None:
                continue
            base = endpoint.metrics_url.rsplit("/metrics", 1)[0]
            body = self._scrape(base + "/top.json")
            if body is None:
                continue
            try:
                shard_rows = json.loads(body)
            except ValueError:
                continue
            for row in shard_rows:
                row.setdefault("shard", shard_id)
                rows.append(row)
        return rows
