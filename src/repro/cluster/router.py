"""Consistent-hash router fronting the shard daemon fleet.

DESIGN.md §15: the sharded control plane runs one complete daemon process
per GPU device (:mod:`repro.cluster.supervisor`), and this router is the
single address clients talk to.  It has exactly two jobs:

- **control plane** — ``register_container`` / ``container_exit`` land on
  the router's control socket; the container id is consistent-hashed onto
  the :class:`~repro.cluster.ring.HashRing`, the request is forwarded to
  the owning shard over a plain blocking client, and the shard's reply
  comes back with its socket endpoint rewritten to a router-local proxy
  listener.  The shard's ``shard`` identity field passes through, so a
  client can verify ring agreement end-to-end.
- **data plane** — per-container proxy listeners splice bytes between the
  wrapper and the owning shard *without decoding them*.  Both wire codecs
  are self-describing per frame (binary starts with ``CVGP``, JSON with
  ``{``) and hello negotiation is answered by the shard itself through the
  splice, so whatever codec the client negotiates is what the shard sees.
  A paused allocation is just an upstream reply that has not arrived yet —
  the proxy adds no protocol state of its own.

Failure semantics: when a shard dies, its upstream sockets EOF, the proxy
closes the matching downstream sockets, and every in-flight caller gets a
typed :class:`~repro.errors.IpcDisconnected` from its own transport — the
same error surface as talking to a crashed unsharded daemon.  Once the
supervisor has restarted the shard from its journal, :meth:`refresh_shard`
re-registers every container the router had placed there (the daemon's
idempotent reattach path), refreshing the upstream endpoints so the next
wrapper reconnect goes through.

Lock discipline (reprolint-enforced): ``_placements_lock`` and
``_clients_lock`` only claim and publish table entries — connecting,
forwarding and scraping all happen outside them.  The hash ring's
``_ring_lock`` is a leaf: nothing may be acquired under it.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import tempfile
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.cluster.ring import HashRing
from repro.core.scheduler.daemon import CONTAINER_SOCKET_NAME
from repro.errors import ClusterError, TransportError
from repro.ipc import protocol
from repro.ipc.loop import IoLoop
from repro.ipc.unix_socket import UnixSocketClient, UnixSocketServer, listen_unix
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
_EV_SPLICE_OPEN = RECORDER.declare(
    "router.splice_open", s="container", a="fd"
)
_EV_SPLICE_CLOSE = RECORDER.declare(
    "router.splice_close", s="container", a="fd"
)
_EV_REFRESH = RECORDER.declare(
    "router.refresh", s="shard", a="containers"
)

_ROUTED = REGISTRY.counter(
    "convgpu_router_forwarded_total",
    "Control-plane requests forwarded to a shard",
    labelnames=("type",),
)
_RETRIES = REGISTRY.counter(
    "convgpu_router_shard_retries_total",
    "Control-plane calls retried after a shard connection failure",
)
_PLACED = REGISTRY.gauge(
    "convgpu_router_containers",
    "Containers currently placed through the router",
)

#: The proxy forwards whatever bytes are buffered without framing them, so
#: the remainder is always empty and ``max_buffer`` never trips; it is set
#: high anyway to make the invariant explicit.
_PROXY_BUFFER = 16 * 1024 * 1024

# Router-internal control calls time out instead of hanging the handler
# when a shard wedges without closing its socket.
_SHARD_CALL_TIMEOUT = 10.0
_SCRAPE_TIMEOUT = 1.0


def _passthrough_split(buffer: bytes) -> tuple[list[bytes], bytes]:
    """Splice framing: everything received is one opaque chunk."""
    return ([buffer] if buffer else []), b""


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


class _ContainerProxy:
    """One proxy listener: the router-local stand-in for a shard socket."""

    __slots__ = ("container_id", "listener", "socket_dir", "links", "_links_lock")

    def __init__(
        self, container_id: str, listener: socket.socket, socket_dir: str
    ) -> None:
        self.container_id = container_id
        self.listener = listener
        self.socket_dir = socket_dir
        #: Live splices; mutated under ``_links_lock`` (set ops only).
        self.links: set["_Link"] = set()
        self._links_lock = threading.Lock()


class _Link:
    """One accepted wrapper connection spliced to one shard connection."""

    __slots__ = ("proxy", "down", "up")

    def __init__(self, proxy: _ContainerProxy, down: socket.socket) -> None:
        self.proxy = proxy
        self.down = down
        #: Lazily connected on the first downstream batch (worker thread —
        #: the accept callback runs on the loop thread and must not block).
        self.up: socket.socket | None = None


@dataclass
class _Placement:
    """Where one container lives and how the router reaches it."""

    container_id: str
    shard_id: int
    limit: int
    #: Shard-side per-container socket path.  Reassigned wholesale on
    #: shard restart — readers grab the whole reference, so no lock is
    #: needed beyond the tables'.
    upstream: str
    proxy: _ContainerProxy


class ShardRouter:
    """Thin consistent-hash front for N single-device shard daemons.

    Args:
        shards: endpoint records, typically built via
            :meth:`ShardEndpoint.from_ready` from the supervisor's ready
            files.
        base_dir: directory for the router's control socket and per-
            container proxy sockets.  A temp directory is created (and
            removed on stop) when omitted.
        codec: control-socket codec negotiation mode (the data plane is
            codec-agnostic by construction).
        io_workers: worker threads of the router's shared I/O loop.
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
        io_workers: int = 2,
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
        self._loop = IoLoop(workers=io_workers)
        self._placements: dict[str, _Placement] = {}
        self._placements_lock = threading.Lock()
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
        self._loop.start()
        self._control_server = UnixSocketServer(
            self.control_path,
            self._handle_control,
            loop=self._loop,
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

    # reprolint: ignore[double-lock] -- teardown drains two independent
    # tables (placements, clients); each is snapshotted once and the
    # blocking closes run outside both locks.
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
        with self._placements_lock:
            placements = list(self._placements.values())
            self._placements.clear()
        for placement in placements:
            self._teardown_proxy(placement.proxy)
        _PLACED.set(0)
        self._loop.stop()
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

    def placements(self) -> dict[str, int]:
        """``container_id -> shard_id`` snapshot (tests / diagnostics)."""
        with self._placements_lock:
            return {
                cid: placement.shard_id
                for cid, placement in self._placements.items()
            }

    def container_socket_path(self, container_id: str) -> str:
        """Router-local proxy socket for the container."""
        with self._placements_lock:
            placement = self._placements.get(container_id)
        if placement is None:
            raise ClusterError(f"no proxy for container {container_id!r}")
        return os.path.join(placement.proxy.socket_dir, CONTAINER_SOCKET_NAME)

    # -- control plane -------------------------------------------------------

    def _handle_control(self, message: dict[str, Any], reply_handle) -> Any:
        msg_type = message["type"]
        if msg_type == protocol.MSG_REGISTER_CONTAINER:
            return self._register(message)
        if msg_type == protocol.MSG_CONTAINER_EXIT:
            return self._container_exit(message)
        return protocol.make_error_reply(
            message,
            f"unsupported type {msg_type!r}: the router control socket only "
            "routes registration and exit — allocation traffic goes through "
            "the per-container socket",
        )

    def _register(self, message: dict[str, Any]) -> dict[str, Any]:
        container_id = message["container_id"]
        shard_id = self.ring.shard_of(container_id)
        _ROUTED.labels(type=protocol.MSG_REGISTER_CONTAINER).inc()
        _REC.record(_EV_FORWARD, s=container_id[:12], a=shard_id)
        try:
            reply = self._call_shard(
                shard_id,
                protocol.MSG_REGISTER_CONTAINER,
                container_id=container_id,
                limit=message["limit"],
            )
        except TransportError as exc:
            return protocol.make_error_reply(
                message, f"shard {shard_id} unavailable: {exc}"
            )
        if reply.get("status") != "ok":
            return protocol.make_error_reply(
                message, reply.get("error", f"shard {shard_id} refused")
            )
        upstream = self._upstream_from_reply(reply)
        placement = self._place(container_id, shard_id, message["limit"], upstream)
        payload = {
            key: value
            for key, value in reply.items()
            if key not in ("type", "seq", "status")
        }
        payload["socket_dir"] = placement.proxy.socket_dir
        return protocol.make_reply(message, **payload)

    def _container_exit(self, message: dict[str, Any]) -> dict[str, Any]:
        """Forward the exit, then clean up (DESIGN.md §10 effect order).

        The shard resumes its waiters inside the forwarded call, so the
        router's own proxy tear-down comes after it — and only after an
        ``ok``: while the shard is unreachable (or refused) the container
        still lives there, and the placement stays so the retried exit
        finds its proxy.  The owner is the ring's, as at registration (the
        ring is fixed for the router's lifetime).
        """
        container_id = message["container_id"]
        shard_id = self.ring.shard_of(container_id)
        _ROUTED.labels(type=protocol.MSG_CONTAINER_EXIT).inc()
        try:
            reply = self._call_shard(
                shard_id, protocol.MSG_CONTAINER_EXIT, container_id=container_id
            )
        except TransportError as exc:
            return protocol.make_error_reply(
                message, f"shard {shard_id} unavailable: {exc}"
            )
        if reply.get("status") != "ok":
            return protocol.make_error_reply(
                message, reply.get("error", f"shard {shard_id} refused")
            )
        with self._placements_lock:
            placement = self._placements.pop(container_id, None)
            _PLACED.set(len(self._placements))
        if placement is not None:
            self._teardown_proxy(placement.proxy)
        payload = {
            key: value
            for key, value in reply.items()
            if key not in ("type", "seq", "status")
        }
        return protocol.make_reply(message, **payload)

    def _upstream_from_reply(self, reply: Mapping[str, Any]) -> str:
        return os.path.join(reply["socket_dir"], CONTAINER_SOCKET_NAME)

    # reprolint: ignore[double-lock] -- claim/publish: the proxy listener
    # is built between the two regions (bind/listen must not run under
    # the placements lock per lock-discipline).
    def _place(
        self, container_id: str, shard_id: int, limit: int, upstream: str
    ) -> _Placement:
        with self._placements_lock:
            existing = self._placements.get(container_id)
        proxy = existing.proxy if existing is not None else self._build_proxy(
            container_id
        )
        placement = _Placement(
            container_id=container_id,
            shard_id=shard_id,
            limit=limit,
            upstream=upstream,
            proxy=proxy,
        )
        with self._placements_lock:
            self._placements[container_id] = placement
            _PLACED.set(len(self._placements))
        return placement

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
                # The shard may have restarted between calls (its control
                # socket changed); drop the dead client and
                # redial once against the current endpoint.
                last_error = exc
                self._drop_client(shard_id, client)
        assert last_error is not None
        raise last_error

    # -- shard restart -------------------------------------------------------

    # reprolint: ignore[double-lock] -- drop-then-snapshot: the stale
    # placements are listed once, then each re-register round-trips a
    # shard outside the lock.
    def refresh_shard(
        self, shard_id: int, endpoints: Mapping[str, Any] | None = None
    ) -> int:
        """Re-route a restarted shard's containers; returns how many.

        Hooked to :class:`~repro.cluster.supervisor.ShardSupervisor`'s
        ``on_restart``: drops the cached control client, adopts the new
        ready-file endpoints, and
        re-registers every container placed on the shard — the daemon's
        idempotent reattach answers with the recovered assignment and the
        *new* per-container data endpoint, which replaces the placement's
        upstream.  Wrapper reconnects through the unchanged router-side
        proxy then splice to the new incarnation.
        """
        self._drop_client(shard_id)
        if endpoints is not None:
            self._shards[shard_id] = ShardEndpoint.from_ready(shard_id, endpoints)
        with self._placements_lock:
            stale = [
                placement
                for placement in self._placements.values()
                if placement.shard_id == shard_id
            ]
        refreshed = 0
        for placement in stale:
            try:
                reply = self._call_shard(
                    shard_id,
                    protocol.MSG_REGISTER_CONTAINER,
                    container_id=placement.container_id,
                    limit=placement.limit,
                )
            except TransportError as exc:
                self.log.error(
                    "refresh_failed",
                    shard=shard_id,
                    container=placement.container_id,
                    error=str(exc),
                )
                continue
            if reply.get("status") != "ok":
                self.log.error(
                    "refresh_refused",
                    shard=shard_id,
                    container=placement.container_id,
                    error=reply.get("error"),
                )
                continue
            placement.upstream = self._upstream_from_reply(reply)
            refreshed += 1
        _REC.record(_EV_REFRESH, s=str(shard_id), a=refreshed)
        self.log.info("shard_refreshed", shard=shard_id, containers=refreshed)
        return refreshed

    # -- data plane ----------------------------------------------------------

    def _build_proxy(self, container_id: str) -> _ContainerProxy:
        directory = os.path.join(self.base_dir, container_id[:12])
        listener = listen_unix(os.path.join(directory, CONTAINER_SOCKET_NAME))
        proxy = _ContainerProxy(container_id, listener, directory)
        # bind+listen above are synchronous, so a client may connect the
        # moment the reply reaches it; the loop registration only gates when
        # the accept fires.
        self._loop.add_listener(
            listener, lambda conn: self._accept_downstream(proxy, conn)
        )
        return proxy

    def _accept_downstream(self, proxy: _ContainerProxy, conn: socket.socket) -> None:
        # Loop thread: register the splice and return immediately; the
        # upstream dial happens on a worker when the first bytes arrive.
        link = _Link(proxy, conn)
        with proxy._links_lock:
            proxy.links.add(link)
        _REC.record(_EV_SPLICE_OPEN, s=proxy.container_id[:12], a=conn.fileno())
        self._loop.add_connection(
            conn,
            on_batch=lambda chunks: self._downstream_batch(link, chunks),
            on_close=lambda: self._downstream_closed(link),
            split=_passthrough_split,
            max_buffer=_PROXY_BUFFER,
        )

    def _connect_upstream(self, link: _Link) -> socket.socket:
        with self._placements_lock:
            placement = self._placements.get(link.proxy.container_id)
        if placement is None:
            raise ClusterError(
                f"container {link.proxy.container_id!r} no longer placed"
            )
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(placement.upstream)
        self._loop.add_connection(
            sock,
            on_batch=lambda chunks: self._upstream_batch(link, chunks),
            on_close=lambda: self._upstream_closed(link),
            split=_passthrough_split,
            max_buffer=_PROXY_BUFFER,
        )
        return sock

    def _downstream_batch(self, link: _Link, chunks: list[bytes]) -> None:
        # Worker thread, per-connection FIFO: chunks of one wrapper arrive
        # strictly in order, so the splice preserves the byte stream.
        data = b"".join(chunks)
        upstream = link.up
        if upstream is None:
            try:
                upstream = self._connect_upstream(link)
            except (OSError, ClusterError):
                # Owning shard is down (or the container is gone): hang up
                # so the wrapper's blocking call raises IpcDisconnected.
                self._loop.close_connection(link.down)
                return
            link.up = upstream
        try:
            upstream.sendall(data)
        except OSError:
            self._loop.close_connection(link.up)
            self._loop.close_connection(link.down)

    def _upstream_batch(self, link: _Link, chunks: list[bytes]) -> None:
        try:
            link.down.sendall(b"".join(chunks))
        except OSError:
            if link.up is not None:
                self._loop.close_connection(link.up)
            self._loop.close_connection(link.down)

    def _upstream_closed(self, link: _Link) -> None:
        # Shard-side EOF (crash or teardown): propagate to the wrapper so
        # its in-flight call fails with a typed disconnect, not a hang.
        self._loop.close_connection(link.down)

    def _downstream_closed(self, link: _Link) -> None:
        with link.proxy._links_lock:
            link.proxy.links.discard(link)
        try:
            _REC.record(
                _EV_SPLICE_CLOSE, s=link.proxy.container_id[:12],
                a=link.down.fileno(),
            )
        except OSError:
            pass
        if link.up is not None:
            self._loop.close_connection(link.up)

    def _teardown_proxy(self, proxy: _ContainerProxy) -> None:
        self._loop.remove_listener(proxy.listener)
        with proxy._links_lock:
            links = list(proxy.links)
        for link in links:
            self._loop.close_connection(link.down)
        shutil.rmtree(proxy.socket_dir, ignore_errors=True)

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
