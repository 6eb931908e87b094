"""ShardRouter against a real 2-shard daemon fleet.

One module-scoped fleet keeps the subprocess cost down; every test talks
to the fleet exactly like a wrapper/plugin would — the router's control
socket for lifecycle, the owning shard's own per-container socket (the
``socket_dir`` the registration reply names) for allocation traffic.
"""

from __future__ import annotations

import os
import urllib.request

import pytest

from repro.cluster import ShardEndpoint, ShardRouter, ShardSupervisor
from repro.core.scheduler.daemon import CONTAINER_SOCKET_NAME
from repro.errors import ClusterError, IpcDisconnected
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient

MIB = 1024 * 1024
# Must clear the 66 MiB context-overhead charge for a container's first pid.
LIMIT = 256 * MIB


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    base = tmp_path_factory.mktemp("router-fleet")
    supervisor = ShardSupervisor(
        2,
        base_dir=str(base / "shards"),
        total_memory_mib=2048,
        auto_restart=False,
    )
    supervisor.start()
    router = ShardRouter(
        [
            ShardEndpoint.from_ready(i, supervisor.endpoints(i))
            for i in range(2)
        ],
        base_dir=str(base / "router"),
        metrics_port=0,
    )
    router.start()
    try:
        yield supervisor, router
    finally:
        router.stop()
        supervisor.stop()


def _control(router: ShardRouter) -> UnixSocketClient:
    return UnixSocketClient(router.control_path, timeout=30.0, codec="json")


def _register(router: ShardRouter, container_id: str) -> dict:
    with _control(router) as control:
        reply = control.call(
            protocol.MSG_REGISTER_CONTAINER,
            container_id=container_id,
            limit=LIMIT,
        )
    assert reply["status"] == "ok", reply
    return reply


def _socket_path(reply: dict) -> str:
    return os.path.join(reply["socket_dir"], CONTAINER_SOCKET_NAME)


def test_register_reply_reports_ring_agreed_shard(fleet):
    supervisor, router = fleet
    reply = _register(router, "cont-ring-agree")
    assert reply["shard"] == router.shard_of("cont-ring-agree")
    assert reply["limit"] == LIMIT
    # The advertised socket dir is the owning shard's own, not a router's.
    shard_base = supervisor.shard(reply["shard"]).spec.base_dir
    assert os.path.dirname(reply["socket_dir"]) == shard_base
    assert os.path.exists(_socket_path(reply))
    assert "host" not in reply and "port" not in reply


@pytest.mark.parametrize("codec", ["binary", "json"])
def test_allocation_over_the_shard_socket(fleet, codec):
    _, router = fleet
    cid = f"cont-alloc-{codec}"
    path = _socket_path(_register(router, cid))
    client_codec = "auto" if codec == "binary" else "json"
    with UnixSocketClient(path, timeout=30.0, codec=client_codec) as client:
        if codec == "binary":
            # Hello is answered by the shard that owns the socket: its
            # identity names the ring owner.  (A JSON-pinned client skips
            # the handshake by design.)
            assert client.server_identity.get("shard") == router.shard_of(cid)
            assert client.server_identity.get("shards") == 2
        reply = client.call(
            protocol.MSG_ALLOC_REQUEST,
            container_id=cid,
            pid=4242,
            size=MIB,
            api="cudaMalloc",
        )
        assert reply["status"] == "ok"
        assert reply["decision"] == "grant"
        info = client.call(
            protocol.MSG_MEM_GET_INFO, container_id=cid, pid=4242
        )
        assert info["status"] == "ok"


def test_control_socket_rejects_allocation_traffic(fleet):
    _, router = fleet
    with _control(router) as control:
        reply = control.call(
            protocol.MSG_ALLOC_REQUEST,
            container_id="cont-wrong-door",
            pid=1,
            size=MIB,
            api="cudaMalloc",
        )
    assert reply["status"] == "error"
    assert "unsupported type" in reply["error"]


def test_aggregated_metrics_labels_every_shard(fleet):
    _, router = fleet
    _register(router, "cont-metrics")
    assert router.metrics_server is not None
    url = f"http://127.0.0.1:{router.metrics_server.port}/metrics"
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        text = resp.read().decode("utf-8")
    # Router's own series, unlabelled, plus each shard's scrape relabelled.
    assert "convgpu_router_forwarded_total" in text
    assert 'shard="0"' in text
    assert 'shard="1"' in text
    # One HELP line per family even though two shards export it.
    help_lines = [
        line
        for line in text.splitlines()
        if line.startswith("# HELP convgpu_messages_total")
    ]
    assert len(help_lines) <= 1


def test_top_snapshot_merges_shards(fleet):
    _, router = fleet
    _register(router, "cont-top")
    rows = router.top_snapshot()
    ours = [row for row in rows if row.get("container") == "cont-top"]
    assert ours, rows
    assert ours[0]["shard"] == router.shard_of("cont-top")


def test_container_exit_forwards_first_and_keeps_unreachable_placement(
    fleet, monkeypatch
):
    """The exit goes to the shard first; while the shard is unreachable the
    container stays where it is, and a retried exit tears it down."""
    _, router = fleet
    cid = "cont-exit-order"
    socket_dir = _register(router, cid)["socket_dir"]
    trail = []
    real_call = router._call_shard

    def shard_down(shard_id, msg_type, **payload):
        trail.append(msg_type)
        raise IpcDisconnected(f"shard {shard_id} is down")

    def shard_up(shard_id, msg_type, **payload):
        trail.append(msg_type)
        return real_call(shard_id, msg_type, **payload)

    monkeypatch.setattr(router, "_call_shard", shard_down)
    with _control(router) as control:
        reply = control.call(protocol.MSG_CONTAINER_EXIT, container_id=cid)
        assert reply["status"] == "error" and "unavailable" in reply["error"]
        # Nothing was torn down: the retried exit still finds the container.
        assert trail == [protocol.MSG_CONTAINER_EXIT]
        assert os.path.exists(os.path.join(socket_dir, CONTAINER_SOCKET_NAME))
        monkeypatch.setattr(router, "_call_shard", shard_up)
        reply = control.call(protocol.MSG_CONTAINER_EXIT, container_id=cid)
        assert reply["status"] == "ok"
        assert trail == [protocol.MSG_CONTAINER_EXIT] * 2
        # The shard's reply follows its tear-down (DESIGN.md §10).
        assert not os.path.exists(socket_dir)
        # A repeated exit is the shard's idempotent no-op, passed through.
        reply = control.call(protocol.MSG_CONTAINER_EXIT, container_id=cid)
    assert reply["status"] == "ok"
    assert reply["reclaimed"] == 0


def test_router_requires_shards_and_one_transport():
    with pytest.raises(ClusterError):
        ShardRouter([])
