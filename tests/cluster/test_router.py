"""ShardRouter against a real 2-shard daemon fleet.

One module-scoped fleet keeps the subprocess cost down; every test talks
to the router exactly like a wrapper/plugin would — control socket for
lifecycle, per-container proxy socket for allocation traffic.
"""

from __future__ import annotations

import os
import urllib.request

import pytest

from repro.cluster import ShardEndpoint, ShardRouter, ShardSupervisor
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


def test_register_reply_reports_ring_agreed_shard(fleet):
    _, router = fleet
    reply = _register(router, "cont-ring-agree")
    assert reply["shard"] == router.shard_of("cont-ring-agree")
    assert reply["limit"] == LIMIT
    # The advertised socket dir is the *router's* proxy, not the shard's.
    assert reply["socket_dir"].startswith(router.base_dir)
    assert "host" not in reply and "port" not in reply
    assert router.placements()["cont-ring-agree"] == reply["shard"]


@pytest.mark.parametrize("codec", ["binary", "json"])
def test_allocation_splices_through_proxy(fleet, codec):
    _, router = fleet
    cid = f"cont-splice-{codec}"
    _register(router, cid)
    path = router.container_socket_path(cid)
    client_codec = "auto" if codec == "binary" else "json"
    with UnixSocketClient(path, timeout=30.0, codec=client_codec) as client:
        if codec == "binary":
            # Hello is answered by the shard through the splice: the client
            # sees the shard's identity, proving codec negotiation and
            # routing both survived the byte-level proxy.  (A JSON-pinned
            # client skips the handshake by design.)
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
    assert "convgpu_router_containers" in text
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


def test_container_exit_tears_down_proxy(fleet):
    _, router = fleet
    cid = "cont-exit"
    _register(router, cid)
    path = router.container_socket_path(cid)
    with _control(router) as control:
        reply = control.call(protocol.MSG_CONTAINER_EXIT, container_id=cid)
    assert reply["status"] == "ok"
    assert cid not in router.placements()
    with pytest.raises(ClusterError):
        router.container_socket_path(cid)
    del path


def test_container_exit_forwards_first_and_keeps_unreachable_placement(
    fleet, monkeypatch
):
    _, router = fleet
    cid = "cont-exit-order"
    _register(router, cid)
    path = router.container_socket_path(cid)
    trail = []
    real_call, real_teardown = router._call_shard, router._teardown_proxy

    def shard_down(shard_id, msg_type, **payload):
        trail.append("forward")
        raise IpcDisconnected(f"shard {shard_id} is down")

    def shard_up(shard_id, msg_type, **payload):
        trail.append("forward")
        return real_call(shard_id, msg_type, **payload)

    def teardown(proxy):
        trail.append("teardown")
        real_teardown(proxy)

    monkeypatch.setattr(router, "_teardown_proxy", teardown)
    monkeypatch.setattr(router, "_call_shard", shard_down)
    with _control(router) as control:
        reply = control.call(protocol.MSG_CONTAINER_EXIT, container_id=cid)
        assert reply["status"] == "error" and "unavailable" in reply["error"]
        # Nothing was cleaned up: the retried exit still finds the shard.
        assert trail == ["forward"]
        assert cid in router.placements()
        assert os.path.exists(path)
        monkeypatch.setattr(router, "_call_shard", shard_up)
        reply = control.call(protocol.MSG_CONTAINER_EXIT, container_id=cid)
    assert reply["status"] == "ok"
    assert trail == ["forward", "forward", "teardown"]
    assert cid not in router.placements()
    assert not os.path.exists(path)


def test_unknown_container_has_no_proxy(fleet):
    _, router = fleet
    with pytest.raises(ClusterError):
        router.container_socket_path("never-registered")


def test_router_requires_shards_and_one_transport():
    with pytest.raises(ClusterError):
        ShardRouter([])
