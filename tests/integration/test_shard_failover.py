"""Shard crash and recovery through the router, across both wire codecs.

The contract under test (DESIGN.md §15 failure matrix):

- SIGKILL of a shard mid-churn surfaces to its containers' wrappers as a
  typed :class:`~repro.errors.IpcDisconnected` — never a hang, never a
  silent wrong answer;
- containers on surviving shards are completely unaffected;
- the supervisor restarts the dead shard from its journal, the router
  re-registers the shard's containers (idempotent reattach), and a
  wrapper reconnect through the *unchanged* proxy endpoint resumes
  allocation with the shard's state restored.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster import ShardEndpoint, ShardRouter, ShardSupervisor
from repro.errors import IpcDisconnected, TransportError
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient

MIB = 1024 * 1024
LIMIT = 256 * MIB  # clears the 66 MiB context-overhead charge
DEADLINE = 30.0


def _wait_until(predicate, timeout=DEADLINE, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _data_client(router: ShardRouter, cid: str, codec: str):
    codec = "auto" if codec == "binary" else "json"
    return UnixSocketClient(
        router.container_socket_path(cid), timeout=DEADLINE, codec=codec
    )


def _control_client(router: ShardRouter):
    return UnixSocketClient(router.control_path, timeout=DEADLINE, codec="json")


def _containers_per_shard(router: ShardRouter, per_shard: int) -> dict[int, list[str]]:
    """Pick container ids until each shard owns ``per_shard`` of them."""
    chosen: dict[int, list[str]] = {0: [], 1: []}
    i = 0
    while any(len(cids) < per_shard for cids in chosen.values()):
        cid = f"churn-{i:03d}"
        i += 1
        shard = router.shard_of(cid)
        if len(chosen[shard]) < per_shard:
            chosen[shard].append(cid)
    return chosen


# One value: the daemon serves AF_UNIX only; the param keeps the ``[unix]`` ids.
@pytest.mark.parametrize("transport", ("unix",))
@pytest.mark.parametrize("codec", ["binary", "json"])
def test_shard_kill_midchurn_recovers(tmp_path, transport, codec):
    supervisor = ShardSupervisor(
        2,
        base_dir=str(tmp_path / "shards"),
        total_memory_mib=2048,
        auto_restart=True,
        monitor_interval=0.1,
    )
    supervisor.start()
    router = ShardRouter(
        [
            ShardEndpoint.from_ready(i, supervisor.endpoints(i))
            for i in range(2)
        ],
        base_dir=str(tmp_path / "router"),
    )
    router.start()
    supervisor.on_restart = router.refresh_shard
    try:
        by_shard = _containers_per_shard(router, per_shard=1)
        victim_cid = by_shard[0][0]
        survivor_cid = by_shard[1][0]
        with _control_client(router) as control:
            for cid in (victim_cid, survivor_cid):
                reply = control.call(
                    protocol.MSG_REGISTER_CONTAINER, container_id=cid, limit=LIMIT
                )
                assert reply["status"] == "ok", reply

        # Churn against the doomed shard until the kill lands.
        errors: list[BaseException] = []
        calls_before_kill = []

        def churn():
            try:
                with _data_client(router, victim_cid, codec) as client:
                    while True:
                        reply = client.call(
                            protocol.MSG_MEM_GET_INFO,
                            container_id=victim_cid,
                            pid=777,
                        )
                        assert reply["status"] == "ok"
                        calls_before_kill.append(1)
            except TransportError as exc:
                errors.append(exc)

        churner = threading.Thread(target=churn)
        churner.start()
        assert _wait_until(lambda: len(calls_before_kill) >= 5)
        supervisor.kill_shard(0)
        churner.join(timeout=DEADLINE)
        assert not churner.is_alive(), "churn call hung across the shard kill"
        # The wrapper-visible failure is a typed disconnect, same surface
        # as a crashed unsharded daemon.
        assert len(errors) == 1
        assert isinstance(errors[0], IpcDisconnected), errors

        # The survivor never noticed.
        with _data_client(router, survivor_cid, codec) as client:
            reply = client.call(
                protocol.MSG_ALLOC_REQUEST,
                container_id=survivor_cid,
                pid=888,
                size=MIB,
                api="cudaMalloc",
            )
            assert reply["status"] == "ok"
            assert reply["decision"] == "grant"

        # Supervisor restarts shard 0 from its journal and the router
        # re-routes; the proxy endpoint the wrapper knows never changed.
        assert _wait_until(lambda: supervisor.restarts(0) >= 1)
        assert _wait_until(lambda: supervisor.shard(0).alive())

        def reconnected_ok():
            try:
                with _data_client(router, victim_cid, codec) as client:
                    reply = client.call(
                        protocol.MSG_MEM_GET_INFO,
                        container_id=victim_cid,
                        pid=777,
                    )
                    return reply["status"] == "ok"
            except TransportError:
                return False  # refresh still in flight

        assert _wait_until(reconnected_ok)
        # Journal recovery restored the registration: an allocation on the
        # restarted shard is granted against the recovered limit.
        with _data_client(router, victim_cid, codec) as client:
            reply = client.call(
                protocol.MSG_ALLOC_REQUEST,
                container_id=victim_cid,
                pid=777,
                size=MIB,
                api="cudaMalloc",
            )
            assert reply["status"] == "ok"
            assert reply["decision"] == "grant"
    finally:
        supervisor.on_restart = None
        router.stop()
        supervisor.stop()
