"""Shard crash and recovery under the router, across both wire codecs.

The contract under test (DESIGN.md §15 failure matrix):

- SIGKILL of a shard mid-churn surfaces to its containers' wrappers as a
  typed :class:`~repro.errors.IpcDisconnected` — never a hang, never a
  silent wrong answer;
- containers on surviving shards are completely unaffected;
- the supervisor restarts the dead shard from its journal, which brings
  every container's socket back at the path its registration reply gave:
  a wrapper reconnect there resumes allocation with the shard's state
  restored — with or without the router's ``on_restart`` hook;
- the router's next control call reaches the new incarnation (the hook
  drops the cached control client; without it, the call redials once).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.cluster import ShardEndpoint, ShardRouter, ShardSupervisor
from repro.core.scheduler.daemon import CONTAINER_SOCKET_NAME
from repro.errors import IpcDisconnected, TransportError
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient
from repro.obs.metrics import REGISTRY

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


def _data_client(path: str, codec: str):
    codec = "auto" if codec == "binary" else "json"
    return UnixSocketClient(path, timeout=DEADLINE, codec=codec)


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


def _register(control: UnixSocketClient, cid: str) -> str:
    """Register through the router; returns the shard socket it names."""
    reply = control.call(
        protocol.MSG_REGISTER_CONTAINER, container_id=cid, limit=LIMIT
    )
    assert reply["status"] == "ok", reply
    return os.path.join(reply["socket_dir"], CONTAINER_SOCKET_NAME)


def _alloc(path: str, codec: str, cid: str, pid: int) -> dict:
    with _data_client(path, codec) as client:
        return client.call(
            protocol.MSG_ALLOC_REQUEST,
            container_id=cid,
            pid=pid,
            size=MIB,
            api="cudaMalloc",
        )


def _kill_midchurn_and_recover(tmp_path, codec: str, *, hook: bool) -> None:
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
    refreshed = threading.Event()
    if hook:

        def on_restart(shard_id, endpoints):
            router.refresh_shard(shard_id, endpoints)
            refreshed.set()

        supervisor.on_restart = on_restart
    try:
        by_shard = _containers_per_shard(router, per_shard=2)
        victim_cid, late_cid = by_shard[0]
        survivor_cid = by_shard[1][0]
        with _control_client(router) as control:
            victim = _register(control, victim_cid)
            survivor = _register(control, survivor_cid)
        # A grant the restart must bring back.
        assert _alloc(victim, codec, victim_cid, pid=777)["decision"] == "grant"

        # Churn against the doomed shard until the kill lands.
        errors: list[BaseException] = []
        infos: list[dict] = []

        def churn():
            try:
                with _data_client(victim, codec) as client:
                    while True:
                        reply = client.call(
                            protocol.MSG_MEM_GET_INFO,
                            container_id=victim_cid,
                            pid=777,
                        )
                        assert reply["status"] == "ok"
                        infos.append(reply)
            except TransportError as exc:
                errors.append(exc)

        churner = threading.Thread(target=churn)
        churner.start()
        assert _wait_until(lambda: len(infos) >= 5)
        supervisor.kill_shard(0)
        churner.join(timeout=DEADLINE)
        assert not churner.is_alive(), "churn call hung across the shard kill"
        # The wrapper-visible failure is a typed disconnect, same surface
        # as a crashed unsharded daemon.
        assert len(errors) == 1
        assert isinstance(errors[0], IpcDisconnected), errors

        # The survivor never noticed.
        assert _alloc(survivor, codec, survivor_cid, pid=888)["decision"] == "grant"

        # The supervisor restarts shard 0 from its journal; the socket the
        # wrapper knows is back at the same path.
        assert _wait_until(lambda: supervisor.restarts(0) >= 1)
        assert _wait_until(lambda: supervisor.shard(0).alive())

        def reconnected():
            try:
                with _data_client(victim, codec) as client:
                    return client.call(
                        protocol.MSG_MEM_GET_INFO,
                        container_id=victim_cid,
                        pid=777,
                    )
            except TransportError:
                return None  # socket not re-bound yet

        assert _wait_until(lambda: reconnected() is not None)
        # Journal recovery restored the registration and the grant (1 MiB
        # plus the pid's 66 MiB context charge); a new allocation is
        # granted against the recovered limit.
        assert reconnected()["free"] == infos[-1]["free"] == LIMIT - 67 * MIB
        assert _alloc(victim, codec, victim_cid, pid=777)["decision"] == "grant"

        # The router's control path reaches the new incarnation: with the
        # hook its cached client was dropped, without it the dead client
        # costs exactly one redial.
        assert refreshed.wait(DEADLINE) if hook else not refreshed.is_set()
        retries = REGISTRY.get("convgpu_router_shard_retries_total")
        retried_before = retries.value
        with _control_client(router) as control:
            late = _register(control, late_cid)
            assert _alloc(late, codec, late_cid, pid=999)["decision"] == "grant"
            reply = control.call(
                protocol.MSG_CONTAINER_EXIT, container_id=late_cid
            )
            assert reply["status"] == "ok", reply
        assert retries.value - retried_before == (0 if hook else 1)
        assert not os.path.exists(os.path.dirname(late))
    finally:
        supervisor.on_restart = None
        router.stop()
        supervisor.stop()


# One value: the daemon serves AF_UNIX only; the param keeps the ``[unix]`` ids.
@pytest.mark.parametrize("transport", ("unix",))
@pytest.mark.parametrize("codec", ["binary", "json"])
def test_shard_kill_midchurn_recovers(tmp_path, transport, codec):
    _kill_midchurn_and_recover(tmp_path, codec, hook=True)


@pytest.mark.parametrize("codec", ["binary", "json"])
def test_shard_kill_recovers_without_restart_hook(tmp_path, codec):
    """No ``on_restart``: the data path needs no router action, and the
    router's stale control client redials on its next call."""
    _kill_midchurn_and_recover(tmp_path, codec, hook=False)
