"""The customized nvidia-docker-plugin (§II-D, §III-B).

Two responsibilities, both reproduced:

1. serve the **driver volume** — the read-only volume carrying the host's
   CUDA driver libraries into the container, named after the driver
   version (``nvidia_driver_375.51``);
2. serve the **dummy volume** ConVGPU attaches to every managed container:
   when the container exits "by any reasons", Docker unmounts its volumes,
   the plugin's unmount callback fires, and the plugin "can send a *close*
   signal to the scheduler for that container".
"""

from __future__ import annotations

from typing import Any, Callable

from repro.container.volumes import Mount
from repro.errors import IpcDisconnected, IpcTimeoutError, VolumeError
from repro.ipc import protocol
from repro.ipc.retry import RetryPolicy, call_with_retry
from repro.obs.log import get_logger

__all__ = ["NvidiaDockerPlugin", "DRIVER_VOLUME_PREFIX", "DUMMY_VOLUME_PREFIX"]

DRIVER_VOLUME_PREFIX = "nvidia_driver_"
DUMMY_VOLUME_PREFIX = "convgpu_dummy_"

#: control_call(msg_type, **payload) -> reply dict — how the plugin reaches
#: the scheduler daemon (UNIX socket in live mode, in-process otherwise).
ControlCall = Callable[..., dict[str, Any]]


class NvidiaDockerPlugin:
    """Docker volume plugin: driver volumes + ConVGPU exit detection."""

    driver_name = "nvidia-docker"

    def __init__(
        self,
        driver_version: str = "375.51",
        control_call: ControlCall | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.driver_version = driver_version
        self.control_call = control_call
        #: Backoff for *close* delivery — a close lost to a restarting daemon
        #: would leak the container's whole reservation until the reaper's
        #: heartbeat timeout, so the plugin retries through the restart.
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=5, base_delay=0.05, jitter=0.0
        )
        self.log = get_logger("nvidia-docker-plugin")
        #: (volume_name, container_id) pairs currently mounted.
        self._active: set[tuple[str, str]] = set()
        #: Close signals sent (for tests / observability).
        self.close_signals: list[str] = []
        #: Close signals that could not be delivered after all retries.
        self.close_failures: list[str] = []

    # -- naming helpers --------------------------------------------------

    @property
    def driver_volume_name(self) -> str:
        """Volume encoding the CUDA/driver version nvidia-docker inspected."""
        return f"{DRIVER_VOLUME_PREFIX}{self.driver_version}"

    @staticmethod
    def dummy_volume_name(scheduler_key: str) -> str:
        """Encode the scheduler's container key in the volume name.

        nvidia-docker registers the container with the scheduler *before*
        Docker assigns an id (§III-B), so ConVGPU keys scheduler state by
        container name; embedding that key here lets the unmount callback
        recover it without a reverse lookup.
        """
        return f"{DUMMY_VOLUME_PREFIX}{scheduler_key}"

    def driver_mount(self) -> Mount:
        """The ``--volume`` nvidia-docker adds for driver binaries (§II-D)."""
        return Mount(
            source=self.driver_volume_name,
            target="/usr/local/nvidia",
            read_only=True,
            driver=self.driver_name,
        )

    def dummy_mount(self, container_id: str) -> Mount:
        """The exit-detection dummy volume ConVGPU adds (§III-B)."""
        return Mount(
            source=self.dummy_volume_name(container_id),
            target="/.convgpu-keepalive",
            read_only=True,
            driver=self.driver_name,
        )

    # -- VolumePlugin interface --------------------------------------------

    def mount(self, volume_name: str, container_id: str) -> str:
        if volume_name.startswith(DRIVER_VOLUME_PREFIX):
            if volume_name != self.driver_volume_name:
                raise VolumeError(
                    f"driver volume {volume_name!r} does not match installed "
                    f"driver {self.driver_version}"
                )
            self._active.add((volume_name, container_id))
            return f"/var/lib/nvidia-docker/volumes/{volume_name}"
        if volume_name.startswith(DUMMY_VOLUME_PREFIX):
            self._active.add((volume_name, container_id))
            self.log.debug(
                "volume_mounted", volume=volume_name, container_id=container_id
            )
            return f"/var/lib/nvidia-docker/volumes/{volume_name}"
        raise VolumeError(f"unknown nvidia-docker volume {volume_name!r}")

    def unmount(self, volume_name: str, container_id: str) -> None:
        self._active.discard((volume_name, container_id))
        self.log.debug(
            "volume_unmounted", volume=volume_name, container_id=container_id
        )
        if volume_name.startswith(DUMMY_VOLUME_PREFIX):
            # The container stopped: forward the close signal (§III-B),
            # addressed by the scheduler key embedded in the volume name.
            self.send_close(volume_name[len(DUMMY_VOLUME_PREFIX):])

    def send_close(self, scheduler_key: str) -> bool:
        """Deliver the *close* signal for one container, retrying transients.

        The unmount callback funnels through here; the daemon's orphan
        reaper synthesizes the same ``container_exit`` message when this
        delivery ultimately fails.  Retrying transient transport errors
        means a daemon restarting from its journal still receives every
        close.  Returns True when delivered (or when no control channel
        exists to deliver on).
        """
        self.close_signals.append(scheduler_key)
        if self.control_call is None:
            return True
        try:
            call_with_retry(
                lambda: self.control_call(
                    protocol.MSG_CONTAINER_EXIT, container_id=scheduler_key
                ),
                self.retry_policy,
                retry_on=(IpcDisconnected, IpcTimeoutError),
            )
            self.log.info("close_delivered", container_id=scheduler_key)
            return True
        except Exception as exc:
            # The daemon is gone for good during teardown; the heartbeat
            # reaper (liveness.py) is the backstop that reclaims the
            # reservation, and the scheduler treats an exit of an unknown
            # container as a no-op if the close raced a recovery.
            self.close_failures.append(scheduler_key)
            self.log.error(
                "close_delivery_failed",
                container_id=scheduler_key,
                error=str(exc),
            )
            return False

    def is_mounted(self, volume_name: str, container_id: str) -> bool:
        return (volume_name, container_id) in self._active
