"""The customized nvidia-docker front-end (§II-D, §III-B).

nvidia-docker is "a thin wrapper on top of docker" that "only captures run
and create command, and the other docker commands are passed through".  The
ConVGPU customization adds, for CUDA images:

- the ``--nvidia-memory=<size>`` option; fallback to the image's
  ``com.nvidia.memory.limit`` label; final default **1 GiB** (§III-B);
- a ``register_container`` round-trip to the scheduler *before* creation,
  whose reply carries the per-container directory to bind-mount;
- ``--volume`` for that directory (wrapper module + UNIX socket),
  ``--env LD_PRELOAD=<wrapper>`` so the dynamic linker interposes it,
  the GPU ``--device`` entries, the driver volume, and the dummy
  exit-detection volume.

The entry point accepts real argv lists (``["run", "--nvidia-memory=512m",
"myimage"]``), because option parsing/rewriting is precisely what the paper
customized — and what the Fig. 5 creation-time overhead includes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.container.container import Container, ContainerConfig
from repro.container.engine import DockerEngine
from repro.container.image import Image
from repro.container.volumes import Mount
from repro.errors import ContainerError
from repro.ipc import protocol
from repro.nvdocker.plugin import NvidiaDockerPlugin
from repro.units import GiB, parse_size
from repro.workloads.types import ContainerType

__all__ = ["NvidiaDockerCommand", "NvidiaDocker", "DEFAULT_GPU_MEMORY_LIMIT"]

#: §III-B: "to set 1 GiB as a default if both the option and the label are
#: absent".
DEFAULT_GPU_MEMORY_LIMIT: int = 1 * GiB

#: Where the scheduler directory is mounted inside the container.
CONTAINER_WRAPPER_DIR = "/convgpu"


@dataclass
class NvidiaDockerCommand:
    """Parsed ``nvidia-docker run/create`` invocation."""

    verb: str
    image_ref: str = ""
    name: str | None = None
    nvidia_memory: int | None = None
    env: dict[str, str] = field(default_factory=dict)
    mounts: list[Mount] = field(default_factory=list)
    vcpus: int = 1
    memory_limit: int = 1 << 30
    command: Callable[..., Any] | None = None
    passthrough: list[str] = field(default_factory=list)

    @classmethod
    def parse(cls, argv: list[str]) -> "NvidiaDockerCommand":
        """Parse an argv list the way the thin wrapper does."""
        if not argv:
            raise ContainerError("empty nvidia-docker command")
        verb, rest = argv[0], argv[1:]
        cmd = cls(verb=verb)
        if verb not in ("run", "create"):
            # "the other docker commands are passed through to the docker".
            cmd.passthrough = rest
            return cmd
        it = iter(rest)
        positionals: list[str] = []
        for token in it:
            if token.startswith("--nvidia-memory="):
                cmd.nvidia_memory = parse_size(token.split("=", 1)[1])
            elif token == "--nvidia-memory":
                cmd.nvidia_memory = parse_size(cls._value(it, token))
            elif token.startswith("--name="):
                cmd.name = token.split("=", 1)[1]
            elif token == "--name":
                cmd.name = cls._value(it, token)
            elif token.startswith("--env=") or token.startswith("-e="):
                cmd._add_env(token.split("=", 1)[1])
            elif token in ("--env", "-e"):
                cmd._add_env(cls._value(it, token))
            elif token.startswith("--volume=") or token.startswith("-v="):
                cmd._add_volume(token.split("=", 1)[1])
            elif token in ("--volume", "-v"):
                cmd._add_volume(cls._value(it, token))
            elif token.startswith("--cpus="):
                cmd.vcpus = int(token.split("=", 1)[1])
            elif token.startswith("--memory=") or token.startswith("-m="):
                cmd.memory_limit = parse_size(token.split("=", 1)[1])
            elif token in ("--memory", "-m"):
                cmd.memory_limit = parse_size(cls._value(it, token))
            elif token.startswith("-"):
                raise ContainerError(f"unknown option {token!r}")
            else:
                positionals.append(token)
        if not positionals:
            raise ContainerError(f"nvidia-docker {verb}: missing image")
        cmd.image_ref = positionals[0]
        return cmd

    @staticmethod
    def _value(it, token: str) -> str:
        try:
            return next(it)
        except StopIteration:
            raise ContainerError(f"option {token} needs a value") from None

    def _add_env(self, spec: str) -> None:
        if "=" not in spec:
            raise ContainerError(f"bad --env {spec!r}")
        key, value = spec.split("=", 1)
        self.env[key] = value

    def _add_volume(self, spec: str) -> None:
        parts = spec.split(":")
        if len(parts) < 2:
            raise ContainerError(f"bad --volume {spec!r}")
        read_only = len(parts) > 2 and "ro" in parts[2].split(",")
        self.mounts.append(Mount(source=parts[0], target=parts[1], read_only=read_only))


class NvidiaDocker:
    """The customized thin wrapper.

    ``control_call(msg_type, **payload) -> reply`` reaches the scheduler
    (over the control UNIX socket in live mode, in-process otherwise); when
    it is ``None`` the wrapper behaves like *stock* nvidia-docker — GPU
    passthrough with no memory management — which is the paper's baseline.
    """

    def __init__(
        self,
        engine: DockerEngine,
        plugin: NvidiaDockerPlugin,
        *,
        control_call: Callable[..., dict[str, Any]] | None = None,
        gpu_devices: tuple[str, ...] = ("/dev/nvidia0", "/dev/nvidiactl", "/dev/nvidia-uvm"),
        supported_cuda_version: str = "8.0",
    ) -> None:
        self.engine = engine
        self.plugin = plugin
        self.control_call = control_call
        self.gpu_devices = gpu_devices
        #: Highest CUDA version the host driver supports; nvidia-docker
        #: refuses images whose com.nvidia.cuda.version exceeds it (§II-D:
        #: the label "indicates required CUDA version").
        self.supported_cuda_version = supported_cuda_version
        self._anon_names = itertools.count(1)

    @staticmethod
    def _version_tuple(text: str) -> tuple[int, ...]:
        try:
            return tuple(int(part) for part in text.split("."))
        except ValueError:
            raise ContainerError(f"malformed CUDA version {text!r}") from None

    def check_cuda_version(self, image: Image) -> None:
        """Refuse images that need a newer CUDA than the driver provides."""
        required = image.cuda_version
        if required is None:
            return
        if self._version_tuple(required) > self._version_tuple(
            self.supported_cuda_version
        ):
            raise ContainerError(
                f"image {image.reference} requires CUDA {required}, but the "
                f"host driver supports only {self.supported_cuda_version}"
            )

    @property
    def managed(self) -> bool:
        """True when the ConVGPU customization is active."""
        return self.control_call is not None

    # ------------------------------------------------------------------

    def run_command(self, argv: list[str]) -> Container:
        """Parse and execute ``nvidia-docker run ...``."""
        command = NvidiaDockerCommand.parse(argv)
        if command.verb != "run":
            raise ContainerError(
                f"run_command only executes 'run'; got {command.verb!r}"
            )
        return self.run(
            command.image_ref,
            name=command.name,
            nvidia_memory=command.nvidia_memory,
            env=command.env,
            mounts=command.mounts,
            vcpus=command.vcpus,
            memory_limit=command.memory_limit,
        )

    def run(
        self,
        image_ref: str,
        *,
        name: str | None = None,
        nvidia_memory: int | str | None = None,
        env: Mapping[str, str] | None = None,
        mounts: list[Mount] | None = None,
        vcpus: int = 1,
        memory_limit: int = 1 << 30,
        command: Callable[..., Any] | None = None,
        container_type: ContainerType | None = None,
    ) -> Container:
        """``nvidia-docker run``: rewrite options, register, create, start."""
        config = self.build_config(
            image_ref,
            name=name,
            nvidia_memory=nvidia_memory,
            env=env,
            mounts=mounts,
            vcpus=vcpus,
            memory_limit=memory_limit,
            command=command,
            container_type=container_type,
        )
        return self.engine.run(config)

    def create(self, image_ref: str, **kwargs: Any) -> Container:
        """``nvidia-docker create``: like run, but the container stays CREATED."""
        config = self.build_config(image_ref, **kwargs)
        return self.engine.create(config)

    # ------------------------------------------------------------------

    def build_config(
        self,
        image_ref: str,
        *,
        name: str | None = None,
        nvidia_memory: int | str | None = None,
        env: Mapping[str, str] | None = None,
        mounts: list[Mount] | None = None,
        vcpus: int = 1,
        memory_limit: int = 1 << 30,
        command: Callable[..., Any] | None = None,
        container_type: ContainerType | None = None,
    ) -> ContainerConfig:
        """The option-rewriting step: user command → docker command."""
        image = self.engine.images.get(image_ref)
        if container_type is not None:
            vcpus = container_type.vcpus
            memory_limit = container_type.memory
            if nvidia_memory is None:
                nvidia_memory = container_type.gpu_memory
        final_env = dict(env or {})
        final_mounts = list(mounts or [])
        devices: tuple[str, ...] = ()
        final_name = name or f"convgpu-{next(self._anon_names)}"

        if image.uses_cuda:
            # Stock nvidia-docker behaviour: version check, device + driver
            # volume (§II-D).
            self.check_cuda_version(image)
            devices = self.gpu_devices
            final_mounts.append(self.plugin.driver_mount())

            if self.managed:
                limit = self.resolve_memory_limit(image, nvidia_memory)
                # Pre-create registration; reply carries the directory the
                # scheduler prepared (§III-B/D).  We need the container id
                # before the engine assigns one, so ConVGPU keys scheduler
                # state by container *name* — unique per engine.
                reply = self.control_call(
                    protocol.MSG_REGISTER_CONTAINER,
                    container_id=final_name,
                    limit=limit,
                )
                if reply.get("status") != "ok":
                    raise ContainerError(
                        f"scheduler refused container: {reply.get('error')}"
                    )
                socket_dir = reply.get("socket_dir", f"/var/convgpu/{final_name}")
                final_mounts.append(
                    Mount(source=socket_dir, target=CONTAINER_WRAPPER_DIR)
                )
                final_env["LD_PRELOAD"] = (
                    f"{CONTAINER_WRAPPER_DIR}/libgpushare.so"
                    + (" " + final_env["LD_PRELOAD"] if "LD_PRELOAD" in final_env else "")
                )
                final_env["CONVGPU_SOCKET"] = (
                    f"{CONTAINER_WRAPPER_DIR}/convgpu.sock"
                )
                final_mounts.append(self.plugin.dummy_mount(final_name))
        elif nvidia_memory is not None:
            raise ContainerError(
                f"--nvidia-memory given but image {image.reference} has no "
                "com.nvidia.volumes.needed label"
            )

        return ContainerConfig(
            image=image,
            name=final_name,
            env=final_env,
            mounts=tuple(final_mounts),
            devices=devices,
            vcpus=vcpus,
            memory_limit=memory_limit,
            command=command,
        )

    @staticmethod
    def resolve_memory_limit(image: Image, option_value: int | str | None) -> int:
        """Option > image label > 1 GiB default (§III-B)."""
        if option_value is not None:
            return parse_size(option_value)
        label = image.memory_limit_label
        if label is not None:
            return parse_size(label)
        return DEFAULT_GPU_MEMORY_LIMIT
