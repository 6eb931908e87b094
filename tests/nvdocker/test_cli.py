"""Tests for the customized nvidia-docker CLI wrapper (§II-D, §III-B)."""

import pytest

from repro.container.image import Image, make_cuda_image
from repro.core.middleware import ConVGPU
from repro.errors import ContainerError, UnknownContainerError
from repro.nvdocker.cli import (
    CONTAINER_WRAPPER_DIR,
    DEFAULT_GPU_MEMORY_LIMIT,
    NvidiaDocker,
    NvidiaDockerCommand,
)
from repro.units import GiB, MiB


@pytest.fixture
def system():
    system = ConVGPU(policy="BF")
    system.engine.images.add(make_cuda_image("cuda-app"))
    system.engine.images.add(make_cuda_image("labelled", memory_limit="512m"))
    system.engine.images.add(Image("plain"))
    return system


class TestCommandParsing:
    def test_run_with_nvidia_memory_equals(self):
        cmd = NvidiaDockerCommand.parse(["run", "--nvidia-memory=512m", "img"])
        assert cmd.verb == "run"
        assert cmd.nvidia_memory == 512 * MiB
        assert cmd.image_ref == "img"

    def test_run_with_separate_value(self):
        cmd = NvidiaDockerCommand.parse(["run", "--nvidia-memory", "1g", "img"])
        assert cmd.nvidia_memory == GiB

    def test_name_env_volume_options(self):
        cmd = NvidiaDockerCommand.parse(
            [
                "run",
                "--name", "c1",
                "--env", "FOO=bar",
                "-v", "/host:/cont:ro",
                "img",
            ]
        )
        assert cmd.name == "c1"
        assert cmd.env == {"FOO": "bar"}
        assert cmd.mounts[0].source == "/host"
        assert cmd.mounts[0].read_only

    def test_other_verbs_pass_through(self):
        # §II-D: "the other docker commands are passed through to the docker".
        cmd = NvidiaDockerCommand.parse(["ps", "-a"])
        assert cmd.verb == "ps"
        assert cmd.passthrough == ["-a"]

    def test_missing_image_rejected(self):
        with pytest.raises(ContainerError, match="missing image"):
            NvidiaDockerCommand.parse(["run", "--name", "x"])

    def test_unknown_option_rejected(self):
        with pytest.raises(ContainerError):
            NvidiaDockerCommand.parse(["run", "--teleport", "img"])

    def test_empty_command_rejected(self):
        with pytest.raises(ContainerError):
            NvidiaDockerCommand.parse([])

    def test_option_missing_value_rejected(self):
        with pytest.raises(ContainerError):
            NvidiaDockerCommand.parse(["run", "--name"])


class TestLimitResolution:
    """§III-B: option > label > 1 GiB default."""

    def test_option_wins(self, system):
        image = system.engine.images.get("labelled")
        assert NvidiaDocker.resolve_memory_limit(image, "2g") == 2 * GiB

    def test_label_fallback(self, system):
        image = system.engine.images.get("labelled")
        assert NvidiaDocker.resolve_memory_limit(image, None) == 512 * MiB

    def test_default_one_gib(self, system):
        image = system.engine.images.get("cuda-app")
        assert NvidiaDocker.resolve_memory_limit(image, None) == DEFAULT_GPU_MEMORY_LIMIT
        assert DEFAULT_GPU_MEMORY_LIMIT == GiB


class TestManagedRun:
    def test_cuda_container_gets_full_wiring(self, system):
        container = system.nvdocker.run("cuda-app", name="c1", nvidia_memory="512m")
        config = container.config
        # GPU devices attached (stock nvidia-docker behaviour).
        assert "/dev/nvidia0" in config.devices
        # Driver volume + scheduler dir + dummy volume mounted.
        sources = [m.source for m in config.mounts]
        assert any(s.startswith("nvidia_driver_") for s in sources)
        assert any(s.startswith("convgpu_dummy_") for s in sources)
        targets = [m.target for m in config.mounts]
        assert CONTAINER_WRAPPER_DIR in targets
        # LD_PRELOAD injected (§III-B).
        assert config.env["LD_PRELOAD"].endswith("libgpushare.so")
        # Registration happened with the resolved limit.
        assert system.scheduler.container("c1").limit == 512 * MiB

    def test_existing_ld_preload_preserved(self, system):
        container = system.nvdocker.run(
            "cuda-app", name="c1", env={"LD_PRELOAD": "libcustom.so"}
        )
        value = container.config.env["LD_PRELOAD"]
        assert value.split()[0].endswith("libgpushare.so")  # wrapper first
        assert "libcustom.so" in value

    def test_label_limit_applied(self, system):
        container = system.nvdocker.run("labelled", name="c2")
        assert system.scheduler.container("c2").limit == 512 * MiB

    def test_default_limit_applied(self, system):
        container = system.nvdocker.run("cuda-app", name="c3")
        assert system.scheduler.container("c3").limit == GiB

    def test_non_cuda_image_untouched(self, system):
        container = system.nvdocker.run("plain", name="c4")
        assert container.config.devices == ()
        assert "LD_PRELOAD" not in container.config.env
        # No scheduler registration for non-CUDA containers.
        from repro.errors import UnknownContainerError

        with pytest.raises(UnknownContainerError):
            system.scheduler.container("c4")

    def test_nvidia_memory_on_non_cuda_image_rejected(self, system):
        with pytest.raises(ContainerError):
            system.nvdocker.run("plain", name="c5", nvidia_memory="1g")

    def test_run_command_end_to_end(self, system):
        container = system.nvdocker.run_command(
            ["run", "--nvidia-memory=256m", "--name", "cli1", "cuda-app"]
        )
        assert container.running
        assert system.scheduler.container("cli1").limit == 256 * MiB

    def test_scheduler_refusal_aborts_creation(self, system):
        with pytest.raises(ContainerError, match="refused"):
            system.nvdocker.run("cuda-app", name="big", nvidia_memory=6 * GiB)
        # Nothing half-created.
        assert system.engine.list_containers(all_states=True) == []

    def test_container_type_sets_resources(self, system):
        from repro.workloads.types import TYPE_BY_NAME

        t = TYPE_BY_NAME["medium"]
        container = system.nvdocker.run("cuda-app", name="m1", container_type=t)
        assert container.config.vcpus == 2
        assert container.config.memory_limit == t.memory
        assert system.scheduler.container("m1").limit == t.gpu_memory


class TestUnmanagedBaseline:
    def test_stock_nvidia_docker_skips_convgpu(self):
        system = ConVGPU(managed=False)
        system.engine.images.add(make_cuda_image("cuda-app"))
        container = system.nvdocker.run("cuda-app", name="c1")
        config = container.config
        assert "/dev/nvidia0" in config.devices  # passthrough still works
        assert "LD_PRELOAD" not in config.env  # no interception
        sources = [m.source for m in config.mounts]
        assert not any(s.startswith("convgpu_dummy_") for s in sources)


class TestExitDetection:
    def test_dummy_volume_unmount_sends_close(self, system):
        """§III-B: plugin detects the stop and signals the scheduler."""
        container = system.nvdocker.run("cuda-app", name="watched")
        assert system.scheduler.container("watched").limit
        system.engine.stop(container.container_id)
        assert system.plugin.close_signals == ["watched"]
        with pytest.raises(UnknownContainerError):
            system.scheduler.container("watched")
        assert system.scheduler.unreserved == system.scheduler.total_memory
