"""Simulated container engine: namespaces + cgroup controllers.

The native control interface mimics OS-level container tooling: a
container is a process tree in a private set of namespaces with its
resources bounded by cgroup controller files.  Suspend/resume is the
cgroup freezer; memory/CPU resizing is a cgroup limit write — which is
why those operations are an order of magnitude cheaper than on full
virtual machines (a ratio the benchmarks reproduce).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List

from repro.errors import (
    DomainExistsError,
    InvalidArgumentError,
    NoDomainError,
)
from repro.hypervisors.base import Backend, GuestRuntime, RunState
from repro.util import uuidutil
from repro.xmlconfig.domain import DomainConfig

#: namespaces every container gets
DEFAULT_NAMESPACES = ("pid", "net", "mnt", "uts", "ipc")

#: cgroup controller files the engine exposes
CGROUP_KEYS = (
    "memory.limit_in_bytes",
    "cpuset.cpus",
    "cpu.shares",
    "freezer.state",
)


class Container:
    """One container: init process, namespaces, cgroup."""

    def __init__(self, runtime: GuestRuntime, init: str, pid: int) -> None:
        self.runtime = runtime
        self.init = init
        self.init_pid = pid
        self.namespaces = set(DEFAULT_NAMESPACES)
        self.cgroup: Dict[str, str] = {
            "memory.limit_in_bytes": str(runtime.memory_kib * 1024),
            "cpuset.cpus": "0-" + str(runtime.vcpus - 1) if runtime.vcpus > 1 else "0",
            "cpu.shares": "1024",
            "freezer.state": "THAWED",
        }


class ContainerBackend(Backend):
    """The container engine on one host."""

    kind = "lxc"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._containers: Dict[str, Container] = {}
        self._pids = itertools.count(2000)

    # -- engine verbs -------------------------------------------------------

    def start_container(self, config: DomainConfig) -> Container:
        """clone(2) the init process into fresh namespaces and cgroup."""
        name = config.name
        self._check_injected_failure(name)
        if config.os.os_type != "exe" or not config.os.init:
            raise InvalidArgumentError(
                f"container {name!r} needs os type 'exe' with an <init> binary"
            )
        with self._lock:
            if name in self._containers:
                raise DomainExistsError(f"container {name!r} already running")
        self.host.allocate(name, config.vcpus, config.current_memory_kib)
        try:
            self._charge("create")
            runtime = GuestRuntime(
                name=name,
                uuid=config.uuid or uuidutil.generate_uuid(self.rng),
                vcpus=config.vcpus,
                memory_kib=config.current_memory_kib,
                clock=self.clock,
                utilization=self._new_utilization(),
            )
            self._charge("start", runtime.memory_gib)
        except Exception:
            self.host.release(name)
            raise
        container = Container(runtime, config.os.init, next(self._pids))
        with self._lock:
            self._containers[name] = container
        self._register(runtime)
        return container

    def container(self, name: str) -> Container:
        with self._lock:
            container = self._containers.get(name)
        if container is None:
            raise NoDomainError(f"no running container {name!r}")
        return container

    def stop_container(self, name: str) -> None:
        """SIGTERM to init and wait — the graceful path."""
        container = self.container(name)
        self._check_injected_failure(name)
        container.runtime.require_state(RunState.RUNNING)
        self._charge("shutdown")
        self._drop(container)

    def kill_container(self, name: str) -> None:
        """SIGKILL the whole process tree — the destroy path."""
        container = self.container(name)
        self._check_injected_failure(name)
        self._charge("destroy")
        self._drop(container)

    def reboot_container(self, name: str) -> None:
        """Restart init inside the existing namespaces."""
        container = self.container(name)
        container.runtime.require_state(RunState.RUNNING)
        self._charge("reboot")
        container.init_pid = next(self._pids)

    # -- cgroup interface -----------------------------------------------------

    def write_cgroup(self, name: str, key: str, value: str) -> None:
        """Write one cgroup controller file — the native resize/freeze path."""
        container = self.container(name)
        if key not in CGROUP_KEYS:
            raise InvalidArgumentError(f"unknown cgroup key {key!r}")
        self._charge("native_call")
        runtime = container.runtime
        if key == "freezer.state":
            self._apply_freezer(container, value)
        elif key == "memory.limit_in_bytes":
            new_kib = int(value) // 1024
            if new_kib <= 0:
                raise InvalidArgumentError("memory limit must be positive")
            self._charge("set_memory")
            self.host.resize(name, memory_kib=new_kib)
            runtime.memory_kib = new_kib
        elif key == "cpuset.cpus":
            vcpus = _cpuset_size(value)
            self._charge("set_vcpus")
            self.host.resize(name, vcpus=vcpus)
            runtime.vcpus = vcpus
        container.cgroup[key] = value

    def read_cgroup(self, name: str, key: str) -> str:
        container = self.container(name)
        if key not in CGROUP_KEYS:
            raise InvalidArgumentError(f"unknown cgroup key {key!r}")
        self._charge("native_call")
        return container.cgroup[key]

    def _apply_freezer(self, container: Container, value: str) -> None:
        runtime = container.runtime
        if value == "FROZEN":
            runtime.require_state(RunState.RUNNING)
            self._charge("suspend")
            runtime.transition(RunState.PAUSED)
        elif value == "THAWED":
            if runtime.state == RunState.PAUSED:
                self._charge("resume")
                runtime.transition(RunState.RUNNING)
        else:
            raise InvalidArgumentError(f"bad freezer state {value!r}")

    # -- introspection ----------------------------------------------------------

    def container_stats(self, name: str) -> Dict[str, Any]:
        container = self.container(name)
        self._charge("query")
        runtime = container.runtime
        return {
            "state": runtime.state.value,
            "init_pid": container.init_pid,
            "namespaces": sorted(container.namespaces),
            "memory_kib": runtime.memory_kib,
            "vcpus": runtime.vcpus,
            "cpu_seconds": runtime.cpu_seconds,
        }

    def list_containers(self) -> List[str]:
        with self._lock:
            return sorted(self._containers)

    def _drop(self, container: Container) -> None:
        container.runtime.transition(RunState.SHUTOFF)
        with self._lock:
            self._containers.pop(container.runtime.name, None)
        self._teardown(container.runtime)


def _cpuset_size(spec: str) -> int:
    """Number of CPUs in a cpuset string like ``0-3,6``."""
    total = 0
    for part in spec.split(","):
        part = part.strip()
        if not part:
            raise InvalidArgumentError(f"bad cpuset spec {spec!r}")
        if "-" in part:
            low_s, _, high_s = part.partition("-")
            try:
                low, high = int(low_s), int(high_s)
            except ValueError:
                raise InvalidArgumentError(f"bad cpuset spec {spec!r}") from None
            if high < low:
                raise InvalidArgumentError(f"bad cpuset range {part!r}")
            total += high - low + 1
        else:
            try:
                int(part)
            except ValueError:
                raise InvalidArgumentError(f"bad cpuset spec {spec!r}") from None
            total += 1
    return total
