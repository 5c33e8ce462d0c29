"""The LXC driver: uniform API → container engine verbs and cgroup writes.

Containers of the paper's era cannot be checkpointed or live-migrated,
so the methods behind ``save_restore``, ``managed_save``, ``migration``,
``checkpoints`` and ``backup`` refuse, and are listed in
``unsupported_ops``: the derived feature set leaves those five out, and
the capability matrix shows the gap rather than papering over it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.drivers.stateful import StatefulDriver
from repro.hypervisors.container_backend import ContainerBackend
from repro.hypervisors.host import SimHost
from repro.xmlconfig.domain import DomainConfig


class LxcDriver(StatefulDriver):
    """Stateful driver over the simulated container engine."""

    name = "lxc"
    accepted_types = ("lxc",)
    #: one line per feature containers lack: save_restore, managed_save,
    #: migration, checkpoints, backup
    unsupported_ops = frozenset({
        "domain_save", "domain_restore",
        "domain_managed_save", "domain_managed_save_remove", "domain_has_managed_save",
        "migrate_begin", "migrate_prepare", "migrate_perform", "migrate_finish", "migrate_confirm", "migrate_p2p",
        "checkpoint_create", "checkpoint_list", "checkpoint_delete", "checkpoint_get_xml_desc",
        "backup_begin", "backup_begin_pull", "domain_abort_job",
    })

    def __init__(self, backend: "Optional[ContainerBackend]" = None) -> None:
        super().__init__(backend or ContainerBackend(host=SimHost(hostname="lxchost")))

    # -- backend adapter -----------------------------------------------------

    def _backend_start(self, config: DomainConfig, paused: bool = False) -> None:
        self.backend.start_container(config)
        if paused:
            self.backend.write_cgroup(config.name, "freezer.state", "FROZEN")

    def _backend_shutdown(self, name: str) -> None:
        self.backend.stop_container(name)

    def _backend_destroy(self, name: str) -> None:
        self.backend.kill_container(name)

    def _backend_suspend(self, name: str) -> None:
        self.backend.write_cgroup(name, "freezer.state", "FROZEN")

    def _backend_resume(self, name: str) -> None:
        self.backend.write_cgroup(name, "freezer.state", "THAWED")

    def _backend_reboot(self, name: str) -> None:
        self.backend.reboot_container(name)

    def _backend_set_memory(self, name: str, memory_kib: int) -> None:
        self.backend.write_cgroup(name, "memory.limit_in_bytes", str(memory_kib * 1024))

    def _backend_set_vcpus(self, name: str, vcpus: int) -> None:
        spec = "0" if vcpus == 1 else f"0-{vcpus - 1}"
        self.backend.write_cgroup(name, "cpuset.cpus", spec)

    def _backend_info(self, name: str) -> Dict[str, Any]:
        stats = self.backend.container_stats(name)
        runtime = self.backend._get(name)
        return {
            "state": stats["state"],
            "vcpus": stats["vcpus"],
            "memory_kib": stats["memory_kib"],
            "max_memory_kib": runtime.max_memory_kib,
            "cpu_seconds": stats["cpu_seconds"],
        }

    def _apply_scheduler(self, name: str, scheduler) -> None:
        # containers realize cpu_shares as a literal cgroup write
        self.backend.write_cgroup(name, "cpu.shares", str(scheduler["cpu_shares"]))

    def _backend_save(self, name: str, path: str) -> None:
        raise self._unsupported("domain_save (containers cannot be checkpointed)")

    def _backend_restore(self, config: DomainConfig, path: str) -> None:
        raise self._unsupported("domain_restore")

    def migrate_begin(self, name: str) -> Dict[str, Any]:
        raise self._unsupported("migration (containers cannot be live-migrated)")

    def migrate_prepare(self, description: Dict[str, Any]) -> Dict[str, Any]:
        raise self._unsupported("migration")

    def domain_managed_save(self, name: str) -> None:
        raise self._unsupported("managed save (containers cannot be checkpointed)")

    def domain_managed_save_remove(self, name: str) -> None:
        raise self._unsupported("managed save")

    def domain_has_managed_save(self, name: str) -> bool:
        raise self._unsupported("managed save")

    def checkpoint_create(self, name: str, checkpoint_name: str) -> Dict[str, Any]:
        raise self._unsupported("checkpoints (containers have no dirty bitmaps)")

    def checkpoint_list(self, name: str) -> List[str]:
        raise self._unsupported("checkpoints")

    def checkpoint_delete(self, name: str, checkpoint_name: str) -> None:
        raise self._unsupported("checkpoints")

    def checkpoint_get_xml_desc(self, name: str, checkpoint_name: str) -> str:
        raise self._unsupported("checkpoints")

    def backup_begin(self, name: str, options: "Optional[Dict[str, Any]]" = None) -> Dict[str, Any]:
        raise self._unsupported("backup jobs")

    def backup_begin_pull(self, name: str, options: "Optional[Dict[str, Any]]" = None) -> Dict[str, Any]:
        raise self._unsupported("backup jobs (containers have no dirty bitmaps)")

    def domain_abort_job(self, name: str) -> Dict[str, Any]:
        raise self._unsupported("backup jobs")
