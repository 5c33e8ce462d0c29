"""Simulated Xen backend: hypercall interface, Domain0, xenstore.

The native control interface mirrors Xen's: every operation is a
``domctl``/``sysctl`` hypercall issued from the privileged Domain0,
addressing guests by numeric domain id, with name→domid resolution
through the xenstore hierarchy.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List

from repro.errors import (
    DomainExistsError,
    InvalidArgumentError,
    InvalidOperationError,
    NoDomainError,
)
from repro.hypervisors.base import Backend, GuestRuntime, RunState
from repro.util import uuidutil
from repro.xmlconfig.domain import DomainConfig


class XenBackend(Backend):
    """One Xen host: hypervisor + Domain0 + xenstore."""

    kind = "xen"

    #: shutdown reason codes understood by the hypervisor
    SHUTDOWN_REASONS = ("poweroff", "reboot", "suspend", "crash")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._domids = itertools.count(1)  # 0 is Domain0
        self._domid_by_name: Dict[str, int] = {}
        self._name_by_domid: Dict[int, str] = {}
        self._saved_state: Dict[str, Dict[str, Any]] = {}
        #: the xenstore tree, flattened to path → value
        self.xenstore: Dict[str, str] = {
            "/local/domain/0/name": "Domain-0",
            "/local/domain/0/domid": "0",
        }
        self.hypercall_count = 0

    # -- the native hypercall interface -----------------------------------

    def hypercall(self, op: str, **args: Any) -> Dict[str, Any]:
        """Issue one hypercall from Domain0.

        Supported ops (subset of domctl/sysctl):

        * ``domctl.createdomain`` — build and unpause a new domain
        * ``domctl.destroydomain`` — hard-kill a domain
        * ``domctl.pausedomain`` / ``domctl.unpausedomain``
        * ``domctl.shutdown`` — signal the guest (reason: poweroff/reboot)
        * ``domctl.getdomaininfo`` — state/resources of one domain
        * ``domctl.max_mem`` / ``domctl.max_vcpus`` — resize
        * ``sysctl.getdomaininfolist`` — enumerate all domains
        * ``domctl.save`` / ``domctl.restore`` — state file save/restore
        """
        self.hypercall_count += 1
        self._charge("native_call")
        handler = getattr(self, "_hc_" + op.replace(".", "_"), None)
        if handler is None:
            raise InvalidArgumentError(f"unknown hypercall {op!r}")
        return handler(**args)

    # -- name/domid resolution (xenstore) ---------------------------------

    def domid_of(self, name: str) -> int:
        """Resolve a domain name through the xenstore tree."""
        self._charge("native_call")
        domid = self._domid_by_name.get(name)
        if domid is None:
            raise NoDomainError(f"no Xen domain named {name!r}")
        return domid

    def name_of(self, domid: int) -> str:
        name = self._name_by_domid.get(domid)
        if name is None:
            raise NoDomainError(f"no Xen domain with id {domid}")
        return name

    def _runtime_by_domid(self, domid: int) -> GuestRuntime:
        if domid == 0:
            raise InvalidOperationError("operation not permitted on Domain-0")
        return self._get(self.name_of(domid))

    # -- hypercall handlers -----------------------------------------------

    def _hc_domctl_createdomain(self, config: DomainConfig, paused: bool = False) -> Dict[str, Any]:
        name = config.name
        self._check_injected_failure(name)
        if name in self._domid_by_name or name == "Domain-0":
            raise DomainExistsError(f"Xen domain {name!r} already exists")
        self.host.allocate(name, config.vcpus, config.current_memory_kib)
        try:
            self._charge("create")  # domain builder in Domain0
            runtime = GuestRuntime(
                name=name,
                uuid=config.uuid or uuidutil.generate_uuid(self.rng),
                vcpus=config.vcpus,
                memory_kib=config.current_memory_kib,
                clock=self.clock,
                utilization=self._new_utilization(),
            )
            for disk in config.disks:
                if not self.images.exists(disk.source):
                    self.images.create(
                        disk.source, disk.capacity_bytes or 1024**3, disk.driver_format
                    )
                self.images.attach(disk.source, name)
                runtime.disk_paths.append(disk.source)
            self._charge("start", runtime.memory_gib)
        except Exception:
            self.host.release(name)
            self.images.detach_all(name)
            raise
        domid = next(self._domids)
        self._domid_by_name[name] = domid
        self._name_by_domid[domid] = name
        self.xenstore[f"/local/domain/{domid}/name"] = name
        self.xenstore[f"/local/domain/{domid}/domid"] = str(domid)
        self.xenstore[f"/local/domain/{domid}/uuid"] = runtime.uuid
        if paused:
            runtime.transition(RunState.PAUSED)
        self._register(runtime)
        return {"domid": domid}

    def _hc_domctl_destroydomain(self, domid: int) -> Dict[str, Any]:
        runtime = self._runtime_by_domid(domid)
        self._check_injected_failure(runtime.name)
        self._charge("destroy")
        self._drop_domain(runtime)
        return {}

    def _hc_domctl_pausedomain(self, domid: int) -> Dict[str, Any]:
        runtime = self._runtime_by_domid(domid)
        self._check_injected_failure(runtime.name)
        runtime.require_state(RunState.RUNNING)
        self._charge("suspend")
        runtime.transition(RunState.PAUSED)
        return {}

    def _hc_domctl_unpausedomain(self, domid: int) -> Dict[str, Any]:
        runtime = self._runtime_by_domid(domid)
        runtime.require_state(RunState.PAUSED)
        self._charge("resume")
        runtime.transition(RunState.RUNNING)
        return {}

    def _hc_domctl_shutdown(self, domid: int, reason: str = "poweroff") -> Dict[str, Any]:
        if reason not in self.SHUTDOWN_REASONS:
            raise InvalidArgumentError(f"unknown shutdown reason {reason!r}")
        runtime = self._runtime_by_domid(domid)
        self._check_injected_failure(runtime.name)
        runtime.require_state(RunState.RUNNING)
        if reason == "poweroff":
            self._charge("shutdown")
            self._drop_domain(runtime)
        elif reason == "reboot":
            self._charge("reboot")
            runtime.transition(RunState.RUNNING)
        elif reason == "crash":
            runtime.transition(RunState.CRASHED)
        else:  # suspend: guest quiesces, stays resident
            self._charge("suspend")
            runtime.transition(RunState.PAUSED)
        return {}

    def _hc_domctl_getdomaininfo(self, domid: int) -> Dict[str, Any]:
        self._charge("query")
        if domid == 0:
            return {
                "domid": 0,
                "name": "Domain-0",
                "state": "running",
                "vcpus": self.host.cpus,
                "memory_kib": self.host.reserved_kib,
                "cpu_seconds": self.clock.now(),
            }
        runtime = self._runtime_by_domid(domid)
        return {
            "domid": domid,
            "name": runtime.name,
            "state": runtime.state.value,
            "vcpus": runtime.vcpus,
            "memory_kib": runtime.memory_kib,
            "cpu_seconds": runtime.cpu_seconds,
        }

    def _hc_sysctl_getdomaininfolist(self) -> List[Dict[str, Any]]:
        self._charge("query")
        infos = [self._hc_domctl_getdomaininfo(domid=0)]
        for domid in sorted(self._name_by_domid):
            infos.append(self._hc_domctl_getdomaininfo(domid=domid))
        return infos

    def _hc_domctl_max_mem(self, domid: int, memory_kib: int) -> Dict[str, Any]:
        runtime = self._runtime_by_domid(domid)
        if memory_kib <= 0:
            raise InvalidArgumentError("memory target must be positive")
        if memory_kib > runtime.max_memory_kib:
            raise InvalidOperationError(
                f"target {memory_kib} KiB above domain maximum {runtime.max_memory_kib} KiB"
            )
        self._charge("set_memory")
        self.host.resize(runtime.name, memory_kib=memory_kib)
        runtime.memory_kib = memory_kib
        return {}

    def _hc_domctl_max_vcpus(self, domid: int, vcpus: int) -> Dict[str, Any]:
        runtime = self._runtime_by_domid(domid)
        if vcpus < 1:
            raise InvalidArgumentError("vcpu count must be at least 1")
        self._charge("set_vcpus")
        self.host.resize(runtime.name, vcpus=vcpus)
        runtime.vcpus = vcpus
        return {}

    def _hc_domctl_save(self, domid: int, path: str) -> Dict[str, Any]:
        runtime = self._runtime_by_domid(domid)
        runtime.require_state(RunState.RUNNING, RunState.PAUSED)
        self._charge("save", runtime.memory_gib)
        self._saved_state[path] = {
            "uuid": runtime.uuid,
            "memory_kib": runtime.memory_kib,
            "vcpus": runtime.vcpus,
            "cpu_seconds": runtime.cpu_seconds,
        }
        self._drop_domain(runtime)
        return {}

    def _hc_domctl_restore(self, config: DomainConfig, path: str) -> Dict[str, Any]:
        blob = self._saved_state.get(path)
        if blob is None:
            raise NoDomainError(f"no saved Xen state at {path!r}")
        result = self._hc_domctl_createdomain(config=config, paused=True)
        domid = result["domid"]
        runtime = self._runtime_by_domid(domid)
        self._charge("restore", runtime.memory_gib)
        runtime._cpu_seconds = blob["cpu_seconds"]
        runtime.uuid = blob["uuid"]
        self._hc_domctl_unpausedomain(domid=domid)
        del self._saved_state[path]
        return {"domid": domid}

    def has_saved_state(self, path: str) -> bool:
        return path in self._saved_state

    # -- teardown ----------------------------------------------------------

    def _drop_domain(self, runtime: GuestRuntime) -> None:
        domid = self._domid_by_name.pop(runtime.name, None)
        if domid is not None:
            self._name_by_domid.pop(domid, None)
            for key in list(self.xenstore):
                if key.startswith(f"/local/domain/{domid}/"):
                    del self.xenstore[key]
        runtime.transition(RunState.SHUTOFF)
        self._teardown(runtime)
