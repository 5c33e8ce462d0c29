"""The ESX driver — the *stateless*, client-side case.

VMware ESX exposes its own remote management API and persists the VM
inventory itself, so this driver runs entirely in the client process:
no libvirtd in the path, every call is a remote round trip to the
hypervisor host.  Features the remote API does not offer (storage
pools, virtual networks, client-driven migration) are honestly absent
from the capability set.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.driver import Driver
from repro.core.states import DomainState
from repro.errors import InvalidOperationError, NoDomainError
from repro.hypervisors.esx_backend import EsxBackend
from repro.util import uuidutil
from repro.xmlconfig.capabilities import GuestCapability
from repro.xmlconfig.domain import DomainConfig

_POWER_TO_STATE = {
    "poweredOn": DomainState.RUNNING,
    "suspended": DomainState.PAUSED,
    "poweredOff": DomainState.SHUTOFF,
}


class EsxDriver(Driver):
    """Client-side driver speaking the ESX remote API directly."""

    name = "esx"
    stateless = True

    def __init__(
        self,
        backend: EsxBackend,
        username: str = "root",
        password: str = "vmware",
    ) -> None:
        self.backend = backend
        self._session = backend.login(username, password)
        self.api_calls = 0

    def _invoke(self, method: str, **kwargs: Any) -> Any:
        self.api_calls += 1
        return self.backend.invoke(self._session, method, **kwargs)

    def _moid(self, name: str) -> str:
        return self._invoke("FindByName", name=name)

    # -- connection -----------------------------------------------------------

    def close(self) -> None:
        self.backend.logout(self._session)

    def get_hostname(self) -> str:
        return self.backend.host.hostname

    def get_capabilities(self) -> str:
        guests = [GuestCapability("hvm", self.backend.host.arch, ["esx"])]
        return self.backend.host.capabilities(guests).to_xml()

    def get_node_info(self) -> Dict[str, int]:
        return self.backend.host.node_info()

    def get_version(self) -> Tuple[int, int, int]:
        return (4, 0, 0)  # the vSphere generation contemporary to the paper

    # -- enumeration --------------------------------------------------------------

    def list_domains(self) -> List[str]:
        listing = self._invoke("ListVMs")
        return sorted(
            vm["name"] for vm in listing if vm["powerState"] != "poweredOff"
        )

    def list_defined_domains(self) -> List[str]:
        listing = self._invoke("ListVMs")
        return sorted(
            vm["name"] for vm in listing if vm["powerState"] == "poweredOff"
        )

    def num_of_domains(self) -> int:
        return len(self.list_domains())

    # -- lookup ----------------------------------------------------------------------

    def _public_record(self, moid: str) -> Dict[str, Any]:
        state = self._invoke("GetVMState", vm=moid)
        config = self._invoke("GetVMConfig", vm=moid)
        return {
            "name": config.name,
            "uuid": state["uuid"],
            "id": None,
            "state": int(_POWER_TO_STATE[state["powerState"]]),
            "persistent": True,  # the ESX inventory is always persistent
        }

    def domain_lookup_by_name(self, name: str) -> Dict[str, Any]:
        return self._public_record(self._moid(name))

    def domain_lookup_by_uuid(self, uuid: str) -> Dict[str, Any]:
        wanted = uuidutil.normalize_uuid(uuid)
        for vm in self._invoke("ListVMs"):
            state = self._invoke("GetVMState", vm=vm["moid"])
            if state["uuid"] == wanted:
                return self._public_record(vm["moid"])
        raise NoDomainError(f"no domain with matching uuid {uuid!r}")

    # -- lifecycle ---------------------------------------------------------------------

    def domain_define_xml(self, xml: str) -> Dict[str, Any]:
        config = DomainConfig.from_xml(xml)
        moid = self._invoke("RegisterVM", config=config)
        return self._public_record(moid)

    def domain_undefine(self, name: str) -> None:
        self._invoke("UnregisterVM", vm=self._moid(name))

    def domain_create(self, name: str) -> None:
        self._invoke("PowerOnVM_Task", vm=self._moid(name))

    def domain_create_xml(self, xml: str) -> Dict[str, Any]:
        record = self.domain_define_xml(xml)
        self.domain_create(record["name"])
        return self.domain_lookup_by_name(record["name"])

    def domain_shutdown(self, name: str) -> None:
        self._invoke("ShutdownGuest", vm=self._moid(name))

    def domain_destroy(self, name: str) -> None:
        self._invoke("PowerOffVM_Task", vm=self._moid(name))

    def domain_suspend(self, name: str) -> None:
        self._invoke("SuspendVM_Task", vm=self._moid(name))

    def domain_resume(self, name: str) -> None:
        moid = self._moid(name)
        state = self._invoke("GetVMState", vm=moid)
        if state["powerState"] != "suspended":
            raise InvalidOperationError(f"domain {name!r} is not suspended")
        self._invoke("PowerOnVM_Task", vm=moid)

    def domain_reboot(self, name: str) -> None:
        self._invoke("ResetVM_Task", vm=self._moid(name))

    # -- introspection --------------------------------------------------------------------

    def domain_get_info(self, name: str) -> Dict[str, Any]:
        moid = self._moid(name)
        state = self._invoke("GetVMState", vm=moid)
        config = self._invoke("GetVMConfig", vm=moid)
        return {
            "state": int(_POWER_TO_STATE[state["powerState"]]),
            "max_memory_kib": config.memory_kib,
            "memory_kib": state["memory_kib"],
            "vcpus": state["vcpus"],
            "cpu_seconds": state["cpu_seconds"],
        }

    def domain_get_state(self, name: str) -> int:
        state = self._invoke("GetVMState", vm=self._moid(name))
        return int(_POWER_TO_STATE[state["powerState"]])

    def domain_get_xml_desc(self, name: str) -> str:
        config = self._invoke("GetVMConfig", vm=self._moid(name))
        return config.to_xml()

    # -- tuning ------------------------------------------------------------------------------

    def domain_set_memory(self, name: str, memory_kib: int) -> None:
        self._invoke("ReconfigVM_Task", vm=self._moid(name), memory_kib=memory_kib)

    def domain_set_vcpus(self, name: str, vcpus: int) -> None:
        self._invoke("ReconfigVM_Task", vm=self._moid(name), vcpus=vcpus)
