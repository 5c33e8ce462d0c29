"""Simulated QEMU/KVM backend with a QMP-style monitor protocol.

The native control interface is modelled after QMP: a JSON
command/response protocol to each emulator process, with the mandatory
capability negotiation handshake.  The libvirt qemu driver drives
guests exclusively through this monitor — exactly what the real one
does — so the "native vs uniform API" comparison exercises the same
code path the paper's overhead measurement did.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, List

from repro.errors import NoDomainError
from repro.hypervisors.base import Backend, GuestRuntime, RunState
from repro.util import uuidutil
from repro.xmlconfig.domain import DomainConfig


class QmpError(Exception):
    """A QMP-level error reply (``{"error": ...}``), raised client-side."""

    def __init__(self, error_class: str, desc: str) -> None:
        super().__init__(f"{error_class}: {desc}")
        self.error_class = error_class
        self.desc = desc


class QmpMonitor:
    """The monitor socket of one emulator process.

    ``execute`` serializes the command to its JSON wire form (really —
    the bytes are produced and parsed, so message size effects are
    honest), charges the native-call latency, and dispatches into the
    process.
    """

    def __init__(self, process: "SimQemuProcess") -> None:
        self._process = process
        self._negotiated = False
        self.bytes_sent = 0
        self.bytes_received = 0

    def greeting(self) -> Dict[str, Any]:
        """The banner QMP emits on connect."""
        return {"QMP": {"version": {"qemu": {"major": 0, "minor": 12}}, "capabilities": []}}

    def execute(self, command: str, **arguments: Any) -> Any:
        """Run one QMP command; returns the ``return`` payload.

        Raises :class:`QmpError` when the process answers with an error
        object, mirroring how a real QMP client surfaces failures.
        """
        wire = json.dumps({"execute": command, "arguments": arguments})
        self.bytes_sent += len(wire)
        backend = self._process.backend
        backend._charge("native_call")
        if not self._negotiated and command != "qmp_capabilities":
            reply: Dict[str, Any] = {
                "error": {
                    "class": "CommandNotFound",
                    "desc": "capability negotiation not complete",
                }
            }
        else:
            request = json.loads(wire)
            reply = self._process.handle_qmp(
                request["execute"], request.get("arguments", {})
            )
            if command == "qmp_capabilities" and "error" not in reply:
                self._negotiated = True
        raw_reply = json.dumps(reply)
        self.bytes_received += len(raw_reply)
        parsed = json.loads(raw_reply)
        if "error" in parsed:
            raise QmpError(parsed["error"]["class"], parsed["error"]["desc"])
        return parsed.get("return")


class SimQemuProcess:
    """One emulator process: pid, command line, guest runtime, monitor."""

    def __init__(self, backend: "QemuBackend", config: DomainConfig, pid: int) -> None:
        self.backend = backend
        self.config = config
        self.pid = pid
        self.alive = True
        uuid = config.uuid or uuidutil.generate_uuid(backend.rng)
        self.runtime = GuestRuntime(
            name=config.name,
            uuid=uuid,
            vcpus=config.vcpus,
            memory_kib=config.current_memory_kib,
            clock=backend.clock,
            utilization=backend._new_utilization(),
        )
        self.monitor = QmpMonitor(self)

    def command_line(self) -> List[str]:
        """The argv a real libvirt would exec (introspection/debugging)."""
        argv = [
            "/usr/bin/sim-qemu",
            "-name",
            self.config.name,
            "-m",
            str(self.config.current_memory_kib // 1024),
            "-smp",
            str(self.config.vcpus),
            "-uuid",
            self.runtime.uuid,
        ]
        if self.backend.kind == "kvm":
            argv.append("-enable-kvm")
        for disk in self.config.disks:
            argv += ["-drive", f"file={disk.source},if={disk.target_bus}"]
        for iface in self.config.interfaces:
            argv += ["-net", f"nic,model={iface.model}"]
        argv += ["-qmp", f"unix:/var/run/sim-qemu/{self.config.name}.sock"]
        return argv

    # -- QMP command dispatch -------------------------------------------

    def handle_qmp(self, command: str, arguments: Dict[str, Any]) -> Dict[str, Any]:
        if not self.alive:
            return _qmp_error("GenericError", "emulator process has exited")
        handler = getattr(self, f"_cmd_{command.replace('-', '_')}", None)
        if handler is None:
            return _qmp_error("CommandNotFound", f"command {command!r} not found")
        try:
            return {"return": handler(arguments)}
        except _QmpFault as fault:
            return _qmp_error(fault.error_class, fault.desc)

    def _cmd_qmp_capabilities(self, _args: Dict[str, Any]) -> Dict[str, Any]:
        return {}

    def _cmd_query_status(self, _args: Dict[str, Any]) -> Dict[str, Any]:
        self.backend._charge("query")
        status = {
            RunState.RUNNING: "running",
            RunState.PAUSED: "paused",
            RunState.SHUTOFF: "shutdown",
            RunState.CRASHED: "internal-error",
        }[self.runtime.state]
        return {"status": status, "running": self.runtime.state == RunState.RUNNING}

    def _cmd_stop(self, _args: Dict[str, Any]) -> Dict[str, Any]:
        self.backend._check_injected_failure(self.config.name)
        if self.runtime.state == RunState.PAUSED:
            return {}
        self._require(RunState.RUNNING)
        self.backend._charge("suspend")
        self.runtime.transition(RunState.PAUSED)
        return {}

    def _cmd_cont(self, _args: Dict[str, Any]) -> Dict[str, Any]:
        self.backend._check_injected_failure(self.config.name)
        if self.runtime.state == RunState.RUNNING:
            return {}
        self._require(RunState.PAUSED)
        self.backend._charge("resume")
        self.runtime.transition(RunState.RUNNING)
        return {}

    def _cmd_system_powerdown(self, _args: Dict[str, Any]) -> Dict[str, Any]:
        self.backend._check_injected_failure(self.config.name)
        self._require(RunState.RUNNING)
        # guest-cooperative ACPI shutdown: charge the full powerdown time
        self.backend._charge("shutdown")
        self._exit()
        return {}

    def _cmd_system_reset(self, _args: Dict[str, Any]) -> Dict[str, Any]:
        self._require(RunState.RUNNING, RunState.PAUSED)
        self.backend._charge("reboot")
        self.runtime.transition(RunState.RUNNING)
        return {}

    def _cmd_quit(self, _args: Dict[str, Any]) -> Dict[str, Any]:
        self.backend._charge("destroy")
        self._exit()
        return {}

    def _cmd_balloon(self, args: Dict[str, Any]) -> Dict[str, Any]:
        value = args.get("value")
        if not isinstance(value, int) or value <= 0:
            raise _QmpFault("GenericError", f"bad balloon value {value!r}")
        new_kib = value // 1024
        if new_kib > self.runtime.max_memory_kib:
            raise _QmpFault(
                "GenericError",
                f"balloon target {new_kib} KiB above maximum "
                f"{self.runtime.max_memory_kib} KiB",
            )
        self.backend._charge("set_memory")
        self.backend.host.resize(self.config.name, memory_kib=new_kib)
        self.runtime.memory_kib = new_kib
        return {}

    def _cmd_query_balloon(self, _args: Dict[str, Any]) -> Dict[str, Any]:
        self.backend._charge("query")
        return {"actual": self.runtime.memory_kib * 1024}

    def _cmd_query_cpus(self, _args: Dict[str, Any]) -> List[Dict[str, Any]]:
        self.backend._charge("query")
        return [
            {"CPU": i, "current": i == 0, "halted": self.runtime.state != RunState.RUNNING}
            for i in range(self.runtime.vcpus)
        ]

    def _cmd_cpu_set(self, args: Dict[str, Any]) -> Dict[str, Any]:
        count = args.get("count")
        if not isinstance(count, int) or count < 1:
            raise _QmpFault("GenericError", f"bad vcpu count {count!r}")
        self.backend._charge("set_vcpus")
        self.backend.host.resize(self.config.name, vcpus=count)
        self.runtime.vcpus = count
        return {}

    def _cmd_device_add(self, args: Dict[str, Any]) -> Dict[str, Any]:
        path = args.get("drive")
        if not path:
            raise _QmpFault("GenericError", "device_add requires a drive path")
        self.backend._charge("attach_device")
        self.backend.images.attach(path, self.config.name)
        self.runtime.disk_paths.append(path)
        return {}

    def _cmd_device_del(self, args: Dict[str, Any]) -> Dict[str, Any]:
        path = args.get("drive")
        if path not in self.runtime.disk_paths:
            raise _QmpFault("DeviceNotFound", f"no attached drive {path!r}")
        self.backend._charge("detach_device")
        self.backend.images.detach(path, self.config.name)
        self.runtime.disk_paths.remove(path)
        return {}

    # -- helpers ---------------------------------------------------------

    def _require(self, *states: RunState) -> None:
        if self.runtime.state not in states:
            raise _QmpFault(
                "GenericError",
                f"guest is {self.runtime.state.value}; operation needs "
                + "/".join(s.value for s in states),
            )

    def _exit(self) -> None:
        self.runtime.transition(RunState.SHUTOFF)
        self.alive = False
        self.backend._teardown(self.runtime)
        self.backend._processes.pop(self.config.name, None)


class _QmpFault(Exception):
    def __init__(self, error_class: str, desc: str) -> None:
        super().__init__(desc)
        self.error_class = error_class
        self.desc = desc


def _qmp_error(error_class: str, desc: str) -> Dict[str, Any]:
    return {"error": {"class": error_class, "desc": desc}}


class QemuBackend(Backend):
    """The host-side emulator manager (``kvm=True`` for the KVM variant)."""

    def __init__(self, *args: Any, kvm: bool = True, **kwargs: Any) -> None:
        self.kind = "kvm" if kvm else "qemu"
        super().__init__(*args, **kwargs)
        self._processes: Dict[str, SimQemuProcess] = {}
        self._pids = itertools.count(1000)
        self._saved_state: Dict[str, Dict[str, Any]] = {}

    # -- process lifecycle (what libvirt's qemu driver does itself) ------

    def launch(self, config: DomainConfig, paused: bool = False) -> SimQemuProcess:
        """Fork+exec an emulator and boot the guest.

        Auto-creates any disk image the config references but that does
        not exist yet (the real driver pre-creates them via storage
        APIs; examples may skip that step).
        """
        self._check_injected_failure(config.name)
        with self._lock:
            if config.name in self._processes:
                from repro.errors import DomainExistsError

                raise DomainExistsError(f"guest {config.name!r} already active")
        self.host.allocate(config.name, config.vcpus, config.current_memory_kib)
        try:
            self._charge("create")
            process = SimQemuProcess(self, config, next(self._pids))
            for disk in config.disks:
                if not self.images.exists(disk.source):
                    self.images.create(
                        disk.source,
                        disk.capacity_bytes or 1024**3,
                        disk.driver_format,
                    )
                self.images.attach(disk.source, config.name)
                process.runtime.disk_paths.append(disk.source)
            self._charge("start", process.runtime.memory_gib)
        except Exception:
            self.host.release(config.name)
            self.images.detach_all(config.name)
            raise
        if paused:
            process.runtime.transition(RunState.PAUSED)
        with self._lock:
            self._processes[config.name] = process
        self._register(process.runtime)
        monitor = process.monitor
        monitor.greeting()
        monitor.execute("qmp_capabilities")
        return process

    def process(self, name: str) -> SimQemuProcess:
        with self._lock:
            process = self._processes.get(name)
        if process is None:
            raise NoDomainError(f"no active emulator process for {name!r}")
        return process

    def monitor(self, name: str) -> QmpMonitor:
        """The negotiated QMP monitor of a running guest."""
        return self.process(name).monitor

    def kill(self, name: str) -> None:
        """SIGKILL the emulator — the hard-destroy path."""
        process = self.process(name)
        self._charge("destroy")
        process._exit()

    # -- save/restore (managed save) --------------------------------------

    def save_to_file(self, name: str, path: str) -> Dict[str, Any]:
        """Serialize guest RAM to a state file and stop the emulator."""
        process = self.process(name)
        process.runtime.require_state(RunState.RUNNING, RunState.PAUSED)
        self._charge("save", process.runtime.memory_gib)
        blob = {
            "path": path,
            "uuid": process.runtime.uuid,
            "memory_kib": process.runtime.memory_kib,
            "vcpus": process.runtime.vcpus,
            "cpu_seconds": process.runtime.cpu_seconds,
        }
        self._saved_state[path] = blob
        process._exit()
        return blob

    def restore_from_file(self, config: DomainConfig, path: str) -> SimQemuProcess:
        """Recreate a guest from a state file produced by save_to_file."""
        blob = self._saved_state.get(path)
        if blob is None:
            raise NoDomainError(f"no saved state at {path!r}")
        process = self.launch(config, paused=True)
        self._charge("restore", process.runtime.memory_gib)
        process.runtime._cpu_seconds = blob["cpu_seconds"]
        process.runtime.uuid = blob["uuid"]
        process.monitor.execute("cont")
        del self._saved_state[path]
        return process

    def has_saved_state(self, path: str) -> bool:
        return path in self._saved_state
