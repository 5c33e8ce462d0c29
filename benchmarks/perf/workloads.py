"""The four closed-loop workloads of the management call path.

Each workload builds a real in-process ``Libvirtd`` (tracer, metrics and
flight recorder on, ``unix`` transport, ``VirtualClock``) plus its
fixture from ``--seed``, exposes one timed ``op`` per closed-loop client
and an untimed ``check`` of that op's output, and finishes with checks
over the whole run.  The program under test only ever sees the
generated inputs; the seed never reaches it.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from typing import Any, Dict, List, Tuple

import repro
from repro.core.domain import Domain
from repro.core.states import DomainState
from repro.daemon import Libvirtd
from repro.util import uuidutil
from repro.xmlconfig.domain import DiskDevice, DomainConfig, InterfaceDevice
from repro.xmlconfig.storage import StoragePoolConfig, VolumeConfig

MiB = 1024 * 1024
RUNNING = int(DomainState.RUNNING)
SHUTOFF = int(DomainState.SHUTOFF)

#: (memory KiB, disks, NICs): four XML shapes, dealt out in equal numbers
#: so the mean document size does not depend on the seed.  One vCPU each:
#: the default host admits 32 vCPUs and ``read_small`` runs 32 guests.
XML_SHAPES = ((131072, 1, 1), (262144, 1, 2), (131072, 2, 1), (262144, 2, 2))

Check = Tuple[str, bool, str]


def guest_configs(rng: random.Random, count: int, prefix: str) -> List[DomainConfig]:
    """``count`` guest configs: equal numbers of each XML shape, dealt
    to names in seeded order, with seeded UUIDs and fixed-width fields."""
    shapes = [XML_SHAPES[i % len(XML_SHAPES)] for i in range(count)]
    rng.shuffle(shapes)
    configs = []
    for index, (memory, ndisks, nnics) in enumerate(shapes):
        name = f"{prefix}{index:03d}"
        configs.append(
            DomainConfig(
                name=name,
                domain_type="kvm",
                uuid=uuidutil.generate_uuid(rng),
                memory_kib=memory,
                vcpus=1,
                disks=[
                    DiskDevice(f"/var/lib/images/{name}-{d}.qcow2", f"vd{'ab'[d]}", capacity_bytes=MiB)
                    for d in range(ndisks)
                ],
                interfaces=[
                    InterfaceDevice(mac=f"52:54:00:{n:02x}:{index // 256:02x}:{index % 256:02x}")
                    for n in range(nnics)
                ],
            )
        )
    return configs


class Workload:
    """Base: one daemon, ``clients`` closed-loop connections."""

    name = ""
    clients = 1
    hostname = "perfhost"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.daemon: Any = None
        self.conns: List[Any] = []
        self.state_dir: "str | None" = None

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        """Daemon construction + fixture build; timed as ``setup_s``."""
        raise NotImplementedError

    def _start_daemon(self, **kwargs: Any) -> None:
        self.daemon = Libvirtd(hostname=self.hostname, **kwargs)
        self.daemon.listen("unix")

    def _connect(self, query: str = "") -> Any:
        conn = repro.open_connection(f"qemu+unix://{self.hostname}/system{query}")
        self.conns.append(conn)
        return conn

    def teardown(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.daemon is not None:
            self.daemon.shutdown()
            self.daemon = None

    # -- the closed loop ---------------------------------------------------

    def op(self, client: int, k: int) -> Any:
        """The ``k``-th operation of closed-loop client ``client`` (timed)."""
        raise NotImplementedError

    def check(self, client: int, k: int, result: Any) -> bool:
        """Is ``result`` the correct output of that operation (untimed)?"""
        raise NotImplementedError

    def channels(self) -> List[Any]:
        return [conn._driver.client._channel for conn in self.conns]

    def final_checks(self) -> List[Check]:
        """Whole-run invariants, evaluated once after the last slice."""
        return []

    def counters(self) -> Dict[str, float]:
        """Workload-side counts the per-layer report needs."""
        return {}


class ReadSmall(Workload):
    """One connection, one tiny RPC per op: 50 % ``domain.get_info``,
    40 % ``domain.get_state``, 10 % ``connect.ping`` over 64 guests."""

    name = "read_small"
    GUESTS = 64
    MIX = ("info",) * 500 + ("state",) * 400 + ("ping",) * 100

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self._start_daemon()
        conn = self._connect()
        self.configs = guest_configs(rng, self.GUESTS, "g")
        running = set(rng.sample(range(self.GUESTS), self.GUESTS // 2))
        for index in rng.sample(range(self.GUESTS), self.GUESTS):
            domain = conn.define_domain(self.configs[index])
            if index in running:
                domain.start()
        self.expected_state = [RUNNING if i in running else SHUTOFF for i in range(self.GUESTS)]
        self.order = rng.sample(range(self.GUESTS), self.GUESTS)
        self.mix = list(self.MIX)
        rng.shuffle(self.mix)
        self.driver = conn._driver

    def op(self, client: int, k: int) -> Any:
        kind = self.mix[k % len(self.mix)]
        if kind == "ping":
            return self.driver.ping()
        name = self.configs[self.order[k % self.GUESTS]].name
        if kind == "info":
            return self.driver.domain_get_info(name)
        return self.driver.domain_get_state(name)

    def check(self, client: int, k: int, result: Any) -> bool:
        kind = self.mix[k % len(self.mix)]
        if kind == "ping":
            return result == "pong"
        index = self.order[k % self.GUESTS]
        if kind == "state":
            return result == self.expected_state[index]
        config = self.configs[index]
        return (
            result["state"] == self.expected_state[index]
            and result["max_memory_kib"] == config.memory_kib
            and result["vcpus"] == config.vcpus
        )


class LifecycleDurable(Workload):
    """The write side: connection A cycles a guest through six journalled
    mutations while connection B watches through its event-driven cache.

    The cycle is undefine → define → start → suspend → resume → destroy
    (the issue's six procedures, rotated so the guest still exists when B
    reads it); B then reads the state of that guest and of 3 others plus
    both domain lists.
    """

    name = "lifecycle_durable"
    GUESTS = 16
    WATCHED = 3

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.state_dir = os.path.join(self.workdir, "state")
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self._start_daemon(state_dir=self.state_dir)
        self.conn_a = self._connect()
        self.conn_b = self._connect("?cache=1")
        self.configs = guest_configs(rng, self.GUESTS, "w")
        self.xml = [config.to_xml() for config in self.configs]
        for index in rng.sample(range(self.GUESTS), self.GUESTS):
            self.conn_a.define_domain(self.xml[index])
        self.order = rng.sample(range(self.GUESTS), self.GUESTS)
        self.watch = [
            rng.sample([i for i in range(self.GUESTS) if i != g], self.WATCHED)
            for g in range(self.GUESTS)
        ]
        self.names = sorted(config.name for config in self.configs)
        self.watchers = [Domain(self.conn_b, config.name) for config in self.configs]
        self.bus_seqs: List[int] = []
        self.conn_b.subscribe_events(lambda record: self.bus_seqs.append(record["seq"]))
        self.bus = self.daemon.drivers["qemu"].events
        self.bus_first = self.bus.published + 1
        # model of B's cache, to predict its hit ratio exactly
        self.cached: set = set()
        self.predicted_hits = 0
        self.predicted_lookups = 0
        cache = self.conn_b._driver.cache
        self.cache_base = (cache.hits, cache.misses)

    def op(self, client: int, k: int) -> Any:
        index = self.order[k % self.GUESTS]
        name = self.configs[index].name
        a = self.conn_a._driver
        a.domain_undefine(name)
        a.domain_define_xml(self.xml[index])
        a.domain_create(name)
        a.domain_suspend(name)
        a.domain_resume(name)
        a.domain_destroy(name)
        states = [self.watchers[i].state() for i in [index] + self.watch[index]]
        listed = self.conn_b.list_domains()
        return states, listed

    def check(self, client: int, k: int, result: Any) -> bool:
        index = self.order[k % self.GUESTS]
        # the six mutations invalidated the guest's entries and the lists
        self.cached.discard(index)
        for i in [index] + self.watch[index]:
            self.predicted_lookups += 1
            if i in self.cached:
                self.predicted_hits += 1
            self.cached.add(i)
        self.predicted_lookups += 2  # active + inactive list, always refetched
        states, listed = result
        return (
            all(state == DomainState.SHUTOFF for state in states)
            and [domain.name for domain in listed] == self.names
        )

    def _cache_counts(self) -> Tuple[int, int]:
        """(hits, lookups) of B's cache since set-up."""
        cache = self.conn_b._driver.cache
        hits = cache.hits - self.cache_base[0]
        return hits, hits + cache.misses - self.cache_base[1]

    def final_checks(self) -> List[Check]:
        checks: List[Check] = []
        seqs = self.bus_seqs
        published = self.bus.published
        gap_free = all(b - a == 1 for a, b in zip(seqs, seqs[1:]))
        complete = bool(seqs) and seqs[0] == self.bus_first and seqs[-1] == published
        checks.append(("bus_seq_gap_free", gap_free, f"{len(seqs)} records"))
        checks.append(("bus_complete", complete, f"daemon published up to seq {published}"))
        hits, lookups = self._cache_counts()
        checks.append(
            (
                "cache_hit_ratio_as_predicted",
                (hits, lookups) == (self.predicted_hits, self.predicted_lookups),
                f"{hits}/{lookups} observed, {self.predicted_hits}/{self.predicted_lookups} predicted",
            )
        )
        # durability: kill the daemon with no flush, recover a second one
        # from the same directory, compare what each believes exists
        driver = self.daemon.drivers["qemu"]
        live = (sorted(driver.list_domains()), sorted(driver.list_defined_domains()))
        self.daemon.crash()
        for pool in self.daemon.server_pools.values():
            pool.shutdown()
        self.daemon = None
        self.conns = []
        recovered = Libvirtd(hostname=self.hostname + "-recovered", state_dir=self.state_dir)
        try:
            again = recovered.drivers["qemu"]
            found = (sorted(again.list_domains()), sorted(again.list_defined_domains()))
        finally:
            recovered.shutdown()
        checks.append(
            ("recovered_domains_match", found == live, f"{len(found[0])} active, {len(found[1])} defined")
        )
        return checks

    def counters(self) -> Dict[str, float]:
        hits, lookups = self._cache_counts()
        return {"core.cache.hit_ratio": hits / lookups if lookups else 0.0}


class StreamBulk(Workload):
    """One connection; each op moves 4 MiB up and the same 4 MiB back down
    (16 x 256 KiB chunks each way) over the stream plane, on one volume.

    One op is the pair, not a single transfer: an upload takes 1.4x as
    long as a download, and the median of their half-and-half mix falls
    in the gap between the two, where it does not repeat.
    """

    name = "stream_bulk"
    PAYLOAD_BYTES = 4 * MiB

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self._start_daemon()
        conn = self._connect()
        pool = conn.define_storage_pool(StoragePoolConfig(name="bulk", capacity_bytes=1024 * MiB))
        pool.start()
        self.volume = pool.create_volume(
            VolumeConfig(name="bulk.raw", capacity_bytes=64 * MiB, volume_format="raw")
        )
        self.payloads = [rng.randbytes(self.PAYLOAD_BYTES) for _ in range(2)]
        self.digests = [hashlib.sha256(p).digest() for p in self.payloads]

    def op(self, client: int, k: int) -> Any:
        uploaded = self.volume.upload(self.payloads[k % 2])
        return uploaded, self.volume.download(0, self.PAYLOAD_BYTES)

    def check(self, client: int, k: int, result: Any) -> bool:
        uploaded, downloaded = result
        return (
            uploaded.allocation_bytes >= self.PAYLOAD_BYTES
            and hashlib.sha256(downloaded).digest() == self.digests[k % 2]
        )

    def final_checks(self) -> List[Check]:
        active = self.daemon.rpc.active_streams()
        open_client = self.conns[0]._driver.client.streams_open
        clean = active == 0 and open_client == 0
        return [("stream_active_zero", clean, f"{active} daemon, {open_client} client")]


class MonitorSweep(Workload):
    """Two connections on two closed-loop threads; each op is one
    monitoring sweep over 128 guests (12 running)."""

    name = "monitor_sweep"
    clients = 2
    GUESTS = 128
    RUNNING_GUESTS = 12
    XML_PER_SWEEP = 16

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self._start_daemon()
        first = self._connect()
        self._connect()
        self.configs = guest_configs(rng, self.GUESTS, "m")
        running = set(rng.sample(range(self.GUESTS), self.RUNNING_GUESTS))
        for index in rng.sample(range(self.GUESTS), self.GUESTS):
            domain = first.define_domain(self.configs[index])
            if index in running:
                domain.start()
        self.names = sorted(config.name for config in self.configs)
        self.running_names = sorted(self.configs[i].name for i in running)
        self.by_name = {config.name: config for config in self.configs}
        # each client walks its own seeded sequence of guests to describe
        self.picks = [
            [rng.randrange(self.GUESTS) for _ in range(4096)] for _ in range(self.clients)
        ]

    def _picked(self, client: int, k: int) -> List[int]:
        picks = self.picks[client]
        start = (k * self.XML_PER_SWEEP) % len(picks)
        return picks[start : start + self.XML_PER_SWEEP]

    def op(self, client: int, k: int) -> Any:
        conn = self.conns[client]
        domains = conn.list_domains()
        stats = conn.get_all_domain_stats()
        parsed = []
        for index in self._picked(client, k):
            domain = Domain(conn, self.configs[index].name)
            parsed.append(DomainConfig.from_xml(domain.xml_desc()))
        return domains, stats, parsed

    def check(self, client: int, k: int, result: Any) -> bool:
        domains, stats, parsed = result
        if [d.name for d in domains] != self.names:
            return False
        if sorted(s["name"] for s in stats) != self.running_names:
            return False
        if any(s["state"] != RUNNING for s in stats):
            return False
        for index, config in zip(self._picked(client, k), parsed):
            want = self.configs[index]
            if (config.name, config.uuid, config.memory_kib, config.vcpus) != (
                want.name, want.uuid, want.memory_kib, want.vcpus
            ):
                return False
        return True


WORKLOADS = {cls.name: cls for cls in (ReadSmall, LifecycleDurable, StreamBulk, MonitorSweep)}
