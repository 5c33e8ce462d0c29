"""Crash-restart recovery: the daemon dies, the guests must not notice.

The paper's core claim is *non-intrusive* management: libvirtd is a
control plane, so killing and restarting it must leave every qemu
process running.  These tests script daemon kills at every seeded
opportunity along a mutating workload (mid-dispatch, mid-journal-write
with a torn record, post-journal before the reply) and assert that a
fresh incarnation over the same state directory converges:

* running guests keep their emulator process — same object, same
  start time — across the crash;
* acknowledged persistent config survives byte-identically;
* the recovered domain list exactly matches backend reality (no
  duplicates, no losses);
* a backup job interrupted by the crash ends FAILED, never wedged;
* a torn final journal record is detected and rolled back.
"""

import json
import pathlib
import shutil

import pytest

import repro
from repro.admin import admin_open
from repro.core.states import DomainState
from repro.core.uri import ConnectionURI
from repro.daemon.libvirtd import Libvirtd
from repro.daemon.registry import lookup_daemon
from repro.drivers.remote import RemoteDriver, ResilienceConfig
from repro.errors import ConnectionError_, DaemonCrashError, OperationTimeoutError, VirtError
from repro.faults import CrashHarness, CrashPlan, CrashPoint
from repro.observability.flightrec import interrupted_dispatches, read_tail
from repro.rpc.retry import RetryPolicy
from repro.state import StateDir, StateJournal
from repro.util.xmlutil import element_to_string
from repro.xmlconfig.domain import DiskDevice, DomainConfig
from repro.xmlconfig.storage import StoragePoolConfig

MiB = 1024**2
GiB = 1024**3
#: the census below, as recorded before journal writes moved ahead of publishing
CENSUS_FILE = pathlib.Path(__file__).resolve().parent / "data" / "crash_census.json"

#: the PR-1 resilient-client settings used throughout the reconnect tests
RESILIENT = dict(
    keepalive_interval=1.0,
    keepalive_count=2,
    retry=RetryPolicy(max_attempts=4, seed=0),
    auto_reconnect=True,
    reconnect_base_delay=0.2,
)


def plain_xml(name):
    return DomainConfig(name=name, domain_type="kvm", memory_kib=1024 * 1024,
                        vcpus=1).to_xml()


def disk_xml(name):
    return DomainConfig(
        name=name, domain_type="kvm", memory_kib=1024 * 1024, vcpus=1,
        disks=[DiskDevice(f"/img/{name}.qcow2", "vda", capacity_bytes=8 * GiB,
                          driver_format="qcow2")],
    ).to_xml()


def workload(harness, drv, acked):
    """The scripted mutation sequence the kill census is taken over.

    ``acked`` collects client-observed facts after each acknowledged
    call; whatever is in it when a crash interrupts the script is
    exactly what recovery must preserve.
    """
    drv.domain_define_xml(disk_xml("vmA"))
    acked["vmA_defined"] = True
    drv.domain_create("vmA")
    acked["vmA_running"] = True
    # dirty the disk so the later backup job has real bytes to move and
    # stays RUNNING until the crash interrupts it
    harness.backend.images.write("/img/vmA.qcow2", 256 * MiB)
    drv.domain_define_xml(plain_xml("vmP"))
    acked["vmP_xml"] = drv.domain_get_xml_desc("vmP")
    drv.domain_set_autostart("vmA", True)
    acked["vmA_autostart"] = True
    drv.storage_pool_define_xml(
        StoragePoolConfig(name="backups", capacity_bytes=100 * GiB).to_xml()
    )
    drv.storage_pool_create("backups")
    acked["pool"] = True
    drv.backup_begin("vmA", {"pool": "backups"})
    acked["backup_started"] = True
    drv.domain_define_xml(plain_xml("vmB"))
    drv.domain_create("vmB")
    acked["vmB_running"] = True


def run_until_crash(harness, plan):
    """Drive the workload against a crash-armed daemon; returns the
    client, the acked facts, and whether the plan actually fired."""
    harness.start(plan)
    drv = harness.connect(**RESILIENT)
    acked = {}
    crashed = False
    try:
        workload(harness, drv, acked)
    except DaemonCrashError:
        crashed = True
    return drv, acked, crashed


def assert_converged(harness, drv, acked, pre_procs, pre_started):
    """The recovery contract, checked after every kill point."""
    recovered = harness.driver()
    stats = harness.daemon.recovery["qemu"]
    assert stats["recovered"]

    # 1. non-intrusive: every guest running at crash time still runs on
    #    the *same* emulator process with its original start time
    for name, process in pre_procs.items():
        assert harness.backend.process(name) is process, name
        assert harness.backend._guests[name].started_at == pre_started[name]

    # 2. the recovered view exactly matches backend reality
    running = sorted(recovered.list_domains())
    assert running == harness.backend.list_guests()
    defined = recovered.list_defined_domains()
    assert not set(running) & set(defined), "a domain listed twice"

    # 3. acknowledged facts survive
    if acked.get("vmA_running"):
        assert "vmA" in running
    if acked.get("vmA_autostart"):
        assert recovered.domain_get_autostart("vmA") is True
    if "vmP_xml" in acked:
        assert recovered.domain_get_xml_desc("vmP") == acked["vmP_xml"]
    if acked.get("vmB_running"):
        assert "vmB" in running

    # 4. no wedged jobs: anything interrupted is FAILED, nothing RUNNING
    assert recovered.jobs.active_domains() == []
    if acked.get("backup_started"):
        info = recovered.domain_get_job_info("vmA")
        assert info.get("phase") == "failed"
        assert "interrupted" in info.get("error", "")
        # the partial backup volume was rolled back
        if acked.get("pool"):
            assert recovered.storage_vol_list("backups") == []

    # 5. the restarted daemon serves the reconnecting PR-1 client
    assert sorted(drv.list_domains()) == running
    drv.domain_define_xml(plain_xml("postcrash"))
    assert "postcrash" in drv.list_defined_domains()


class TestCrashRecoveryProperty:
    """Replay the workload once per kill opportunity in the census."""

    def _census(self, tmp_path):
        harness = CrashHarness(str(tmp_path / "census"), hostname="census")
        plan = CrashPlan()
        drv, acked, crashed = run_until_crash(harness, plan)
        assert not crashed and acked.get("vmB_running")
        # snapshot before shutdown: draining fails the live backup job,
        # whose final journal writes are kill points the workload alone
        # can never reach again on replay
        census = list(plan.opportunities)
        harness.shutdown()
        return census

    def test_recovery_converges_at_every_kill_point(self, tmp_path):
        census = self._census(tmp_path)
        assert len(census) >= 20
        points = {point for point, _ in census}
        assert points == {
            CrashPoint.MID_DISPATCH, CrashPoint.MID_JOURNAL, CrashPoint.POST_JOURNAL
        }

        for index, (point, op) in enumerate(census):
            harness = CrashHarness(
                str(tmp_path / f"kill{index}"), hostname=f"kill{index}"
            )
            plan = CrashPlan().at(index)
            drv, acked, crashed = run_until_crash(harness, plan)
            assert crashed, f"opportunity {index} ({point.value} {op}) did not fire"
            assert plan.injected[0].index == index

            pre_procs = {
                name: harness.backend.process(name)
                for name in harness.backend.list_guests()
            }
            pre_started = {
                name: harness.backend._guests[name].started_at for name in pre_procs
            }
            harness.restart()
            assert_converged(harness, drv, acked, pre_procs, pre_started)
            if point is CrashPoint.MID_JOURNAL:
                # the torn final record must be detected and rolled back
                assert harness.daemon.recovery["qemu"]["torn_tail_discarded"]
            harness.shutdown()
            drv.close()

    def test_census_is_unchanged_by_journalling_before_publishing(self, tmp_path):
        """Every mutation journals the same records in the same order as
        when it published first: the kill points are the recorded ones."""
        census = [[point.value, op] for point, op in self._census(tmp_path)]
        assert census == json.loads(CENSUS_FILE.read_text())

    def test_post_journal_crash_preserves_unacknowledged_mutation(self, tmp_path):
        """A POST_JOURNAL kill is the at-least-once corner: the client
        never saw the reply, but the journalled mutation must survive."""
        harness = CrashHarness(str(tmp_path / "pj"), hostname="pj")
        plan = CrashPlan().crash(CrashPoint.POST_JOURNAL, op="domain.define_xml")
        harness.start(plan)
        drv = harness.connect(**RESILIENT)
        with pytest.raises(DaemonCrashError):
            drv.domain_define_xml(plain_xml("ghost"))
        harness.restart()
        assert "ghost" in harness.driver().list_defined_domains()

    def test_mid_dispatch_crash_mutates_nothing(self, tmp_path):
        harness = CrashHarness(str(tmp_path / "md"), hostname="md")
        plan = CrashPlan().crash(CrashPoint.MID_DISPATCH, op="domain.define_xml")
        harness.start(plan)
        drv = harness.connect(**RESILIENT)
        with pytest.raises(DaemonCrashError):
            drv.domain_define_xml(plain_xml("never"))
        harness.restart()
        recovered = harness.driver()
        assert "never" not in recovered.list_defined_domains()
        assert recovered.list_domains() == []


def replay_journal(state_root, copy):
    """The driver journal as recovery would replay it, read from a copy
    (loading truncates a torn tail, and the original is recovery's)."""
    shutil.copytree(state_root / "qemu", copy)
    return StateJournal(StateDir(str(copy))).entries("domain")


class TestTornMutationIsNeverAnnounced:
    """A ``MID_JOURNAL`` kill on a domain record tears the mutation before
    anyone hears of it.  The backend may already have acted (a guest
    started or stopped), which recovery reconciles against the hypervisor;
    what it replays from the journal is exactly what subscribers were told."""

    @pytest.mark.parametrize("procedure", ["domain.define_xml", "domain.create", "domain.destroy"])
    def test_nobody_hears_a_torn_mutation(self, tmp_path, procedure):
        root = tmp_path / "torn"
        harness = CrashHarness(str(root), hostname="torn")
        plan = CrashPlan()
        harness.start(plan)
        actor = harness.connect()
        if procedure != "domain.define_xml":
            actor.domain_define_xml(plain_xml("g1"))
        if procedure == "domain.destroy":
            actor.domain_create("g1")
        heard = []
        harness.driver().events.subscribe(heard.append)
        harness.driver().events.register(lambda *event: heard.append(event))
        watcher = RemoteDriver(ConnectionURI.parse(harness.uri + "?cache=1"))
        watcher.event_bus_subscribe(heard.append)
        told = {} if procedure == "domain.define_xml" else {"g1": watcher.domain_get_state("g1")}
        invalidations = watcher.cache.invalidations
        journalled = replay_journal(root, tmp_path / "before")

        plan.crash(CrashPoint.MID_JOURNAL, op="domain:g1")
        call = {
            "domain.define_xml": lambda: actor.domain_define_xml(plain_xml("g1")),
            "domain.create": lambda: actor.domain_create("g1"),
            "domain.destroy": lambda: actor.domain_destroy("g1"),
        }[procedure]
        with pytest.raises(DaemonCrashError):
            call()
        assert [(event.point, event.op) for event in plan.injected] == [(CrashPoint.MID_JOURNAL, "domain:g1")]

        # no bus subscriber, legacy callback or cached remote client heard it
        assert heard == []
        assert watcher.cache.invalidations == invalidations
        assert {name: watcher.domain_get_state(name) for name in told} == told
        # recovery replays what they were told: the journal from before the call
        assert replay_journal(root, tmp_path / "after") == journalled
        harness.restart()
        recovered = harness.driver()
        assert set(recovered.list_domains()) | set(recovered.list_defined_domains()) == set(told)
        expected = {"domain.create": DomainState.RUNNING, "domain.destroy": DomainState.SHUTOFF}
        if procedure in expected:
            # reality moved before the tear: recovery defers to the hypervisor
            assert recovered.domain_get_state("g1") == expected[procedure]
        harness.shutdown()


class TestNonIntrusiveRestart:
    def test_unknown_running_guest_is_adopted(self, tmp_path):
        """A guest launched outside the daemon's journal (the libvirt
        'other tools keep working' scenario) is adopted, not killed."""
        harness = CrashHarness(str(tmp_path / "adopt"), hostname="adopt")
        harness.start()
        cfg = DomainConfig(name="rogue", domain_type="kvm",
                           memory_kib=1024 * 1024, vcpus=2)
        harness.backend.launch(cfg)
        harness.daemon.crash()
        harness.restart()
        recovered = harness.driver()
        stats = harness.daemon.recovery["qemu"]
        assert stats["adopted"] == 1
        assert "rogue" in recovered.list_domains()
        info = recovered.domain_get_info("rogue")
        assert info["vcpus"] == 2

    def test_transient_domain_without_guest_is_dropped(self, tmp_path):
        harness = CrashHarness(str(tmp_path / "trans"), hostname="trans")
        plan = CrashPlan().crash(CrashPoint.POST_JOURNAL, op="domain.create_xml")
        harness.start(plan)
        drv = harness.connect(**RESILIENT)
        with pytest.raises(DaemonCrashError):
            drv.domain_create_xml(plain_xml("fleeting"))
        # the guest outlived the daemon; kill it behind recovery's back
        harness.backend.kill("fleeting")
        harness.restart()
        recovered = harness.driver()
        assert harness.daemon.recovery["qemu"]["dropped_transient"] == 1
        assert "fleeting" not in recovered.list_domains()
        assert "fleeting" not in recovered.list_defined_domains()

    def test_persistent_domain_without_guest_stays_defined(self, tmp_path):
        harness = CrashHarness(str(tmp_path / "pers"), hostname="pers")
        harness.start()
        drv = harness.connect(**RESILIENT)
        drv.domain_define_xml(plain_xml("keeper"))
        drv.domain_create("keeper")
        harness.backend.kill("keeper")  # guest died while the daemon ran on
        harness.daemon.crash()
        harness.restart()
        recovered = harness.driver()
        assert "keeper" in recovered.list_defined_domains()
        assert "keeper" not in recovered.list_domains()


class TestDocumentRoundTrip:
    def test_redefining_a_text_sees_the_text_not_what_the_driver_made_of_it(self, tmp_path):
        """define → ``get_xml_desc`` → journal → ``recover_state``, twice over
        one text.  The driver mutates the config it parsed in place; the
        second define parses the same text and must get the document, not
        that config (``DomainConfig.from_xml`` remembers texts)."""
        harness = CrashHarness(str(tmp_path / "twice"), hostname="twice")
        harness.start()
        drv = harness.connect(**RESILIENT)
        text = DomainConfig(
            name="twice", domain_type="kvm", uuid="123e4567-e89b-42d3-a456-426614174000",
            memory_kib=1024 * 1024, vcpus=1,
            disks=[DiskDevice("/img/twice.qcow2", "vda", capacity_bytes=8 * GiB)],
        ).to_xml()
        drv.domain_define_xml(text)
        assert drv.domain_get_xml_desc("twice") == text
        drv.domain_set_memory("twice", 512 * 1024)
        extra = DiskDevice("/img/extra.qcow2", "vdb", capacity_bytes=GiB)
        drv.domain_attach_device("twice", element_to_string(extra.to_element()))
        mutated = drv.domain_get_xml_desc("twice")
        assert mutated != text and DomainConfig.from_xml(mutated).disks[1] == extra
        harness.daemon.crash()
        harness.restart()
        drv = harness.connect(**RESILIENT)
        assert drv.domain_get_xml_desc("twice") == mutated

        drv.domain_undefine("twice")
        drv.domain_define_xml(text)
        assert drv.domain_get_xml_desc("twice") == text
        harness.daemon.crash()
        harness.restart()
        assert harness.driver().domain_get_xml_desc("twice") == text
        assert DomainConfig.from_xml(text).to_xml() == text


class TestGracefulShutdown:
    def _daemon(self, tmp_path):
        daemon = Libvirtd(hostname="drain1", state_dir=str(tmp_path / "state"))
        daemon.listen("tcp")
        return daemon

    def _client(self):
        return RemoteDriver(
            ConnectionURI.parse("qemu+tcp://drain1/system"),
            resilience=ResilienceConfig(**RESILIENT),
        )

    def test_drain_notifies_flushes_and_closes_cleanly(self, tmp_path):
        daemon = self._daemon(tmp_path)
        daemon.enable_keepalive(30.0)
        daemon.enable_stats_logging(60.0)
        drv = self._client()
        drv.domain_define_xml(plain_xml("vm1"))
        assert daemon.eventloop.pending() == 2

        daemon.shutdown()

        # the shutdown notice beat the close, and the close was clean:
        # the client's link shows an orderly shutdown, not a severed one
        assert drv.shutdown_notices == [{"hostname": "drain1"}]
        assert drv.client.closed and not drv.client.dead
        assert drv.connection_events == []
        # maintenance timers are gone — nothing fires into a dead daemon
        assert daemon.eventloop.pending() == 0
        # the journal was flushed into a snapshot: the next incarnation
        # recovers from the snapshot alone, no tail replay
        fresh = Libvirtd(hostname="drain1b", state_dir=str(tmp_path / "state"))
        qemu = next(
            d for d in fresh._unique_drivers() if getattr(d, "name", "") == "qemu"
        )
        assert "vm1" in qemu.list_defined_domains()
        assert fresh.recovery["qemu"]["replayed_records"] == 0
        fresh.shutdown()

    def test_drain_fails_active_jobs(self, tmp_path):
        daemon = self._daemon(tmp_path)
        drv = self._client()
        drv.domain_define_xml(disk_xml("vmJ"))
        drv.domain_create("vmJ")
        drv.storage_pool_define_xml(
            StoragePoolConfig(name="backups", capacity_bytes=100 * GiB).to_xml()
        )
        drv.storage_pool_create("backups")
        qemu = daemon.drivers["qemu"]
        qemu.backend.images.write("/img/vmJ.qcow2", 256 * MiB)
        drv.backup_begin("vmJ", {"pool": "backups"})
        assert qemu.jobs.active_domains() == ["vmJ"]

        daemon.shutdown()

        info = qemu.jobs.info("vmJ")
        assert info["phase"] == "failed"
        assert "shut down" in info["error"]
        assert qemu.storage_vol_list("backups") == []

    def test_reconnecting_client_sees_clean_close_not_timeout(self, tmp_path):
        """The PR-1 satellite: a client severed by daemon shutdown gets
        exactly one clean close — reconnect then fails fast against the
        deregistered hostname instead of spinning on keepalive."""
        daemon = self._daemon(tmp_path)
        drv = self._client()
        drv.ping()
        daemon.shutdown()
        assert drv.client.closed and not drv.client.dead
        with pytest.raises(ConnectionError_):
            drv.ping()
        # one reconnect attempt was made and reported, nothing spurious
        assert len(drv.connection_events) == 1
        assert drv.connection_events[0].reconnected is False

    def test_shutdown_is_idempotent(self, tmp_path):
        daemon = self._daemon(tmp_path)
        daemon.shutdown()
        daemon.shutdown()
        daemon.crash()  # a dead daemon cannot crash again either

    def test_disconnect_client_closes_cleanly(self, tmp_path):
        daemon = self._daemon(tmp_path)
        drv = self._client()
        drv.ping()
        client_id = daemon.list_clients("libvirtd")[0]["id"]
        daemon.disconnect_client(client_id)
        assert drv.client.closed and not drv.client.dead
        assert daemon.list_clients("libvirtd") == []


class TestAdminShutdown:
    def _setup(self, tmp_path, hostname="adm1"):
        daemon = Libvirtd(hostname=hostname, state_dir=str(tmp_path / "state"))
        daemon.listen("tcp")
        daemon.enable_admin()
        return daemon

    def test_graceful_shutdown_via_admin(self, tmp_path):
        daemon = self._setup(tmp_path)
        conn = admin_open("adm1")
        assert conn.daemon_shutdown() == {"initiated": "graceful"}
        # the reply left first; teardown runs on the next tick
        assert lookup_daemon("adm1") is daemon
        daemon.tick()
        with pytest.raises(VirtError):
            lookup_daemon("adm1")

    def test_crash_shutdown_via_admin_skips_flush(self, tmp_path):
        daemon = self._setup(tmp_path)
        drv = RemoteDriver(
            ConnectionURI.parse("qemu+tcp://adm1/system"),
            resilience=ResilienceConfig(**RESILIENT),
        )
        drv.domain_define_xml(plain_xml("vm1"))
        conn = admin_open("adm1")
        assert conn.daemon_shutdown(graceful=False) == {"initiated": "crash"}
        daemon.tick()
        with pytest.raises(VirtError):
            lookup_daemon("adm1")
        # kill -9: no shutdown notice, the link was severed not closed
        assert drv.shutdown_notices == []
        # ... but the pre-crash journal record still recovers
        fresh = Libvirtd(hostname="adm1b", state_dir=str(tmp_path / "state"))
        qemu = next(
            d for d in fresh._unique_drivers() if getattr(d, "name", "") == "qemu"
        )
        assert "vm1" in qemu.list_defined_domains()
        fresh.shutdown()

    def test_bad_mode_rejected(self, tmp_path):
        daemon = self._setup(tmp_path)
        conn = admin_open("adm1")
        with pytest.raises(VirtError):
            conn._client.call("admin.daemon_shutdown", {"mode": "violently"})
        daemon.shutdown()


class TestCrashOnTheReceivingThread:
    """A non-blocking row runs its handler on the thread that delivered
    the CALL.  A kill point hit there must look to the client like one
    hit on a worker: a reply that never comes, never the daemon's own
    ``DaemonCrashError``.  (The pool-less daemon of ``CrashHarness``
    keeps raising it through the caller — the census above depends on it.)"""

    @pytest.mark.parametrize("point", [CrashPoint.MID_DISPATCH, CrashPoint.POST_JOURNAL])
    def test_inline_and_pooled_rows_fail_alike(self, tmp_path, point):
        seen = {}
        for lane, procedure in (("inline", "domain.get_info"), ("pooled", "domain.suspend")):
            state_dir = tmp_path / lane
            daemon = Libvirtd(hostname="recv-crash", state_dir=str(state_dir))
            daemon.listen("tcp")
            conn = repro.open_connection("qemu+tcp://recv-crash/system")
            conn._driver.domain_define_xml(plain_xml("g"))
            conn._driver.domain_create("g")
            client = conn._driver.client
            daemon.install_crash_plan(CrashPlan().crash(point))
            started = daemon.clock.now()
            pending = client.call_async(procedure, {"name": "g"}, timeout=5.0)
            if lane == "inline":
                assert pending.done()  # resolved as lost before dispatch returned
            with pytest.raises(VirtError) as caught:
                pending.result()
            seen[lane] = (type(caught.value), pytest.approx(daemon.clock.now() - started))
            assert client._channel.inflight_requests == 0
            assert client.calls_in_flight == 0
            daemon.pool.shutdown()

            # the daemon's last words and the dispatch it died in are on disk
            tail = read_tail(StateDir(str(state_dir / "flightrec")))
            (crash,) = [r for r in tail if r["kind"] == "crash"]
            assert (crash["point"], crash["procedure"]) == (point.value, procedure)
            (begun,) = interrupted_dispatches(tail)
            assert (begun["procedure"], begun["serial"]) == (procedure, pending.serial)

            with Libvirtd(hostname="recv-crash", state_dir=str(state_dir)) as reborn:
                (span,) = [
                    s for s in reborn.tracer.export()
                    if s["attributes"].get("status") == "interrupted"
                ]
                assert span["span_id"] == begun["span_id"]
                assert span["attributes"]["serial"] == pending.serial
        assert seen["inline"] == seen["pooled"] == (OperationTimeoutError, 5.0)


@pytest.mark.stress
class TestCrashSoak:
    def test_seeded_crash_storm_converges(self, tmp_path):
        """Many seeds, probabilistic kill points, repeated restarts: the
        recovered view must match backend reality after every cycle."""
        for seed in range(8):
            harness = CrashHarness(
                str(tmp_path / f"soak{seed}"), hostname=f"soak{seed}"
            )
            plan = CrashPlan(seed=seed).crash(probability=0.08, times=-1)
            harness.start(plan)
            drv = harness.connect(**RESILIENT)
            for step in range(40):
                name = f"vm{step % 6}"
                try:
                    if name in drv.list_defined_domains():
                        drv.domain_create(name)
                    elif name in drv.list_domains():
                        drv.domain_destroy(name)
                    else:
                        drv.domain_define_xml(plain_xml(name))
                except DaemonCrashError:
                    harness.restart()
                    harness.daemon.install_crash_plan(plan)
                except ConnectionError_:
                    harness.restart()
                    harness.daemon.install_crash_plan(plan)
                except VirtError:
                    pass  # a raced duplicate define after replay is fine
                recovered = harness.driver()
                assert sorted(recovered.list_domains()) == (
                    harness.backend.list_guests()
                )
            harness.shutdown()
            drv.close()
