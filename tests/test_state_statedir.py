"""The durable tail's append discipline: held descriptors, one encode.

``StateDir.append`` is one ``write(2)`` on an ``O_APPEND`` descriptor the
directory keeps open, the journal and the flight recorder encode each
record once, and compaction joins the lines it kept.  None of that may
change a byte on disk or weaken "a crash never un-writes an append" —
these tests pin the descriptor's lifetime against ``write_atomic`` /
``truncate`` / ``remove``, the two concurrency bugs the old paths had,
the on-disk format against files the previous code wrote, and the
guarantee itself against a real ``SIGKILL``.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading

import pytest

import repro
from repro.daemon.libvirtd import Libvirtd
from repro.observability import flightrec
from repro.observability.flightrec import (
    FLIGHT_FILE,
    FlightRecorder,
    interrupted_dispatches,
    read_tail,
)
from repro.state import StateDir, StateJournal
from repro.xmlconfig.domain import DomainConfig

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
STATE_V1 = os.path.join(os.path.dirname(__file__), "data", "state_v1")


@pytest.fixture()
def statedir(tmp_path):
    return StateDir(str(tmp_path / "state"))


def fresh(statedir):
    """A second StateDir on the same root: reads through the path, so it
    sees what the directory holds, not what a held descriptor points at."""
    return StateDir(statedir.root)


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def hammer(threads, work):
    """Run ``work(index)`` on ``threads`` threads under a short switch
    interval; returns the exceptions raised (one list entry each)."""
    errors = []

    def run(index):
        try:
            work(index)
        except Exception as exc:  # the test asserts the list is empty
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=100)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return errors


SHORT_AND_STRESS = [1000, pytest.param(5000, marks=pytest.mark.stress)]


class TestHeldDescriptor:
    def test_append_after_write_atomic_lands_in_the_new_file(self, statedir):
        statedir.append("f", b"old")
        statedir.write_atomic("f", b"new;")
        statedir.append("f", b"tail")
        # not on the inode write_atomic unlinked
        assert fresh(statedir).read_bytes("f") == b"new;tail"

    def test_append_after_truncate_leaves_no_hole(self, statedir):
        statedir.append("f", b"0123456789")
        statedir.truncate("f", 0)
        statedir.append("f", b"abc")
        assert statedir.size("f") == 3
        assert fresh(statedir).read_bytes("f") == b"abc"

    def test_truncate_through_another_handle_is_followed(self, statedir):
        """What a checkpoint by a second owner looks like: O_APPEND makes
        the next write land at the new end, not the old offset."""
        statedir.append("f", b"0123456789")
        fresh(statedir).truncate("f", 4)
        statedir.append("f", b"ab")
        assert fresh(statedir).read_bytes("f") == b"0123ab"

    def test_append_after_remove_recreates_the_file(self, statedir):
        statedir.append("f", b"gone")
        statedir.remove("f")
        assert not statedir.exists("f")
        statedir.append("f", b"back")
        assert fresh(statedir).read_bytes("f") == b"back"

    def test_bytes_visible_without_close(self, statedir):
        statedir.append("f", b"one")
        assert statedir.read_bytes("f") == b"one"
        assert fresh(statedir).read_bytes("f") == b"one"
        statedir.append("f", b"two")
        assert fresh(statedir).read_bytes("f") == b"onetwo"

    def test_one_descriptor_per_name_and_close_is_idempotent(self, statedir):
        before = open_fds()
        for _ in range(50):
            statedir.append("a", b"x")
            statedir.append("b", b"y")
        assert open_fds() == before + 2
        statedir.close()
        statedir.close()
        assert open_fds() == before
        statedir.append("a", b"z")  # reopens
        assert fresh(statedir).read_bytes("a") == b"x" * 50 + b"z"
        statedir.close()
        assert open_fds() == before

    def test_dropped_statedir_releases_its_descriptors(self, tmp_path):
        before = open_fds()
        statedir = StateDir(str(tmp_path))
        statedir.append("f", b"x")
        assert open_fds() == before + 1
        del statedir  # the weakref.finalize backstop
        assert open_fds() == before

    def test_daemon_lifetimes_do_not_leak_descriptors(self, tmp_path):
        xml = DomainConfig(
            name="fdguest", domain_type="kvm", memory_kib=1024 * 1024, vcpus=1
        ).to_xml()
        before = open_fds()
        for life in range(200):
            daemon = Libvirtd(hostname="fd-leak", state_dir=str(tmp_path / "state"))
            driver = daemon.drivers["qemu"]
            if life == 0:
                driver.domain_define_xml(xml)
            driver.domain_create("fdguest")
            driver.domain_destroy("fdguest")
            if life % 2:
                daemon.crash()
                for pool in daemon.server_pools.values():
                    pool.shutdown()
            else:
                daemon.shutdown()
            assert abs(open_fds() - before) <= 4, life
        with Libvirtd(hostname="fd-leak", state_dir=str(tmp_path / "state")) as daemon:
            assert daemon.drivers["qemu"].list_defined_domains() == ["fdguest"]


class TestOneEncodePerRecord:
    def test_in_memory_recorder_never_encodes(self, monkeypatch):
        def refuse(record):
            raise AssertionError("the in-memory recorder encoded a record")

        monkeypatch.setattr(flightrec, "_ENCODE", refuse)
        recorder = FlightRecorder(lambda: 0.0, capacity=4)
        for n in range(10):
            recorder.record("event", n=n)
        recorder.flush()
        assert [r["n"] for r in recorder.records()] == [6, 7, 8, 9]

    def test_compaction_joins_the_lines_it_kept(self, statedir, monkeypatch):
        recorder = FlightRecorder(lambda: 0.0, capacity=4, statedir=statedir)
        for n in range(10):
            recorder.record("event", n=n)
        monkeypatch.setattr(flightrec, "_ENCODE", None)  # any encode now raises
        recorder.flush()
        assert [r["n"] for r in read_tail(statedir)] == [6, 7, 8, 9]

    def test_records_without_a_line_are_encoded_when_flushed(self, statedir):
        """Recorded before the attach, or recovered: encoded at the first
        flush and in ring order with the ones that already had a line."""
        recorder = FlightRecorder(lambda: 0.0, capacity=8)
        recorder.record("event", n=0)
        recorder.statedir = statedir
        recorder.record("event", n=1)
        recorder.flush()
        assert [r["n"] for r in read_tail(statedir)] == [0, 1]
        second = FlightRecorder(lambda: 0.0, capacity=8, statedir=statedir)
        second.recover()
        second.record("event", n=2)
        second.flush()
        assert [(r["n"], r["life"]) for r in read_tail(statedir)] == [(0, 0), (1, 0), (2, 1)]


class TestConcurrency:
    @pytest.mark.parametrize("per_thread", SHORT_AND_STRESS)
    def test_concurrent_recorders_compact_without_breaking_callers(self, statedir, per_thread):
        """Two threads used to compact at once through one fixed temp name:
        the second ``os.replace`` raised out of ``record()``, i.e. into
        the dispatch the recorder was observing."""
        recorder = FlightRecorder(lambda: 0.0, capacity=8, statedir=statedir)
        errors = hammer(
            4,
            lambda index: [
                recorder.record("rpc.begin", serial=index * per_thread + n)
                for n in range(per_thread)
            ],
        )
        assert errors == []
        assert recorder.records_total == 4 * per_thread
        assert recorder.compactions >= per_thread // 8
        raw = statedir.read_bytes(FLIGHT_FILE)
        lines = raw.split(b"\n")
        assert lines.pop() == b""  # newline-terminated, nothing torn
        tail = [json.loads(line)["serial"] for line in lines]
        assert len(tail) == len(set(tail))
        ring = [record["serial"] for record in recorder.records()]
        # the file is the ring plus what compaction has not folded yet,
        # in the order the ring saw them
        assert tail[-len(ring):] == ring

    @pytest.mark.parametrize("per_thread", SHORT_AND_STRESS)
    def test_concurrent_puts_get_consecutive_lsns(self, statedir, per_thread):
        """The LSN used to be read, written and bumped in three unlocked
        steps: concurrent puts shared LSNs and landed out of order."""
        journal = StateJournal(statedir, checkpoint_every=1 << 30)
        seen = {}
        errors = hammer(
            4,
            lambda index: seen.update(
                (journal.put("domain", f"vm{index}-{n}", {"n": n}), f"vm{index}-{n}")
                for n in range(per_thread)
            ),
        )
        assert errors == []
        total = 4 * per_thread
        raw = statedir.read_bytes(StateJournal.JOURNAL_FILE)
        records = [json.loads(payload) for _, payload in StateJournal._iter_records(raw)]
        lsns = [record["lsn"] for record in records]
        assert lsns == list(range(1, total + 1))
        # each put returned the LSN its own record was written under
        assert seen == {record["lsn"]: record["key"] for record in records}
        replayed = StateJournal(fresh(statedir))
        assert replayed.replayed_records == total and not replayed.torn_tail_discarded
        assert replayed.entries("domain") == journal.entries("domain")
        assert replayed.lsn == journal.lsn == total

    def test_checkpoint_never_truncates_a_record_its_snapshot_lacks(self, statedir):
        journal = StateJournal(statedir, checkpoint_every=7)
        errors = hammer(
            4,
            lambda index: [journal.put("domain", f"vm{index}-{n}", {"n": n}) for n in range(500)],
        )
        assert errors == []
        replayed = StateJournal(fresh(statedir))
        assert replayed.entries("domain") == journal.entries("domain")
        assert len(replayed) == 2000 and replayed.lsn == 2000


KILLED_WRITER = """
    import os, signal, sys
    from repro.observability.flightrec import FlightRecorder
    from repro.state import StateDir, StateJournal

    root, n = sys.argv[1], int(sys.argv[2])
    journal = StateJournal(StateDir(os.path.join(root, "journal")))
    recorder = FlightRecorder(lambda: 0.0, statedir=StateDir(os.path.join(root, "flightrec")))
    for i in range(n - 1):
        journal.put("domain", f"vm{i}", {"id": i})
        recorder.record("rpc.end" if i % 2 else "rpc.begin", server="s", serial=i // 2)
    journal.put("domain", "last", {"id": n})
    recorder.record("rpc.begin", server="s", serial=n, procedure="domain.create")
    print(n, flush=True)
    os.kill(os.getpid(), signal.SIGKILL)  # nothing closed, nothing flushed
"""


class TestTornFlightLine:
    def test_a_torn_last_line_does_not_swallow_the_next_life(self, statedir):
        """``recover()`` cuts a torn last line before anything is appended.
        Left in place, the fragment absorbed the next life's ``recovery``
        record into one unparseable line, and the life after that closed
        the first life's dangling dispatch as interrupted a second time."""
        first = FlightRecorder(lambda: 0.0, statedir=statedir)
        first.record("rpc.begin", server="s", serial=1, call=1, procedure="domain.create")
        statedir.append(FLIGHT_FILE, b'{"call":1,"kind":"rpc.end","ser')  # the torn end
        second = FlightRecorder(lambda: 1.0, statedir=statedir)
        tail = second.recover()
        assert [r["call"] for r in interrupted_dispatches(tail)] == [1]
        assert statedir.read_bytes(FLIGHT_FILE).endswith(b"}\n")
        second.record("recovery", recovered=len(tail), interrupted_spans=1)
        third = FlightRecorder(lambda: 2.0, statedir=statedir)
        tail = third.recover()
        assert [(r["kind"], r["life"]) for r in tail] == [("rpc.begin", 0), ("recovery", 1)]
        assert interrupted_dispatches(tail) == []
        assert third.incarnation == 2

    def test_a_file_that_is_only_a_fragment_is_cut_to_nothing(self, statedir):
        statedir.append(FLIGHT_FILE, b'{"kind":"rpc.be')
        recorder = FlightRecorder(lambda: 0.0, statedir=statedir)
        assert recorder.recover() == [] and recorder.incarnation == 0
        recorder.record("recovery", recovered=0)
        assert [r["kind"] for r in read_tail(statedir)] == ["recovery"]


class TestCrashGuarantee:
    def test_sigkill_loses_no_acknowledged_append(self, tmp_path):
        """A real ``kill -9``, not ``crash()``: a userspace buffer anywhere
        on the append path passes every in-process crash test and loses
        its contents here."""
        n = 301  # odd: every earlier rpc.begin has its rpc.end
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(KILLED_WRITER), str(tmp_path), str(n)],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == -9, done.stderr
        assert done.stdout.split() == [str(n)]
        journal = StateJournal(StateDir(str(tmp_path / "journal")))
        assert journal.replayed_records == n and not journal.torn_tail_discarded
        assert journal.lsn == n and journal.get("domain", "last") == {"id": n}
        recorder = FlightRecorder(lambda: 0.0, statedir=StateDir(str(tmp_path / "flightrec")))
        tail = recorder.recover()
        assert len(tail) == n
        left_open = interrupted_dispatches(tail)
        assert [(r["serial"], r["procedure"]) for r in left_open] == [(n, "domain.create")]


def write_v1_records(statedir):
    """The calls that produced ``tests/data/state_v1`` at the parent commit."""
    journal = StateJournal(statedir)
    journal.put("domain", "vm-é", {"id": 1, "state": "running", "xml": "<domain type='kvm'/>"})
    journal.put("network", "default", {"bridge": "virbr0", "autostart": True})
    journal.delete("domain", "vm-é")
    ticks = iter((0.5, 1.25, 2.0))
    recorder = FlightRecorder(lambda: next(ticks), statedir=statedir)
    recorder.record("rpc.begin", server="libvirtd", serial=7, procedure="domain.create", span_id="s1")
    recorder.record("journal", driver="qemu", record_kind="domain", key="vm-é", lsn=1)
    recorder.record("rpc.end", server="libvirtd", serial=7, status="ok")
    return journal, recorder


class TestByteFormat:
    """``tests/data/state_v1`` was written by the open-per-append,
    ``json.dumps``-per-record code this PR replaced."""

    FILES = (StateJournal.JOURNAL_FILE, FLIGHT_FILE)

    def test_same_calls_write_the_same_bytes(self, statedir):
        _, recorder = write_v1_records(statedir)
        committed = StateDir(STATE_V1)
        for name in self.FILES:
            assert statedir.read_bytes(name) == committed.read_bytes(name), name
        recorder.flush()  # the joined lines are the appended lines
        assert statedir.read_bytes(FLIGHT_FILE) == committed.read_bytes(FLIGHT_FILE)

    def test_v1_directory_recovers_identically(self, statedir, tmp_path):
        journal, recorder = write_v1_records(statedir)
        copy = StateDir(str(tmp_path / "v1"))
        for name in self.FILES:  # recovery may truncate: work on a copy
            copy.write_atomic(name, StateDir(STATE_V1).read_bytes(name))
        old = StateJournal(copy)
        assert old.replayed_records == 3 and not old.torn_tail_discarded
        assert (old.lsn, old.entries("network"), old.entries("domain")) == (
            journal.lsn,
            journal.entries("network"),
            journal.entries("domain"),
        )
        assert read_tail(copy) == recorder.records()
        # a tail of the kinds the daemon no longer writes still loads
        assert FlightRecorder(lambda: 0.0, statedir=copy).recover() == recorder.records()
