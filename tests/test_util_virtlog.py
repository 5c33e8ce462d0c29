"""Tests for the logging subsystem (repro.util.virtlog)."""

import threading

import pytest

from repro.errors import InvalidArgumentError
from repro.util.virtlog import (
    LOG_DEBUG,
    LOG_ERROR,
    LOG_WARN,
    LogFilter,
    Logger,
    LogOutput,
    format_filters,
    format_outputs,
    parse_filters,
    parse_outputs,
    parse_priority,
)


class TestPriority:
    def test_numeric_values(self):
        assert parse_priority(1) == LOG_DEBUG
        assert parse_priority(4) == LOG_ERROR

    def test_names(self):
        assert parse_priority("debug") == LOG_DEBUG
        assert parse_priority("WARNING") == LOG_WARN
        assert parse_priority(" error ") == LOG_ERROR

    @pytest.mark.parametrize("bad", [0, 5, -1, "verbose", ""])
    def test_invalid(self, bad):
        with pytest.raises(InvalidArgumentError):
            parse_priority(bad)


class TestFilters:
    def test_parse_single(self):
        f = LogFilter.parse("3:util.object")
        assert f.priority == LOG_WARN
        assert f.match == "util.object"

    def test_parse_list(self):
        filters = parse_filters("4:event 3:json 3:udev")
        assert [f.match for f in filters] == ["event", "json", "udev"]

    def test_round_trip(self):
        text = "3:util.object 4:rpc"
        assert format_filters(parse_filters(text)) == text

    @pytest.mark.parametrize("bad", ["noformat", "5:x", "0:x", ":x", "x:y", "3:"])
    def test_invalid_filters(self, bad):
        with pytest.raises(InvalidArgumentError):
            LogFilter.parse(bad)

    def test_matches_substring(self):
        f = LogFilter.parse("3:util.object")
        assert f.matches("util.object")
        assert f.matches("src/util.object.c")
        assert not f.matches("rpc.server")


class TestOutputs:
    def test_parse_stderr(self):
        out = LogOutput.parse("1:stderr")
        assert out.priority == LOG_DEBUG
        assert out.dest == "stderr"
        assert out.data is None

    def test_parse_file(self):
        out = LogOutput.parse("3:file:/var/log/libvirtd.log")
        assert out.dest == "file"
        assert out.data == "/var/log/libvirtd.log"

    def test_round_trip(self):
        text = "1:file:/tmp/x.log 3:stderr"
        assert format_outputs(parse_outputs(text)) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "stderr",  # no level
            "5:stderr",  # bad level
            "1:tape",  # unknown destination
            "1:file",  # file needs a path
            "1:file:relative/path",  # path must be absolute
            "1:syslog",  # syslog needs an identifier
        ],
    )
    def test_invalid_outputs(self, bad):
        with pytest.raises(InvalidArgumentError):
            LogOutput.parse(bad)

    def test_journald_and_syslog_route_to_memory(self):
        out = LogOutput.parse("1:journald")
        logger = Logger(level=LOG_DEBUG)
        logger.set_outputs("1:journald 1:syslog:libvirtd")
        logger.debug("mod", "hello")
        assert any("hello" in line for line in logger.memory_records())

    def test_file_output_writes(self, tmp_path):
        path = tmp_path / "daemon.log"
        logger = Logger(level=LOG_DEBUG)
        logger.set_outputs(f"1:file:{path}")
        logger.info("rpc.server", "client connected")
        content = path.read_text()
        assert "client connected" in content
        assert "rpc.server" in content


class TestLogger:
    def test_default_level_is_error(self):
        logger = Logger()
        assert not logger.info("mod", "quiet")
        assert logger.error("mod", "loud")

    def test_inclusive_hierarchy(self):
        logger = Logger(level=LOG_WARN)
        assert not logger.debug("m", "x")
        assert not logger.info("m", "x")
        assert logger.warn("m", "x")
        assert logger.error("m", "x")

    def test_set_level_runtime(self):
        logger = Logger(level=LOG_ERROR)
        assert not logger.debug("m", "x")
        logger.set_level(LOG_DEBUG)
        assert logger.debug("m", "x")

    def test_filters_override_global_level(self):
        logger = Logger(level=LOG_ERROR)
        logger.set_filters("1:rpc")
        assert logger.debug("rpc.server", "verbose rpc")  # filter allows
        assert not logger.debug("qemu.monitor", "still quiet")

    def test_filters_can_suppress_noisy_module(self):
        logger = Logger(level=LOG_DEBUG)
        logger.set_filters("4:util.object")
        assert not logger.debug("util.object", "chatty")
        assert logger.error("util.object", "broken")
        assert logger.debug("domain", "fine")

    def test_first_matching_filter_wins(self):
        logger = Logger(level=LOG_ERROR)
        logger.set_filters("1:rpc.server 4:rpc")
        assert logger.effective_priority("rpc.server") == LOG_DEBUG
        assert logger.effective_priority("rpc.client") == LOG_ERROR

    def test_invalid_filter_set_leaves_old_config(self):
        logger = Logger(level=LOG_ERROR)
        logger.set_filters("1:rpc")
        with pytest.raises(InvalidArgumentError):
            logger.set_filters("1:rpc 9:bad")
        assert logger.get_filters() == "1:rpc"  # RCU: nothing half-applied

    def test_invalid_output_set_leaves_old_config(self):
        logger = Logger()
        logger.set_outputs("1:memory")
        with pytest.raises(InvalidArgumentError):
            logger.set_outputs("1:memory 1:tape")
        assert logger.get_outputs() == "1:memory"

    def test_empty_output_set_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Logger().set_outputs("")

    def test_output_priority_gates_messages(self):
        logger = Logger(level=LOG_DEBUG)
        logger.set_outputs("3:memory")
        logger.debug("m", "dropped")
        logger.warn("m", "kept")
        records = logger.memory_records()
        assert len(records) == 1
        assert "kept" in records[0]

    def test_invalid_priority_raises(self):
        with pytest.raises(InvalidArgumentError):
            Logger().log(9, "m", "x")

    def test_concurrent_logging_and_reconfig_is_consistent(self):
        logger = Logger(level=LOG_DEBUG)
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                try:
                    logger.debug("worker", "tick")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        def reconfigurer():
            for i in range(200):
                logger.set_filters(f"{(i % 4) + 1}:worker")
                logger.set_level((i % 4) + 1)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        reconfigurer()
        stop.set()
        for t in threads:
            t.join()
        assert not errors

    def test_counter_counts_only_emitted(self):
        logger = Logger(level=LOG_ERROR)
        logger.debug("m", "dropped")
        logger.error("m", "kept")
        assert logger.messages_emitted == 1
