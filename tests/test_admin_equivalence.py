"""Equivalence-partitioning tests of the administration interface.

A systematic black-box suite over the admin setters, following the
classic methodology: partition every input sub-domain into valid and
invalid equivalence classes, then cover each class with at least one
case while never combining two invalid classes in one test (so
erroneous-input checks cannot mask each other).

Input sub-domains and classes:

* connection status — active (A) | closed (B) | daemon gone (C)
* logging level — 1..4 (1) | < 1 (2) | > 4 (3)
* filters string — one filter | N filters | empty || no level prefix |
  level out of range | missing colon | empty match | bad delimiter
* outputs string — analogous, plus destination-specific data rules
* threadpool params — server handle {valid (J) | closed conn (K) |
  unknown server (L)} × param list {valid single | valid pair |
  unknown field | wrong type | duplicate | read-only |
  min > max relation | empty list}
"""

import pytest

from repro.admin import admin_open
from repro.daemon import Libvirtd
from repro.errors import (
    ConnectionClosedError,
    ConnectionError_,
    InvalidArgumentError,
    VirtError,
)
from repro.util import typedparams as tp
from repro.util.typedparams import ParamType, TypedParameter


@pytest.fixture()
def daemon():
    with Libvirtd(hostname="eqnode", min_workers=2, max_workers=10, prio_workers=2) as d:
        d.listen("unix")
        d.enable_admin()
        yield d


@pytest.fixture()
def admin(daemon):
    conn = admin_open("eqnode")
    yield conn
    if not conn.closed:
        conn.close()


def closed_admin(daemon):
    conn = admin_open("eqnode")
    conn.close()
    return conn


# ---------------------------------------------------------------------------
# T1 — set_logging_level: connection status × level value
# ---------------------------------------------------------------------------


class TestT1LoggingLevel:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_A1_active_connection_valid_levels(self, admin, daemon, level):
        admin.set_logging_level(level)
        assert daemon.logger.level == level

    @pytest.mark.parametrize("level", [0, -1, -100])
    def test_A2_active_connection_level_below_range(self, admin, level):
        with pytest.raises(VirtError):
            admin.set_logging_level(level)

    @pytest.mark.parametrize("level", [5, 9, 1000])
    def test_A3_active_connection_level_above_range(self, admin, level):
        with pytest.raises(VirtError):
            admin.set_logging_level(level)

    def test_B1_closed_connection_valid_level(self, daemon):
        conn = closed_admin(daemon)
        with pytest.raises(ConnectionClosedError):
            conn.set_logging_level(1)

    def test_C1_connection_to_dead_daemon(self, daemon):
        conn = admin_open("eqnode")
        daemon.shutdown()
        with pytest.raises((ConnectionClosedError, ConnectionError_)):
            conn.set_logging_level(1)


# ---------------------------------------------------------------------------
# T2 — set_logging_filters: connection status × filter string classes
# ---------------------------------------------------------------------------


class TestT2LoggingFilters:
    def test_A12_single_valid_filter(self, admin, daemon):
        admin.set_logging_filters("3:util.object")
        assert daemon.logger.get_filters() == "3:util.object"

    def test_A14_multiple_filters_space_delimited(self, admin, daemon):
        admin.set_logging_filters("3:util.object 4:rpc 1:event")
        assert daemon.logger.effective_priority("rpc.server") == 4
        assert daemon.logger.effective_priority("event") == 1

    def test_A3_empty_string_clears_filters(self, admin, daemon):
        admin.set_logging_filters("3:util")
        admin.set_logging_filters("")
        assert daemon.logger.get_filters() == ""

    def test_A6_filter_not_starting_with_number(self, admin):
        with pytest.raises(VirtError):
            admin.set_logging_filters("warning:util")

    @pytest.mark.parametrize("bad", ["0:util", "-1:util"])
    def test_A8_level_below_range(self, admin, bad):
        with pytest.raises(VirtError):
            admin.set_logging_filters(bad)

    @pytest.mark.parametrize("bad", ["5:util", "99:util"])
    def test_A9_level_above_range(self, admin, bad):
        with pytest.raises(VirtError):
            admin.set_logging_filters(bad)

    def test_A11_missing_colon_delimiter(self, admin):
        with pytest.raises(VirtError):
            admin.set_logging_filters("3util")

    def test_A13_empty_match_string(self, admin):
        with pytest.raises(VirtError):
            admin.set_logging_filters("3:")

    def test_A15_bad_delimiter_between_filters(self, admin):
        with pytest.raises(VirtError):
            admin.set_logging_filters("3:util,4:rpc")

    def test_B_closed_connection(self, daemon):
        conn = closed_admin(daemon)
        with pytest.raises(ConnectionClosedError):
            conn.set_logging_filters("3:util")

    def test_invalid_set_does_not_tear_existing(self, admin, daemon):
        """One bad filter in a set must reject the whole set atomically."""
        admin.set_logging_filters("2:keep")
        with pytest.raises(VirtError):
            admin.set_logging_filters("1:fine 9:broken")
        assert daemon.logger.get_filters() == "2:keep"


# ---------------------------------------------------------------------------
# T3 — set_logging_outputs: connection status × output string classes
# ---------------------------------------------------------------------------


class TestT3LoggingOutputs:
    def test_A12_each_valid_destination(self, admin, daemon, tmp_path):
        for output in ("1:stderr", "2:memory", "3:journald", f"1:file:{tmp_path}/d.log", "2:syslog:libvirtd"):
            admin.set_logging_outputs(output)
            assert daemon.logger.get_outputs() == output

    def test_A20_multiple_outputs(self, admin, daemon, tmp_path):
        spec = f"1:file:{tmp_path}/a.log 3:memory"
        admin.set_logging_outputs(spec)
        assert daemon.logger.get_outputs() == spec

    def test_A3_empty_output_set_rejected(self, admin):
        with pytest.raises(VirtError):
            admin.set_logging_outputs("")

    def test_A6_output_not_starting_with_number(self, admin):
        with pytest.raises(VirtError):
            admin.set_logging_outputs("debug:stderr")

    @pytest.mark.parametrize("bad", ["0:stderr", "5:stderr"])
    def test_A8_A9_level_out_of_range(self, admin, bad):
        with pytest.raises(VirtError):
            admin.set_logging_outputs(bad)

    def test_A11_missing_colon(self, admin):
        with pytest.raises(VirtError):
            admin.set_logging_outputs("1stderr")

    def test_A13_unknown_destination(self, admin):
        with pytest.raises(VirtError):
            admin.set_logging_outputs("1:tape")

    def test_A17_file_without_path(self, admin):
        with pytest.raises(VirtError):
            admin.set_logging_outputs("1:file")

    def test_A17b_syslog_without_identifier(self, admin):
        with pytest.raises(VirtError):
            admin.set_logging_outputs("1:syslog")

    def test_A19_relative_file_path(self, admin):
        with pytest.raises(VirtError):
            admin.set_logging_outputs("1:file:relative/path.log")

    def test_A21_bad_delimiter(self, admin):
        with pytest.raises(VirtError):
            admin.set_logging_outputs("1:stderr;3:memory")

    def test_B_closed_connection(self, daemon):
        conn = closed_admin(daemon)
        with pytest.raises(ConnectionClosedError):
            conn.set_logging_outputs("1:stderr")


# ---------------------------------------------------------------------------
# T4 — set_threadpool_params: server handle × parameter list classes
# ---------------------------------------------------------------------------


def uint_params(**values):
    params = []
    for field, value in values.items():
        tp.add_uint(params, field, value)
    return params


class TestT4ThreadpoolParams:
    def test_J6_valid_single_param(self, admin, daemon):
        admin.lookup_server("libvirtd").set_threadpool_params(
            uint_params(maxWorkers=15)
        )
        assert daemon.pool.stats()["maxWorkers"] == 15

    def test_J10_valid_min_max_relation(self, admin, daemon):
        admin.lookup_server("libvirtd").set_threadpool_params(
            uint_params(minWorkers=3, maxWorkers=12)
        )
        stats = daemon.pool.stats()
        assert stats["minWorkers"] == 3
        assert stats["maxWorkers"] == 12

    def test_J3_empty_param_list(self, admin):
        with pytest.raises(InvalidArgumentError):
            admin.lookup_server("libvirtd").set_threadpool_params([])

    def test_J5_unknown_field_identifier(self, admin):
        with pytest.raises(InvalidArgumentError, match="unknown parameter"):
            admin.lookup_server("libvirtd").set_threadpool_params(
                uint_params(bogusWorkers=3)
            )

    def test_J7_wrong_value_type(self, admin):
        params = [TypedParameter("maxWorkers", ParamType.STRING, "15")]
        with pytest.raises(InvalidArgumentError, match="must be UINT"):
            admin.lookup_server("libvirtd").set_threadpool_params(params)

    def test_J9_duplicate_fields(self, admin):
        params = uint_params(maxWorkers=15) + uint_params(maxWorkers=20)
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            admin.lookup_server("libvirtd").set_threadpool_params(params)

    def test_J11_min_above_max(self, admin, daemon):
        with pytest.raises(InvalidArgumentError):
            admin.lookup_server("libvirtd").set_threadpool_params(
                uint_params(minWorkers=30, maxWorkers=12)
            )
        # nothing applied
        assert daemon.pool.stats()["minWorkers"] == 2

    def test_J_readonly_field(self, admin):
        with pytest.raises(InvalidArgumentError, match="read-only"):
            admin.lookup_server("libvirtd").set_threadpool_params(
                uint_params(freeWorkers=1)
            )

    def test_K6_closed_connection_valid_params(self, daemon):
        conn = admin_open("eqnode")
        server = conn.lookup_server("libvirtd")
        conn.close()
        with pytest.raises((ConnectionClosedError, ConnectionError_)):
            server.set_threadpool_params(uint_params(maxWorkers=15))

    def test_L6_unknown_server_valid_params(self, admin):
        with pytest.raises(InvalidArgumentError):
            admin.lookup_server("ghost")

    def test_L6b_unknown_server_at_daemon_side(self, admin):
        # bypass the client-side lookup check: the daemon validates too
        from repro.admin.api import AdminServer

        rogue = AdminServer(admin, "ghost")
        with pytest.raises(InvalidArgumentError, match="no server named"):
            rogue.set_threadpool_params(uint_params(maxWorkers=15))

    def test_success_path_full_triplet(self, admin, daemon):
        """The optimized-out success case (J, 6/10, a): all three valid."""
        admin.lookup_server("libvirtd").set_threadpool_params(
            uint_params(minWorkers=2, maxWorkers=18, prioWorkers=3)
        )
        import time

        deadline = time.monotonic() + 5
        while daemon.pool.stats()["prioWorkers"] != 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = daemon.pool.stats()
        assert stats["maxWorkers"] == 18
        assert stats["prioWorkers"] == 3
