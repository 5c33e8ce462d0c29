"""E1 / Table 1 — management-capability matrix per hypervisor driver.

Reproduces the paper's feature-support table: which management
capabilities each hypervisor driver exposes through the uniform API.
The matrix is *probed*, not hard-coded: every cell comes from
``Connection.supports`` / capability queries against a live driver.

Expected shape: the stateful, daemon-hosted drivers (qemu/kvm, xen)
cover the full surface; containers lack save/restore and migration;
the proprietary remote hypervisor (ESX) covers lifecycle control only.
"""

import repro
from repro.bench.tables import emit, format_table
from repro.bench.workloads import build_local_connection
from repro.core.driver import FEATURES
from repro.drivers import nodes

#: the feature rows the paper-style table reports
ROWS = (
    "lifecycle",
    "pause_resume",
    "reboot",
    "save_restore",
    "set_memory",
    "set_vcpus",
    "snapshots",
    "migration",
    "networks",
    "storage",
    "events",
    "device_hotplug",
    "autostart",
    "remote",
)


def build_matrix():
    connections = {}
    for kind in ("kvm", "xen", "lxc", "test"):
        conn, _ = build_local_connection(kind)
        connections["qemu/kvm" if kind == "kvm" else kind] = conn
    nodes.register_esx_host("esx-matrix")
    connections["esx"] = repro.open_connection(
        "esx://root@esx-matrix/", {"password": "vmware"}
    )
    matrix = {}
    for label, conn in connections.items():
        matrix[label] = {feature: conn.supports(feature) for feature in ROWS}
        conn.close()
    return matrix


def render(matrix):
    columns = list(matrix)
    rows = []
    for feature in ROWS:
        rows.append(
            [feature] + ["yes" if matrix[col][feature] else "--" for col in columns]
        )
    return format_table(
        "Table 1 (reconstructed): capability matrix via the uniform API",
        ["capability"] + columns,
        rows,
    )


def test_e1_feature_matrix(benchmark):
    matrix = benchmark(build_matrix)
    emit("e1_feature_matrix", render(matrix))

    # -- the shape the paper's table shows -----------------------------
    full = {f: True for f in ROWS}
    assert matrix["qemu/kvm"] == full
    assert matrix["xen"] == full
    # containers: no checkpoint, no live migration (era-accurate)
    assert not matrix["lxc"]["save_restore"]
    assert not matrix["lxc"]["migration"]
    assert matrix["lxc"]["lifecycle"]
    # ESX through its remote API: control only
    assert matrix["esx"]["lifecycle"]
    assert matrix["esx"]["pause_resume"]
    for gap in ("storage", "networks", "migration", "snapshots", "events"):
        assert not matrix["esx"][gap]
    # every probed feature is a known one
    for column in matrix.values():
        assert set(column) <= set(FEATURES)
