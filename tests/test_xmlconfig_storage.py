"""Tests for storage XML configuration (repro.xmlconfig.storage)."""

import pytest

from repro.errors import XMLError
from repro.xmlconfig.storage import StoragePoolConfig, VolumeConfig

GiB = 1024**3


class TestStoragePoolConfig:
    def test_defaults(self):
        pool = StoragePoolConfig(name="default")
        assert pool.pool_type == "dir"
        assert pool.target_path == "/var/lib/pyvirt/images/default"

    def test_bad_name_rejected(self):
        with pytest.raises(XMLError):
            StoragePoolConfig(name="bad name")

    def test_unknown_type_rejected(self):
        with pytest.raises(XMLError):
            StoragePoolConfig(name="p", pool_type="cloud")

    def test_relative_path_rejected(self):
        with pytest.raises(XMLError):
            StoragePoolConfig(name="p", target_path="images/p")

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(XMLError):
            StoragePoolConfig(name="p", capacity_bytes=0)

    def test_round_trip(self):
        pool = StoragePoolConfig(
            name="fast",
            pool_type="logical",
            uuid="123e4567-e89b-42d3-a456-426614174000",
            target_path="/dev/vg0",
            capacity_bytes=500 * GiB,
        )
        assert StoragePoolConfig.from_xml(pool.to_xml()) == pool

    def test_wrong_root_rejected(self):
        with pytest.raises(XMLError, match="expected <pool>"):
            StoragePoolConfig.from_xml("<volume><name>v</name></volume>")


class TestVolumeConfig:
    def test_raw_volume_fully_allocated_by_default(self):
        vol = VolumeConfig("disk.img", 10 * GiB, volume_format="raw")
        assert vol.allocation_bytes == 10 * GiB

    def test_qcow2_volume_thin_by_default(self):
        vol = VolumeConfig("disk.qcow2", 10 * GiB)
        assert vol.allocation_bytes == 0

    def test_explicit_allocation(self):
        vol = VolumeConfig("d", 10 * GiB, allocation_bytes=GiB)
        assert vol.allocation_bytes == GiB

    def test_allocation_above_capacity_rejected(self):
        with pytest.raises(XMLError):
            VolumeConfig("d", GiB, allocation_bytes=2 * GiB)

    def test_zero_capacity_rejected(self):
        with pytest.raises(XMLError):
            VolumeConfig("d", 0)

    def test_name_with_slash_rejected(self):
        with pytest.raises(XMLError):
            VolumeConfig("a/b", GiB)

    def test_unknown_format_rejected(self):
        with pytest.raises(XMLError):
            VolumeConfig("d", GiB, volume_format="tar")

    def test_raw_with_backing_store_rejected(self):
        with pytest.raises(XMLError, match="backing store"):
            VolumeConfig("d", GiB, volume_format="raw", backing_store="/base.img")

    def test_round_trip_with_backing_store(self):
        vol = VolumeConfig(
            "clone.qcow2",
            20 * GiB,
            allocation_bytes=GiB,
            backing_store="/var/lib/img/base.qcow2",
        )
        rebuilt = VolumeConfig.from_xml(vol.to_xml())
        assert rebuilt == vol
        assert rebuilt.backing_store == "/var/lib/img/base.qcow2"

    def test_round_trip_minimal(self):
        vol = VolumeConfig("v", GiB)
        assert VolumeConfig.from_xml(vol.to_xml()) == vol

    def test_missing_capacity_rejected(self):
        with pytest.raises(XMLError, match="lacks a <capacity>"):
            VolumeConfig.from_xml("<volume><name>v</name></volume>")


class TestMalformedIntegers:
    def test_pool_document(self):
        xml = '<pool type="dir"><name>p</name><capacity unit="bytes">big</capacity></pool>'
        with pytest.raises(XMLError, match="<capacity> must hold an integer"):
            StoragePoolConfig.from_xml(xml)

    @pytest.mark.parametrize(
        "body, element",
        [
            ("<capacity>ten</capacity>", "<capacity>"),
            ("<capacity>10</capacity><allocation>1.5</allocation>", "<allocation>"),
        ],
    )
    def test_volume_document(self, body, element):
        with pytest.raises(XMLError, match=f"{element} must hold an integer"):
            VolumeConfig.from_xml(f"<volume><name>v</name>{body}</volume>")

    def test_pool_capacity_defaults_when_absent_or_empty(self):
        for capacity in ("", "<capacity />"):
            pool = StoragePoolConfig.from_xml(
                f'<pool type="dir"><name>p</name>{capacity}</pool>'
            )
            assert pool.capacity_bytes == 100 * GiB
