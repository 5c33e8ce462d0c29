"""Tests for checkpoint XML (repro.xmlconfig.checkpoint)."""

import pytest

from repro.errors import XMLError
from repro.xmlconfig.checkpoint import CheckpointConfig, CheckpointDisk


def sample(**overrides):
    fields = dict(
        name="cp1",
        parent="cp0",
        creation_time=1700000000.9,
        state="paused",
        disks=[CheckpointDisk("/img/a.qcow2", "cp1", 17, 65536), CheckpointDisk("/img/b", "cp1")],
        domain="web-1",
    )
    fields.update(overrides)
    return CheckpointConfig(**fields)


def fields_of(config):
    disks = [(d.name, d.bitmap, d.dirty_blocks, d.block_size) for d in config.disks]
    return (config.name, config.parent, int(config.creation_time), config.state,
            config.domain, disks)


class TestRoundTrip:
    def test_full_document(self):
        config = sample()
        assert fields_of(CheckpointConfig.from_xml(config.to_xml())) == fields_of(config)

    def test_root_checkpoint_without_disks(self):
        xml = CheckpointConfig("cp0").to_xml()
        assert "  <disks />\n" in xml and "<parent>" not in xml and "<domain>" not in xml
        assert fields_of(CheckpointConfig.from_xml(xml)) == fields_of(CheckpointConfig("cp0"))

    def test_empty_state_is_written_as_elementtree_writes_it(self):
        assert "  <state />\n" in sample(state="").to_xml()

    def test_bad_name_rejected(self):
        with pytest.raises(XMLError, match="invalid checkpoint name"):
            CheckpointConfig("a b")


class TestMalformedIntegers:
    @pytest.mark.parametrize("attr", ["dirty-blocks", "block-size"])
    def test_disk_counters_must_be_integers(self, attr):
        xml = sample().to_xml().replace(f'{attr}="', f'{attr}="x')
        with pytest.raises(XMLError, match=f"'{attr}' on <disk> must be an integer"):
            CheckpointConfig.from_xml(xml)

    def test_disk_counters_default_to_zero(self):
        xml = "<domaincheckpoint><name>c</name><disks><disk name='d' /></disks></domaincheckpoint>"
        disk = CheckpointConfig.from_xml(xml).disks[0]
        assert (disk.dirty_blocks, disk.block_size) == (0, 0)
