"""Tests for capabilities XML (repro.xmlconfig.capabilities)."""

import pytest

from repro.errors import XMLError
from repro.xmlconfig.capabilities import Capabilities, GuestCapability, HostCapability

UUID = "123e4567-e89b-42d3-a456-426614174000"


def sample_caps():
    host = HostCapability(
        uuid=UUID,
        arch="x86_64",
        cpu_model="sim-epyc",
        sockets=2,
        cores=8,
        threads=2,
        memory_kib=64 * 1024 * 1024,
        mhz=3000,
        numa_cells=2,
    )
    guests = [
        GuestCapability("hvm", "x86_64", ["qemu", "kvm"], emulator="/usr/bin/sim-qemu"),
        GuestCapability("hvm", "i686", ["qemu"]),
        GuestCapability("exe", "x86_64", ["lxc"]),
    ]
    return Capabilities(host, guests)


class TestHostCapability:
    def test_total_cpus(self):
        assert sample_caps().host.total_cpus == 32

    def test_topology_must_be_positive(self):
        with pytest.raises(XMLError):
            HostCapability(uuid=UUID, cores=0)

    def test_memory_must_be_positive(self):
        with pytest.raises(XMLError):
            HostCapability(uuid=UUID, memory_kib=0)


class TestGuestCapability:
    def test_needs_domain_types(self):
        with pytest.raises(XMLError):
            GuestCapability("hvm", "x86_64", [])


class TestCapabilities:
    def test_supports(self):
        caps = sample_caps()
        assert caps.supports("hvm", "x86_64", "kvm")
        assert caps.supports("exe", "x86_64", "lxc")
        assert not caps.supports("hvm", "x86_64", "lxc")
        assert not caps.supports("hvm", "aarch64", "kvm")

    def test_domain_types_deduplicated(self):
        assert sample_caps().domain_types() == ["qemu", "kvm", "lxc"]

    def test_round_trip(self):
        caps = sample_caps()
        rebuilt = Capabilities.from_xml(caps.to_xml())
        assert rebuilt == caps
        assert rebuilt.host.total_cpus == 32
        assert rebuilt.guests[0].emulator == "/usr/bin/sim-qemu"

    def test_xml_shape(self):
        xml = sample_caps().to_xml()
        assert "<capabilities>" in xml
        assert '<topology sockets="2" cores="8" threads="2" />' in xml
        assert '<cells num="2">' in xml
        assert '<domain type="kvm" />' in xml

    def test_wrong_root_rejected(self):
        with pytest.raises(XMLError, match="expected <capabilities>"):
            Capabilities.from_xml("<host/>")

    def test_missing_host_rejected(self):
        with pytest.raises(XMLError, match="lack a <host>"):
            Capabilities.from_xml("<capabilities></capabilities>")


class TestMalformedIntegers:
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('sockets="2"', 'sockets="two"', "'sockets' on <topology> must be an integer"),
            ('cores="8" ', "", "missing required attribute 'cores'"),
            ('<cells num="2">', '<cells num="both">', "'num' on <cells> must be an integer"),
            ('<vcpu max="64" />', '<vcpu max="many" />', "'max' on <vcpu> must be an integer"),
            ("<mhz>3000</mhz>", "<mhz>fast</mhz>", "<mhz> must hold an integer"),
        ],
    )
    def test_capabilities_document(self, old, new, message):
        xml = sample_caps().to_xml()
        assert old in xml
        with pytest.raises(XMLError, match=message):
            Capabilities.from_xml(xml.replace(old, new))
