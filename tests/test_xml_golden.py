"""Byte identity of every ``to_xml()`` with the ``ElementTree``-built documents.

``tests/data/xml_golden/`` was recorded once from PR 17's tree-building
``to_xml()`` (``tools/record_xml_golden.py``); the direct writers must
reproduce each file exactly — the documents travel in RPC replies and
sit in journal records, so a moved byte is a moved ``wire_bytes_per_op``
and a ``state_dir`` an older daemon wrote differently.
"""

import pytest

from tests.xml_golden_corpus import GOLDEN_DIR, corpus

CORPUS = corpus()


def test_corpus_and_directory_agree():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(CORPUS)


def test_corpus_covers_every_document_kind():
    kinds = {type(config).__name__ for config in CORPUS.values()}
    assert kinds == {
        "DomainConfig", "NetworkConfig", "StoragePoolConfig", "VolumeConfig",
        "CheckpointConfig", "Capabilities",
    }


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_writer_reproduces_golden_bytes(name):
    assert CORPUS[name].to_xml().encode("utf-8") == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_document_is_a_fixed_point_of_parse_then_format(name):
    golden = (GOLDEN_DIR / name).read_bytes().decode("utf-8")
    assert type(CORPUS[name]).from_xml(golden).to_xml() == golden
