"""``DomainConfig.from_xml`` parses a text once and hands out private copies.

Counts repeat exactly, so everything here is a count or an identity:
``ElementTree`` parses per call, objects shared between two results, what
the memo holds after an error, at its bound and past its length cut-off.
The template a text is remembered as must never reach a caller —
``StatefulDriver`` mutates the configs it is given in place.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings

import repro
from repro.daemon import Libvirtd
from repro.errors import XMLError
from repro.xmlconfig import domain as domain_module
from repro.xmlconfig.domain import DiskDevice, DomainConfig
from tests.test_prop_xmlconfig import domain_configs
from tests.test_state_statedir import hammer
from tests.xml_golden_corpus import GOLDEN_DIR

MEMO = domain_module._remembered
BOUND = domain_module._MEMO_ENTRIES
MAX_CHARS = domain_module._MEMO_MAX_CHARS

GOLDEN = {
    path.name: path.read_text(encoding="utf-8") for path in sorted(GOLDEN_DIR.glob("domain_*.xml"))
}
LEAVES = (str, int, float, bool, bytes, type(None))


def document(index):
    return DomainConfig(name=f"memo-{index:05d}", memory_kib=1024 + index).to_xml()


@pytest.fixture(autouse=True)
def empty_memo():
    MEMO.cache_clear()
    yield
    MEMO.cache_clear()


@pytest.fixture()
def parses(monkeypatch):
    """``ElementTree`` parses made since the fixture was set up (a one-item list)."""
    count = [0]
    real = ET.fromstring

    def counting(text, *args, **kwargs):
        count[0] += 1
        return real(text, *args, **kwargs)

    monkeypatch.setattr(ET, "fromstring", counting)
    return count


def reachable(root):
    """``{id: object}`` of every non-leaf (instance, its ``__dict__``, list,
    dict, set, tuple) reachable from ``root``."""
    found, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, LEAVES) or id(obj) in found:
            continue
        found[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.append(vars(obj))
    return found


def scramble(config):
    """Mutate, in place, every attribute, list and device reachable."""
    for obj in list(reachable(config).values()):
        if isinstance(obj, list):
            obj.clear()
            obj.append("scrambled")
        elif not isinstance(obj, dict):
            for key in list(vars(obj)):
                setattr(obj, key, "scrambled")


# -- counts ------------------------------------------------------------------


def test_distinct_documents_are_parsed_once_each(parses):
    texts = [document(i) for i in range(40)]
    for text in texts:
        DomainConfig.from_xml(text)
    assert parses[0] == 40
    assert MEMO.cache_info().currsize == 40


def test_a_repeated_document_is_not_parsed_again(parses):
    texts = [document(i) for i in range(8)]
    first = [DomainConfig.from_xml(text) for text in texts]
    assert parses[0] == 8
    for _ in range(25):
        # an equal text that is another object, as every RPC reply is
        again = [DomainConfig.from_xml("".join(list(text))) for text in texts]
        assert again == first
    assert parses[0] == 8
    assert MEMO.cache_info().hits == 25 * 8


def test_the_memo_is_bounded(parses):
    for index in range(BOUND + 50):
        DomainConfig.from_xml(document(index))
    assert parses[0] == BOUND + 50
    assert MEMO.cache_info().currsize == BOUND
    DomainConfig.from_xml(document(0))  # the least recently used went first
    assert parses[0] == BOUND + 51


def test_a_document_over_the_length_cutoff_is_never_stored(parses):
    disks = [DiskDevice(f"/var/lib/images/long-{n:03d}.qcow2", f"vd{n}") for n in range(20)]
    text = DomainConfig(name="long", disks=disks).to_xml()
    body = text[: -len("</domain>")]

    def padded(length):
        return body + " " * (length - len(text)) + "</domain>"

    at, over = padded(MAX_CHARS), padded(MAX_CHARS + 1)
    assert (len(at), len(over)) == (MAX_CHARS, MAX_CHARS + 1)
    for _ in range(3):
        DomainConfig.from_xml(at)
    assert (parses[0], MEMO.cache_info().currsize) == (1, 1)
    results = [DomainConfig.from_xml(over) for _ in range(3)]
    assert (parses[0], MEMO.cache_info().currsize) == (1 + 3, 1)
    assert results[0] == results[1] == results[2] and results[0].to_xml() == text
    assert not set(reachable(results[0])) & set(reachable(results[1]))


@pytest.mark.parametrize(
    "text, message",
    [
        ("<domain><name>", "malformed XML"),
        ('<domain type="test"><name>d</name><memory>0</memory></domain>', "must be positive"),
        ('<domain type="kvm"><name>d</name><memory>1</memory><vcpu current="3">2</vcpu></domain>',
         "max vcpus 2 below current vcpus 3"),
    ],
)
def test_an_error_is_raised_afresh_and_nothing_is_stored(parses, text, message):
    DomainConfig.from_xml(document(0))
    raised = []
    for _ in range(3):
        with pytest.raises(XMLError, match=message) as caught:
            DomainConfig.from_xml(text)
        raised.append(caught.value)
    assert len({str(exc) for exc in raised}) == 1
    assert len({id(exc) for exc in raised}) == 3
    assert parses[0] == 1 + 3
    assert MEMO.cache_info().currsize == 1


# -- independence ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_two_results_of_one_text_share_no_mutable_object(name):
    """The guard for fields added later: whatever a new field holds, two
    parses of one text (and the template behind them) must not share it."""
    text = GOLDEN[name]
    one, two = DomainConfig.from_xml(text), DomainConfig.from_xml(text)
    template = MEMO(text)
    assert MEMO.cache_info().misses == 1
    assert one == two == template and one.to_xml() == text
    assert one is not two
    walks = [reachable(one), reachable(two), reachable(template)]
    assert len(walks[0]) == len(walks[1]) == len(walks[2]) > 2
    for index, walk in enumerate(walks):
        for other in walks[index + 1:]:
            shared = [walk[key] for key in set(walk) & set(other)]
            assert shared == []


@given(domain_configs())
@settings(max_examples=100, deadline=None)
def test_no_mutation_of_a_result_reaches_the_next_parse(config):
    text = config.to_xml()
    expected = DomainConfig._parse(text).to_xml()
    for _ in range(3):
        parsed = DomainConfig.from_xml(text)
        assert parsed.to_xml() == expected
        scramble(parsed)
        assert set(vars(parsed).values()) == {"scrambled"}


def test_copy_shares_nothing_and_skips_the_parser(parses):
    config = DomainConfig.from_xml(GOLDEN["domain_full.xml"])
    parses[0] = 0
    clone = config.copy(name="web-2", vcpus=1)
    assert parses[0] == 0
    assert (clone.name, clone.vcpus, config.name, config.vcpus) == ("web-2", 1, "web-1", 2)
    assert not set(reachable(clone)) & set(reachable(config))
    assert clone.copy(name="web-1", vcpus=2) == config


# -- threads ------------------------------------------------------------------


@pytest.mark.stress
def test_parse_and_mutate_from_eight_threads():
    texts = list(GOLDEN.values())
    assert len(texts) == 4

    def work(index):
        for round_ in range(2000):
            text = texts[(index + round_) % 4]
            parsed = DomainConfig.from_xml(text)
            assert parsed.to_xml() == text, f"round {round_}: a mutation leaked into a parse"
            scramble(parsed)

    assert hammer(8, work) == []
    assert MEMO.cache_info().currsize == 4
    for text in texts:
        assert DomainConfig.from_xml(text).to_xml() == text


# -- ROADMAP item 6(b), as it was written ------------------------------------------------------------------


def test_a_monitor_between_changes_asks_once_and_parses_once(parses):
    """"A monitor that asks for ``domain.config()`` between changes parses
    once" — and, on a ``?cache=1`` connection, asks once."""
    with Libvirtd(hostname="memo1") as daemon:
        daemon.listen("tcp")
        writer = repro.open_connection("qemu+tcp://memo1/system")
        writer.define_domain(DomainConfig(name="watched", domain_type="kvm", memory_kib=4096))
        monitor = repro.open_connection("qemu+tcp://memo1/system?cache=1")
        watched = monitor.lookup_domain("watched")
        served = daemon.drivers["qemu"]
        MEMO.cache_clear()
        calls, parses[0] = served.api_calls, 0

        first, second = watched.config(), watched.config()
        assert (served.api_calls - calls, parses[0]) == (1, 1)
        assert first == second and first is not second

        writer.lookup_domain("watched").set_memory(2048)  # a ``config`` bus record
        calls, parses[0] = served.api_calls, 0
        third, fourth = watched.config(), watched.config()
        assert (served.api_calls - calls, parses[0]) == (1, 1)
        assert third == fourth and third.current_memory_kib == 2048
        assert first.current_memory_kib == 4096
