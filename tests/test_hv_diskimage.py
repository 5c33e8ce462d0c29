"""Tests for the simulated image store (repro.hypervisors.diskimage)."""

import array

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import (
    InvalidArgumentError,
    InvalidOperationError,
    NoStorageVolumeError,
    ResourceBusyError,
    StorageVolumeExistsError,
)
from repro.hypervisors.diskimage import ImageStore

GiB = 1024**3


@pytest.fixture()
def store():
    return ImageStore(capacity_bytes=100 * GiB)


class TestCreateDelete:
    def test_create_qcow2_starts_thin(self, store):
        img = store.create("/img/a.qcow2", 10 * GiB)
        assert img.allocation_bytes == 0
        assert store.exists("/img/a.qcow2")

    def test_create_raw_fully_allocated(self, store):
        img = store.create("/img/a.raw", 10 * GiB, "raw")
        assert img.allocation_bytes == 10 * GiB
        assert store.allocated_bytes == 10 * GiB

    def test_duplicate_path_rejected(self, store):
        store.create("/img/a.qcow2", GiB)
        with pytest.raises(StorageVolumeExistsError):
            store.create("/img/a.qcow2", GiB)

    def test_relative_path_rejected(self, store):
        with pytest.raises(InvalidArgumentError):
            store.create("a.qcow2", GiB)

    def test_store_capacity_enforced(self, store):
        store.create("/img/big.raw", 90 * GiB, "raw")
        with pytest.raises(InvalidOperationError, match="store full"):
            store.create("/img/big2.raw", 20 * GiB, "raw")

    def test_delete(self, store):
        store.create("/img/a.qcow2", GiB)
        store.delete("/img/a.qcow2")
        assert not store.exists("/img/a.qcow2")

    def test_delete_missing_rejected(self, store):
        with pytest.raises(NoStorageVolumeError):
            store.delete("/img/missing")

    def test_delete_backing_file_of_live_chain_rejected(self, store):
        store.create("/img/base.qcow2", GiB)
        store.create("/img/leaf.qcow2", GiB, backing_path="/img/base.qcow2")
        with pytest.raises(ResourceBusyError, match="backs"):
            store.delete("/img/base.qcow2")
        store.delete("/img/leaf.qcow2")
        store.delete("/img/base.qcow2")  # now fine

    def test_raw_cannot_have_backing(self, store):
        store.create("/img/base.qcow2", GiB)
        with pytest.raises(InvalidArgumentError):
            store.create("/img/l.raw", GiB, "raw", backing_path="/img/base.qcow2")

    def test_backing_must_exist(self, store):
        with pytest.raises(NoStorageVolumeError):
            store.create("/img/leaf.qcow2", GiB, backing_path="/img/missing")


class TestClone:
    def test_shallow_clone_builds_cow_overlay(self, store):
        store.create("/img/base.qcow2", 10 * GiB)
        clone = store.clone("/img/base.qcow2", "/img/clone.qcow2")
        assert clone.backing_path == "/img/base.qcow2"
        assert clone.allocation_bytes == 0
        assert store.chain("/img/clone.qcow2") == ["/img/clone.qcow2", "/img/base.qcow2"]

    def test_deep_clone_copies_allocation(self, store):
        store.create("/img/base.raw", 10 * GiB, "raw")
        clone = store.clone("/img/base.raw", "/img/copy.raw", shallow=False)
        assert clone.backing_path is None
        assert clone.allocation_bytes == 10 * GiB

    def test_shallow_clone_of_raw_rejected(self, store):
        store.create("/img/base.raw", GiB, "raw")
        with pytest.raises(InvalidOperationError):
            store.clone("/img/base.raw", "/img/c.qcow2")

    def test_clone_missing_source_rejected(self, store):
        with pytest.raises(NoStorageVolumeError):
            store.clone("/img/missing", "/img/c.qcow2")


class TestAttachment:
    def test_attach_exclusive(self, store):
        store.create("/img/a.qcow2", GiB)
        store.attach("/img/a.qcow2", "vm1")
        with pytest.raises(ResourceBusyError):
            store.attach("/img/a.qcow2", "vm2")
        store.attach("/img/a.qcow2", "vm1")  # re-attach by owner is fine

    def test_attached_image_cannot_be_deleted(self, store):
        store.create("/img/a.qcow2", GiB)
        store.attach("/img/a.qcow2", "vm1")
        with pytest.raises(ResourceBusyError, match="in use"):
            store.delete("/img/a.qcow2")
        store.detach("/img/a.qcow2", "vm1")
        store.delete("/img/a.qcow2")

    def test_detach_wrong_owner_is_noop(self, store):
        store.create("/img/a.qcow2", GiB)
        store.attach("/img/a.qcow2", "vm1")
        store.detach("/img/a.qcow2", "vm2")
        assert store.lookup("/img/a.qcow2").in_use_by == "vm1"

    def test_detach_all(self, store):
        store.create("/img/a.qcow2", GiB)
        store.create("/img/b.qcow2", GiB)
        store.attach("/img/a.qcow2", "vm1")
        store.attach("/img/b.qcow2", "vm1")
        store.detach_all("vm1")
        assert store.lookup("/img/a.qcow2").in_use_by is None
        assert store.lookup("/img/b.qcow2").in_use_by is None


class TestWrites:
    def test_write_grows_thin_allocation(self, store):
        store.create("/img/a.qcow2", 10 * GiB)
        store.write("/img/a.qcow2", 2 * GiB)
        assert store.lookup("/img/a.qcow2").allocation_bytes == 2 * GiB

    def test_write_clamped_to_capacity(self, store):
        store.create("/img/a.qcow2", GiB)
        store.write("/img/a.qcow2", 5 * GiB)
        assert store.lookup("/img/a.qcow2").allocation_bytes == GiB

    def test_write_respects_store_capacity(self, store):
        store.create("/img/big.raw", 99 * GiB, "raw")
        store.create("/img/a.qcow2", 10 * GiB)
        with pytest.raises(InvalidOperationError, match="store full"):
            store.write("/img/a.qcow2", 5 * GiB)

    def test_negative_write_rejected(self, store):
        store.create("/img/a.qcow2", GiB)
        with pytest.raises(InvalidArgumentError):
            store.write("/img/a.qcow2", -1)


class TestIntrospection:
    def test_list_paths_sorted(self, store):
        store.create("/img/b.qcow2", GiB)
        store.create("/img/a.qcow2", GiB)
        assert store.list_paths() == ["/img/a.qcow2", "/img/b.qcow2"]

    def test_chain_of_three(self, store):
        store.create("/img/1.qcow2", GiB)
        store.create("/img/2.qcow2", GiB, backing_path="/img/1.qcow2")
        store.create("/img/3.qcow2", GiB, backing_path="/img/2.qcow2")
        assert store.chain("/img/3.qcow2") == [
            "/img/3.qcow2",
            "/img/2.qcow2",
            "/img/1.qcow2",
        ]

    def test_lookup_missing(self, store):
        with pytest.raises(NoStorageVolumeError):
            store.lookup("/img/missing")


# -- the byte path (vol-upload / vol-download) --------------------------------


class TestByteBuffers:
    def test_non_byte_buffer_is_sized_and_stored_as_bytes(self, store):
        store.create("/img/a.qcow2", GiB)
        store.write_bytes("/img/a.qcow2", 0, b"A" * 16)
        words = array.array("I", [1, 2, 3])
        assert store.write_bytes("/img/a.qcow2", 0, words) == 12
        assert store.read_bytes("/img/a.qcow2", 0, 32) == words.tobytes() + b"A" * 4 + b"\x00" * 16
        assert store.lookup("/img/a.qcow2").allocation_bytes == 16

    @pytest.mark.parametrize(
        "data",
        [memoryview(b"abcdef")[::2], "text", 7, [b"ok", memoryview(b"abcdef")[::2]], [b"ok", "text"]],
        ids=["strided", "str", "int", "strided-in-list", "str-in-list"],
    )
    def test_uncastable_data_is_an_argument_error(self, store, data):
        store.create("/img/a.qcow2", GiB)
        store.write_bytes("/img/a.qcow2", 0, b"before")
        with pytest.raises(InvalidArgumentError, match="byte buffers"):
            store.write_bytes("/img/a.qcow2", 0, data)
        assert store.read_bytes("/img/a.qcow2", 0, 6) == b"before"

    def test_sequence_lands_back_to_back_in_one_write(self, store):
        store.create("/img/a.qcow2", GiB)
        parts = [b"ab", bytearray(b"cd"), b"", memoryview(b"xefx")[1:3], array.array("H", [0x6867])]
        assert store.write_bytes("/img/a.qcow2", 3, parts) == 8
        assert store.read_bytes("/img/a.qcow2", 0, 12) == b"\x00\x00\x00abcdefgh\x00"
        assert store.lookup("/img/a.qcow2").allocation_bytes == 11

    def test_growing_write_right_after_a_read(self, store):
        # a view left exported by either call would make this extend raise BufferError
        store.create("/img/a.qcow2", GiB)
        store.write_bytes("/img/a.qcow2", 0, b"abc")
        assert store.read_bytes("/img/a.qcow2", 0, 3) == b"abc"
        store.write_bytes("/img/a.qcow2", 3, [b"def"])
        store.write_bytes("/img/a.qcow2", 6, b"ghi")
        assert store.read_bytes("/img/a.qcow2", 0, 9) == b"abcdefghi"

    def test_read_is_a_snapshot(self, store):
        store.create("/img/a.qcow2", GiB)
        store.write_bytes("/img/a.qcow2", 0, b"old!")
        snapshot = store.read_bytes("/img/a.qcow2", 0, 4)
        store.write_bytes("/img/a.qcow2", 0, b"new!")
        assert type(snapshot) is bytes and snapshot == b"old!"


# the store against a plain bytearray model

IMAGE_CAPACITY = 1024
STORE_CAPACITY = 1400
BLOCK = 64
PATH, FILLER = "/img/a.qcow2", "/img/filler.qcow2"


def _as_array(data):
    words = array.array({0: "I", 2: "H"}.get(len(data) % 4, "B"))
    words.frombytes(data)
    return words


#: every single-buffer type the API admits, built from plain bytes
SHAPES = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": memoryview,
    "sliced": lambda data: memoryview(b"<" + data + b">")[1:-1],
    "array": _as_array,
}

buffers = st.tuples(st.binary(max_size=200), st.sampled_from(sorted(SHAPES)))
store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, IMAGE_CAPACITY + 40), buffers),
        st.tuples(
            st.just("write_seq"),
            st.integers(0, IMAGE_CAPACITY + 40),
            st.lists(buffers, max_size=20),
            st.sampled_from([list, tuple]),
        ),
        st.tuples(
            st.just("read"),
            st.integers(0, IMAGE_CAPACITY + 40),
            st.one_of(st.none(), st.integers(0, IMAGE_CAPACITY + 200)),
        ),
        st.tuples(st.just("fill"), st.integers(0, 400)),
    ),
    max_size=25,
)


def _state(store):
    return (
        bytes(store._content.get(PATH, b"")),
        store.lookup(PATH).allocation_bytes,
        store.dirty_blocks(PATH),
    )


def _attempt(call):
    try:
        return call()
    except InvalidOperationError as exc:
        return "full" if "store full" in str(exc) else "exceeds"


def check_store_against_model(ops):
    """Run ``ops`` on a store fed the buffers as drawn, on a twin fed
    each write as one joined ``bytes``, and on a ``bytearray`` model."""
    store, twin = (ImageStore(capacity_bytes=STORE_CAPACITY, block_size=BLOCK) for _ in range(2))
    for each in (store, twin):
        each.create(PATH, IMAGE_CAPACITY)
        each.create(FILLER, IMAGE_CAPACITY)
    content, allocation, dirty = bytearray(), 0, set()
    for op in ops:
        if op[0] == "fill":
            for each in (store, twin):
                _attempt(lambda: each.write(FILLER, op[1]))
        elif op[0] == "read":
            _, offset, length = op
            want = (bytes(content) + bytes(IMAGE_CAPACITY))[:IMAGE_CAPACITY]
            want = want[offset:] if length is None else want[offset : offset + length]
            got = store.read_bytes(PATH, offset, length)
            assert type(got) is bytes and got == want
        else:
            offset = op[1]
            drawn = [op[2]] if op[0] == "write" else op[2]
            flat = b"".join(data for data, _ in drawn)
            shaped = [SHAPES[shape](data) for data, shape in drawn]
            end = offset + len(flat)
            growth = max(allocation, end) - allocation
            if end > IMAGE_CAPACITY:
                expected = "exceeds"
            elif growth > 0 and store.allocated_bytes + growth > STORE_CAPACITY:
                expected = "full"
            else:
                expected = len(flat)
                content.extend(bytes(max(0, end - len(content))))
                content[offset:end] = flat
                allocation += growth
                if flat:
                    dirty.update(range(offset // BLOCK, (end - 1) // BLOCK + 1))
            before = _state(store)
            given_data = shaped[0] if op[0] == "write" else op[3](shaped)
            assert _attempt(lambda: store.write_bytes(PATH, offset, given_data)) == expected
            assert _attempt(lambda: twin.write_bytes(PATH, offset, flat)) == expected
            if isinstance(expected, str):
                assert _state(store) == before
        assert _state(store) == _state(twin) == (bytes(content), allocation, frozenset(dirty))
    assert store.read_bytes(PATH) == bytes(content) + bytes(IMAGE_CAPACITY - len(content))


class TestStoreAgainstModel:
    @given(store_ops)
    @settings(max_examples=150, deadline=None)
    def test_byte_path_matches_a_bytearray_model(self, ops):
        check_store_against_model(ops)

    @pytest.mark.slow
    @given(store_ops)
    @settings(max_examples=2000, deadline=None)
    def test_byte_path_matches_a_bytearray_model_soak(self, ops):
        check_store_against_model(ops)
