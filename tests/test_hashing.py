import re
import sys
import tracemalloc
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegrag import hashing
from eegrag.hashing import (
    HYPEREDGE_TAG,
    collapse_whitespace,
    entity_id,
    fnv1a64,
    fnv1a64_many,
    fnv1a64_text,
    hyperedge_ids,
    is_hyperedge_id,
    normalize_name,
)

PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def hyperedge_id(description, member_ids, layer):
    return hyperedge_ids([(description, member_ids, layer)])[0]


# Published FNV-1a 64-bit test vectors (independently recomputed before freezing).
FNV_VECTORS = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"foobar": 0x85944171F73967E8,
}


def test_fnv1a64_reference_vectors():
    for data, expected in FNV_VECTORS.items():
        assert fnv1a64(data) == expected


def test_fnv1a64_text_is_utf8():
    assert fnv1a64_text("foobar") == FNV_VECTORS[b"foobar"]
    assert fnv1a64_text("é") == fnv1a64("é".encode("utf-8"))


def test_normalize_name():
    assert normalize_name("  Spike   Wave \t Discharge ") == "spike wave discharge"
    assert normalize_name("ALPHA") == "alpha"


def test_collapse_whitespace_counts_exactly_regex_whitespace():
    # the entity ids and case hashes of existing stores were derived from
    # names collapsed with re.sub(r"\s+", " ", ...), so a different set of
    # whitespace characters would give their rows new ids
    chars = [chr(code) for code in range(sys.maxunicode + 1)]
    whitespace = [c for c in chars if re.fullmatch(r"\s", c)]
    assert whitespace == [c for c in chars if c.isspace()]
    for c in whitespace:
        assert collapse_whitespace(f"{c} a{c}{c}b {c}x") == "a b x"
    assert collapse_whitespace("a\u200bb") == "a\u200bb"  # a zero-width space is not whitespace


def test_entity_id_normalization_invariance():
    assert entity_id("Spike-Wave") == entity_id("  spike-wave  ")
    assert entity_id("spike wave") != entity_id("spike-wave")


def test_id_namespace_tag_bit():
    eid = entity_id("alpha rhythm")
    hid = hyperedge_id("some fact", {eid}, "knowledge")
    assert not is_hyperedge_id(eid)
    assert is_hyperedge_id(hid)
    assert eid < HYPEREDGE_TAG <= hid < (1 << 64)


def test_hyperedge_id_member_order_invariant():
    a, b = entity_id("a"), entity_id("b")
    assert hyperedge_id("f", [a, b], "knowledge") == hyperedge_id("f", [b, a], "knowledge")
    assert hyperedge_id("f", [a, b], "knowledge") != hyperedge_id("f", [a, b], "case")
    assert hyperedge_id("f", [a, b], "knowledge") != hyperedge_id("g", [a, b], "knowledge")


def test_entity_id_is_the_hash_of_the_normalized_name():
    for _ in range(2):  # cold, then from the cache
        assert entity_id(" Alpha  Rhythm") == fnv1a64_text("alpha rhythm") & ~HYPEREDGE_TAG


LONG = b"\xff\x00" * 50_000  # 100 kB


@PROPERTY
@given(blobs=st.lists(st.binary(max_size=1000), max_size=100))
@example(blobs=[])
@example(blobs=[b""])
@example(blobs=[b""] * 40)
@example(blobs=[bytes(range(256))] * 20 + [b"", bytes(range(255, -1, -1))])
@example(blobs=[bytes([i]) * 30 for i in range(32)])  # every row live to the last column
@example(blobs=[bytes([i % 256]) * n for i, n in enumerate(range(0, 1001, 25))])
@example(blobs=[b"short"] * 30 + [LONG] + [b""] * 5)
def test_fnv1a64_many_equals_fnv1a64_per_blob(blobs):
    expected = [fnv1a64(b) for b in blobs]
    assert fnv1a64_many(blobs) == expected
    assert fnv1a64_many(iter(blobs)) == expected
    # a tail of 2 sends all but the last live row through the numpy passes
    with mock.patch.object(hashing, "_SCALAR_TAIL", 2):
        assert fnv1a64_many(blobs) == expected


def test_fnv1a64_continues_from_a_state():
    assert fnv1a64(b"bar", fnv1a64(b"foo")) == FNV_VECTORS[b"foobar"]


def test_fnv1a64_many_finishes_its_last_live_rows_with_the_loop(monkeypatch):
    # one long blob among short ones: numpy passes stop once fewer than
    # _SCALAR_TAIL rows are live, and the loop hashes the long blob's rest
    calls = []

    def loop(data, h=hashing.FNV64_OFFSET):
        calls.append(len(data))
        return fnv1a64(data, h)

    monkeypatch.setattr(hashing, "fnv1a64", loop)
    blobs = [bytes([i % 256]) * (i + 1) for i in range(200)] + [LONG]
    assert fnv1a64_many(blobs) == [fnv1a64(b) for b in blobs]
    assert len(calls) < hashing._SCALAR_TAIL
    assert max(calls) > len(LONG) - 200


def test_fnv1a64_many_holds_no_padded_matrix():
    # padded to the longest blob, these 101 rows would take 10 MB as bytes
    blobs = [LONG] + [b"y" * 10] * 100
    tracemalloc.start()
    try:
        fnv1a64_many(blobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(LONG)
