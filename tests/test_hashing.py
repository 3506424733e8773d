import re
import sys

from eegrag.hashing import (
    HYPEREDGE_TAG,
    collapse_whitespace,
    entity_id,
    fnv1a64,
    fnv1a64_text,
    hyperedge_id,
    is_hyperedge_id,
    normalize_name,
)

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
