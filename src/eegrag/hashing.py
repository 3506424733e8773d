"""Content hashing and the shared node-id namespace.

All identifiers in the package are content-addressed 64-bit FNV-1a hashes,
so re-ingesting identical input always yields identical ids. Entities and
hyperedges live in a single id namespace distinguished by the top bit, which
lets traversal code treat both as plain graph nodes.

``fnv1a64`` is the byte loop, and the reference for the batch path.
``fnv1a64_many`` hashes many blobs at once with the same arithmetic on
numpy ``uint64`` arrays, which wrap mod 2**64 as FNV requires. It sorts the
blobs longest first and joins them into one flat byte buffer, then makes
one xor-multiply pass per byte column over the rows that still have a byte
there, which are a prefix of the sorted rows. Memory is one byte per input
byte plus a few words per blob: the blobs are never padded into a matrix.
Once fewer than ``_SCALAR_TAIL`` rows are still live, the loop finishes
them from their partial hashes, so a few long blobs never cost one numpy
pass per byte.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# Top bit of the 64-bit id tags the node kind: 0 = entity, 1 = hyperedge.
HYPEREDGE_TAG = 1 << 63

# distinct names whose entity id is kept; a full cache is ~3 MiB
_ENTITY_IDS = 1 << 14

# below this many live rows the byte loop is cheaper than a numpy pass: a
# column pass costs ~10 us, the loop ~0.19 us a byte (CPython 3.11, x86-64),
# and the two were even at 48 to 64 live rows of 4 kB blobs
_SCALAR_TAIL = 48


def fnv1a64(data: bytes, h: int = FNV64_OFFSET) -> int:
    """64-bit FNV-1a hash of ``data``, continued from state ``h``."""
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


def fnv1a64_many(blobs) -> list[int]:
    """``[fnv1a64(b) for b in blobs]``, in one numpy pass per byte column."""
    blobs = list(blobs)
    n = len(blobs)
    lengths = np.fromiter(map(len, blobs), dtype=np.intp, count=n)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    flat = np.frombuffer(b"".join([blobs[i] for i in order.tolist()]), dtype=np.uint8)
    pos = np.zeros(n, dtype=np.intp)  # each live row's next byte in ``flat``
    np.cumsum(lengths[:-1], out=pos[1:])
    h = np.full(n, FNV64_OFFSET, dtype=np.uint64)
    prime = np.uint64(FNV64_PRIME)
    byte = np.empty(n, dtype=np.uint8)
    longest_first = lengths.tolist()
    live, col = n, 0  # rows [0, live) have a byte in column ``col``
    while True:
        while live and longest_first[live - 1] <= col:
            live -= 1
        if live < _SCALAR_TAIL:
            break
        np.take(flat, pos[:live], out=byte[:live])
        h[:live] ^= byte[:live]
        h[:live] *= prime
        pos[:live] += 1
        col += 1
    for row in range(live):
        h[row] = fnv1a64(blobs[order[row]][col:], int(h[row]))
    hashes = np.empty_like(h)
    hashes[order] = h
    return hashes.tolist()


def fnv1a64_text(text: str) -> int:
    return fnv1a64(text.encode("utf-8"))


def normalize_name(name: str) -> str:
    """Canonical form used for entity identity: lowercase, collapsed whitespace."""
    return collapse_whitespace(name).lower()


def collapse_whitespace(text: str) -> str:
    """``text`` stripped, each inner run of whitespace (``str.isspace``) one space."""
    return " ".join(text.split())


@lru_cache(maxsize=_ENTITY_IDS)
def entity_id(name: str) -> int:
    """Deterministic entity id from the normalized name (top bit cleared)."""
    return fnv1a64_text(normalize_name(name)) & ~HYPEREDGE_TAG


def hyperedge_ids(edges) -> list[int]:
    """The id of each ``(description, member_ids, layer)``: the hash of the
    description, the sorted members and the layer, with the tag bit set."""
    canonical = (
        "\x1f".join([description, ",".join(map(str, sorted(member_ids))), layer]).encode("utf-8")
        for description, member_ids, layer in edges
    )
    return [h | HYPEREDGE_TAG for h in fnv1a64_many(canonical)]


def is_hyperedge_id(node_id: int) -> bool:
    return bool(node_id & HYPEREDGE_TAG)
