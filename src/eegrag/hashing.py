"""Content hashing and the shared node-id namespace.

All identifiers in the package are content-addressed 64-bit FNV-1a hashes,
so re-ingesting identical input always yields identical ids. Entities and
hyperedges live in a single id namespace distinguished by the top bit, which
lets traversal code treat both as plain graph nodes.
"""

from __future__ import annotations

from functools import lru_cache

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# Top bit of the 64-bit id tags the node kind: 0 = entity, 1 = hyperedge.
HYPEREDGE_TAG = 1 << 63

# distinct names whose entity id is kept; a full cache is ~3 MiB
_ENTITY_IDS = 1 << 14


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``."""
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


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


def hyperedge_id(description: str, member_ids, layer: str) -> int:
    """Deterministic hyperedge id from description, sorted members, and layer."""
    canonical = "\x1f".join(
        [description, ",".join(str(m) for m in sorted(member_ids)), layer]
    )
    return fnv1a64_text(canonical) | HYPEREDGE_TAG


def is_hyperedge_id(node_id: int) -> bool:
    return bool(node_id & HYPEREDGE_TAG)
