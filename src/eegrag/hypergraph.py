"""Bipartite hypergraph store: entities, n-ary hyperedges, and traversal.

The store keeps entities and hyperedges as two node families of one graph,
linked only by incidence (an edge node connects to each of its member entity
nodes). That uniform view makes BFS-style traversal type-agnostic, which the
retrieval-fusion stage relies on.

Lifecycle: a store is mutable while being built (single writer), then
``seal()`` freezes it for unlimited concurrent readers. There is no
reader/writer interleaving; re-ingestion starts from a fresh load. Sealing
also builds the query indexes (``HyperedgeIndex``, ``NameIndex``); queries
only read them.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotFoundError,
    PreconditionError,
    ReferentialError,
    StoreSealedError,
)
from .hashing import collapse_whitespace, entity_id, hyperedge_id, is_hyperedge_id
from .jsonl import int_field, read_json, read_jsonl, str_field, write_json, write_jsonl

FORMAT_VERSION = 1
META_FILE = "meta.json"

KNOWLEDGE_LAYER = "knowledge"
CASE_LAYER = "case"
LAYERS = (KNOWLEDGE_LAYER, CASE_LAYER)

_WORD = re.compile(r"[0-9A-Za-z]+")


def word_tokens(text: str) -> list[tuple[str, int, int]]:
    """Lowercased alphanumeric word tokens of ``text`` with their character spans."""
    return [(m.group(0).lower(), m.start(), m.end()) for m in _WORD.finditer(text)]


@dataclass
class Entity:
    """A named clinical concept node shared across layers."""

    id: int
    name: str
    etype: str
    definition: str


@dataclass
class Hyperedge:
    """An n-ary relation: one fact description over a set of member entities."""

    id: int
    description: str
    members: frozenset[int]
    layer: str
    embedding: np.ndarray


@dataclass
class Neighborhood:
    """BFS result over the bipartite graph, split by node kind."""

    entity_ids: set[int] = field(default_factory=set)
    hyperedge_ids: set[int] = field(default_factory=set)

    @property
    def nodes(self) -> set[int]:
        return self.entity_ids | self.hyperedge_ids


class HyperedgeIndex:
    """The hyperedges' embeddings as one read-only matrix.

    Rows are grouped by layer, ascending id within a layer, so each layer is
    one contiguous block and the whole matrix serves ``layer=None``. Every
    edge's ``embedding`` becomes a view of its row, so each vector is held
    once. ``inv_norms`` holds 1/||row||, and 0.0 for a zero row.
    """

    def __init__(self, hyperedges: dict[int, Hyperedge], dim: int):
        order = sorted((LAYERS.index(e.layer), hid) for hid, e in hyperedges.items())
        self.ids = [hid for _, hid in order]
        matrix = np.empty((len(order), dim))
        for row, hid in enumerate(self.ids):
            matrix[row] = hyperedges[hid].embedding
        matrix.flags.writeable = False
        for row, hid in enumerate(self.ids):
            hyperedges[hid].embedding = matrix[row]
        self.matrix = matrix
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        self.inv_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
        ranks = [rank for rank, _ in order]
        self.blocks: dict[str | None, slice] = {None: slice(0, len(order))}
        for rank, layer in enumerate(LAYERS):
            self.blocks[layer] = slice(bisect_left(ranks, rank), bisect_right(ranks, rank))


class NameIndex:
    """Entity names compiled for dictionary linking.

    ``by_seq`` maps each name's word-token sequence to its entity id; when
    names share a sequence, the lowest id wins. ``width`` is the longest
    sequence, so linking a text needs at most ``width`` lookups per token.
    """

    def __init__(self, entities: dict[int, Entity]):
        self.by_seq: dict[tuple[str, ...], int] = {}
        for eid in sorted(entities):
            seq = tuple(word for word, _, _ in word_tokens(entities[eid].name))
            if seq:
                self.by_seq.setdefault(seq, eid)
        self.width = max(map(len, self.by_seq), default=0)


class BipartiteStore:
    """In-memory hypergraph with content-addressed ids and an incidence index.

    ``incidence`` is maintained as the exact inverse of the member relation:
    ``e in incidence[v]  <=>  v in members(e)`` for every reachable state.
    """

    def __init__(self, embedding_dim: int = 256):
        if embedding_dim < 1:
            raise PreconditionError("embedding_dim must be >= 1")
        self.embedding_dim = embedding_dim
        self.entities: dict[int, Entity] = {}
        self.hyperedges: dict[int, Hyperedge] = {}
        self.incidence: dict[int, set[int]] = {}
        self.edge_index: HyperedgeIndex | None = None
        self.names: NameIndex | None = None
        self._sealed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> None:
        """Freeze the store and build its query indexes; subsequent mutations
        raise ``StoreSealedError``."""
        if self._sealed:
            return
        self.edge_index = HyperedgeIndex(self.hyperedges, self.embedding_dim)
        self.names = NameIndex(self.entities)
        self._sealed = True

    def _require_unsealed(self) -> None:
        if self._sealed:
            raise StoreSealedError("store is sealed; build a new store to re-ingest")

    def _check_dim(self, embedding: np.ndarray) -> np.ndarray:
        vec = np.asarray(embedding, dtype=np.float64)
        if vec.ndim != 1 or vec.shape[0] != self.embedding_dim:
            raise DimensionMismatchError(
                f"embedding has dimension {vec.shape}, store expects {self.embedding_dim}"
            )
        if not np.isfinite(vec).all():
            raise PreconditionError("embedding values must be finite")
        return vec

    # -- mutation ------------------------------------------------------------

    def add_entity(self, name: str, etype: str = "", definition: str = "") -> int:
        """Register an entity; re-adding the same normalized name merges its
        text fields, the newest non-empty one winning."""
        self._require_unsealed()
        if not name or not name.strip():
            raise PreconditionError("entity name must be non-empty")
        name = collapse_whitespace(name)
        eid = entity_id(name)
        existing = self.entities.get(eid)
        if existing is None:
            self.entities[eid] = Entity(eid, name, etype, definition)
            self.incidence.setdefault(eid, set())
        else:
            if etype:
                existing.etype = etype
            if definition:
                existing.definition = definition
        return eid

    def add_hyperedge(
        self,
        description: str,
        members: set[int],
        embedding: np.ndarray,
        layer: str = KNOWLEDGE_LAYER,
    ) -> int:
        """Store an n-ary relation with its embedding and index it under every
        member entity; re-adding an edge keeps the first embedding."""
        self._require_unsealed()
        if not members:
            raise PreconditionError("hyperedge members must be non-empty")
        if layer not in LAYERS:
            raise PreconditionError(f"unknown layer {layer!r}; expected one of {LAYERS}")
        unknown = [m for m in members if m not in self.entities]
        if unknown:
            raise ReferentialError(f"hyperedge references unknown entity ids: {sorted(unknown)}")
        vec = self._check_dim(embedding)
        member_set = frozenset(members)
        hid = hyperedge_id(description, member_set, layer)
        if hid not in self.hyperedges:
            self.hyperedges[hid] = Hyperedge(hid, description, member_set, layer, vec)
            for m in member_set:
                self.incidence[m].add(hid)
        return hid

    # -- lookup --------------------------------------------------------------

    def has_node(self, node_id: int) -> bool:
        return node_id in self.hyperedges if is_hyperedge_id(node_id) else node_id in self.entities

    def incident_hyperedges(self, eid: int) -> set[int]:
        """All hyperedges whose member set contains the entity."""
        if eid not in self.entities:
            raise NotFoundError(f"unknown entity id {eid}")
        return set(self.incidence.get(eid, ()))

    # -- traversal -----------------------------------------------------------

    def _neighbors(self, node_id: int):
        if is_hyperedge_id(node_id):
            return self.hyperedges[node_id].members
        return self.incidence.get(node_id, ())

    def neighborhood(self, seeds: set[int], radius: int) -> Neighborhood:
        """All nodes within ``radius`` bipartite hops of any seed.

        Radius 0 returns exactly the seed set. A node only joins the result
        if it is within the hop budget; members of an included hyperedge are
        not pulled in for free.
        """
        if radius < 0:
            raise PreconditionError("radius must be >= 0")
        missing = [s for s in seeds if not self.has_node(s)]
        if missing:
            raise NotFoundError(f"unknown seed node ids: {sorted(missing)}")

        visited = set(seeds)
        frontier = deque(seeds)
        for _ in range(radius):
            if not frontier:
                break
            next_frontier: deque[int] = deque()
            while frontier:
                node = frontier.popleft()
                for nb in self._neighbors(node):
                    if nb not in visited:
                        visited.add(nb)
                        next_frontier.append(nb)
            frontier = next_frontier

        result = Neighborhood()
        for node in visited:
            (result.hyperedge_ids if is_hyperedge_id(node) else result.entity_ids).add(node)
        return result

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write ``entities.jsonl``, ``hyperedges.jsonl``, and ``meta.json``.

        Rows are sorted by id and sets are serialized sorted, so identical
        stores serialize byte-identically. Each file is replaced whole, in
        that order: a store only gains entities, so a crash between files
        leaves no hyperedge on disk without its members.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_jsonl(
            directory / "entities.jsonl",
            (
                {
                    "id": ent.id,
                    "name": ent.name,
                    "etype": ent.etype,
                    "definition": ent.definition,
                }
                for _, ent in sorted(self.entities.items())
            ),
        )
        write_jsonl(
            directory / "hyperedges.jsonl",
            (
                {
                    "id": edge.id,
                    "description": edge.description,
                    "members": sorted(edge.members),
                    "layer": edge.layer,
                    "embedding": edge.embedding.tolist(),
                }
                for _, edge in sorted(self.hyperedges.items())
            ),
        )
        write_json(
            directory / META_FILE,
            {
                "format_version": FORMAT_VERSION,
                "embedding_dim": self.embedding_dim,
                "entity_count": len(self.entities),
                "hyperedge_count": len(self.hyperedges),
            },
        )

    @classmethod
    def load(cls, directory: str | Path, embedding_dim: int) -> "BipartiteStore":
        """The store saved under ``directory`` (empty without ``META_FILE``),
        unsealed; one saved under another ``embedding_dim`` is rejected."""
        directory = Path(directory)
        if not (directory / META_FILE).exists():
            return cls(embedding_dim)

        def from_meta(meta: dict) -> "BipartiteStore":
            if meta.get("format_version") != FORMAT_VERSION:
                raise PreconditionError(
                    f"unsupported store format version {meta.get('format_version')!r}"
                )
            return cls(embedding_dim=meta["embedding_dim"])

        def entity(row: dict) -> Entity:
            return Entity(
                int_field(row["id"], "id"),
                str_field(row["name"], "name"),
                str_field(row["etype"], "etype"),
                str_field(row["definition"], "definition"),
            )

        def hyperedge(row: dict) -> Hyperedge:
            hid = int_field(row["id"], "id")
            description = str_field(row["description"], "description")
            if row["layer"] not in LAYERS:
                raise PreconditionError(f"hyperedge {hid} has unknown layer {row['layer']!r}")
            emb = store._check_dim(row["embedding"])
            members = frozenset(int_field(m, "member") for m in row["members"])
            if not members:
                raise PreconditionError("hyperedge members must be non-empty")
            for m in members:
                if m not in store.entities:
                    raise ReferentialError(f"hyperedge {hid} references unknown entity {m}")
            return Hyperedge(hid, description, members, row["layer"], emb)

        store = read_json(directory / META_FILE, from_meta)
        if store.embedding_dim != embedding_dim:
            raise PreconditionError(
                f"store embedding_dim {store.embedding_dim} != configured {embedding_dim}"
            )
        for ent in read_jsonl(directory / "entities.jsonl", entity):
            store.entities[ent.id] = ent
            store.incidence.setdefault(ent.id, set())
        for edge in read_jsonl(directory / "hyperedges.jsonl", hyperedge):
            store.hyperedges[edge.id] = edge
            for m in edge.members:
                store.incidence[m].add(edge.id)
        return store
