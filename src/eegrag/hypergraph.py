"""Bipartite hypergraph store: entities, n-ary hyperedges, and traversal.

The store keeps entities and hyperedges as two node families of one graph,
linked only by incidence (an edge node connects to each of its member entity
nodes). That uniform view makes BFS-style traversal type-agnostic, which the
retrieval-fusion stage relies on.

Lifecycle: a store is mutable while being built (single writer), then
``seal()`` freezes it for unlimited concurrent readers. There is no
reader/writer interleaving; re-ingestion starts from a fresh load. Rows
enter through one door per kind, ``_put_entity`` and ``_put_edge``, for
ingest and load alike: the door checks the row and keeps ``incidence``, the
``NameIndex`` and ``case_members`` current. A hyperedge row passes the
door's field rules, ``_check_edge``, before ``_put_edge``; ingest adds
hyperedges in batches (``add_hyperedges``), which check every row first
and hash all their ids at once. Sealing marks each hyperedge's vector
read-only and builds two derived structures: the vectors' column postings
(``HyperedgeIndex``), so each vector is held once, on its edge, and the
incidence sets laid end to end as one sorted array (``incident_edges``,
sliced by ``incident_spans``), which fusion counts; queries only read.

On disk each hyperedge layer has its own file (``LAYER_FILES``), next to
``entities.jsonl`` and ``meta.json``. An ingest that changes one layer
loads the entities and that layer only (``load(..., layers=...)``) and
saves back only that layer's file and ``meta.json``, so the entities and
the other layers' files stay as they were; such a partial store takes no
new entity and is never sealed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .embedding import _WORD
from .errors import (
    DimensionMismatchError,
    NotFoundError,
    PreconditionError,
    ReferentialError,
    StoreSealedError,
)
from .hashing import collapse_whitespace, entity_id, hyperedge_ids, is_hyperedge_id
from .jsonl import (
    VectorEncoder,
    float_array,
    int_field,
    json_str,
    read_json,
    read_jsonl,
    shown,
    str_field,
    write_json,
    write_jsonl,
    write_lines,
)

FORMAT_VERSION = 3
META_FILE = "meta.json"

KNOWLEDGE_LAYER = "knowledge"
CASE_LAYER = "case"
LAYERS = (KNOWLEDGE_LAYER, CASE_LAYER)
# the file that holds each layer's hyperedge rows
LAYER_FILES = {KNOWLEDGE_LAYER: "hyperedges.jsonl", CASE_LAYER: "case_edges.jsonl"}


def word_tokens(text: str) -> list[tuple[str, int, int]]:
    """The lowercased words of ``text`` (``embedding._WORD``, the one word
    rule) with their character spans."""
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
    """Column postings of the hyperedges' embeddings, the retrieval filter's
    only structure; each vector is held once, as its edge's ``embedding``.

    Rows are grouped by layer, ascending id within a layer, so each layer is
    one contiguous block of ``ids`` and all rows serve ``layer=None``.
    ``inv_norms`` holds 1/||row||, and 0.0 for a zero row.

    The column postings hold the rows' nonzero entries by column: column
    j's are ``posting_rows[indptr[j]:indptr[j + 1]]`` (row positions,
    ascending) and the same slice of ``posting_values``. The rows are
    stacked into a matrix only while these are cut from it.
    """

    def __init__(self, hyperedges: dict[int, Hyperedge], dim: int):
        order = sorted((LAYERS.index(e.layer), hid) for hid, e in hyperedges.items())
        self.ids = [hid for _, hid in order]
        matrix = np.empty((len(order), dim))
        for row, hid in enumerate(self.ids):
            matrix[row] = hyperedges[hid].embedding
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        self.inv_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
        ranks = [rank for rank, _ in order]
        self.blocks: dict[str | None, slice] = {None: slice(0, len(order))}
        for rank, layer in enumerate(LAYERS):
            self.blocks[layer] = slice(bisect_left(ranks, rank), bisect_right(ranks, rank))
        flat = np.flatnonzero(matrix)
        rows, cols = np.divmod(flat, dim)
        # stable, so rows stay ascending within a column; on the narrowest
        # integer type that holds a column, numpy sorts by radix
        by_col = np.argsort(cols.astype(np.min_scalar_type(dim)), kind="stable")
        self.posting_rows = rows[by_col].astype(np.int32)
        self.posting_values = matrix.ravel()[flat[by_col]]
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=dim))))

    def dots(self, q: np.ndarray, block: slice) -> np.ndarray:
        """Each row of ``block`` dotted with ``q``, summed from the column
        postings: each nonzero of ``q`` meets only its column's nonzero
        entries, gathered and summed per row by one ``bincount``, so a row
        that shares no dimension with ``q`` gets exactly 0.0."""
        dims = np.flatnonzero(q)
        starts, ends = self.indptr[dims], self.indptr[dims + 1]
        cols = [slice(i, j) for i, j in zip(starts.tolist(), ends.tolist())]
        # each dimension's postings, laid end to end after an empty head, so
        # that a zero q concatenates to no postings
        rows = np.concatenate([self.posting_rows[:0], *(self.posting_rows[c] for c in cols)])
        values = np.concatenate([self.posting_values[:0], *(self.posting_values[c] for c in cols)])
        weights = values * np.repeat(q[dims], ends - starts)
        sums = np.bincount(rows, weights=weights, minlength=len(self.ids))
        return sums[block]


class NameIndex:
    """Entity names compiled for dictionary linking.

    ``by_seq`` maps each name's word-token sequence to its entity id; when
    names share a sequence, the lowest id wins, in whatever order they were
    added. ``starts`` maps each sequence's first word to the longest
    sequence that starts with it, so linking a text looks up, at each
    token, only the widths up to that token's entry (none for a word that
    starts no name).
    """

    def __init__(self):
        self.by_seq: dict[tuple[str, ...], int] = {}
        self.starts: dict[str, int] = {}

    def add(self, entity: Entity) -> None:
        """Index ``entity`` under its name's words, unless they miss one of
        its letters or digits (``'癫痫'``, ``'Ｅpilepsy'``, ``'α rhythm'``):
        such a name is left unindexed, so no fragment of it is linked."""
        if any(ch.isalnum() for ch in _WORD.sub("", entity.name)):
            return
        seq = tuple(word for word, _, _ in word_tokens(entity.name))
        if seq and self.by_seq.get(seq, entity.id) >= entity.id:
            self.by_seq[seq] = entity.id
            self.starts[seq[0]] = max(self.starts.get(seq[0], 0), len(seq))


class BipartiteStore:
    """In-memory hypergraph with content-addressed ids and an incidence index.

    ``incidence`` is maintained as the exact inverse of the member relation:
    ``e in incidence[v]  <=>  v in members(e)`` for every reachable state.
    ``case_members`` maps each case-layer edge's description (a case's
    attribute tuple) to its members, the entities the case mentions.
    From ``seal()`` on, entity ``v``'s incident hyperedge ids, ascending, are
    also ``incident_edges[slice(*incident_spans[v])]``.

    ``layers`` names the hyperedge layers the store holds, in ``LAYERS``
    order: every layer unless it was loaded with fewer. A store that holds
    fewer takes no entity and no edge of another layer, saves only its
    layers' files and ``meta.json``, and cannot be sealed.
    """

    def __init__(self, embedding_dim: int = 256, layers: Iterable[str] = LAYERS):
        if embedding_dim < 1:
            raise PreconditionError("embedding_dim must be >= 1")
        layers = set(layers)
        if not layers <= set(LAYERS):
            raise PreconditionError(f"unknown layers {sorted(layers - set(LAYERS))}; expected some of {LAYERS}")
        self.embedding_dim = embedding_dim
        self.layers = tuple(layer for layer in LAYERS if layer in layers)
        self.entities: dict[int, Entity] = {}
        self.hyperedges: dict[int, Hyperedge] = {}
        self.incidence: dict[int, set[int]] = {}
        self.edge_index: HyperedgeIndex | None = None
        self.incident_edges = np.empty(0, dtype=np.uint64)
        self.incident_spans: dict[int, tuple[int, int]] = {}
        self.names = NameIndex()
        self.case_members: dict[str, frozenset[int]] = {}
        self._sealed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> None:
        """Freeze the store: cut the hyperedge vectors' column postings, lay
        each entity's incident hyperedge ids end to end in ascending order
        (``incident_edges``, ``uint64``, whose order is that of the ids) with
        its ``(start, stop)`` in ``incident_spans``, and mark each vector
        read-only; subsequent mutations raise ``StoreSealedError``. A store
        that holds fewer than every layer is refused: queries need them all."""
        if self._sealed:
            return
        if self.layers != LAYERS:
            raise PreconditionError(
                f"a store that holds only the {self.layers} layers cannot be sealed; load every layer"
            )
        self.edge_index = HyperedgeIndex(self.hyperedges, self.embedding_dim)
        flat: list[int] = []
        for eid, edges in self.incidence.items():
            start = len(flat)
            flat += sorted(edges)
            self.incident_spans[eid] = (start, len(flat))
        self.incident_edges = np.array(flat, dtype=np.uint64)
        for edge in self.hyperedges.values():
            edge.embedding.flags.writeable = False
        self._sealed = True

    def _require_unsealed(self) -> None:
        if self._sealed:
            raise StoreSealedError("store is sealed; build a new store to re-ingest")

    # -- the doors: the only writers of rows ---------------------------------

    def _check_new_id(self, node_id: int, kind: str) -> None:
        if not 0 <= int_field(node_id, "id") < 1 << 64:
            raise PreconditionError(f"{kind} id {shown(node_id)} is not in [0, 2**64)")
        if is_hyperedge_id(node_id) != (kind == "hyperedge"):
            tag = "lacks" if kind == "hyperedge" else "carries"
            raise PreconditionError(f"{kind} id {node_id} {tag} the hyperedge tag bit (1 << 63)")
        if self.has_node(node_id):
            raise PreconditionError(f"{kind} id {node_id} repeats")

    def _put_entity(self, entity: Entity, content_id: bool = False) -> None:
        """Check an entity row and insert it under a new id, indexing its
        name. With ``content_id`` the id is first set from the name, and an
        entity already stored under it takes the row's non-empty texts."""
        self._require_unsealed()
        for key in ("name", "etype", "definition"):
            str_field(getattr(entity, key), key)
        if not entity.name.strip():
            raise PreconditionError("entity name must be non-empty")
        if entity.name != collapse_whitespace(entity.name):
            raise PreconditionError(f"entity name {entity.name!r} is not whitespace-collapsed")
        if content_id:
            entity.id = entity_id(entity.name)
            existing = self.entities.get(entity.id)
            if existing is not None:
                existing.etype = entity.etype or existing.etype
                existing.definition = entity.definition or existing.definition
                return
        self._check_new_id(entity.id, "entity")
        self.entities[entity.id] = entity
        self.incidence[entity.id] = set()
        self.names.add(entity)

    def _check_edge(self, edge: Hyperedge) -> None:
        """Check a hyperedge row's fields, leaving its members a frozenset
        and its embedding a float64 array; the id is ``_put_edge``'s."""
        self._require_unsealed()
        if not str_field(edge.description, "description").strip():
            raise PreconditionError("hyperedge description must be non-blank")
        if not isinstance(edge.members, Iterable):
            raise PreconditionError(f"members is {shown(edge.members)}, not a list of integers")
        edge.members = frozenset(int_field(m, "member") for m in edge.members)
        if not edge.members:
            raise PreconditionError("hyperedge members must be non-empty")
        if edge.layer not in LAYERS:
            raise PreconditionError(f"unknown layer {shown(edge.layer)}; expected one of {LAYERS}")
        if edge.layer not in self.layers:
            raise PreconditionError(f"layer {edge.layer!r} is not loaded; this store holds {self.layers}")
        unknown = [m for m in edge.members if m not in self.entities]
        if unknown:
            raise ReferentialError(f"hyperedge references unknown entity ids: {shown(sorted(unknown))}")
        vec = edge.embedding = float_array(edge.embedding, "embedding values")
        if vec.shape != (self.embedding_dim,):
            raise DimensionMismatchError(
                f"embedding has dimension {vec.shape}, store expects {self.embedding_dim}"
            )

    def _put_edge(self, edge: Hyperedge) -> None:
        """Insert a hyperedge row that ``_check_edge`` has passed under a new
        id, indexed under its members and, on the case layer, by its
        description."""
        self._check_new_id(edge.id, "hyperedge")
        if edge.layer == CASE_LAYER:
            if edge.description in self.case_members:
                raise PreconditionError(f"case-layer description {edge.description!r} repeats")
            self.case_members[edge.description] = edge.members
        self.hyperedges[edge.id] = edge
        for m in edge.members:
            self.incidence[m].add(edge.id)

    # -- mutation ------------------------------------------------------------

    def add_entity(self, name: str, etype: str = "", definition: str = "") -> int:
        """Register an entity; re-adding the same normalized name merges its
        text fields, the newest non-empty one winning. A store that holds
        fewer than every layer refuses it, since it does not save
        ``entities.jsonl``."""
        if self.layers != LAYERS:
            raise PreconditionError(
                f"a store that holds only the {self.layers} layers takes no entity; load every layer"
            )
        entity = Entity(0, collapse_whitespace(str_field(name, "name")), etype, definition)
        self._put_entity(entity, content_id=True)
        return entity.id

    def add_hyperedge(
        self,
        description: str,
        members: set[int],
        embedding: np.ndarray,
        layer: str = KNOWLEDGE_LAYER,
    ) -> int:
        """``add_hyperedges`` of the one row."""
        return self.add_hyperedges([(description, members, embedding, layer)])[0]

    def add_hyperedges(self, rows: Iterable[tuple]) -> list[int]:
        """Store each ``(description, members, embedding, layer)`` row as an
        n-ary relation and index it under every member entity; return the
        rows' ids, the content hashes of their description, members and
        layer.

        Every row is checked before any is stored, so a row that breaks a
        row rule raises its error with the store unchanged. The ids are then
        hashed in one ``hyperedge_ids`` call, and the rows are inserted in
        order: a row whose id is already stored, earlier in the batch or
        before it, is left as it is (the first embedding is kept), and a
        second case-layer edge with the same description is refused when its
        row is reached.
        """
        edges = [Hyperedge(0, text, members, layer, vec) for text, members, vec, layer in rows]
        for edge in edges:
            self._check_edge(edge)
        ids = hyperedge_ids((e.description, e.members, e.layer) for e in edges)
        for edge, edge_id in zip(edges, ids):
            if edge_id not in self.hyperedges:
                edge.id = edge_id
                self._put_edge(edge)
        return ids

    def drop_layer(self, layer: str) -> None:
        """Delete every hyperedge of ``layer``, and its incidence and
        case-map entries."""
        self._require_unsealed()
        if layer == CASE_LAYER:
            self.case_members.clear()
        for hid in [hid for hid, e in self.hyperedges.items() if e.layer == layer]:
            for m in self.hyperedges.pop(hid).members:
                self.incidence[m].discard(hid)

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

        visited, frontier = set(seeds), set(seeds)
        for _ in range(radius):
            frontier = {nb for node in frontier for nb in self._neighbors(node)} - visited
            if not frontier:
                break
            visited |= frontier
        hyperedge_ids = {node for node in visited if is_hyperedge_id(node)}
        return Neighborhood(visited - hyperedge_ids, hyperedge_ids)

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write ``entities.jsonl``, then each held layer's ``LAYER_FILES``
        file, then ``meta.json``. A store that holds fewer than every layer
        took no entity, so it writes neither ``entities.jsonl`` nor a layer
        it does not hold: those files stay as they are.

        Rows are sorted by id and sets are serialized sorted, so identical
        stores serialize byte-identically. Each file is replaced whole, in
        that order: a store only gains entities, so a crash between files
        leaves no hyperedge on disk without its members.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if self.layers == LAYERS:
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
        by_layer: dict[str, list[Hyperedge]] = {layer: [] for layer in self.layers}
        for _, edge in sorted(self.hyperedges.items()):
            by_layer[edge.layer].append(edge)
        # each line is the row as write_jsonl writes it, with each +0.0 of
        # the vector as 0, formatted row by row so that no vector's zeros
        # become Python floats
        vector = VectorEncoder()
        for layer, edges in by_layer.items():
            write_lines(
                directory / LAYER_FILES[layer],
                (
                    f'{{"description":{json_str(edge.description)},"embedding":{vector(edge.embedding)},'
                    f'"id":{edge.id},"layer":{json_str(edge.layer)},'
                    f'"members":[{",".join(map(str, sorted(edge.members)))}]}}'
                    for edge in edges
                ),
            )
        write_json(
            directory / META_FILE,
            {
                "format_version": FORMAT_VERSION,
                "embedding_dim": self.embedding_dim,
                "entity_count": len(self.entities),
            },
        )

    @classmethod
    def load(cls, directory: str | Path, embedding_dim: int, layers: Iterable[str] = LAYERS) -> "BipartiteStore":
        """The store saved under ``directory``, unsealed, holding the named
        ``layers``: it reads ``entities.jsonl`` and those layers'
        ``LAYER_FILES`` only. Without ``META_FILE`` it is an empty store that
        holds every layer. One saved under another ``embedding_dim`` or
        format version is rejected. Each row enters through the door that
        ingest uses, so a row that ingest would refuse is refused here, as is
        a row of another layer than its file's, naming its line."""
        directory = Path(directory)
        if not (directory / META_FILE).exists():
            return cls(embedding_dim)

        def from_meta(meta: dict) -> "BipartiteStore":
            if meta.get("format_version") != FORMAT_VERSION:
                raise PreconditionError(
                    f"unsupported store format version {meta.get('format_version')!r}; "
                    "re-run the ingest commands into an empty store directory"
                )
            return cls(int_field(meta["embedding_dim"], "embedding_dim"), layers)

        def entity(row: dict) -> None:
            store._put_entity(Entity(row["id"], row["name"], row["etype"], row["definition"]))

        def hyperedge(layer: str, row: dict) -> None:
            if row["layer"] != layer:
                raise PreconditionError(f"layer {shown(row['layer'])} is not this file's layer {layer!r}")
            fields = row["id"], row["description"], row["members"], row["layer"], row["embedding"]
            edge = Hyperedge(*fields)
            store._check_edge(edge)
            store._put_edge(edge)

        store = read_json(directory / META_FILE, from_meta)
        if store.embedding_dim != embedding_dim:
            raise PreconditionError(
                f"store embedding_dim {store.embedding_dim} != configured {embedding_dim}"
            )
        read_jsonl(directory / "entities.jsonl", entity)
        for layer in store.layers:
            read_jsonl(directory / LAYER_FILES[layer], partial(hyperedge, layer))
        return store
