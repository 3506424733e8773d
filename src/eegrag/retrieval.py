"""Semantic retrieval: cosine search over hyperedges, entity linking, expansion.

All operations here are read-only over sealed stores and use the store's
indexes. Hyperedge retrieval is exact exhaustive cosine search (sufficient
at desk scale); entity linking is deterministic dictionary matching,
longest match first.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embedding import Embedder
from .errors import DimensionMismatchError, PreconditionError
from .hypergraph import LAYERS, BipartiteStore, word_tokens
from .jsonl import float_array, shown, str_field

logger = logging.getLogger(__name__)


@dataclass
class MetadataQuery:
    """Clinical metadata or question text, with optional role/domain tags.

    The tags never alter scoring; they flow through to prompt assembly. The
    text is a non-blank string and each tag a string or None, all of them
    text that UTF-8 can encode; every query, from argv, ``POST /query`` or a
    library call, is checked here.
    """

    text: str
    role: str | None = None
    domain: str | None = None

    def __post_init__(self):
        if not str_field(self.text, "query text").strip():
            raise PreconditionError("query text must be non-empty")
        str_field(self.role, "query role", optional=True)
        str_field(self.domain, "query domain", optional=True)


def cosine(u, v) -> float:
    """Standard cosine similarity in [-1, 1].

    A zero vector has no direction; by convention the score degenerates to
    0.0 (logged at debug level) instead of raising.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatchError(f"cosine over mismatched shapes {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        logger.debug("cosine of a zero vector is degenerate; returning 0.0")
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


@dataclass(slots=True)
class ScoredHyperedge:
    hyperedge_id: int
    score: float
    rank: int


def retrieve_hyperedges(
    mq: MetadataQuery,
    embedder: Embedder,
    store: BipartiteStore,
    k: int = 1,
    layer: str | None = "knowledge",
) -> list[ScoredHyperedge]:
    """Top-k hyperedges by cosine between the query embedding and edge embeddings.

    Covers every hyperedge in the selected layer (``layer=None`` covers all
    layers; an unknown layer is a ``PreconditionError``). Ties break by
    ascending hyperedge id.

    The store's ``HyperedgeIndex`` only filters: its dot products with the
    unit query, summed from its column postings and scaled by the inverse
    row norms, keep the rows whose approximate cosine is within twice the
    rounding bound of the k-th best. Those rows are scored again with
    ``cosine()`` of the edge's own ``embedding``, so scores, top-k and tie
    order are exactly those of a ``cosine()`` per edge. A zero query
    embedding (a question with no word token) has ``cosine()`` 0.0 with
    every edge, so it gets the k smallest ids, none scored. A query
    embedding that is not a finite vector is a ``PreconditionError``.
    """
    if not store.sealed:
        raise PreconditionError("retrieval requires a sealed store")
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if layer not in (None, *LAYERS):
        raise PreconditionError(
            f"unknown layer {shown(layer)}; expected one of {', '.join(LAYERS)} or none"
        )
    query_vec = float_array(embedder.embed(mq.text), "query embedding values")
    index = store.edge_index
    block = index.blocks[layer]
    if block.start == block.stop:
        return []
    if query_vec.shape != (store.embedding_dim,):
        raise DimensionMismatchError(
            f"query embedding has shape {query_vec.shape}, store expects ({store.embedding_dim},)"
        )
    q_norm = float(np.linalg.norm(query_vec))
    if q_norm == 0.0:
        # cosine() scores every row 0.0, so ids alone order them; they
        # ascend within each layer's block, so sorted() merges two runs
        top = sorted(index.ids[block])[:k]
        return [ScoredHyperedge(hid, 0.0, rank) for rank, hid in enumerate(top, start=1)]
    approx = index.dots(query_vec / q_norm, block) * index.inv_norms[block]
    if k < len(approx):
        kth = np.partition(approx, len(approx) - k)[len(approx) - k]
        # ``~(x < t)`` also keeps NaN scores, which then sort as cosine() has them
        keep = np.flatnonzero(~(approx < kth - 2.0 * _rounding_bound(store.embedding_dim)))
    else:
        keep = range(len(approx))
    hids = (index.ids[block.start + r] for r in keep)
    scored = sorted((-cosine(query_vec, store.hyperedges[hid].embedding), hid) for hid in hids)
    return [
        ScoredHyperedge(hid, -neg, rank)
        for rank, (neg, hid) in enumerate(scored[:k], start=1)
    ]


def _rounding_bound(dim: int) -> float:
    """Bound on |filter score - cosine()| for one edge of dimension ``dim``.

    Each lies within (dim + 3) * eps of the true cosine, in any summation
    order: a dot product of length ``dim`` errs by at most
    dim * eps/2 * ||q|| * ||v||, each norm by (dim/2 + 2) * eps/2 relatively,
    and each division by eps/2. Gradual underflow is not covered, so vectors
    with norms below about 1e-290 are outside the bound.
    """
    return 4.0 * (dim + 2) * float(np.finfo(np.float64).eps)


@dataclass(slots=True)
class EntityMatch:
    entity_id: int
    start: int
    end: int
    surface: str
    kind: str  # "exact-name" | "alias-normalized"


def find_entity_mentions(text: str, store: BipartiteStore) -> list[EntityMatch]:
    """Dictionary entity linking over free text, sealed store or not.

    Entity names are matched case-insensitively on word-token sequences, so
    punctuation variants of a name still link ("spike-wave" matches "spike
    wave"). Overlaps resolve longest match first, then leftmost; results
    come back in text order. The store's ``NameIndex`` is kept current as
    entities are added.
    """
    names = store.names
    tokens = word_tokens(text)
    words = [t[0] for t in tokens]
    candidates = []
    for i, word in enumerate(words):
        for width in range(1, min(names.starts.get(word, 0), len(words) - i) + 1):
            eid = names.by_seq.get(tuple(words[i : i + width]))
            if eid is not None:
                start = tokens[i][1]
                end = tokens[i + width - 1][2]
                candidates.append((end - start, start, eid))

    chosen: list[tuple[int, int, int]] = []
    taken: list[tuple[int, int]] = []
    for length, start, eid in sorted(candidates, key=lambda c: (-c[0], c[1])):
        end = start + length
        if any(start < t_end and end > t_start for t_start, t_end in taken):
            continue
        taken.append((start, end))
        chosen.append((start, end, eid))

    matches = []
    for start, end, eid in sorted(chosen):
        surface = text[start:end]
        name = store.entities[eid].name
        kind = "exact-name" if surface.lower() == name.lower() else "alias-normalized"
        matches.append(EntityMatch(eid, start, end, surface, kind))
    return matches


def extract_query_entities(mq: MetadataQuery, store: BipartiteStore) -> list[EntityMatch]:
    """Entity linking over the query text of a sealed store."""
    if not store.sealed:
        raise PreconditionError("entity extraction requires a sealed store")
    return find_entity_mentions(mq.text, store)


def expand_entities(matches: list[EntityMatch], store: BipartiteStore) -> set[int]:
    """Union of hyperedges incident to any matched entity."""
    if not store.sealed:
        raise PreconditionError("expansion requires a sealed store")
    edges: set[int] = set()
    for match in matches:
        edges |= store.incident_hyperedges(match.entity_id)
    return edges
