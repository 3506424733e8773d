from __future__ import annotations

import contextlib
import io
import json
import math
import re
import traceback
from pathlib import Path

import numpy as np
import pytest

from eegrag.cli import main
from eegrag.eeg import EegVectorDatabase, PaaEmbedding
from eegrag.embedding import HashedTokenEmbedder
from eegrag.hypergraph import BipartiteStore
from eegrag.retrieval import cosine

FIXTURES = Path(__file__).parent.parent / "fixtures" / "corpus"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="module")
def built_store(tmp_path_factory) -> Path:
    """A store ingested from the fixture corpus by the three ingest commands."""
    store = tmp_path_factory.mktemp("store")
    assert main(["ingest-docs", str(FIXTURES / "docs.jsonl"), "--store", str(store)]) == 0
    assert main(["ingest-cases", str(FIXTURES / "cases.jsonl"), "--store", str(store)]) == 0
    assert main(["ingest-eeg", str(FIXTURES / "eeg"), "--store", str(store)]) == 0
    return store


def run_cli(argv: list) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr as a shell would see them: an
    exception escaping ``main`` prints its traceback, which must not happen."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([str(arg) for arg in argv])
        except Exception:
            traceback.print_exc()
            code = 1
    assert "Traceback" not in err.getvalue(), err.getvalue()
    return code, err.getvalue()


def rewrite_row(path: Path, line: int, field: str, value) -> None:
    """Set ``field`` of the JSONL row on 1-based ``line`` of ``path`` to ``value``,
    or to ``value(old)`` when ``value`` is callable (malformed-row tests)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[line - 1])
    row[field] = value(row[field]) if callable(value) else value
    lines[line - 1] = json.dumps(row) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.fixture(scope="session")
def embedder() -> HashedTokenEmbedder:
    return HashedTokenEmbedder(64)


class CannedAnswerClient:
    """Generation client returning a configured answer per question."""

    client_id = "canned"

    def __init__(self, answers: dict[str, str], default: str = "unknown"):
        self.answers = dict(answers)
        self.default = default

    def complete(self, prompt: str, context: str, question: str) -> str:
        return self.answers.get(question, self.default)


def random_store(
    rng: np.random.Generator,
    max_entities: int = 30,
    max_edges: int = 20,
    embedder: HashedTokenEmbedder | None = None,
    cases: bool = False,
) -> BipartiteStore:
    """A random bipartite store for property tests (<= 50 nodes by default);
    each edge carries its description's embedding (8-d by default). With
    ``cases``, each edge lands on the knowledge or the case layer at random."""
    embedder = embedder or HashedTokenEmbedder(8)
    store = BipartiteStore(embedding_dim=embedder.dim)
    n_entities = int(rng.integers(1, max_entities + 1))
    entity_ids = []
    for i in range(n_entities):
        entity_ids.append(store.add_entity(f"entity-{i}", "t", f"def {i}"))
    n_edges = int(rng.integers(0, max_edges + 1))
    for j in range(n_edges):
        arity = int(rng.integers(1, min(4, len(entity_ids)) + 1))
        picks = rng.choice(len(entity_ids), size=arity, replace=False)
        members = {entity_ids[i] for i in picks}
        desc = f"edge {j} over {sorted(members)}"
        layer = ("knowledge", "case")[int(rng.integers(2))] if cases else "knowledge"
        store.add_hyperedge(desc, members, embedder.embed(desc), layer)
    return store


def vector_oracle(v: np.ndarray) -> list:
    """``v.tolist()`` with each ``+0.0`` as the integer ``0``, the list whose
    compact ``json.dumps`` is a stored hyperedge vector."""
    return [0 if x == 0.0 and math.copysign(1.0, x) > 0 else x for x in v.tolist()]


def layer_file_oracle(store: BipartiteStore, layer: str) -> bytes:
    """``layer``'s file (``hyperedges.jsonl`` or ``case_edges.jsonl``) as
    ``BipartiteStore.save`` writes it, built the plain way: one dict per row
    of the layer through a compact ``json.dumps``, each ``+0.0`` of the
    vector as ``0`` (the row and vector encoders' oracle)."""
    rows = (
        {
            "id": edge.id,
            "description": edge.description,
            "members": sorted(edge.members),
            "layer": edge.layer,
            "embedding": vector_oracle(edge.embedding),
        }
        for _, edge in sorted(store.hyperedges.items())
        if edge.layer == layer
    )
    return "".join(
        json.dumps(row, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n" for row in rows
    ).encode("utf-8")


def add_edge(store: BipartiteStore, description: str, members: set, layer: str = "knowledge"):
    """``store.add_hyperedge`` with the description's hashed embedding."""
    vector = HashedTokenEmbedder(store.embedding_dim).embed(description)
    return store.add_hyperedge(description, members, vector, layer)


def reference_bfs(store: BipartiteStore, seeds: set[int], radius: int) -> set[int]:
    """Textbook BFS over the explicit bipartite adjacency (test oracle)."""
    adjacency: dict[int, set[int]] = {eid: set() for eid in store.entities}
    for hid, edge in store.hyperedges.items():
        adjacency[hid] = set(edge.members)
        for m in edge.members:
            adjacency[m].add(hid)
    depth = {s: 0 for s in seeds}
    queue = list(seeds)
    while queue:
        node = queue.pop(0)
        if depth[node] == radius:
            continue
        for nb in adjacency[node]:
            if nb not in depth:
                depth[nb] = depth[node] + 1
                queue.append(nb)
    return set(depth)


def scan_oracle(store: BipartiteStore, query_vec, k: int, layer: str | None) -> list[tuple[int, float]]:
    """(id, score) of the top-k hyperedges by one ``cosine()`` per edge,
    ties by ascending id (test oracle; needs no seal)."""
    scored = sorted(
        (-cosine(query_vec, edge.embedding), hid)
        for hid, edge in store.hyperedges.items()
        if layer is None or edge.layer == layer
    )
    return [(hid, -neg) for neg, hid in scored[:k]]


def oracle_words(text: str) -> list[tuple[str, int, int]]:
    """(lowercased word, start, end) of each maximal ASCII letter-and-digit
    run of ``text`` whose neighbours are not ``str.isalnum()`` (the word
    rule's oracle)."""
    return [
        (m.group(0).lower(), m.start(), m.end())
        for m in re.finditer("[0-9A-Za-z]+", text)
        if not (text[m.start() - 1 : m.start()].isalnum() or text[m.end() : m.end() + 1].isalnum())
    ]


def link_oracle(text: str, store: BipartiteStore) -> list[tuple[int, int, int, str, str]]:
    """(id, start, end, surface, kind) of each entity mention: every entity
    name tried at every token position, longest match first, then leftmost,
    in text order (test oracle; needs no seal)."""
    tokens = oracle_words(text)
    words = [t[0] for t in tokens]
    first_id: dict[tuple[str, ...], int] = {}
    for eid in sorted(store.entities):
        seq = tuple(w for w, _, _ in oracle_words(store.entities[eid].name))
        if seq:
            first_id.setdefault(seq, eid)
    candidates = []
    for seq, eid in first_id.items():
        for i in range(len(words) - len(seq) + 1):
            if tuple(words[i : i + len(seq)]) == seq:
                start, end = tokens[i][1], tokens[i + len(seq) - 1][2]
                candidates.append((end - start, start, eid))
    chosen = []
    for length, start, eid in sorted(candidates, key=lambda c: (-c[0], c[1])):
        end = start + length
        if all(end <= s or start >= e for s, e, _ in chosen):
            chosen.append((start, end, eid))
    links = []
    for start, end, eid in sorted(chosen):
        surface = text[start:end]
        exact = surface.lower() == store.entities[eid].name.lower()
        links.append((eid, start, end, surface, "exact-name" if exact else "alias-normalized"))
    return links


def dtw_python(a_blocks: list[list[float]], b_blocks: list[list[float]], band: int | None) -> float:
    """Sum, in block order, of the banded DTW of each paired block, computed
    row by row on Python floats (the DTW kernel's oracle). Each block's band
    is ``band`` widened to |n - m| (``None``: unbounded)."""
    total = 0.0
    for a, b in zip(a_blocks, b_blocks):
        n, m = len(a), len(b)
        w = max(n, m) if band is None else max(band, abs(n - m))
        prev = [0.0] + [math.inf] * m
        for i in range(1, n + 1):
            cur = [math.inf] * (m + 1)
            for j in range(max(1, i - w), min(m, i + w) + 1):
                cur[j] = abs(a[i - 1] - b[j - 1]) + min(prev[j - 1], prev[j], cur[j - 1])
            prev = cur
        total += prev[m]
    return total


def eeg_topk_oracle(db: EegVectorDatabase, query: PaaEmbedding, k: int) -> list[tuple[float, str]]:
    """(distance, id) of the k nearest stored recordings by one ``dtw_python``
    per candidate (over channel blocks when the database is
    ``channel_blocked``), ties by ascending id (test oracle)."""
    blocks = query.n_channels if db.channel_blocked else 1

    def distance(entry: PaaEmbedding) -> float:
        q, e = query.values.reshape(blocks, -1), entry.values.reshape(blocks, -1)
        return dtw_python(q.tolist(), e.tolist(), db.band)

    return sorted((distance(e.embedding), rid) for rid, e in db.entries.items())[:k]
