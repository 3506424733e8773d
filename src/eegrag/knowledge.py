"""Knowledge-layer construction: documents in, embedded hyperedges out.

Fact extraction is delegated to a pluggable extractor (an LLM in
production); the bundled rule-based extractor keeps builds reproducible by
reading curated facts from a sidecar file when one exists and otherwise
falling back to a crude capitalized-term heuristic.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from .embedding import Embedder
from .errors import PreconditionError
from .hypergraph import KNOWLEDGE_LAYER, BipartiteStore
from .jsonl import read_jsonl, shown, str_field

logger = logging.getLogger(__name__)


@dataclass
class Document:
    """A source document: string fields and a non-blank ``body``."""

    id: str
    title: str
    body: str
    source: str = ""

    def __post_init__(self):
        for name in ("id", "title", "body", "source"):
            str_field(getattr(self, name), name)
        if not self.body.strip():
            raise PreconditionError(f"document {self.id!r} has an empty body")


@dataclass
class EntitySpec:
    name: str
    etype: str = ""
    definition: str = ""

    def __post_init__(self):
        str_field(self.name, "entity name")
        str_field(self.etype, "entity etype")
        str_field(self.definition, "entity definition")


@dataclass
class Fact:
    """One extracted n-ary relation: a string description over a list of
    ``EntitySpec``s; a blank description is dropped at ingest."""

    description: str
    entities: list[EntitySpec]

    def __post_init__(self):
        str_field(self.description, "description")
        if not isinstance(self.entities, list) or not all(isinstance(e, EntitySpec) for e in self.entities):
            raise PreconditionError(f"fact entities are {shown(self.entities)}, not a list of EntitySpec")


@runtime_checkable
class Extractor(Protocol):
    """Turns a document into candidate facts.

    Remote implementations may be nondeterministic and are excluded from
    golden tests; the bundled rule-based extractor is deterministic.
    """

    def extract(self, doc: Document) -> list[Fact]: ...


def load_fact_sidecar(path: str | Path) -> dict[str, list[Fact]]:
    """Read curated facts keyed by document id from a ``*.facts.jsonl`` file."""

    def fact(row: dict) -> tuple[str, Fact]:
        entities = [EntitySpec(e["name"], e.get("etype", ""), e.get("definition", "")) for e in row["entities"]]
        return str_field(row["doc_id"], "doc_id"), Fact(row["description"], entities)

    sidecar: dict[str, list[Fact]] = {}
    for doc_id, f in read_jsonl(path, fact):
        sidecar.setdefault(doc_id, []).append(f)
    return sidecar


_SENTENCE_SPLIT = re.compile(r"[.!?]+\s*")
_CAP_TERM = re.compile(r"\b[A-Z][A-Za-z0-9-]+(?:\s+[A-Z][A-Za-z0-9-]+)*")


class RuleBasedExtractor:
    """Deterministic extractor for offline builds and tests.

    Documents present in the sidecar mapping yield exactly their curated
    facts. For the rest, every sentence containing at least two distinct
    capitalized terms becomes one fact whose entities are those terms.
    """

    def __init__(self, sidecar: dict[str, list[Fact]] | None = None):
        self.sidecar = sidecar or {}

    def extract(self, doc: Document) -> list[Fact]:
        if doc.id in self.sidecar:
            return list(self.sidecar[doc.id])
        facts = []
        for sentence in _SENTENCE_SPLIT.split(doc.body):
            sentence = sentence.strip()
            if not sentence:
                continue
            terms = []
            for term in _CAP_TERM.findall(sentence):
                if term not in terms:
                    terms.append(term)
            if len(terms) >= 2:
                facts.append(
                    Fact(sentence, [EntitySpec(t, etype="term") for t in terms])
                )
        return facts


def _validate_facts(raw: list[Fact], doc_id: str) -> list[Fact]:
    """Drop blank entity names, then the facts left degenerate; ``add_entity``
    normalizes the names."""
    kept = []
    for fact in raw:
        entities = [e for e in fact.entities if e.name.strip()]
        if not entities or not fact.description.strip():
            logger.info("dropping degenerate fact from document %s: %r", doc_id, fact.description)
            continue
        kept.append(fact if len(entities) == len(fact.entities) else Fact(fact.description, entities))
    return kept


@dataclass
class IngestReport:
    documents: int = 0
    facts_dropped: int = 0
    entities_added: int = 0
    entities_merged: int = 0
    hyperedges_added: int = 0
    hyperedges_merged: int = 0


def build_kgh(
    docs: list[Document],
    extractor: Extractor,
    embedder: Embedder,
    store: BipartiteStore,
) -> IngestReport:
    """Ingest documents into the knowledge layer of ``store``.

    Degenerate facts are dropped (logged and counted, not fatal); every
    other fact becomes a knowledge-layer hyperedge with an embedded
    description, and every entity is registered (or merged); entities carry
    no vector, since they are linked by name. The entities are added fact by
    fact, then every hyperedge in one ``add_hyperedges`` batch. Documents
    are processed in id order so the build is deterministic regardless of
    input order.
    """
    if store.sealed:
        raise PreconditionError("cannot ingest into a sealed store")
    report = IngestReport()
    rows = []
    for doc in sorted(docs, key=lambda d: d.id):
        report.documents += 1
        raw = extractor.extract(doc)
        facts = _validate_facts(raw, doc.id)
        report.facts_dropped += len(raw) - len(facts)
        for fact in facts:
            member_ids = set()
            for spec in fact.entities:
                before = len(store.entities)
                eid = store.add_entity(spec.name, spec.etype, spec.definition)
                member_ids.add(eid)
                if len(store.entities) > before:
                    report.entities_added += 1
                else:
                    report.entities_merged += 1
            rows.append((fact.description, member_ids, embedder.embed(fact.description), KNOWLEDGE_LAYER))
    before = len(store.hyperedges)
    store.add_hyperedges(rows)
    report.hyperedges_added = len(store.hyperedges) - before
    report.hyperedges_merged = len(rows) - report.hyperedges_added
    return report


def load_documents(path: str | Path) -> list[Document]:
    """Read ``docs.jsonl`` (id, title, body, source), one document per line."""
    return read_jsonl(path, lambda row: Document(row["id"], row.get("title", ""), row["body"], row.get("source", "")))
