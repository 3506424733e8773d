import pytest

from eegrag.embedding import HashedTokenEmbedder
from eegrag.errors import PreconditionError
from eegrag.hypergraph import BipartiteStore
from eegrag.knowledge import (
    Document,
    EntitySpec,
    Fact,
    RuleBasedExtractor,
    build_kgh,
    load_documents,
    load_fact_sidecar,
)

EMB = HashedTokenEmbedder(32)


def make_fact(description: str, *names: str) -> Fact:
    return Fact(description, [EntitySpec(n, "term", f"def of {n}") for n in names])


class FixedExtractor:
    def __init__(self, facts):
        self.facts = facts

    def extract(self, doc):
        return list(self.facts)


def descriptions(store: BipartiteStore) -> list[str]:
    return sorted(e.description for e in store.hyperedges.values())


class TestExtraction:
    def test_mock_extractor_passthrough(self):
        store = BipartiteStore(embedding_dim=32)
        doc = Document("d1", "t", "body text")
        facts = [make_fact("f1", "A", "B"), make_fact("f2", "C")]
        report = build_kgh([doc], FixedExtractor(facts), EMB, store)
        assert descriptions(store) == ["f1", "f2"]
        assert report.facts_dropped == 0

    def test_fact_without_entities_dropped(self):
        store = BipartiteStore(embedding_dim=32)
        doc = Document("d1", "t", "body")
        facts = [make_fact("keep", "A"), Fact("drop", []), Fact("drop2", [EntitySpec(" ")])]
        report = build_kgh([doc], FixedExtractor(facts), EMB, store)
        assert descriptions(store) == ["keep"]
        assert report.facts_dropped == 2

    def test_empty_body_rejected(self):
        with pytest.raises(PreconditionError):
            Document("d1", "t", "   ")

    def test_an_extractor_building_a_mistyped_fact_is_refused(self):
        class MistypedExtractor:
            def extract(self, doc):
                return [Fact(7, [EntitySpec("A")])]

        store = BipartiteStore(embedding_dim=32)
        with pytest.raises(PreconditionError, match="description is 7, not a string"):
            build_kgh([Document("d1", "t", "body")], MistypedExtractor(), EMB, store)
        assert not store.entities and not store.hyperedges

    def test_entity_names_normalized(self):
        store = BipartiteStore(embedding_dim=32)
        doc = Document("d1", "t", "body")
        facts = [make_fact("f", "  Spike   Wave ")]
        build_kgh([doc], FixedExtractor(facts), EMB, store)
        assert [e.name for e in store.entities.values()] == ["Spike Wave"]

    def test_rule_based_sentence_heuristic(self):
        doc = Document(
            "d1",
            "t",
            "Valproate treats Epilepsy. lowercase sentence stays out. "
            "Single Capitalized here? no.",
        )
        facts = RuleBasedExtractor().extract(doc)
        assert len(facts) == 1
        names = [e.name for e in facts[0].entities]
        assert names == ["Valproate", "Epilepsy"]

    def test_rule_based_groups_capitalized_phrases(self):
        doc = Document("d1", "t", "Temporal Lobe Epilepsy often follows Febrile Seizures.")
        facts = RuleBasedExtractor().extract(doc)
        names = [e.name for e in facts[0].entities]
        assert names == ["Temporal Lobe Epilepsy", "Febrile Seizures"]

    def test_sidecar_takes_precedence(self, tmp_path):
        sidecar_file = tmp_path / "facts.jsonl"
        sidecar_file.write_text(
            '{"doc_id": "d1", "description": "curated", '
            '"entities": [{"name": "X", "etype": "t", "definition": "d"}]}\n'
        )
        sidecar = load_fact_sidecar(sidecar_file)
        doc = Document("d1", "t", "Valproate treats Epilepsy.")
        facts = RuleBasedExtractor(sidecar).extract(doc)
        assert [f.description for f in facts] == ["curated"]


class TestBuildKgh:
    def test_zero_documents(self):
        store = BipartiteStore(embedding_dim=32)
        report = build_kgh([], FixedExtractor([]), EMB, store)
        assert vars(report) == {
            "documents": 0,
            "facts_dropped": 0,
            "entities_added": 0,
            "entities_merged": 0,
            "hyperedges_added": 0,
            "hyperedges_merged": 0,
        }
        assert not store.entities and not store.hyperedges

    def test_counts_one_fact_three_entities(self):
        store = BipartiteStore(embedding_dim=32)
        doc = Document("d1", "t", "body")
        report = build_kgh([doc], FixedExtractor([make_fact("f", "A", "B", "C")]), EMB, store)
        assert report.entities_added == 3
        assert report.hyperedges_added == 1
        assert report.entities_merged == 0

    def test_every_edge_is_knowledge_layer_with_embedding(self):
        store = BipartiteStore(embedding_dim=32)
        doc = Document("d1", "t", "body")
        build_kgh([doc], FixedExtractor([make_fact("f", "A", "B")]), EMB, store)
        for edge in store.hyperedges.values():
            assert edge.layer == "knowledge"
            assert edge.embedding is not None

    def test_each_fact_description_embedded_once_and_no_entity(self):
        texts = []

        class RecordingEmbedder(HashedTokenEmbedder):
            def embed(self, text):
                texts.append(text)
                return super().embed(text)

        store = BipartiteStore(embedding_dim=32)
        c = store.add_entity("C")  # registered earlier
        facts = [
            Fact("f1", [EntitySpec("A", "term", "first"), EntitySpec("B")]),
            Fact("f2", [EntitySpec("A", "term", "second"), EntitySpec("C", "", "c def")]),
        ]
        emb = RecordingEmbedder(32)
        build_kgh([Document("d1", "t", "body")], FixedExtractor(facts), emb, store)
        assert texts == ["f1", "f2"]
        a = next(e for e in store.entities.values() if e.name == "A")
        assert a.definition == "second"
        assert store.entities[c].definition == "c def"
        for edge in store.hyperedges.values():
            assert edge.embedding.tobytes() == EMB.embed(edge.description).tobytes()

        texts.clear()
        build_kgh([Document("d1", "t", "body")], FixedExtractor(facts), emb, store)
        assert texts == ["f1", "f2"]

    def test_no_orphan_entities(self):
        store = BipartiteStore(embedding_dim=32)
        docs = [Document("d1", "t", "body"), Document("d2", "t", "body")]
        build_kgh(docs, FixedExtractor([make_fact("f", "A", "B")]), EMB, store)
        for eid in store.entities:
            assert store.incident_hyperedges(eid)

    def test_reingest_merges_everything(self, tmp_path, corpus_dir):
        docs = load_documents(corpus_dir / "docs.jsonl")
        sidecar = load_fact_sidecar(corpus_dir / "docs.facts.jsonl")
        extractor = RuleBasedExtractor(sidecar)

        store = BipartiteStore(embedding_dim=32)
        first = build_kgh(docs, extractor, EMB, store)
        store.save(tmp_path / "a")
        second = build_kgh(docs, extractor, EMB, store)
        store.save(tmp_path / "b")

        assert first.entities_added > 0 and first.hyperedges_added > 0
        assert second.entities_added == 0 and second.hyperedges_added == 0
        assert second.entities_merged > 0
        assert second.hyperedges_merged == first.hyperedges_added
        for name in ("entities.jsonl", "hyperedges.jsonl", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_deterministic_build_independent_of_doc_order(self, tmp_path, corpus_dir):
        docs = load_documents(corpus_dir / "docs.jsonl")
        sidecar = load_fact_sidecar(corpus_dir / "docs.facts.jsonl")
        extractor = RuleBasedExtractor(sidecar)

        store_a = BipartiteStore(embedding_dim=32)
        build_kgh(docs, extractor, EMB, store_a)
        store_a.save(tmp_path / "a")
        store_b = BipartiteStore(embedding_dim=32)
        build_kgh(list(reversed(docs)), extractor, EMB, store_b)
        store_b.save(tmp_path / "b")
        for name in ("entities.jsonl", "hyperedges.jsonl", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_sealed_store_rejected(self):
        store = BipartiteStore(embedding_dim=32)
        store.seal()
        with pytest.raises(PreconditionError):
            build_kgh([], FixedExtractor([]), EMB, store)


class TestLoadDocuments:
    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1", "title": "t", "body": "ok"}\nnot json\n')
        with pytest.raises(PreconditionError, match="line 2"):
            load_documents(path)

    def test_missing_body_names_line_number(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "d1", "title": "t"}\n')
        with pytest.raises(PreconditionError, match="line 1"):
            load_documents(path)
