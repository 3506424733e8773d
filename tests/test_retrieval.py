import re

import numpy as np
import pytest

from eegrag import retrieval
from eegrag.embedding import HashedTokenEmbedder
from eegrag.errors import DimensionMismatchError, PreconditionError
from eegrag.hypergraph import BipartiteStore
from eegrag.retrieval import (
    MetadataQuery,
    cosine,
    expand_entities,
    extract_query_entities,
    find_entity_mentions,
    retrieve_hyperedges,
)

from conftest import add_edge, link_oracle, random_store, scan_oracle

EMB = HashedTokenEmbedder(64)


class TestCosine:
    def test_self_similarity_is_one(self):
        u = np.array([0.3, -1.2, 4.0])
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_reference_value(self):
        # 32 / sqrt(14 * 77), computed directly from the dot/norm definition
        assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.9746318461970762, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_zero_vector_degenerates_to_zero(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_antiparallel_is_minus_one(self):
        assert cosine([1.0, 1.0], [-2.0, -2.0]) == pytest.approx(-1.0, abs=1e-12)


def knowledge_store(*descriptions: str) -> BipartiteStore:
    store = BipartiteStore(embedding_dim=EMB.dim)
    anchor = store.add_entity("anchor")
    for desc in descriptions:
        store.add_hyperedge(desc, {anchor}, embedding=EMB.embed(desc))
    store.seal()
    return store


class TestRetrieveHyperedges:
    def test_identical_text_scores_one(self):
        store = knowledge_store("spike wave discharge", "sleep spindle density")
        hits = retrieve_hyperedges(
            MetadataQuery("spike wave discharge"), EMB, store, k=1
        )
        assert len(hits) == 1
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)
        assert store.hyperedges[hits[0].hyperedge_id].description == "spike wave discharge"

    def test_top_one_of_two(self):
        store = knowledge_store("alpha rhythm attenuates", "beta oscillation tremor")
        hits = retrieve_hyperedges(MetadataQuery("tremor and beta oscillation"), EMB, store, k=1)
        assert store.hyperedges[hits[0].hyperedge_id].description == "beta oscillation tremor"

    def test_matches_bruteforce_topk(self, embedder):
        rng = np.random.default_rng(61)
        for _ in range(10):
            store = random_store(rng, max_entities=10, max_edges=50, embedder=embedder)
            store.seal()
            mq = MetadataQuery(f"edge {int(rng.integers(0, 50))} over")
            got = retrieve_hyperedges(mq, embedder, store, k=5)
            qv = embedder.embed(mq.text)
            expected = sorted(
                (-cosine(qv, e.embedding), hid)
                for hid, e in store.hyperedges.items()
                if e.embedding is not None
            )[:5]
            assert [(-h.score, h.hyperedge_id) for h in got] == pytest.approx(expected)

    def test_k_prefix_and_weakly_decreasing_scores(self, embedder):
        rng = np.random.default_rng(62)
        store = random_store(rng, max_entities=10, max_edges=30, embedder=embedder)
        store.seal()
        mq = MetadataQuery("edge 3 over")
        for k in range(1, 6):
            small = retrieve_hyperedges(mq, embedder, store, k=k)
            large = retrieve_hyperedges(mq, embedder, store, k=k + 1)
            assert [h.hyperedge_id for h in small] == [h.hyperedge_id for h in large][:k]
            scores = [h.score for h in large]
            assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_ranking_invariant_to_query_scaling(self):
        class Scaled:
            def __init__(self, base, alpha):
                self.base, self.alpha = base, alpha
                self.dim = base.dim

            def embed(self, text):
                return self.alpha * self.base.embed(text)

        store = knowledge_store("alpha rhythm", "beta oscillation", "delta slowing")
        mq = MetadataQuery("alpha rhythm here")
        baseline = [h.hyperedge_id for h in retrieve_hyperedges(mq, EMB, store, k=3)]
        for alpha in (0.1, 7.0, 1000.0):
            scaled = [
                h.hyperedge_id
                for h in retrieve_hyperedges(mq, Scaled(EMB, alpha), store, k=3)
            ]
            assert scaled == baseline

    def test_layer_filter_and_empty_layer(self):
        store = BipartiteStore(embedding_dim=EMB.dim)
        a = store.add_entity("a")
        store.add_hyperedge("case tuple", {a}, layer="case", embedding=EMB.embed("case tuple"))
        store.seal()
        assert retrieve_hyperedges(MetadataQuery("case tuple"), EMB, store, k=1) == []
        hits = retrieve_hyperedges(MetadataQuery("case tuple"), EMB, store, k=1, layer="case")
        assert len(hits) == 1
        hits_any = retrieve_hyperedges(MetadataQuery("case tuple"), EMB, store, k=1, layer=None)
        assert len(hits_any) == 1

    def test_unknown_layer_names_the_valid_ones(self):
        store = BipartiteStore(embedding_dim=EMB.dim)
        a = store.add_entity("a")
        store.add_hyperedge("fact", {a}, layer="knowledge", embedding=EMB.embed("fact"))
        store.seal()
        for layer in ("knowlege", "", "none", 0):
            with pytest.raises(PreconditionError) as err:
                retrieve_hyperedges(MetadataQuery("fact"), EMB, store, k=1, layer=layer)
            message = str(err.value)
            assert repr(layer) in message
            assert all(name in message for name in ("knowledge", "case", "none"))

    def test_unsealed_store_rejected(self):
        store = BipartiteStore(embedding_dim=EMB.dim)
        with pytest.raises(PreconditionError):
            retrieve_hyperedges(MetadataQuery("x"), EMB, store, k=1)

    def test_k_below_one_rejected(self):
        store = knowledge_store("fact")
        with pytest.raises(PreconditionError, match="k must be >= 1"):
            retrieve_hyperedges(MetadataQuery("fact"), EMB, store, k=0)

    def test_linking_and_expansion_need_a_sealed_store(self):
        store = BipartiteStore(embedding_dim=4)
        store.add_entity("spike-wave")
        with pytest.raises(PreconditionError, match="entity extraction requires a sealed store"):
            extract_query_entities(MetadataQuery("spike-wave"), store)
        with pytest.raises(PreconditionError, match="expansion requires a sealed store"):
            expand_entities([], store)

    def test_empty_query_text_rejected(self):
        with pytest.raises(PreconditionError):
            MetadataQuery("  ")


def entity_store(*names: str) -> BipartiteStore:
    store = BipartiteStore(embedding_dim=4)
    for name in names:
        store.add_entity(name)
    store.seal()
    return store


class TestEntityExtraction:
    def test_exact_name_match(self):
        store = entity_store("spike-wave")
        matches = extract_query_entities(MetadataQuery("we saw spike-wave bursts"), store)
        assert len(matches) == 1
        assert matches[0].surface == "spike-wave"
        assert matches[0].kind == "exact-name"

    def test_no_registered_names(self):
        store = entity_store("alpha rhythm")
        assert extract_query_entities(MetadataQuery("completely unrelated"), store) == []

    def test_longest_match_then_leftmost(self):
        store = entity_store("alpha rhythm", "alpha")
        matches = extract_query_entities(MetadataQuery("alpha rhythm and alpha"), store)
        surfaces = [(m.surface, m.start) for m in matches]
        assert surfaces == [("alpha rhythm", 0), ("alpha", 17)]

    def test_equal_length_overlap_goes_to_the_leftmost(self):
        # "alpha beta" and "beta gamma" are both 10 characters and share "beta"
        store = entity_store("beta gamma", "alpha beta")
        matches = extract_query_entities(MetadataQuery("alpha beta gamma"), store)
        assert [(m.surface, m.start) for m in matches] == [("alpha beta", 0)]
        matches = extract_query_entities(MetadataQuery("beta gamma, alpha beta gamma"), store)
        assert [(m.surface, m.start) for m in matches] == [("beta gamma", 0), ("alpha beta", 12)]

    def test_punctuation_normalized_match(self):
        store = entity_store("spike-wave discharge")
        matches = extract_query_entities(
            MetadataQuery("classic spike wave discharge pattern"), store
        )
        assert len(matches) == 1
        assert matches[0].kind == "alias-normalized"

    def test_case_insensitive(self):
        store = entity_store("Epilepsy")
        (match,) = extract_query_entities(MetadataQuery("signs of EPILEPSY here"), store)
        assert match.surface == "EPILEPSY"
        assert match.kind == "exact-name"

    def test_spans_non_overlapping_and_normalized_equal(self):
        store = entity_store("alpha rhythm", "alpha", "rhythm and alpha")
        query = MetadataQuery("alpha rhythm and alpha rhythm and alpha")
        matches = extract_query_entities(query, store)
        spans = [(m.start, m.end) for m in matches]
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        for m in matches:
            got = [t.lower() for t in m.surface.replace("-", " ").split()]
            name = store.entities[m.entity_id].name
            want = [t.lower() for t in name.replace("-", " ").split()]
            assert got == want

    def test_word_boundary_respected(self):
        store = entity_store("alpha")
        assert extract_query_entities(MetadataQuery("alphabet soup"), store) == []


class TestExpansion:
    def test_empty_and_single(self):
        store = BipartiteStore(embedding_dim=4)
        a = store.add_entity("alpha")
        edge = add_edge(store, "f", {a})
        store.seal()
        assert expand_entities([], store) == set()
        matches = extract_query_entities(MetadataQuery("alpha"), store)
        assert expand_entities(matches, store) == {edge}

    def test_matches_bruteforce_union(self, embedder):
        rng = np.random.default_rng(63)
        for _ in range(10):
            store = random_store(rng, max_entities=15, max_edges=25, embedder=embedder)
            store.seal()
            names = [store.entities[e].name for e in sorted(store.entities)][:4]
            mq = MetadataQuery(" and ".join(names))
            matches = extract_query_entities(mq, store)
            got = expand_entities(matches, store)
            expected = set()
            for m in matches:
                expected |= {
                    hid for hid, e in store.hyperedges.items() if m.entity_id in e.members
                }
            assert got == expected


class FixedEmbedder:
    """Embeds every text as one given vector."""

    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=np.float64)
        self.dim = self.vec.size

    def embed(self, text):
        return self.vec


def tie_store(rng, dim: int) -> tuple[BipartiteStore, np.ndarray]:
    """Random two-layer store whose edge vectors tie exactly, tie up to
    rounding (scaled copies), nearly tie, vanish, or point the opposite way."""
    store = BipartiteStore(embedding_dim=dim)
    entities = [store.add_entity(f"e{i}") for i in range(4)]
    base = rng.normal(size=(3, dim))
    for j in range(int(rng.integers(1, 40))):
        kind = int(rng.integers(0, 6))
        if kind == 0:
            vec = rng.normal(size=dim)
        elif kind == 1:
            vec = base[rng.integers(3)].copy()
        elif kind == 2:
            vec = base[rng.integers(3)] * rng.choice([2.0, 3.0, 1e-3, 7e5])
        elif kind == 3:
            vec = base[rng.integers(3)] + rng.normal(size=dim) * 1e-15
        elif kind == 4:
            vec = np.zeros(dim)
        else:
            vec = -base[rng.integers(3)]
        layer = "case" if rng.random() < 0.3 else "knowledge"
        store.add_hyperedge(f"edge {j}", {entities[int(rng.integers(4))]}, vec, layer)
    return store, base


class TestHyperedgeIndexOracle:
    """The filtered matvec scan against one cosine() per edge, compared exactly."""

    def test_equals_per_edge_scan_on_random_stores(self):
        rng = np.random.default_rng(71)
        for _ in range(80):
            dim = int(rng.choice([1, 2, 3, 8, 33]))
            store, base = tie_store(rng, dim)
            queries = [rng.normal(size=dim), base[0], base[1] * 1e3, np.zeros(dim)]
            cases = [
                (q, k, layer)
                for q in queries
                for k in (1, 2, 5, 50)
                for layer in ("knowledge", "case", None)
            ]
            want = [scan_oracle(store, q, k, layer) for q, k, layer in cases]
            store.seal()
            for (q, k, layer), expected in zip(cases, want):
                hits = retrieve_hyperedges(MetadataQuery("q"), FixedEmbedder(q), store, k=k, layer=layer)
                assert [(h.hyperedge_id, h.score) for h in hits] == expected
                assert [h.rank for h in hits] == list(range(1, len(hits) + 1))

    def test_text_embedder_equals_per_edge_scan(self, embedder):
        rng = np.random.default_rng(72)
        for _ in range(10):
            store = random_store(rng, max_entities=10, max_edges=60, embedder=embedder)
            texts = [f"edge {int(rng.integers(0, 60))} over", "!!!", "over over edge"]
            want = {(t, k): scan_oracle(store, embedder.embed(t), k, None) for t in texts for k in (1, 3, 99)}
            store.seal()
            for (text, k), expected in want.items():
                hits = retrieve_hyperedges(MetadataQuery(text), embedder, store, k=k, layer=None)
                assert [(h.hyperedge_id, h.score) for h in hits] == expected

    def test_seal_keeps_each_vector_once_and_read_only(self, tmp_path):
        store, _ = tie_store(np.random.default_rng(73), 8)
        store.save(tmp_path)
        for sealed in (store, BipartiteStore.load(tmp_path, 8)):
            before = {hid: edge.embedding for hid, edge in sealed.hyperedges.items()}
            sealed.seal()
            for hid, edge in sealed.hyperedges.items():
                assert edge.embedding is before[hid]
                with pytest.raises(ValueError, match="read-only"):
                    edge.embedding[0] = 1.0
            kept = vars(sealed.edge_index).values()
            assert not [a for a in kept if isinstance(a, np.ndarray) and a.ndim == 2]

    def test_query_dimension_mismatch(self):
        store, _ = tie_store(np.random.default_rng(74), 8)
        store.seal()
        with pytest.raises(DimensionMismatchError):
            retrieve_hyperedges(MetadataQuery("q"), FixedEmbedder(np.ones(3)), store, k=1, layer=None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_refused(self, bad):
        # a NaN reaches only the rows that share its dimension, so the
        # filter would drop rows that cosine() scores NaN too
        store, _ = tie_store(np.random.default_rng(75), 8)
        store.seal()
        q = np.ones(8)
        q[0] = bad
        for layer in (None, "knowledge"):
            with pytest.raises(PreconditionError, match="^query embedding values must be finite$"):
                retrieve_hyperedges(MetadataQuery("q"), FixedEmbedder(q), store, k=2, layer=layer)


def sparse_vector(rng, dim: int, used: int | None = None) -> np.ndarray:
    """A ``dim``-vector of 6 to 20 random normal values in random dimensions
    of ``range(used)`` (default: all ``dim``)."""
    vec = np.zeros(dim)
    picks = rng.choice(used or dim, size=int(rng.integers(6, 21)), replace=False)
    vec[picks] = rng.normal(size=len(picks))
    return vec


# no row of a sparse store holds a nonzero in its last UNUSED dimensions, so
# their posting lists are empty
UNUSED = 8


def sparse_store(rng, dim: int = 256) -> BipartiteStore:
    """Random two-layer store whose rows hold 6 to 20 nonzeros of ``dim``,
    or none, or repeat an earlier row, exactly or scaled (ties)."""
    store = BipartiteStore(embedding_dim=dim)
    entities = [store.add_entity(f"e{i}") for i in range(4)]
    rows = [sparse_vector(rng, dim, dim - UNUSED)]
    for _ in range(int(rng.integers(10, 60))):
        kind = int(rng.integers(0, 6))
        if kind == 0:
            rows.append(rows[int(rng.integers(len(rows)))].copy())
        elif kind == 1:
            rows.append(rows[int(rng.integers(len(rows)))] * rng.choice([2.0, 3.0, 1e-3, 7e5]))
        elif kind == 2:
            rows.append(np.zeros(dim))
        else:
            rows.append(sparse_vector(rng, dim, dim - UNUSED))
    for j, vec in enumerate(rows):
        layer = "case" if rng.random() < 0.3 else "knowledge"
        store.add_hyperedge(f"edge {j}", {entities[int(rng.integers(4))]}, vec, layer)
    return store


class TestColumnPostings:
    """The filter from column postings against one cosine() per edge, compared exactly."""

    def test_equals_per_edge_scan_on_sparse_stores(self):
        rng = np.random.default_rng(76)
        for _ in range(40):
            store = sparse_store(rng)
            stored = [e.embedding for e in store.hyperedges.values()]
            unused_only = np.zeros(256)
            unused_only[-UNUSED:] = rng.normal(size=UNUSED)
            queries = [
                sparse_vector(rng, 256),  # meets the empty posting lists too
                stored[int(rng.integers(len(stored)))],  # ties with its copies
                stored[int(rng.integers(len(stored)))] * 1e3,
                np.zeros(256),
                unused_only,  # shares no dimension with any row
            ]
            cases = [
                (q, k, layer)
                for q in queries
                for k in (1, 3, 10, 100)  # 100 is above every block's size
                for layer in ("knowledge", "case", None)
            ]
            want = [scan_oracle(store, q, k, layer) for q, k, layer in cases]
            store.seal()
            for (q, k, layer), expected in zip(cases, want):
                hits = retrieve_hyperedges(MetadataQuery("q"), FixedEmbedder(q), store, k=k, layer=layer)
                assert [(h.hyperedge_id, h.score) for h in hits] == expected
                assert [h.rank for h in hits] == list(range(1, len(hits) + 1))

    def test_a_row_that_shares_no_dimension_scores_exactly_zero(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            store = sparse_store(rng)
            store.seal()
            index = store.edge_index
            dense = np.array([store.hyperedges[hid].embedding for hid in index.ids])
            q = sparse_vector(rng, 256)
            for block in index.blocks.values():
                dots = index.dots(q, block)
                shares = (dense[block] != 0.0) & (q != 0.0)
                disjoint = ~shares.any(axis=1)
                assert dots.shape == (block.stop - block.start,)
                assert (dots[disjoint] == 0.0).all() and not np.signbit(dots[disjoint]).any()
                assert np.allclose(dots, dense[block] @ q, rtol=1e-12, atol=1e-12 * np.abs(q).max())

    def test_a_question_with_no_word_token_scores_no_row(self, monkeypatch):
        # it embeds to zeros, whose cosine() with every row is 0.0, so ids
        # alone order the rows and no row is scored
        rng = np.random.default_rng(78)
        embedder = HashedTokenEmbedder(256)
        calls = []
        real_cosine = retrieval.cosine
        monkeypatch.setattr(retrieval, "cosine", lambda u, v: calls.append(1) or real_cosine(u, v))
        interleaved = False
        for _ in range(10):
            store = sparse_store(rng)
            cases = [(k, layer) for k in (1, 3, 100) for layer in ("knowledge", "case", None)]
            want = [scan_oracle(store, np.zeros(256), k, layer) for k, layer in cases]
            store.seal()
            # the Kelvin sign lowercases to an ASCII 'k', yet is no word
            for question in ("癫痫的脑电图特征是什么？", "???", "\u212a"):
                for (k, layer), expected in zip(cases, want):
                    calls.clear()
                    hits = retrieve_hyperedges(MetadataQuery(question), embedder, store, k=k, layer=layer)
                    assert [(h.hyperedge_id, h.score) for h in hits] == expected
                    assert [h.rank for h in hits] == list(range(1, len(hits) + 1))
                    assert not calls
                    interleaved |= layer is None and [hid for hid, _ in expected] != store.edge_index.ids[:k]
        assert interleaved  # layer=None merged the two blocks' ids at least once


WORDS = ["spike", "wave", "Alpha", "rhythm", "beta", "3", "hz", "delta", "slow"]
FILLER = ["and", "the", "alphabet", "waves", "of"]
# "spike" starts names of widths 1, 3 and 4 but none of width 2; "wave"
# starts two names and is a later word of three others
SHARED_STARTS = [
    "spike", "spike wave discharge", "spike and slow wave", "wave", "wave burst", "slow wave", "3 hz spike"
]
SHARED_WORDS = ["spike", "wave", "discharge", "and", "slow", "burst", "3", "hz", "the"]


def random_phrase(rng, words, n) -> str:
    seps = [" ", "-", " - ", ", ", "/", "  "]
    picked = [str(words[i]) for i in rng.integers(0, len(words), size=n)]
    picked = [w.upper() if rng.random() < 0.2 else w for w in picked]
    out = picked[0]
    for w in picked[1:]:
        out += seps[int(rng.integers(len(seps)))] + w
    return out


class TestEntityLinkerOracle:
    """The compiled linker against every name tried at every position, compared exactly."""

    def test_equals_exhaustive_scan_on_random_stores(self):
        # random names, then names drawn from SHARED_STARTS
        assert entity_store(*SHARED_STARTS).names.starts == {"spike": 4, "wave": 2, "slow": 2, "3": 3}
        rng = np.random.default_rng(81)
        for trial in range(120):
            store = BipartiteStore(embedding_dim=4)
            if trial < 60:
                for _ in range(int(rng.integers(1, 15))):
                    store.add_entity(random_phrase(rng, WORDS, int(rng.integers(1, 4))))
                words = WORDS + FILLER
            else:
                for name in rng.permutation(SHARED_STARTS)[: int(rng.integers(1, len(SHARED_STARTS) + 1))]:
                    store.add_entity(str(name))
                words = SHARED_WORDS
            texts = [random_phrase(rng, words, int(rng.integers(1, 25))) for _ in range(5)]
            want = [link_oracle(text, store) for text in texts]
            unsealed = [find_entity_mentions(text, store) for text in texts]
            store.seal()
            for text, expected, got_unsealed in zip(texts, want, unsealed):
                for got in (
                    got_unsealed,
                    find_entity_mentions(text, store),
                    extract_query_entities(MetadataQuery(text), store),
                ):
                    assert [(m.entity_id, m.start, m.end, m.surface, m.kind) for m in got] == expected

    def test_hyphenated_alias_and_shared_token_sequence(self):
        store = BipartiteStore(embedding_dim=4)
        spaced = store.add_entity("spike wave")
        hyphen = store.add_entity("Spike-Wave")
        store.add_entity("wave")
        text = "SPIKE-wave, spike wave and spike--wave"
        expected = link_oracle(text, store)
        store.seal()
        got = [(m.entity_id, m.start, m.end, m.surface, m.kind) for m in find_entity_mentions(text, store)]
        assert got == expected
        assert {m[0] for m in got} == {min(spaced, hyphen)}
        assert store.names.starts == {"spike": 2, "wave": 1}

    def test_a_word_that_touches_a_non_ascii_letter_links_nothing(self):
        store = BipartiteStore(embedding_dim=4)
        spike, wave = store.add_entity("spike"), store.add_entity("wave")
        store.seal()
        assert find_entity_mentions("Ｓspike seen", store) == []
        assert find_entity_mentions("αwave burst", store) == []
        assert [m.entity_id for m in find_entity_mentions("spike, wave²; wave", store)] == [spike, wave]

    def test_a_name_whose_words_miss_a_letter_is_not_indexed(self):
        store = BipartiteStore(embedding_dim=4)
        unindexed = [store.add_entity(name) for name in ("Ｅpilepsy", "癫痫", "α rhythm")]
        hyphen = store.add_entity("spike-wave")
        store.seal()
        assert all(eid in store.entities for eid in unindexed)
        assert store.names.by_seq == {("spike", "wave"): hyphen}
        assert find_entity_mentions("Ｅpilepsy seen with a rhythm, 癫痫", store) == []
        (match,) = find_entity_mentions("a spike wave burst", store)
        assert (match.entity_id, match.surface) == (hyphen, "spike wave")
        rng = np.random.default_rng(17)
        alphabet = [*"aZ9 -_", "α", "Ｅ", "癫", "²", "é", "İ", "\u212a"]
        for _ in range(300):
            store = BipartiteStore(embedding_dim=4)
            name = "".join(rng.choice(alphabet, size=int(rng.integers(1, 7)))).strip() or "_"
            eid = store.add_entity(name)
            name = store.entities[eid].name
            words = re.findall("[0-9A-Za-z]+", name)
            covered = sum(map(len, words)) == sum(ch.isalnum() for ch in name)
            assert (eid in store.names.by_seq.values()) == (covered and bool(words)), name
