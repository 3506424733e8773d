import math

import numpy as np
import pytest

from eegrag.errors import (
    DimensionMismatchError,
    NotFoundError,
    PreconditionError,
    ReferentialError,
    StoreSealedError,
)
from eegrag.hypergraph import BipartiteStore

from conftest import add_edge, random_store, reference_bfs, rewrite_row


def make_path_store():
    """v1 - E1 - v2 - E2 - v3, a 5-node bipartite path."""
    store = BipartiteStore(embedding_dim=4)
    v1 = store.add_entity("v1")
    v2 = store.add_entity("v2")
    v3 = store.add_entity("v3")
    e1 = add_edge(store, "E1", {v1, v2})
    e2 = add_edge(store, "E2", {v2, v3})
    return store, (v1, v2, v3, e1, e2)


class TestAddEntity:
    def test_idempotent_same_id(self):
        store = BipartiteStore()
        first = store.add_entity("spike-wave", "waveform", "3 Hz discharge")
        again = store.add_entity("spike-wave", "waveform", "3 Hz discharge")
        assert first == again
        assert len(store.entities) == 1

    def test_empty_name_rejected(self):
        store = BipartiteStore()
        with pytest.raises(PreconditionError):
            store.add_entity("")
        with pytest.raises(PreconditionError):
            store.add_entity("   ")

    def test_dimension_mismatch_rejected(self):
        store = BipartiteStore(embedding_dim=4)
        with pytest.raises(DimensionMismatchError):
            store.add_hyperedge("f", {store.add_entity("x")}, embedding=np.ones(5))
        assert len(store.hyperedges) == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_embedding_rejected(self, value):
        store = BipartiteStore(embedding_dim=2)
        a = store.add_entity("a")
        with pytest.raises(PreconditionError, match="finite"):
            store.add_hyperedge("f", {a}, embedding=np.array([value, 1.0]))
        assert len(store.hyperedges) == 0

    def test_merge_newest_nonempty_wins(self):
        store = BipartiteStore(embedding_dim=2)
        eid = store.add_entity("alpha", "waveform", "first def")
        store.add_entity("Alpha", "", "updated def")
        assert store.entities[eid].etype == "waveform"
        assert store.entities[eid].definition == "updated def"
        assert store.entities[eid].name == "alpha"


class TestAddHyperedge:
    def test_incidence_updated_for_every_member(self):
        store = BipartiteStore()
        ids = [store.add_entity(n) for n in "ABC"]
        edge = add_edge(store, "fact", set(ids))
        for eid in ids:
            assert store.incident_hyperedges(eid) == {edge}

    def test_empty_members_rejected(self):
        store = BipartiteStore()
        with pytest.raises(PreconditionError):
            add_edge(store, "fact", set())

    def test_unknown_member_rejected(self):
        store = BipartiteStore()
        store.add_entity("a")
        with pytest.raises(ReferentialError):
            add_edge(store, "fact", {12345})

    def test_duplicate_edge_is_merged(self):
        store = BipartiteStore(embedding_dim=2)
        a = store.add_entity("a")
        first = store.add_hyperedge("fact", {a}, np.array([1.0, 0.0]))
        again = store.add_hyperedge("fact", {a}, np.array([0.0, 1.0]))
        assert first == again
        assert len(store.hyperedges) == 1
        np.testing.assert_array_equal(store.hyperedges[first].embedding, [1.0, 0.0])

    def test_embedding_is_required(self):
        store = BipartiteStore(embedding_dim=2)
        a = store.add_entity("a")
        with pytest.raises(DimensionMismatchError):
            store.add_hyperedge("fact", {a}, None)
        assert len(store.hyperedges) == 0

    def test_unknown_layer_rejected(self):
        store = BipartiteStore()
        a = store.add_entity("a")
        with pytest.raises(PreconditionError):
            add_edge(store, "fact", {a}, layer="bogus")


class TestIncidence:
    def test_entity_without_edges(self):
        store = BipartiteStore()
        eid = store.add_entity("lonely")
        assert store.incident_hyperedges(eid) == set()

    def test_unknown_entity(self):
        store = BipartiteStore()
        with pytest.raises(NotFoundError):
            store.incident_hyperedges(99)

    def test_matches_bruteforce_scan_on_random_stores(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            store = random_store(rng)
            for eid in store.entities:
                expected = {h for h, e in store.hyperedges.items() if eid in e.members}
                assert store.incident_hyperedges(eid) == expected

    def test_incidence_consistency_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            store = random_store(rng)
            for eid, edges in store.incidence.items():
                for hid in edges:
                    assert eid in store.hyperedges[hid].members
            for hid, edge in store.hyperedges.items():
                for eid in edge.members:
                    assert hid in store.incidence[eid]


class TestNeighborhood:
    def test_radius_zero_is_seed_set(self):
        store, (v1, v2, v3, e1, e2) = make_path_store()
        hood = store.neighborhood({v1, e2}, 0)
        assert hood.entity_ids == {v1}
        assert hood.hyperedge_ids == {e2}

    def test_hand_bfs_on_path(self):
        store, (v1, v2, v3, e1, e2) = make_path_store()
        hood = store.neighborhood({v1}, 2)
        assert hood.entity_ids == {v1, v2}
        assert hood.hyperedge_ids == {e1}

    def test_radius_beyond_diameter_reaches_component(self):
        store, (v1, v2, v3, e1, e2) = make_path_store()
        isolated = store.add_entity("island")
        hood = store.neighborhood({v1}, 10)
        assert hood.nodes == {v1, v2, v3, e1, e2}
        assert isolated not in hood.entity_ids

    def test_unknown_seed(self):
        store, _ = make_path_store()
        with pytest.raises(NotFoundError):
            store.neighborhood({424242}, 1)

    def test_negative_radius(self):
        store, (v1, *_) = make_path_store()
        with pytest.raises(PreconditionError):
            store.neighborhood({v1}, -1)

    def test_monotone_in_radius_and_contains_seeds(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            store = random_store(rng)
            pool = sorted(store.entities) + sorted(store.hyperedges)
            picks = rng.choice(len(pool), size=min(3, len(pool)), replace=False)
            seeds = {pool[i] for i in picks}
            previous = set()
            for radius in range(4):
                nodes = store.neighborhood(seeds, radius).nodes
                assert seeds <= nodes
                assert previous <= nodes
                previous = nodes

    def test_equals_reference_bfs_on_random_stores(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            store = random_store(rng)
            pool = sorted(store.entities) + sorted(store.hyperedges)
            picks = rng.choice(len(pool), size=min(2, len(pool)), replace=False)
            seeds = {pool[i] for i in picks}
            for radius in (0, 1, 2, 5):
                assert store.neighborhood(seeds, radius).nodes == reference_bfs(
                    store, seeds, radius
                )

    def test_dropping_a_layer_keeps_incidence_the_inverse_of_members(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            store = random_store(rng)
            ids = sorted(store.entities)
            for j in range(int(rng.integers(0, 10))):
                picks = rng.choice(len(ids), size=min(2, len(ids)), replace=False)
                add_edge(store, f"case {j}", {ids[i] for i in picks}, "case")
            knowledge = {h: e for h, e in store.hyperedges.items() if e.layer == "knowledge"}
            store.drop_layer("case")
            assert store.hyperedges == knowledge
            for eid in ids:
                assert store.incidence[eid] == {h for h, e in knowledge.items() if eid in e.members}
            store.seal()
            with pytest.raises(StoreSealedError):
                store.drop_layer("case")


class TestLifecycleAndPersistence:
    def test_sealed_store_rejects_mutation(self):
        store = BipartiteStore()
        a = store.add_entity("a")
        store.seal()
        with pytest.raises(StoreSealedError):
            store.add_entity("b")
        with pytest.raises(StoreSealedError):
            add_edge(store, "f", {a})
        # reads still work
        assert store.incident_hyperedges(a) == set()

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        store = random_store(rng)
        store.save(tmp_path / "store")
        loaded = BipartiteStore.load(tmp_path / "store", store.embedding_dim)
        loaded.save(tmp_path / "store2")
        for name in ("entities.jsonl", "hyperedges.jsonl", "meta.json"):
            assert (tmp_path / "store" / name).read_bytes() == (
                tmp_path / "store2" / name
            ).read_bytes()
        assert loaded.entities.keys() == store.entities.keys()
        assert loaded.hyperedges.keys() == store.hyperedges.keys()
        assert not loaded.sealed

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("layer", "bogus", PreconditionError),
            ("embedding", [1.0, 2.0], DimensionMismatchError),
            ("embedding", [1.0, math.nan, 1.0, 1.0], PreconditionError),
            ("embedding", None, DimensionMismatchError),
        ],
    )
    def test_load_rejects_malformed_hyperedge_rows(self, tmp_path, field, value, error):
        store = BipartiteStore(embedding_dim=4)
        store.add_hyperedge("f", {store.add_entity("a")}, embedding=np.ones(4))
        store.save(tmp_path)
        rewrite_row(tmp_path / "hyperedges.jsonl", 1, field, value)
        with pytest.raises(error, match="hyperedges.jsonl: line 1: "):
            BipartiteStore.load(tmp_path, 4)

    def test_double_ingest_leaves_store_isomorphic(self, tmp_path):
        def build(times: int):
            store = BipartiteStore(embedding_dim=4)
            for _ in range(times):
                a = store.add_entity("a", "t", "def")
                b = store.add_entity("b", "t", "def")
                add_edge(store, "fact", {a, b})
            return store

        once, twice = build(1), build(2)
        once.save(tmp_path / "once")
        twice.save(tmp_path / "twice")
        for name in ("entities.jsonl", "hyperedges.jsonl", "meta.json"):
            assert (tmp_path / "once" / name).read_bytes() == (
                tmp_path / "twice" / name
            ).read_bytes()
