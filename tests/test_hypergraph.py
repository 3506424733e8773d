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
from eegrag.hypergraph import LAYER_FILES, BipartiteStore

from conftest import add_edge, layer_file_oracle, oracle_words, random_store, reference_bfs, rewrite_row


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
        with pytest.raises(PreconditionError, match="embedding values have shape"):
            store.add_hyperedge("fact", {a}, None)
        assert len(store.hyperedges) == 0

    @pytest.mark.parametrize(
        "vector, error",
        [(np.ones(3), DimensionMismatchError), (np.array([math.nan, 1.0]), PreconditionError)],
        ids=["wrong-dimension", "non-finite"],
    )
    def test_repeated_edge_is_checked_like_a_new_one(self, vector, error):
        store = BipartiteStore(embedding_dim=2)
        a = store.add_entity("a")
        first = store.add_hyperedge("fact", {a}, np.array([1.0, 0.0]))
        with pytest.raises(error):
            store.add_hyperedge("fact", {a}, vector)
        np.testing.assert_array_equal(store.hyperedges[first].embedding, [1.0, 0.0])

    def test_second_case_edge_with_a_known_description_is_refused(self):
        store = BipartiteStore(embedding_dim=4)
        a, b = store.add_entity("a"), store.add_entity("b")
        first = add_edge(store, "age=34", {a}, "case")
        assert add_edge(store, "age=34", {a}, "case") == first
        with pytest.raises(PreconditionError, match="case-layer description 'age=34' repeats"):
            add_edge(store, "age=34", {a, b}, "case")
        assert set(store.hyperedges) == {first}
        assert store.incidence == {a: {first}, b: set()}
        assert store.case_members == {"age=34": frozenset({a})}
        knowledge = add_edge(store, "age=34", {a, b})  # the knowledge layer may repeat it
        store.drop_layer("case")
        assert set(store.hyperedges) == {knowledge}
        assert store.case_members == {}

    def test_unknown_layer_rejected(self):
        store = BipartiteStore()
        a = store.add_entity("a")
        with pytest.raises(PreconditionError):
            add_edge(store, "fact", {a}, layer="bogus")


def batch_rows(n: int, seed: int = 5) -> tuple[list[str], list[tuple]]:
    """Entity names and ``n`` hyperedge rows over them: repeated rows with
    other vectors, non-ASCII descriptions, member sets shared by several
    descriptions, and case-layer rows with unique descriptions."""
    rng = np.random.default_rng(seed)
    names = [f"entity {i}" for i in range(60)]
    words = ["spike", "wave", "électroencéphalogramme", "脑电图", "🧠", "alpha", "x" * 300]
    member_sets = [sorted(rng.choice(60, size=int(rng.integers(1, 5)), replace=False).tolist()) for _ in range(50)]
    rows = []
    for j in range(n):
        if rows and rng.random() < 0.2:
            description, picks, _, layer = rows[int(rng.integers(len(rows)))]
            if layer == "case":
                layer = "knowledge"
        else:
            count = int(rng.integers(1, 6))
            description = " ".join(words[int(k)] for k in rng.integers(len(words), size=count)) + f" {j % 700}"
            picks = member_sets[int(rng.integers(len(member_sets)))]
            layer = "case" if rng.random() < 0.1 else "knowledge"
            if layer == "case":
                description = f"case {j}: {description}"
        rows.append((description, picks, rng.normal(size=4), layer))
    return names, rows


def batch_store(names: list[str]) -> tuple[BipartiteStore, list[int]]:
    store = BipartiteStore(embedding_dim=4)
    return store, [store.add_entity(name) for name in names]


class TestAddHyperedges:
    def test_one_batch_equals_one_call_per_row(self, tmp_path):
        names, rows = batch_rows(2000)
        one_by_one, ids = batch_store(names)
        batched, _ = batch_store(names)
        members = [({ids[i] for i in picks}) for _, picks, _, _ in rows]
        want = [one_by_one.add_hyperedge(d, m, v, layer) for (d, _, v, layer), m in zip(rows, members)]
        got = batched.add_hyperedges((d, m, v, layer) for (d, _, v, layer), m in zip(rows, members))
        assert got == want
        assert len(set(got)) < len(got)  # the batch repeats rows
        assert len(batched.hyperedges) == len(one_by_one.hyperedges)
        assert any(e.layer == "case" for e in batched.hyperedges.values())
        assert batched.incidence == one_by_one.incidence
        assert batched.case_members == one_by_one.case_members
        for store, directory in ((one_by_one, "one"), (batched, "batch")):
            store.save(tmp_path / directory)
        for name in ("entities.jsonl", "hyperedges.jsonl", "case_edges.jsonl", "meta.json"):
            assert (tmp_path / "batch" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_a_row_repeated_in_the_batch_keeps_the_first_embedding(self):
        store = BipartiteStore(embedding_dim=2)
        a = store.add_entity("a")
        rows = [(f"fact {i % 3}", {a}, np.array([float(i), 1.0]), "knowledge") for i in range(40)]
        ids = store.add_hyperedges(rows)
        assert len(store.hyperedges) == 3 and ids[:3] == ids[3:6]
        for i, edge_id in enumerate(ids[:3]):
            np.testing.assert_array_equal(store.hyperedges[edge_id].embedding, [float(i), 1.0])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("description", " "),
            ("description", 5),
            ("members", set()),
            ("members", {12345}),
            ("members", {True}),
            ("embedding", np.ones(3)),
            ("embedding", np.array([math.nan, 0.0, 0.0, 0.0])),
            ("layer", "bogus"),
        ],
    )
    def test_a_bad_row_mid_batch_raises_its_error_before_any_row_is_stored(self, field, value):
        names, rows = batch_rows(300)
        store, ids = batch_store(names)
        batch = [(d, {ids[i] for i in picks}, v, layer) for d, picks, v, layer in rows]
        bad = dict(zip(("description", "members", "embedding", "layer"), batch[150]))
        bad[field] = value
        batch[150] = tuple(bad.values())
        # what one call per row raises when it reaches the bad row
        one_by_one, _ = batch_store(names)
        with pytest.raises(Exception) as expected:
            for row in batch:
                one_by_one.add_hyperedge(*row)
        with pytest.raises(expected.type) as got:
            store.add_hyperedges(batch)
        assert str(got.value) == str(expected.value)
        assert isinstance(got.value, (PreconditionError, ReferentialError, DimensionMismatchError))
        assert store.hyperedges == {} and all(not edges for edges in store.incidence.values())

    def test_a_repeated_case_description_is_refused_where_it_is_reached(self):
        store = BipartiteStore(embedding_dim=4)
        a, b = store.add_entity("a"), store.add_entity("b")
        rows = [
            ("age=34", {a}, np.ones(4), "case"),
            ("age=34", {a}, np.ones(4), "case"),  # the same edge: merged
            ("fact", {a, b}, np.ones(4), "knowledge"),
            ("age=34", {a, b}, np.ones(4), "case"),
            ("later", {b}, np.ones(4), "knowledge"),
        ]
        with pytest.raises(PreconditionError, match="case-layer description 'age=34' repeats"):
            store.add_hyperedges(rows)
        assert sorted(e.description for e in store.hyperedges.values()) == ["age=34", "fact"]
        assert store.case_members == {"age=34": frozenset({a})}

    def test_an_empty_batch_adds_nothing(self):
        store = BipartiteStore(embedding_dim=4)
        assert store.add_hyperedges([]) == []
        assert store.hyperedges == {}


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

    @pytest.mark.parametrize("dim", [0, -1])
    def test_embedding_dim_below_one_refused(self, dim):
        with pytest.raises(PreconditionError, match="embedding_dim must be >= 1"):
            BipartiteStore(embedding_dim=dim)

    def test_a_second_seal_keeps_the_index(self):
        store, _ = make_path_store()
        store.seal()
        index = store.edge_index
        store.seal()
        assert store.sealed and store.edge_index is index

    def test_a_zero_query_dots_every_row_to_zero(self):
        store = random_store(np.random.default_rng(19), cases=True)
        store.seal()
        index = store.edge_index
        for block in index.blocks.values():
            dots = index.dots(np.zeros(store.embedding_dim), block)
            assert dots.tolist() == [0.0] * (block.stop - block.start)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        store = random_store(rng)
        store.save(tmp_path / "store")
        loaded = BipartiteStore.load(tmp_path / "store", store.embedding_dim)
        loaded.save(tmp_path / "store2")
        for name in ("entities.jsonl", "hyperedges.jsonl", "case_edges.jsonl", "meta.json"):
            assert (tmp_path / "store" / name).read_bytes() == (
                tmp_path / "store2" / name
            ).read_bytes()
        assert loaded.entities.keys() == store.entities.keys()
        assert loaded.hyperedges.keys() == store.hyperedges.keys()
        assert not loaded.sealed

    def test_load_rebuilds_every_index_that_ingest_kept(self, tmp_path):
        rng = np.random.default_rng(16)
        for trial in range(30):
            store = random_store(rng, cases=True)
            for i in rng.choice(len(store.entities), size=3):
                store.add_entity(f"Entity {i}")  # shares "entity-{i}"'s words
            store.save(tmp_path / str(trial))
            loaded = BipartiteStore.load(tmp_path / str(trial), store.embedding_dim)
            assert loaded.entities == store.entities
            assert loaded.hyperedges.keys() == store.hyperedges.keys()
            for hid, edge in store.hyperedges.items():
                got = loaded.hyperedges[hid]
                assert (got.description, got.members, got.layer) == (edge.description, edge.members, edge.layer)
                np.testing.assert_array_equal(got.embedding, edge.embedding)
            assert loaded.incidence == store.incidence
            lowest_id = {}
            for eid in sorted(store.entities):
                lowest_id.setdefault(tuple(w for w, _, _ in oracle_words(store.entities[eid].name)), eid)
            assert loaded.names.by_seq == store.names.by_seq == lowest_id
            longest = {}
            for seq in lowest_id:
                longest[seq[0]] = max(longest.get(seq[0], 0), len(seq))
            assert loaded.names.starts == store.names.starts == longest
            case_edges = [e for e in store.hyperedges.values() if e.layer == "case"]
            assert loaded.case_members == store.case_members == {e.description: e.members for e in case_edges}

    def test_saved_hyperedges_equal_the_json_dumps_oracle(self, tmp_path):
        # descriptions that json escapes or keeps as they are, and vectors
        # with -0.0, subnormals, dense rows and all-zero rows
        texts = ['say "no"', "back\\slash", "tab\tnew\nline\x00bell\x07\x7f", "café ∑ 脑电 \u2028 🧠"]
        specials = [-0.0, 5e-324, 1e-310, 1e16, 1e-7, 0.1, 1.7976931348623157e308]
        rng = np.random.default_rng(18)
        for trial in range(20):
            store = random_store(rng, cases=True)
            entity_ids = sorted(store.entities)
            for j, text in enumerate(texts):
                vector = np.zeros(store.embedding_dim)
                if j % 2:
                    vector = rng.standard_normal(store.embedding_dim) * 10.0 ** rng.integers(-300, 300)
                vector[rng.integers(store.embedding_dim)] = specials[(trial + j) % len(specials)]
                members = set(rng.choice(entity_ids, size=min(2, len(entity_ids)), replace=False).tolist())
                store.add_hyperedge(f"{text} {trial}", members, vector, ("knowledge", "case")[j % 2])
            store.save(tmp_path / str(trial))
            for layer, name in LAYER_FILES.items():
                assert (tmp_path / str(trial) / name).read_bytes() == layer_file_oracle(store, layer), name

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("layer", "bogus", PreconditionError),
            ("embedding", [1.0, 2.0], DimensionMismatchError),
            ("embedding", [1.0, math.nan, 1.0, 1.0], PreconditionError),
            ("embedding", None, PreconditionError),
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
        for name in ("entities.jsonl", "hyperedges.jsonl", "case_edges.jsonl", "meta.json"):
            assert (tmp_path / "once" / name).read_bytes() == (
                tmp_path / "twice" / name
            ).read_bytes()

    def test_a_store_loaded_with_the_case_layer_only_keeps_to_it(self, tmp_path):
        store = random_store(np.random.default_rng(20), cases=True)
        store.save(tmp_path)
        knowledge, entities = tmp_path / "hyperedges.jsonl", tmp_path / "entities.jsonl"
        before, entities_before = knowledge.stat(), entities.stat()
        partial = BipartiteStore.load(tmp_path, store.embedding_dim, layers=("case",))
        assert partial.layers == ("case",)
        assert partial.entities == store.entities
        case_edges = {hid: e for hid, e in store.hyperedges.items() if e.layer == "case"}
        assert case_edges and len(case_edges) < len(store.hyperedges)
        assert partial.hyperedges.keys() == case_edges.keys()
        assert partial.case_members == store.case_members
        member = next(iter(store.entities))
        with pytest.raises(PreconditionError, match="layer 'knowledge' is not loaded"):
            add_edge(partial, "a new fact", {member})
        add_edge(partial, "a new case", {member}, layer="case")
        with pytest.raises(PreconditionError, match=r"holds only the \('case',\) layers takes no entity"):
            partial.add_entity("a new entity")
        with pytest.raises(PreconditionError, match="cannot be sealed"):
            partial.seal()
        assert not partial.sealed
        partial.save(tmp_path)
        # neither the knowledge layer's file nor entities.jsonl is written
        for path, stat in ((knowledge, before), (entities, entities_before)):
            after = path.stat()
            assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns), path.name
        full = BipartiteStore.load(tmp_path, store.embedding_dim)
        assert full.layers == ("knowledge", "case")
        assert full.hyperedges.keys() == store.hyperedges.keys() | partial.hyperedges.keys()
        full.seal()

    def test_a_directory_without_meta_loads_holding_every_layer(self, tmp_path):
        store = BipartiteStore.load(tmp_path, 4, layers=("case",))
        assert store.layers == ("knowledge", "case") and not store.hyperedges
        store.save(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["entities.jsonl", *LAYER_FILES.values(), "meta.json"]
        )
