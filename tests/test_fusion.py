import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

import eegrag.cli as cli_module
import eegrag.fusion as fusion_module
import eegrag.pipeline as pipeline_module
from eegrag.cases import CaseStore, PatientRecord
from eegrag.cli import link_case_layer
from eegrag.config import PipelineConfig
from eegrag.eeg import EegMatch
from eegrag.embedding import HashedTokenEmbedder
from eegrag.errors import PreconditionError, ReferentialError, TransportError
from eegrag.fusion import (
    AblationFlags,
    ContextEdge,
    HttpChatClient,
    MockGenerationClient,
    RetrievalBundle,
    fuse,
    generate,
    render_context,
)
from eegrag.hypergraph import CASE_LAYER, BipartiteStore
from eegrag.retrieval import EntityMatch, MetadataQuery, ScoredHyperedge, find_entity_mentions

from conftest import add_edge


def seal_with_case_layer(store: BipartiteStore, cases: CaseStore) -> set[int]:
    """Build the case layer as the ingest commands do, seal both stores, and
    return the case-layer hyperedge ids."""
    link_case_layer(store, cases, HashedTokenEmbedder(store.embedding_dim))
    store.seal()
    cases.seal()
    return {hid for hid, e in store.hyperedges.items() if e.layer == CASE_LAYER}


def bridging_fixture():
    """Entities A, B seeded; one bridging edge covers both, two side edges
    cover one each. Bridge must outrank the side edges (connectivity 2 > 1)."""
    store = BipartiteStore(embedding_dim=32)
    a = store.add_entity("alphaden")
    b = store.add_entity("betaden")
    x = store.add_entity("xil")
    y = store.add_entity("yil")
    bridge = add_edge(store, "bridge over both", {a, b})
    side_a = add_edge(store, "side fact on a", {a, x})
    side_b = add_edge(store, "side fact on b", {b, y})
    store.seal()
    seeds = [
        EntityMatch(a, 0, 1, "alphaden", "exact-name"),
        EntityMatch(b, 2, 3, "betaden", "exact-name"),
    ]
    return store, seeds, (a, b, x, y, bridge, side_a, side_b)


class TestConfigureAblation:
    """The cl/il/el ablation flags are configured through PipelineConfig."""

    def test_all_true_default(self):
        flags = PipelineConfig.from_mapping({}).ablation
        assert flags == AblationFlags(True, True, True)

    def test_uppercase_keys(self):
        flags = PipelineConfig.from_mapping({"CL": "false", "IL": "true", "EL": "false"}).ablation
        assert flags == AblationFlags(cl=False, il=True, el=False)

    def test_unknown_flag_rejected(self):
        with pytest.raises(PreconditionError):
            PipelineConfig.from_mapping({"XX": "true"})


class TestFuse:
    def test_empty_bundle_empty_context(self):
        store = BipartiteStore(embedding_dim=4)
        store.seal()
        ctx = fuse(RetrievalBundle(), store)
        assert ctx.is_empty()
        assert not ctx.truncated
        assert ctx.hyperedges == [] and ctx.entities == []

    def test_single_retrieved_edge_radius_zero(self):
        store = BipartiteStore(embedding_dim=4)
        a = store.add_entity("a", definition="def a")
        b = store.add_entity("b")
        edge = add_edge(store, "fact", {a, b})
        other = add_edge(store, "unrelated", {store.add_entity("c")})
        store.seal()
        bundle = RetrievalBundle(hyperedge_hits=[ScoredHyperedge(edge, 0.9, 1)])
        ctx = fuse(bundle, store, radius=0)
        assert [e.hyperedge_id for e in ctx.hyperedges] == [edge]
        assert {e.id for e in ctx.entities} == {a, b}
        assert ctx.hyperedges[0].reason == "retrieved"
        assert other not in {e.hyperedge_id for e in ctx.hyperedges}

    def test_bridging_edge_ranked_first(self):
        store, seeds, (a, b, x, y, bridge, side_a, side_b) = bridging_fixture()
        ctx = fuse(RetrievalBundle(entity_matches=seeds), store, radius=1)
        assert ctx.hyperedges[0].hyperedge_id == bridge
        assert ctx.hyperedges[0].connectivity == 2
        assert {e.hyperedge_id for e in ctx.hyperedges} == {bridge, side_a, side_b}
        assert all(e.connectivity == 1 for e in ctx.hyperedges[1:])

    def test_budget_monotone_and_truncation(self):
        store, seeds, nodes = bridging_fixture()
        bundle = RetrievalBundle(entity_matches=seeds)
        previous: list[int] = []
        for budget in (1, 2, 3, 4):
            ctx = fuse(bundle, store, radius=1, budget=budget)
            ids = [e.hyperedge_id for e in ctx.hyperedges]
            assert set(previous) <= set(ids)
            assert ctx.truncated == (budget < 3)
            previous = ids

    def test_closure_soundness_and_member_completeness(self, embedder):
        from conftest import random_store

        rng = np.random.default_rng(71)
        for _ in range(15):
            store = random_store(rng, max_entities=12, max_edges=15, embedder=embedder)
            store.seal()
            if not store.hyperedges:
                continue
            edge_ids = sorted(store.hyperedges)
            hits = [ScoredHyperedge(edge_ids[0], 0.5, 1)]
            ent_ids = sorted(store.entities)
            matches = [EntityMatch(ent_ids[0], 0, 1, "e", "exact-name")]
            radius = int(rng.integers(0, 3))
            ctx = fuse(
                RetrievalBundle(hyperedge_hits=hits, entity_matches=matches),
                store,
                radius=radius,
                budget=8,
            )
            seeds = {edge_ids[0], ent_ids[0]}
            hood = store.neighborhood(seeds, radius)
            kept = {e.hyperedge_id for e in ctx.hyperedges}
            assert kept <= hood.hyperedge_ids
            included_entities = {e.id for e in ctx.entities}
            for edge in ctx.hyperedges:
                assert store.hyperedges[edge.hyperedge_id].members <= included_entities
            if not ctx.truncated:
                assert edge_ids[0] in kept

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("radius", range(4))
    def test_fused_edges_equal_ranking_the_walked_closure(self, radius, seed):
        """Fusion counts its candidates over the sealed incidence array,
        walking only for the edges beyond one hop; at every radius the kept
        edges, their order and the truncation flag must equal ranking every
        edge of the walked closure. Skewed membership makes hubs, shared
        edges and ties in connectivity and score. EEG matches seed the
        members of their cases' edges; every third bundle seeds no entity;
        a retrieved edge often holds a seed entity; and each bundle is also
        fused with budgets one below, equal to and one above the closure."""
        rng = np.random.default_rng(seed)
        store = BipartiteStore(embedding_dim=32)
        ents = [store.add_entity(f"node{i}") for i in range(30)]
        weights = 1.0 / (np.arange(30) + 2.0)
        weights /= weights.sum()
        for j in range(150):
            members = rng.choice(30, size=int(rng.integers(1, 5)), replace=False, p=weights)
            add_edge(store, f"fact {j}", {ents[m] for m in members})
        cases = CaseStore()
        for c in range(12):
            named = rng.choice(30, size=int(rng.integers(0, 4)), replace=False, p=weights)
            diagnosis = " ".join(f"node{n}" for n in named) or "unnamed"
            cases.add_record(PatientRecord.from_raw({"diagnosis": diagnosis, "age": str(20 + c)}))
        seal_with_case_layer(store, cases)
        hashes = sorted(cases.cases) + ["no-such-case"]
        edge_ids = sorted(store.hyperedges)
        for trial in range(30):
            hit_ids = rng.choice(len(edge_ids), size=int(rng.integers(0, 4)), replace=False)
            hits = [
                ScoredHyperedge(edge_ids[h], float(rng.choice([0.2, 0.5, 0.5])), rank)
                for rank, h in enumerate(hit_ids, start=1)
            ]
            picked, matched = set(), []
            if trial % 3:
                picked = {ents[e] for e in rng.choice(30, size=int(rng.integers(0, 9)), replace=False)}
                matched = list(rng.choice(hashes, size=int(rng.integers(0, 4)), replace=False))
                if hits and trial % 2:
                    picked.add(min(store.hyperedges[hits[0].hyperedge_id].members))
            bundle = RetrievalBundle(
                eeg_matches=[EegMatch(f"rec-{i}", h, 0.1 * i, i) for i, h in enumerate(matched)],
                hyperedge_hits=hits,
                entity_matches=[EntityMatch(e, 0, 1, "e", "exact-name") for e in sorted(picked)],
            )
            seeds = {h.hyperedge_id for h in hits} | picked
            for h in matched:
                if h in cases.cases:
                    seeds |= store.case_members.get(cases.cases[h].canonical, frozenset())
            scores = {h.hyperedge_id: h.score for h in hits}
            ranked = sorted(
                (
                    -(len(store.hyperedges[hid].members & seeds) + (hid in seeds)),
                    -scores.get(hid, -2.0),
                    hid,
                )
                for hid in store.neighborhood(seeds, radius).hyperedge_ids
            )
            for budget in (int(rng.integers(1, 40)), *{max(1, len(ranked) + d) for d in (-1, 0, 1)}):
                ctx = fuse(bundle, store, cases, radius=radius, budget=budget)
                got = [
                    (-e.connectivity, -(-2.0 if e.score is None else e.score), e.hyperedge_id)
                    for e in ctx.hyperedges
                ]
                assert got == ranked[:budget]
                assert ctx.truncated == (len(ranked) > budget)

    def test_sealed_incidence_spans_list_each_entitys_edges_ascending(self):
        from conftest import random_store

        rng = np.random.default_rng(29)
        for _ in range(10):
            store = random_store(rng, max_entities=20, max_edges=40, cases=True)
            store.seal()
            assert store.incident_edges.dtype == np.uint64
            assert store.incident_spans.keys() == store.entities.keys()
            assert len(store.incident_edges) == sum(map(len, store.incidence.values()))
            for eid, edges in store.incidence.items():
                got = store.incident_edges[slice(*store.incident_spans[eid])].tolist()
                assert got == sorted(edges)
                assert all(hid >= 1 << 63 for hid in got)

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_retrieved_edges_scored_zero_and_minus_zero_rank_by_id(self, first):
        store = BipartiteStore(embedding_dim=32)
        low, high = sorted(add_edge(store, f"fact {i}", {store.add_entity(f"n{i}")}) for i in range(2))
        store.seal()
        hits = [ScoredHyperedge(low, first, 1), ScoredHyperedge(high, -first, 2)]
        for order in (hits, hits[::-1]):
            ctx = fuse(RetrievalBundle(hyperedge_hits=order), store, radius=1)
            assert [e.hyperedge_id for e in ctx.hyperedges] == [low, high]
            sign = math.copysign(1, first)
            assert [math.copysign(1, s) for s in ctx.scores] == [sign, -sign]

    def test_a_repeated_retrieved_edge_keeps_its_highest_score(self):
        store = BipartiteStore(embedding_dim=32)
        low, high = sorted(add_edge(store, f"fact {i}", {store.add_entity(f"n{i}")}) for i in range(2))
        store.seal()
        hits = [ScoredHyperedge(low, 0.2, 1), ScoredHyperedge(high, 0.5, 2), ScoredHyperedge(low, 0.9, 3)]
        for order in (hits, hits[::-1]):
            ctx = fuse(RetrievalBundle(hyperedge_hits=order), store, radius=0)
            assert [(e.hyperedge_id, e.score) for e in ctx.hyperedges] == [(low, 0.9), (high, 0.5)]

    @pytest.mark.parametrize("radius", [0, 1, 2])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_a_retrieved_edge_holding_k_seed_entities_connects_k_plus_one(self, k, radius):
        store = BipartiteStore(embedding_dim=32)
        ents = [store.add_entity(f"node{i}") for i in range(4)]
        edge = add_edge(store, "fact", set(ents))
        store.seal()
        bundle = RetrievalBundle(
            hyperedge_hits=[ScoredHyperedge(edge, 0.5, 1)],
            entity_matches=[EntityMatch(e, 0, 1, "e", "exact-name") for e in ents[:k]],
        )
        ctx = fuse(bundle, store, radius=radius)
        assert [(e.hyperedge_id, e.connectivity, e.reason) for e in ctx.hyperedges] == [
            (edge, k + 1, "retrieved")
        ]

    def test_directly_retrieved_edge_survives_or_truncates(self):
        store, seeds, (a, b, x, y, bridge, side_a, side_b) = bridging_fixture()
        bundle = RetrievalBundle(
            hyperedge_hits=[ScoredHyperedge(side_a, 0.99, 1)], entity_matches=seeds
        )
        ctx = fuse(bundle, store, radius=1, budget=1)
        assert ctx.truncated
        ctx_full = fuse(bundle, store, radius=1, budget=10)
        assert side_a in {e.hyperedge_id for e in ctx_full.hyperedges}
        reasons = {e.hyperedge_id: e.reason for e in ctx_full.hyperedges}
        assert reasons[side_a] == "retrieved"

    def test_eeg_bridge_to_case_entities(self):
        store = BipartiteStore(embedding_dim=32)
        epilepsy = store.add_entity("epilepsy")
        edge = add_edge(store, "epilepsy fact", {epilepsy})
        cases = CaseStore()
        h = cases.add_record(PatientRecord.from_raw({"diagnosis": "epilepsy", "age": "30"}))
        case_edges = seal_with_case_layer(store, cases)
        bundle = RetrievalBundle(eeg_matches=[EegMatch("rec-1", h, 0.5, 1)])
        ctx = fuse(bundle, store, cases, radius=1)
        assert [c.h for c in ctx.cases] == [h]
        assert len(case_edges) == 1
        assert {e.hyperedge_id for e in ctx.hyperedges} == {edge} | case_edges
        assert [s.recording_id for s in ctx.eeg_summaries] == ["rec-1"]

    def test_context_shares_the_stores_records(self):
        store = BipartiteStore(embedding_dim=32)
        epilepsy = store.add_entity("epilepsy")
        edge = add_edge(store, "epilepsy fact", {epilepsy})
        cases = CaseStore()
        h = cases.add_record(PatientRecord.from_raw({"diagnosis": "epilepsy"}))
        kept = sorted({edge} | seal_with_case_layer(store, cases))
        matches = [EegMatch("rec-1", h, 0.5, 1), EegMatch("rec-2", None, 0.75, 2)]
        ctx = fuse(RetrievalBundle(eeg_matches=matches), store, cases, radius=1)
        assert ctx.edges == [store.hyperedges[hid] for hid in kept]
        assert all(a is store.hyperedges[hid] for a, hid in zip(ctx.edges, kept))
        assert ctx.hyperedges == [
            ContextEdge(hid, store.hyperedges[hid].description, "closure", 1, None) for hid in kept
        ]
        assert ContextEdge(edge, "epilepsy fact", "closure", 1, None) in ctx.hyperedges
        assert ctx.entities[0] is store.entities[epilepsy]
        assert ctx.cases[0] is cases.cases[h]
        assert ctx.eeg_summaries == matches and ctx.eeg_summaries is not matches
        assert all(a is b for a, b in zip(ctx.eeg_summaries, matches))

    def test_each_matched_case_is_linked_once(self, monkeypatch):
        # once when the case layer is built, in hash order; never by fuse
        store = BipartiteStore(embedding_dim=32)
        epilepsy, sleep = store.add_entity("epilepsy"), store.add_entity("sleep")
        edges = {add_edge(store, "epilepsy fact", {epilepsy}), add_edge(store, "sleep fact", {sleep})}
        cases = CaseStore()
        h1 = cases.add_record(PatientRecord.from_raw({"diagnosis": "epilepsy"}))
        h2 = cases.add_record(PatientRecord.from_raw({"diagnosis": "sleep apnea"}))
        patients = [h2, h1, h2, None, "unknown", h1, h2]
        matches = [EegMatch(f"rec-{i}", ph, float(i), i) for i, ph in enumerate(patients, start=1)]
        linked = []

        def spy(text, *args):
            linked.append(text)
            return find_entity_mentions(text, *args)

        for module in (cli_module, fusion_module):
            monkeypatch.setattr(module, "find_entity_mentions", spy)
        case_edges = seal_with_case_layer(store, cases)
        assert linked == [cases.cases[h].canonical for h in sorted((h1, h2))]
        linked.clear()
        ctx = fuse(RetrievalBundle(eeg_matches=matches), store, cases, radius=1)
        assert linked == []
        assert [c.h for c in ctx.cases] == [h2, h1]
        assert len(case_edges) == 2
        assert {e.hyperedge_id for e in ctx.hyperedges} == edges | case_edges
        assert ctx.eeg_summaries == matches

    def test_unknown_patient_hash_is_skipped(self):
        store = BipartiteStore(embedding_dim=4)
        store.seal()
        bundle = RetrievalBundle(eeg_matches=[EegMatch("rec-1", "nope", 0.5, 1)])
        ctx = fuse(bundle, store, CaseStore())
        assert ctx.cases == []
        assert len(ctx.eeg_summaries) == 1

    def test_unresolvable_bundle_ids_rejected(self):
        store = BipartiteStore(embedding_dim=4)
        store.seal()
        with pytest.raises(ReferentialError):
            fuse(RetrievalBundle(hyperedge_hits=[ScoredHyperedge(999, 0.5, 1)]), store)
        with pytest.raises(ReferentialError):
            fuse(RetrievalBundle(entity_matches=[EntityMatch(1, 0, 1, "x", "exact-name")]), store)

    def test_byte_identical_serialization(self):
        store, seeds, _ = bridging_fixture()
        bundle = RetrievalBundle(entity_matches=seeds)
        a = fuse(bundle, store, radius=1).to_json()
        b = fuse(bundle, store, radius=1).to_json()
        assert a.encode() == b.encode()

    def test_preconditions(self):
        store = BipartiteStore(embedding_dim=4)
        store.seal()
        with pytest.raises(PreconditionError):
            fuse(RetrievalBundle(), store, radius=-1)
        with pytest.raises(PreconditionError):
            fuse(RetrievalBundle(), store, budget=0)

    def test_requires_a_sealed_store(self):
        # a matched case's seeds are read from the case layer mapped at seal()
        with pytest.raises(PreconditionError, match="sealed store"):
            fuse(RetrievalBundle(), BipartiteStore(embedding_dim=4))


class TestRenderContext:
    def test_empty_sections(self):
        store = BipartiteStore(embedding_dim=4)
        store.seal()
        ctx = fuse(RetrievalBundle(), store)
        assert render_context(ctx) == (
            "[Knowledge]\n(none)\n\n[Similar Cases]\n(none)\n\n[EEG Matches]\n(none)"
        )

    def test_rerender_is_identical(self):
        store, seeds, _ = bridging_fixture()
        ctx = fuse(RetrievalBundle(entity_matches=seeds), store, radius=1)
        assert render_context(ctx) == render_context(ctx)

    def test_distance_rendered_to_four_decimals(self):
        store = BipartiteStore(embedding_dim=4)
        store.seal()
        ctx = fuse(
            RetrievalBundle(eeg_matches=[EegMatch("rec-9", None, 1.23456789, 1)]),
            store,
            CaseStore(),
        )
        assert "- rec-9 patient=- dtw=1.2346" in render_context(ctx)

    def test_golden_fixture(self, corpus_dir):
        golden = (corpus_dir.parent.parent / "tests" / "golden" / "render_context.txt").read_text(
            encoding="utf-8"
        )
        store, seeds, _ = bridging_fixture()
        cases = CaseStore()
        h = cases.add_record(PatientRecord.from_raw({"age": "30", "sex": "F"}))
        cases.seal()
        bundle = RetrievalBundle(
            entity_matches=seeds,
            eeg_matches=[EegMatch("rec-1", h, 2.5, 1), EegMatch("rec-2", None, 3.25, 2)],
        )
        ctx = fuse(bundle, store, cases, radius=1)
        assert render_context(ctx) == golden


class TestGeneration:
    def test_mock_client_is_pure(self):
        client = MockGenerationClient()
        a = client.complete("p", "ctx", "q")
        assert a == client.complete("p", "ctx", "q")
        assert a != client.complete("p", "ctx2", "q")

    def test_generate_deterministic_with_role_interpolation(self):
        store, seeds, _ = bridging_fixture()
        ctx = fuse(RetrievalBundle(entity_matches=seeds), store, radius=1)
        mq = MetadataQuery("what now", role="nurse")
        r1 = generate(mq, ctx, MockGenerationClient(), "answer as {role}")
        r2 = generate(mq, ctx, MockGenerationClient(), "answer as {role}")
        assert r1 == r2
        r3 = generate(MetadataQuery("what now", role="doctor"), ctx, MockGenerationClient(), "answer as {role}")
        assert r3.answer != r1.answer

    def test_empty_context_flags_ungrounded(self):
        store = BipartiteStore(embedding_dim=4)
        store.seal()
        ctx = fuse(RetrievalBundle(), store)
        result = generate(MetadataQuery("q"), ctx, MockGenerationClient(), "p {role}")
        assert result.ungrounded
        import hashlib

        assert result.context_hash == hashlib.sha256(b"").hexdigest()


class _StubHandler(BaseHTTPRequestHandler):
    fail_times = 0
    failure = "status-500"
    calls = 0

    def do_POST(self):
        _StubHandler.calls += 1
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        if _StubHandler.fail_times > 0:
            _StubHandler.fail_times -= 1
            if _StubHandler.failure == "status-500":
                self.send_response(500)
                self.end_headers()
            elif _StubHandler.failure == "cut-off-body":
                self.send_response(200)
                self.send_header("Content-Length", "100")
                self.end_headers()
                self.wfile.write(b'{"choices": ')
            elif _StubHandler.failure != "no-response":
                self.send_response(200)
                self.end_headers()
                self.wfile.write(_StubHandler.failure.encode())
            return
        answer = {
            "choices": [
                {"message": {"content": f"echo:{body['messages'][1]['content'][-10:]}"}}
            ]
        }
        data = json.dumps(answer).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestMakeClient:
    REMOTE = {"client": "remote", "remote_endpoint": "http://127.0.0.1:9/v1", "remote_model": "m"}

    @pytest.mark.parametrize("missing", ["remote_endpoint", "remote_model"])
    def test_remote_client_needs_an_endpoint_and_a_model(self, missing):
        config = PipelineConfig.from_mapping({k: v for k, v in self.REMOTE.items() if k != missing})
        with pytest.raises(PreconditionError, match="requires remote_endpoint and remote_model"):
            pipeline_module.make_client(config)

    def test_remote_client_gets_the_call_policy(self, monkeypatch):
        made = {}
        monkeypatch.setattr(pipeline_module, "HttpChatClient", lambda **kwargs: made.update(kwargs) or "client")
        policy = {"remote_timeout": "2.5", "remote_retries": "5", "remote_max_inflight": "3"}
        config = PipelineConfig.from_mapping({**self.REMOTE, **policy, "remote_auth_env": "TOKEN"})
        assert pipeline_module.make_client(config) == "client"
        assert made == {
            "endpoint": "http://127.0.0.1:9/v1", "model": "m", "auth_env": "TOKEN",
            "timeout": 2.5, "retries": 5, "max_inflight": 3,
        }


class TestHttpChatClient:
    def test_happy_path(self, stub_server, monkeypatch):
        _StubHandler.fail_times = 0
        monkeypatch.setenv("TEST_TOKEN", "secret")
        client = HttpChatClient(stub_server, "test-model", auth_env="TEST_TOKEN", retries=0)
        answer = client.complete("prompt", "context", "question ends here")
        assert answer.startswith("echo:")
        assert client.client_id == "http:test-model"

    def test_retries_then_succeeds(self, stub_server):
        _StubHandler.fail_times = 2
        client = HttpChatClient(stub_server, "m", retries=2, backoff=0.0)
        assert client.complete("p", "c", "q").startswith("echo:")

    def test_transport_error_after_exhaustion(self, stub_server):
        _StubHandler.fail_times = 10
        client = HttpChatClient(stub_server, "m", retries=1, backoff=0.0)
        with pytest.raises(TransportError):
            client.complete("p", "c", "q")
        _StubHandler.fail_times = 0

    @pytest.mark.parametrize(
        "failure",
        [
            "no-response",
            "cut-off-body",
            '{"choices": []}',
            "[]",
            '{"choices": [{"message": {"content": null}}]}',
        ],
        ids=["no-response", "cut-off-body", "empty-choices", "array-body", "null-content"],
    )
    def test_failed_response_is_retried_then_transport_error(self, stub_server, failure):
        _StubHandler.failure = failure
        try:
            _StubHandler.fail_times, _StubHandler.calls = 1, 0
            client = HttpChatClient(stub_server, "m", retries=1, backoff=0.0)
            assert client.complete("p", "c", "q").startswith("echo:")
            assert _StubHandler.calls == 2
            _StubHandler.fail_times, _StubHandler.calls = 10, 0
            with pytest.raises(TransportError, match="after 2 attempts"):
                client.complete("p", "c", "q")
            assert _StubHandler.calls == 2
        finally:
            _StubHandler.failure, _StubHandler.fail_times = "status-500", 0
