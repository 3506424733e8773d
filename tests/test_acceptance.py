"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Every numerical check here is validated against an independent oracle
(exhaustive enumeration, brute-force scan, reference BFS, or a re-derived
resampling script) at the stated tolerance; nothing is compared against
the implementation's own intermediate output.
"""

import time
from pathlib import Path

import numpy as np

from eegrag.cli import main
from eegrag.config import PipelineConfig
from eegrag.eeg import EegVectorDatabase, dtw, eeg_embed, paa
from eegrag.embedding import HashedTokenEmbedder
from eegrag.evaluation import bootstrap_std, exact_match, f1, normalize_answer
from eegrag.fusion import MockGenerationClient, RetrievalBundle, fuse, render_context
from eegrag.hypergraph import BipartiteStore
from eegrag.pipeline import Pipeline
from eegrag.retrieval import MetadataQuery, ScoredHyperedge, cosine, retrieve_hyperedges

from conftest import FIXTURES, random_store, reference_bfs
from test_eeg import dtw_oracle, make_recording, paa_oracle
from test_fusion import bridging_fixture


def criterion(name: str, ok: bool) -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


def test_dtw_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    ok = True
    for _ in range(500):
        a = rng.uniform(-5, 5, size=int(rng.integers(1, 7)))
        b = rng.uniform(-5, 5, size=int(rng.integers(1, 7)))
        ok &= dtw(a, b) == dtw_oracle(a, b)
    for _ in range(100):
        a = rng.normal(size=int(rng.integers(1, 65)))
        b = rng.normal(size=int(rng.integers(1, 65)))
        d = dtw(a, b)
        ok &= d >= 0.0
        ok &= d == dtw(b, a)
        ok &= dtw(a, a) == 0.0
    for _ in range(50):
        n = int(rng.integers(1, 65))
        a, b = rng.normal(size=n), rng.normal(size=n)
        ok &= dtw(a, b) <= float(np.abs(a - b).sum()) + 1e-12
    elapsed = time.monotonic() - start
    ok &= elapsed < 10.0
    criterion(f"DTW vs exhaustive oracle + properties ({elapsed:.2f}s)", ok)


def test_paa_correctness():
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(200):
        t = int(rng.integers(1, 60))
        n = int(rng.integers(1, 40))
        x = rng.normal(size=t) * rng.uniform(0.1, 50)
        out = paa(x, n)
        ok &= out.shape == (n,)
        ok &= abs(out.mean() - x.mean()) < 1e-9
    ok &= bool(np.all(paa([7.5] * 9, 4) == 7.5) or np.allclose(paa([7.5] * 9, 4), 7.5, atol=1e-12))
    x = rng.normal(size=12)
    ok &= bool(np.array_equal(paa(x, 12), x))
    ok &= bool(np.allclose(paa([1, 2, 3], 2), paa_oracle([1, 2, 3], 2), atol=1e-9))
    ok &= bool(np.allclose(paa([1, 2, 3], 2), [4 / 3, 8 / 3], atol=1e-9))
    criterion("PAA mean preservation, fixed points, fractional oracle", ok)


def test_retrieval_oracle_equivalence():
    rng = np.random.default_rng(1003)
    ok = True

    for _ in range(50):
        n_seg = int(rng.integers(2, 7))
        n_entries = int(rng.integers(1, 101))
        channels = int(rng.integers(1, 3))
        t = int(rng.integers(6, 30))
        db = EegVectorDatabase(n_segments=n_seg)
        stored = []
        for i in range(n_entries):
            if stored and rng.random() < 0.3:
                samples = stored[int(rng.integers(0, len(stored)))]  # force ties
            else:
                samples = rng.normal(size=(channels, t))
                stored.append(samples)
            db.insert_recording(make_recording(samples, rec_id=f"r{i:03d}"))
        db.seal()
        query = make_recording(rng.normal(size=(channels, t)), rec_id="q")
        k = int(rng.integers(1, 8))
        got = [(m.distance, m.recording_id) for m in db.retrieve(query, k)]
        q_emb = eeg_embed(query, n_seg)
        expected = sorted(
            (dtw(q_emb.values, e.embedding.values), rid) for rid, e in db.entries.items()
        )[:k]
        ok &= got == expected

    embedder = HashedTokenEmbedder(32)
    for _ in range(50):
        store = BipartiteStore(embedding_dim=32)
        anchor = store.add_entity("anchor")
        extra = store.add_entity("extra")
        n_edges = int(rng.integers(1, 101))
        for j in range(n_edges):
            desc = f"fact {int(rng.integers(0, 30))}"  # repeats force score ties
            members = {anchor} if rng.random() < 0.5 else {anchor, extra}
            store.add_hyperedge(desc, members, embedding=embedder.embed(desc))
        store.seal()
        mq = MetadataQuery(f"fact {int(rng.integers(0, 30))}")
        k = int(rng.integers(1, 9))
        got = [
            (h.score, h.hyperedge_id)
            for h in retrieve_hyperedges(mq, embedder, store, k=k)
        ]
        qv = embedder.embed(mq.text)
        expected = [
            (-neg, hid)
            for neg, hid in sorted(
                (-cosine(qv, e.embedding), hid) for hid, e in store.hyperedges.items()
            )[:k]
        ]
        ok &= got == expected

    criterion("retrieve_eeg / retrieve_hyperedges equal brute-force rankings", ok)


def test_hypergraph_invariants():
    rng = np.random.default_rng(1004)
    ok = True
    for _ in range(100):
        store = random_store(rng, max_entities=30, max_edges=20)
        for eid, edges in store.incidence.items():
            ok &= all(eid in store.hyperedges[h].members for h in edges)
        for hid, edge in store.hyperedges.items():
            ok &= all(hid in store.incidence[m] for m in edge.members)
        pool = sorted(store.entities) + sorted(store.hyperedges)
        picks = rng.choice(len(pool), size=min(3, len(pool)), replace=False)
        seeds = {pool[i] for i in picks}
        previous: set[int] = set()
        for radius in (0, 1, 2, 3):
            nodes = store.neighborhood(seeds, radius).nodes
            ok &= nodes == reference_bfs(store, seeds, radius)
            ok &= seeds <= nodes
            ok &= previous <= nodes
            previous = nodes
    criterion("hypergraph incidence + neighborhood vs reference BFS (100 stores)", ok)


def test_fusion_properties():
    ok = True
    store, seeds, (a, b, x, y, bridge, side_a, side_b) = bridging_fixture()
    bundle = RetrievalBundle(entity_matches=seeds)
    ctx = fuse(bundle, store, radius=1)
    ok &= ctx.hyperedges[0].hyperedge_id == bridge
    ok &= ctx.hyperedges[0].connectivity == 2

    previous: set[int] = set()
    for budget in (1, 2, 3, 5):
        limited = fuse(bundle, store, radius=1, budget=budget)
        ids = {e.hyperedge_id for e in limited.hyperedges}
        ok &= previous <= ids
        previous = ids

    rng = np.random.default_rng(1005)
    embedder = HashedTokenEmbedder(16)
    for _ in range(25):
        rstore = random_store(rng, max_entities=12, max_edges=15, embedder=embedder)
        rstore.seal()
        if not rstore.hyperedges:
            continue
        hid = sorted(rstore.hyperedges)[0]
        radius = int(rng.integers(0, 3))
        rctx = fuse(
            RetrievalBundle(hyperedge_hits=[ScoredHyperedge(hid, 0.7, 1)]),
            rstore,
            radius=radius,
            budget=6,
        )
        hood = rstore.neighborhood({hid}, radius)
        kept = {e.hyperedge_id for e in rctx.hyperedges}
        ok &= kept <= hood.hyperedge_ids
        included = {e.id for e in rctx.entities}
        ok &= all(rstore.hyperedges[h].members <= included for h in kept)
        ok &= rctx.truncated or hid in kept

    ok &= fuse(bundle, store, radius=1).to_json().encode() == fuse(
        bundle, store, radius=1
    ).to_json().encode()
    criterion("fusion closure soundness, member completeness, budget monotonicity", ok)


def test_metric_goldens():
    ok = True
    ok &= f1("mild depression", "moderate depression") == 0.5
    ok &= normalize_answer("The Mild Depression.") == ["mild", "depression"]
    ok &= exact_match("mild depression", "Mild depression.") == 1
    ok &= exact_match("depression", "epilepsy") == 0
    ok &= exact_match("", "") == 1

    rng = np.random.default_rng(1006)
    words = ["alpha", "beta", "theta", "spike", "wave", "sleep", "the", "a"]
    for _ in range(300):
        s1 = " ".join(rng.choice(words, size=int(rng.integers(0, 6))))
        s2 = " ".join(rng.choice(words, size=int(rng.integers(0, 6))))
        ok &= f1(s1, s2) == f1(s2, s1)
        if exact_match(s1, s2):
            ok &= f1(s1, s2) == 1.0

    values = np.sort(rng.uniform(0, 100, size=10))
    got = bootstrap_std(values, resamples=1000, seed=7)
    oracle_rng = np.random.default_rng(7)
    idx = oracle_rng.integers(0, values.size, size=(1000, values.size))
    means = np.array([values[row].sum() / values.size for row in idx])
    expected = float(np.sqrt(((means - means.mean()) ** 2).mean()))
    ok &= abs(got - expected) < 1e-9
    criterion("metric goldens: F1/EM examples, symmetry, bootstrap oracle", ok)


def test_configuration_fidelity():
    config = PipelineConfig()
    ok = config.paa_segments == 20 and config.hyperedge_top_k == 1
    criterion("config defaults: 20 PAA segments per channel, top-1 hyperedge", ok)


def _ingest_and_bench(store_dir: Path, out_dir: Path) -> tuple[bytes, bytes]:
    for args in (
        ["ingest-docs", str(FIXTURES / "docs.jsonl")],
        ["ingest-cases", str(FIXTURES / "cases.jsonl")],
        ["ingest-eeg", str(FIXTURES / "eeg")],
    ):
        assert main(args + ["--store", str(store_dir)]) == 0
    assert (
        main(
            [
                "bench",
                str(FIXTURES / "qa.jsonl"),
                "--store",
                str(store_dir),
                "--out",
                str(out_dir),
                "--set",
                "bootstrap_resamples=300",
            ]
        )
        == 0
    )
    pipeline = Pipeline.from_directory(store_dir, PipelineConfig())
    transcript = pipeline.run_query(
        "What explains spike-wave discharge with staring spells?",
        role="doctor",
        eeg_recording_id="rec-001",
    ).to_json()
    return transcript.encode(), (out_dir / "report.json").read_bytes()


def test_end_to_end_determinism(tmp_path, capsys):
    start = time.monotonic()
    t1, r1 = _ingest_and_bench(tmp_path / "s1", tmp_path / "o1")
    t2, r2 = _ingest_and_bench(tmp_path / "s2", tmp_path / "o2")
    capsys.readouterr()

    ok = t1 == t2 and r1 == r2
    store_files = ["entities.jsonl", "hyperedges.jsonl", "meta.json", "cases.jsonl", "evd.jsonl"]
    for name in store_files:
        ok &= (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    criterion(f"end-to-end determinism: stores, transcript, report.json ({elapsed:.1f}s)", ok)


def test_ablation_semantics(tmp_path, capsys):
    store_dir = tmp_path / "store"
    for args in (
        ["ingest-docs", str(FIXTURES / "docs.jsonl")],
        ["ingest-cases", str(FIXTURES / "cases.jsonl")],
        ["ingest-eeg", str(FIXTURES / "eeg")],
    ):
        assert main(args + ["--store", str(store_dir)]) == 0
    capsys.readouterr()

    question = (
        "A 34 year old woman shows 3 Hz spike-wave discharge with brief staring "
        "spells. What is the likely diagnosis?"
    )

    def run(**flags) -> dict:
        config = PipelineConfig()
        for key, value in flags.items():
            setattr(config.ablation, key, value)
        pipeline = Pipeline.from_directory(store_dir, config)
        return pipeline.run_query(question, role="doctor", eeg_recording_id="rec-001").to_dict()

    full = run()
    ok = bool(
        full["traces"]["eeg"] and full["traces"]["hyperedges"] and full["traces"]["entities"]
    )

    no_el = run(el=False)
    ok &= no_el["traces"]["eeg"] == []
    ok &= no_el["traces"]["hyperedges"] == full["traces"]["hyperedges"]
    ok &= no_el["traces"]["entities"] == full["traces"]["entities"]

    no_il = run(il=False)
    ok &= no_il["traces"]["hyperedges"] == []
    ok &= no_il["traces"]["eeg"] == full["traces"]["eeg"]
    ok &= no_il["traces"]["entities"] == full["traces"]["entities"]

    no_cl = run(cl=False)
    ok &= no_cl["traces"]["entities"] == []
    ok &= no_cl["traces"]["expansion_edges"] == []
    ok &= no_cl["traces"]["eeg"] == full["traces"]["eeg"]
    ok &= no_cl["traces"]["hyperedges"] == full["traces"]["hyperedges"]

    naive = run(cl=False, il=False, el=False)
    ok &= naive["provenance"]["ungrounded"] is True
    ok &= naive["context"]["hyperedges"] == []
    ok &= naive["context"]["cases"] == []
    ok &= naive["context"]["eeg_matches"] == []

    # question-only transcript: identical to calling the client with no context
    client = MockGenerationClient()
    pipeline = Pipeline.from_directory(store_dir, PipelineConfig())
    prompt = pipeline.prompt_asset.replace("{role}", "doctor")
    ok &= naive["answer"] == client.complete(prompt, "", question)
    criterion("ablation semantics: per-channel emptiness and question-only reduction", ok)
