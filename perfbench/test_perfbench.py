"""Tests of the benchmark itself: its references, its checks and its determinism.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import reference  # noqa: E402
import run as bench  # noqa: E402
from eegrag.config import PipelineConfig  # noqa: E402
from eegrag.eeg import dtw  # noqa: E402
from eegrag.embedding import HashedTokenEmbedder  # noqa: E402
from eegrag.pipeline import Pipeline  # noqa: E402
from pace import Paced  # noqa: E402

TINY = corpus.CorpusSpec(
    entities=40, facts=60, cases=12, recordings=10,
    stored_queries=6, fresh_queries=6, names_per_question=(1, 2, 3),
)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A tiny corpus ingested through the CLI, a pipeline over it, and its answers."""
    work = tmp_path_factory.mktemp("bench")
    inp, store = work / "input", work / "store"
    corpus.write_corpus(inp, TINY, 3)
    run = bench.Run()
    bench.Ingest(inp, work, run, None, Paced()).build(store)
    assert run.failed == 0, run.errors
    config = PipelineConfig()
    pipeline = Pipeline.from_directory(store, config)
    pool = bench.load_queries(inp)
    answered = [(q, bench.ask(pipeline, q)) for q in pool]
    return store, config, pipeline, answered


def _swap(items):
    return [items[1], items[0], *items[2:]]


def _eeg_case(built, fresh: bool):
    store, config, _, answered = built
    ref = reference.StoreReference(store)
    q, result = next((q, r) for q, r in answered if (q["recording"] is not None) == fresh)
    if fresh:
        qvec = reference.embed_reference(q["recording"], ref.n_segments, ref.normalized)
    else:
        qvec = ref.rec_values[q["eeg_id"]]
    return ref, qvec, config.eeg_top_k, result.eeg_trace


@pytest.mark.parametrize("fresh", [False, True])
def test_eeg_check_accepts_engine_and_rejects_wrong_topk(built, fresh):
    ref, qvec, k, matches = _eeg_case(built, fresh)
    assert len(matches) == k
    assert reference.check_eeg(ref, qvec, k, matches) == []
    assert reference.check_eeg(ref, qvec, k, _swap(matches))
    assert reference.check_eeg(ref, qvec, k, matches[:-1])
    wrong_id = dataclasses.replace(matches[0], recording_id=matches[-1].recording_id)
    assert reference.check_eeg(ref, qvec, k, [wrong_id, *matches[1:]])
    off = dataclasses.replace(matches[1], distance=matches[1].distance * (1 + 1e-7))
    assert reference.check_eeg(ref, qvec, k, [matches[0], off, *matches[2:]])


def test_hyperedge_check_accepts_engine_and_rejects_wrong_topk(built):
    store, config, pipeline, answered = built
    ref = reference.StoreReference(store)
    embedder = HashedTokenEmbedder(config.embedding_dim)
    for k in (1, 4):
        config_k = dataclasses.replace(config, hyperedge_top_k=k)
        q, _ = answered[0]
        hits = Pipeline(pipeline.store, pipeline.case_store, pipeline.evd, config_k).run_query(
            q["question"], eeg_recording_id=q.get("eeg_id"), eeg_recording=q["recording"]
        ).hyperedge_trace
        qvec = embedder.embed(q["question"])
        layer = config.retrieval_layer
        assert reference.check_hyperedges(ref, qvec, k, layer, hits) == []
        other = next(h for h in ref.edges if h not in {x.hyperedge_id for x in hits})
        assert reference.check_hyperedges(ref, qvec, k, layer, [dataclasses.replace(hits[0], hyperedge_id=other), *hits[1:]])
        assert reference.check_hyperedges(ref, qvec, k, layer, [dataclasses.replace(hits[0], score=hits[0].score + 1e-6), *hits[1:]])
        if k > 1:
            assert reference.check_hyperedges(ref, qvec, k, layer, _swap(hits))


def test_link_check_accepts_engine_and_rejects_wrong_links(built):
    store, _, _, answered = built
    ref = reference.StoreReference(store)
    q, result = max(answered, key=lambda a: len(a[1].entity_trace))
    links = result.entity_trace
    assert len(links) >= 2
    assert reference.check_links(ref, q["question"], links) == []
    assert reference.check_links(ref, q["question"], links[:-1])
    assert reference.check_links(ref, q["question"], _swap(links))
    shifted = dataclasses.replace(links[0], start=links[0].start + 1)
    assert reference.check_links(ref, q["question"], [shifted, *links[1:]])


def test_dtw_reference_matches_engine_bit_for_bit():
    rng = np.random.default_rng(5)
    query = rng.standard_normal(17)
    stored = rng.standard_normal((6, 23))
    got = reference.dtw_all(query, stored)
    assert [float(x) for x in got] == [dtw(query, row) for row in stored]


def test_corpus_depends_only_on_seed(tmp_path):
    for name, seed in (("a", 4), ("b", 4), ("c", 5)):
        corpus.write_corpus(tmp_path / name, TINY, seed)
    assert bench.dir_digest(tmp_path / "a") == bench.dir_digest(tmp_path / "b")
    assert bench.dir_digest(tmp_path / "a") != bench.dir_digest(tmp_path / "c")


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = [float(i) for i in range(40)]
    assert bench.tail(xs) == (29.0, 75.0, 40)
    assert bench.tail(xs[:10]) == (9.0, 100.0, 10)


def test_two_runs_of_one_seed_agree_and_pass_every_check(tmp_path):
    outs = []
    for name in ("one", "two"):
        run, out = bench.run_workload("kg_text", 8, 60.0, False, tmp_path / name, TINY)
        assert run.failed == 0, run.errors
        assert out["facts"]["queries"] == TINY.stored_queries + TINY.fresh_queries - 1
        assert out["metrics"]["rss_mb"][0] > 0
        outs.append(out["facts"]["answers_digest"])
    assert outs[0] == outs[1]


def test_spread_sample_covers_the_run_and_both_kinds():
    answered = [({"id": f"q-{i:05d}", "recording": None if i % 2 else "fresh"}, None) for i in range(100)]
    sample = bench.spread_sample(answered, 24)
    ids = [int(q["id"][2:]) for q, _ in sample]
    assert len(ids) == 24 and ids == sorted(ids)
    assert min(ids) < 10 and max(ids) > 90
    assert sum(q["recording"] is None for q, _ in sample) == 12
    assert len(bench.spread_sample(answered[:5], 24)) == 5


def test_replay_rejects_a_different_answer(tmp_path, built):
    store, _, _, answered = built
    inp = store.parent / "input"
    run = bench.Run()
    assert bench.replay(store, inp, answered, run) > 0
    assert run.failed == 0, run.errors
    q, result = answered[0]
    other = answered[1][1]
    bench.replay(store, inp, [(q, other)], run)
    assert run.failed == 1


def test_traced_run_covers_run_query(tmp_path):
    run, out = bench.run_workload("kg_text", 9, 60.0, True, tmp_path / "t", TINY, trace_dir=tmp_path)
    assert run.failed == 0, run.errors
    m = out["metrics"]
    assert m["trace.coverage"][0] >= 0.95
    assert m["fusion.render_calls"][0] == 2
    assert m["eeg.candidates"][0] == TINY.recordings
    assert all(np.isfinite(v) for v, _ in m.values())
    assert (tmp_path / "kg_text.json").is_file()


def test_paced_time_rescales_by_the_pace_around_it(monkeypatch):
    import pace

    blocks = iter([2 * pace.REFERENCE_BLOCK_S, 8 * pace.REFERENCE_BLOCK_S])
    monkeypatch.setattr(pace, "sample", lambda: next(blocks))
    paced = pace.Paced()
    result, wall, paced_s = paced.time(lambda x: x + 1, 1)
    assert result == 2
    assert paced_s == pytest.approx(wall / 5)
    assert paced.blocks == [2 * pace.REFERENCE_BLOCK_S, 8 * pace.REFERENCE_BLOCK_S]


def test_paced_time_samples_a_long_operation_and_leaves_the_samples_out():
    import time

    import pace

    def op():
        t0 = time.perf_counter()
        time.sleep(0.5)
        return time.perf_counter() - t0

    paced = pace.Paced()
    elapsed, wall, _ = paced.time(op)
    assert len(paced.blocks) >= 4  # two around it, at least two during it
    assert paced._stolen > 0
    assert wall == pytest.approx(elapsed - paced._stolen, abs=1e-3)
