"""The traced benchmark wraps engine functions by name (``perfbench/spans.py``).

Renaming or deleting one of those names breaks ``perfbench/run.py --trace 1``,
so installing every span must still work, wrap each name, and restore each
original on uninstall. The span counters read engine attributes (the EEG
database's ``band`` and ``channel_blocked``, an embedding's ``values`` and
``n_channels``, the store's hyperedges), so a traced query must still yield
the counts the engine's own state gives.

The benchmark also checks answers against brute-force references that read
the store files directly (``perfbench/reference.py``), so a change to the
store format must leave those references agreeing with the engine.
"""

import importlib.util
from pathlib import Path

import pytest

from eegrag.config import PipelineConfig
from eegrag.eeg import Channel, EegRecording, load_recording
from eegrag.embedding import HashedTokenEmbedder
from eegrag.pipeline import Pipeline

from conftest import FIXTURES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_perfbench("spans")


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_span_installs_and_uninstalls():
    spans = load_spans()
    tracer = spans.Tracer()
    spans.install_engine_spans(tracer)
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, original in patches:
            assert current(owner, attr) is not original, f"{owner.__name__}.{attr} is not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert current(owner, attr) is original, f"{owner.__name__}.{attr} was not restored"


QUESTION = "A 34 year old woman shows 3 Hz spike-wave discharge with brief staring spells."


@pytest.mark.parametrize(
    "settings",
    [{}, {"channel_blocked_dtw": "true", "dtw_band": "2"}],
    ids=["default", "blocked-band"],
)
def test_span_counters_read_the_engine(built_store, settings):
    config = PipelineConfig.from_mapping(settings)
    pipeline = Pipeline.from_directory(built_store, config)
    stored = load_recording(FIXTURES / "eeg" / "rec-003.json")
    fresh = EegRecording(
        "fresh-003",
        stored.sample_rate,
        [Channel(ch.name, ch.samples[::-1]) for ch in stored.channels],
    )
    spans = load_spans()
    tracer = spans.Tracer()
    spans.install_engine_spans(tracer)
    try:
        results = [
            pipeline.run_query(QUESTION, eeg_recording_id="rec-001"),
            pipeline.run_query(QUESTION, eeg_recording=fresh),
        ]
    finally:
        tracer.uninstall()

    def counts(name):
        return [tracer.counts[i] for i, span in enumerate(tracer.spans) if span[0] == name]

    # DTW cells counted independently of spans.py: every (i, j) of the full
    # matrix, or per channel block only |i - j| <= band
    channels, n = len(stored.channels), config.paa_segments
    if config.channel_blocked_dtw:
        per_pair = channels * sum(
            1 for i in range(n) for j in range(n) if abs(i - j) <= config.dtw_band
        )
    else:
        per_pair = (channels * n) ** 2
    expected = {"candidates": len(pipeline.evd), "dtw_cells": len(pipeline.evd) * per_pair}
    assert counts("eeg.retrieve_by_embedding") == [expected, expected]
    assert expected["dtw_cells"] > 0

    scanned = sum(
        1
        for e in pipeline.store.hyperedges.values()
        if e.embedding is not None and e.layer == config.retrieval_layer
    )
    assert scanned > 0
    assert counts("retrieval.hyperedge_scan") == [{"hyperedges_scanned": scanned}] * 2
    assert counts("fusion.fuse") == [
        {"kept": len(r.context.hyperedges), "truncated": int(r.context.truncated)} for r in results
    ]
    assert counts("retrieval.link") == [{"entities_linked": len(r.entity_trace)} for r in results]
    assert counts("retrieval.expand") == [
        {"expansion_edges": len(r.expansion_trace)} for r in results
    ]


def test_benchmark_references_read_the_store(built_store):
    reference = load_perfbench("reference")
    config = PipelineConfig()
    pipeline = Pipeline.from_directory(built_store, config)
    result = pipeline.run_query(QUESTION, eeg_recording_id="rec-001")
    assert result.eeg_trace and result.hyperedge_trace and result.entity_trace
    ref = reference.StoreReference(built_store)
    query_vec = HashedTokenEmbedder(config.embedding_dim).embed(QUESTION)
    errors = reference.check_eeg(ref, ref.rec_values["rec-001"], config.eeg_top_k, result.eeg_trace)
    errors += reference.check_hyperedges(
        ref, query_vec, config.hyperedge_top_k, config.retrieval_layer, result.hyperedge_trace
    )
    errors += reference.check_links(ref, QUESTION, result.entity_trace)
    assert errors == []
