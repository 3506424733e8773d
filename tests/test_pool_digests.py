"""Exactness over the benchmark pools: the answers to the first questions of
each seed-7 workload pool hash to committed digests under every listed
configuration.

The stores are written by ``perfbench/corpus.py`` from the specs in
``perfbench/run.py`` and ingested through ``cli.main``, as the benchmark
does; each question goes through its own ``Pipeline.run_query`` call. The
digest covers every answer's whole ``to_json()``: channels, fusion,
expansion, render and generation. A change that alters answers on purpose
updates ``golden/pool_digests.json`` and says why; a change to
``corpus.py`` regenerates it with the parent engine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from eegrag.cases import CaseStore
from eegrag.cli import main
from eegrag.config import PipelineConfig
from eegrag.eeg import EegVectorDatabase, load_recording
from eegrag.hypergraph import BipartiteStore
from eegrag.pipeline import Pipeline

PERFBENCH = Path(__file__).parent.parent / "perfbench"
DIGESTS = Path(__file__).parent / "golden" / "pool_digests.json"
SEED = 7
POOL = 200

# name -> config overrides, as a config file or --set would give them
CONFIGS = {
    "closure_radius=0": {"closure_radius": "0"},
    "closure_radius=1": {"closure_radius": "1"},
    "closure_radius=2": {"closure_radius": "2"},
    # a budget that the inner rings leave room in, so the outer ring's
    # ascending-id order reaches the answers
    "closure_radius=2,closure_budget=256": {"closure_radius": "2", "closure_budget": "256"},
    "channel_blocked_dtw=true": {"channel_blocked_dtw": "true"},
    "retrieval_layer=none": {"retrieval_layer": "none"},
    "cl=false": {"cl": "false"},
    "il=false": {"il": "false"},
    "el=false": {"el": "false"},
}


def write_corpus(directory: Path, workload: str) -> None:
    """``corpus.write_corpus`` of ``workload``'s spec in ``run.workloads()``."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import corpus
        import run as bench

        corpus.write_corpus(directory, bench.workloads()[workload], SEED)
    finally:
        sys.path.remove(str(PERFBENCH))


def build(directory: Path, workload: str) -> tuple[Path, list[dict]]:
    """The ingested store of ``workload``'s seed-7 corpus, and its first ``POOL`` questions."""
    inp, store = directory / "corpus", directory / "store"
    write_corpus(inp, workload)
    for argv in (
        ["ingest-docs", inp / "docs.jsonl", "--facts", inp / "docs.facts.jsonl"],
        ["ingest-cases", inp / "cases.jsonl"],
        ["ingest-eeg", inp / "eeg"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(arg) for arg in argv] + ["--store", str(store)]) == 0
    with open(inp / "queries.jsonl", encoding="utf-8") as fh:
        pool = [json.loads(line) for line, _ in zip(fh, range(POOL))]
    for q in pool:
        q["recording"] = load_recording(inp / q["eeg_file"]) if "eeg_file" in q else None
    return store, pool


def pool_digests(store: Path, pool: list[dict]) -> dict[str, str]:
    """config name -> sha256 of the pool's answers' ``to_json()``, in pool order.

    The knowledge and case stores are loaded once and shared; each
    configuration loads its own EEG database, so no answer is read from
    another configuration's memo."""
    knowledge = BipartiteStore.load(store, PipelineConfig().embedding_dim)
    cases = CaseStore.load(store)
    digests = {}
    for name, overrides in CONFIGS.items():
        config = PipelineConfig.from_mapping(overrides)
        evd = EegVectorDatabase.load(store, config.paa_segments, config.dtw_band, config.channel_blocked_dtw)
        pipeline = Pipeline(knowledge, cases, evd, config)
        h = hashlib.sha256()
        for q in pool:
            result = pipeline.run_query(
                q["question"], role=q["role"], eeg_recording=q["recording"], eeg_recording_id=q.get("eeg_id")
            )
            h.update(result.to_json().encode("utf-8"))
        digests[name] = h.hexdigest()
    return digests


@pytest.mark.parametrize("workload", ["eeg_scan", "kg_text"])
def test_pool_answers_match_their_digests(workload, tmp_path):
    got = pool_digests(*build(tmp_path, workload))
    assert got == json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
