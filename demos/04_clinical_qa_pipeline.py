"""
The full pipeline: ingest, query, benchmark
===========================================

Runs the bundled synthetic corpus through all three layers, answers one
question with full provenance, and scores the bundled QA set. Everything
here is offline and deterministic (rule-based extractor, hashed-token
embedder, mock generation client); swap in remote clients via
configuration for real deployments.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from eegrag import PipelineConfig, load_qa, run_benchmark
from eegrag.cli import main
from eegrag.pipeline import Pipeline

CORPUS = Path(__file__).parent.parent / "fixtures" / "corpus"
store = Path(tempfile.mkdtemp(prefix="eegrag-demo-"))
atexit.register(shutil.rmtree, store, ignore_errors=True)

# Offline single-writer ingestion, one layer at a time. Each command loads
# only the store files it extends and writes them back: ingest-docs the
# hypergraph, ingest-cases the hypergraph and the cases, ingest-eeg the EEG
# database.
main(["ingest-docs", str(CORPUS / "docs.jsonl"), "--store", str(store)])
main(["ingest-cases", str(CORPUS / "cases.jsonl"), "--store", str(store)])
main(["ingest-eeg", str(CORPUS / "eeg"), "--store", str(store)])

# Readers load and seal; queries fan out over three channels (EEG DTW
# search, hyperedge cosine retrieval, entity linking), fuse the results
# into a bounded subgraph, and prompt the generation client with it.
pipeline = Pipeline.from_directory(store, PipelineConfig())
result = pipeline.run_query(
    "A 34 year old woman shows 3 Hz spike-wave discharge with brief staring "
    "spells. What is the likely diagnosis?",
    role="doctor",
    eeg_recording_id="rec-001",
)

print("answer:    ", result.answer)
print("grounded:  ", not result.generation.ungrounded)
print("\nEEG matches (query recording vs database):")
for match in result.eeg_trace:
    print(f"  #{match.rank} {match.recording_id} dtw={match.distance:.4f}")
print("\nlinked entities:", [m.surface for m in result.entity_trace])
print("top context facts:")
for edge in result.context.hyperedges[:3]:
    print(f"  [{edge.reason}] {edge.description}")

# The benchmark runner aggregates token-F1 and exact match per domain and
# per clinical role, with a seeded bootstrap std as the dispersion estimate.
report = run_benchmark(load_qa(CORPUS / "qa.jsonl"), pipeline, resamples=500, seed=7)
print("\n" + report.format_table())
