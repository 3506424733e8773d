"""End-to-end query orchestration shared by the CLI, the HTTP service, and
the benchmark runner: one code path from question to grounded answer."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .cases import CaseStore
from .config import PipelineConfig
from .eeg import EegRecording, EegVectorDatabase
from .embedding import Embedder, HashedTokenEmbedder
from .errors import NotFoundError, PreconditionError
from .fusion import (
    FusedContext,
    GenerationClient,
    GenerationResult,
    HttpChatClient,
    MockGenerationClient,
    RetrievalBundle,
    fuse,
    generate,
    render_context,
)
from .hypergraph import META_FILE, BipartiteStore
from .jsonl import str_field
from .retrieval import (
    MetadataQuery,
    expand_entities,
    extract_query_entities,
    retrieve_hyperedges,
)

logger = logging.getLogger(__name__)


def load_generation_prompt() -> str:
    return resources.files("eegrag.prompts").joinpath("generation.txt").read_text("utf-8")


def make_client(config: PipelineConfig) -> GenerationClient:
    if config.client == "remote":
        if not config.remote_endpoint or not config.remote_model:
            raise PreconditionError("remote client requires remote_endpoint and remote_model")
        return HttpChatClient(
            endpoint=config.remote_endpoint,
            model=config.remote_model,
            auth_env=config.remote_auth_env,
            timeout=config.remote_timeout,
            retries=config.remote_retries,
            max_inflight=config.remote_max_inflight,
        )
    return MockGenerationClient()


@dataclass(slots=True)
class QueryResult:
    """Answer plus full provenance: traces per channel and the fused context."""

    answer: str
    generation: GenerationResult
    context: FusedContext
    eeg_trace: list = field(default_factory=list)
    hyperedge_trace: list = field(default_factory=list)
    entity_trace: list = field(default_factory=list)
    expansion_trace: list = field(default_factory=list)

    @property
    def rendered_context(self) -> str:
        return render_context(self.context)

    def to_dict(self) -> dict:
        return {
            "answer": self.answer,
            "provenance": {
                "context_hash": self.generation.context_hash,
                "client_id": self.generation.client_id,
                "ungrounded": self.generation.ungrounded,
            },
            "context": self.context.to_dict(),
            "rendered_context": self.rendered_context,
            "traces": {
                "eeg": [
                    {
                        "recording_id": m.recording_id,
                        "patient_hash": m.patient_hash,
                        "distance": m.distance,
                        "rank": m.rank,
                    }
                    for m in self.eeg_trace
                ],
                "hyperedges": [
                    {"id": h.hyperedge_id, "score": h.score, "rank": h.rank}
                    for h in self.hyperedge_trace
                ],
                "entities": [
                    {
                        "id": m.entity_id,
                        "surface": m.surface,
                        "start": m.start,
                        "end": m.end,
                        "kind": m.kind,
                    }
                    for m in self.entity_trace
                ],
                "expansion_edges": sorted(self.expansion_trace),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, sort_keys=True, indent=2) + "\n"


class Pipeline:
    """Sealed stores plus configuration; answers queries end to end."""

    def __init__(
        self,
        store: BipartiteStore,
        case_store: CaseStore,
        evd: EegVectorDatabase,
        config: PipelineConfig,
        embedder: Embedder | None = None,
        client: GenerationClient | None = None,
    ):
        self.config = config
        self.embedder = embedder if embedder is not None else HashedTokenEmbedder(config.embedding_dim)
        self.client = client if client is not None else make_client(config)
        self.store = store
        self.case_store = case_store
        self.evd = evd
        for s in (store, case_store, evd):
            s.seal()
        self.prompt_asset = load_generation_prompt()

    @classmethod
    def from_directory(
        cls,
        directory: str | Path,
        config: PipelineConfig,
        embedder: Embedder | None = None,
        client: GenerationClient | None = None,
    ) -> "Pipeline":
        directory = Path(directory)
        files = (META_FILE, CaseStore.FILE, EegVectorDatabase.FILE)
        if not any((directory / name).exists() for name in files):
            raise NotFoundError(f"no store found under {directory}; run the ingest commands first")
        return cls(
            BipartiteStore.load(directory, config.embedding_dim),
            CaseStore.load(directory),
            EegVectorDatabase.load(
                directory, config.paa_segments, config.dtw_band, config.channel_blocked_dtw
            ),
            config,
            embedder=embedder,
            client=client,
        )

    # -- retrieval channels ----------------------------------------------------

    def _eeg_channel(
        self,
        recording: EegRecording | None,
        recording_id: str | None,
    ) -> list:
        if not self.config.ablation.el:
            if recording is not None or recording_id is not None:
                logger.warning("EEG input supplied but the EEG channel is disabled; ignoring it")
            return []
        if recording_id is not None:
            entry = self.evd.get(recording_id)  # NotFoundError propagates
            return self.evd.retrieve_by_embedding(entry.embedding, self.config.eeg_top_k)
        if recording is not None:
            return self.evd.retrieve(recording, self.config.eeg_top_k)
        return []

    def run_query(
        self,
        question: str,
        role: str | None = None,
        domain: str | None = None,
        eeg_recording: EegRecording | None = None,
        eeg_recording_id: str | None = None,
    ) -> QueryResult:
        """Answer one query from the CLI, ``POST /query`` or a library call.
        Every argument is checked here, before any channel runs and whatever
        the ablation flags say; a malformed one raises ``PreconditionError``."""
        mq = MetadataQuery(question, role=role, domain=domain)
        str_field(eeg_recording_id, "eeg_recording_id", optional=True)
        if not isinstance(eeg_recording, (EegRecording, type(None))):
            raise PreconditionError(f"eeg_recording is a {type(eeg_recording).__name__}, not an EegRecording")
        if eeg_recording is not None and eeg_recording_id is not None:
            raise PreconditionError("give an EEG recording or a stored recording id, not both")
        flags = self.config.ablation

        eeg_matches = self._eeg_channel(eeg_recording, eeg_recording_id)

        hyperedge_hits = []
        if flags.il and self.store.hyperedges:
            hyperedge_hits = retrieve_hyperedges(
                mq,
                self.embedder,
                self.store,
                k=self.config.hyperedge_top_k,
                layer=self.config.retrieval_layer,
            )

        entity_matches = []
        expansion = set()
        if flags.cl:
            entity_matches = extract_query_entities(mq, self.store)
            expansion = expand_entities(entity_matches, self.store)

        bundle = RetrievalBundle(
            eeg_matches=eeg_matches,
            hyperedge_hits=hyperedge_hits,
            entity_matches=entity_matches,
            expansion_edges=expansion,
        )
        ctx = fuse(
            bundle,
            self.store,
            self.case_store,
            radius=self.config.closure_radius,
            budget=self.config.closure_budget,
        )
        result = generate(mq, ctx, self.client, self.prompt_asset)
        return QueryResult(
            answer=result.answer,
            generation=result,
            context=ctx,
            eeg_trace=eeg_matches,
            hyperedge_trace=hyperedge_hits,
            entity_trace=entity_matches,
            expansion_trace=sorted(expansion),
        )

    def answer_example(
        self,
        question: str,
        role: str | None,
        domain: str | None,
        eeg_ref: str | None,
    ) -> str:
        """Benchmark adapter: resolve the EEG reference and return the answer."""
        use_ref = eeg_ref if self.config.ablation.el else None
        return self.run_query(question, role, domain, eeg_recording_id=use_ref).answer

    def stats(self) -> dict:
        return {
            "entities": len(self.store.entities),
            "hyperedges": len(self.store.hyperedges),
            "cases": len(self.case_store),
            "eeg_recordings": len(self.evd),
            "embedding_dim": self.store.embedding_dim,
        }


def save_stores(
    directory: str | Path,
    store: BipartiteStore | None = None,
    case_store: CaseStore | None = None,
    evd: EegVectorDatabase | None = None,
) -> None:
    """Write the given stores; each file is replaced whole, ``meta.json`` last."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if case_store is not None:
        case_store.save(directory)
    if evd is not None:
        evd.save(directory)
    if store is not None:
        store.save(directory)
