"""In-memory span tracing around the engine's public functions.

The tracer replaces a function at the name where its caller looks it up
(a module global such as ``eegrag.pipeline.fuse``, or a class attribute
such as ``EegVectorDatabase.retrieve_by_embedding``) with a timing wrapper,
and restores every original on ``uninstall``. A span is
``[name, start, end, parent, request_id]``; ``parent`` is the index of the
span that was open when this one started, or -1. Counts that describe the
work of a span (candidates, cells, closure size, ...) are computed from the
span's arguments and result after tracing stops, so counting never adds to
a traced duration.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict] = {}
        self.request_id: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._pending: list[tuple] = []

    def _timed(self, name, fn, counter):
        spans, stack, pending = self.spans, self._stack, self._pending
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                pending.append((idx, counter, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner, attr: str, name: str, counter=None) -> None:
        """Time every call made through ``owner.attr`` as a span called ``name``.

        ``counter(result, args, kwargs) -> dict`` supplies the span's counts.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._timed(name, raw.__func__, counter))
        else:
            wrapped = self._timed(name, raw, counter)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
        for idx, counter, args, kwargs, result in self._pending:
            self.counts[idx] = counter(result, args, kwargs)
        self._pending.clear()

    def write(self, path: Path, extra: dict) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [
            {
                "name": name,
                "start_s": start - t0,
                "end_s": end - t0,
                "parent": parent,
                "request": request,
                **({"counts": self.counts[i]} if i in self.counts else {}),
            }
            for i, (name, start, end, parent, request) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": rows}) + "\n", encoding="utf-8")


# -- the engine's layer boundaries --------------------------------------------


def _dtw_cells(n: int, m: int, band: int | None) -> int:
    """Cells the DTW recurrence visits for lengths n, m under a Sakoe-Chiba band."""
    w = max(n, m) if band is None else max(band, abs(n - m))
    return sum(min(m, i + w) - max(1, i - w) + 1 for i in range(1, n + 1))


def _count_retrieve(result, args, kwargs):
    db, query = args[0], args[1]
    blocks = query.n_channels if db.channel_blocked else 1
    n = query.values.size // blocks
    cells = 0
    memo: dict[int, int] = {}
    for entry in db.entries.values():
        m = entry.embedding.values.size // blocks
        if m not in memo:
            memo[m] = blocks * _dtw_cells(n, m, db.band)
        cells += memo[m]
    return {"candidates": len(db.entries), "dtw_cells": cells}


def _count_scan(result, args, kwargs):
    store = args[2] if len(args) > 2 else kwargs["store"]
    layer = args[4] if len(args) > 4 else kwargs.get("layer", "knowledge")
    scanned = sum(
        1
        for e in store.hyperedges.values()
        if e.embedding is not None and (layer is None or e.layer == layer)
    )
    return {"hyperedges_scanned": scanned}


def install_engine_spans(tracer: Tracer) -> None:
    """Wrap each layer boundary the benchmark reports on."""
    import eegrag.cli as cli
    import eegrag.eeg as eeg
    import eegrag.fusion as fusion
    import eegrag.pipeline as pipeline
    from eegrag.cases import CaseStore
    from eegrag.embedding import HashedTokenEmbedder
    from eegrag.hypergraph import BipartiteStore

    w = tracer.wrap
    # query path, at the names Pipeline.run_query calls
    w(pipeline.Pipeline, "run_query", "pipeline.run_query")
    w(eeg.EegVectorDatabase, "get", "eeg.get")
    w(eeg.EegVectorDatabase, "retrieve", "eeg.retrieve")
    w(eeg.EegVectorDatabase, "retrieve_by_embedding", "eeg.retrieve_by_embedding", _count_retrieve)
    w(eeg, "eeg_embed", "eeg.embed")
    w(pipeline, "retrieve_hyperedges", "retrieval.hyperedge_scan", _count_scan)
    w(pipeline, "extract_query_entities", "retrieval.link", lambda r, a, k: {"entities_linked": len(r)})
    w(pipeline, "expand_entities", "retrieval.expand", lambda r, a, k: {"expansion_edges": len(r)})
    w(
        pipeline,
        "fuse",
        "fusion.fuse",
        lambda r, a, k: {"kept": len(r.hyperedges), "truncated": int(r.truncated)},
    )
    w(fusion, "find_entity_mentions", "fusion.relink")
    w(
        BipartiteStore,
        "neighborhood",
        "hypergraph.neighborhood",
        lambda r, a, k: {"closure_edges": len(r.hyperedge_ids)},
    )
    w(pipeline, "render_context", "fusion.render")
    w(fusion, "render_context", "fusion.render")
    w(pipeline, "generate", "fusion.generate")
    w(HashedTokenEmbedder, "embed", "embedding.embed")
    # set-up: load and seal
    w(pipeline.Pipeline, "from_directory", "pipeline.from_directory")
    w(BipartiteStore, "load", "hypergraph.load")
    w(CaseStore, "load", "cases.load")
    w(eeg.EegVectorDatabase, "load", "eeg.load")
    for cls, layer in ((BipartiteStore, "hypergraph"), (CaseStore, "cases"), (eeg.EegVectorDatabase, "eeg")):
        w(cls, "seal", f"{layer}.seal")
    # ingest, at the names the CLI commands call
    w(cli, "cmd_ingest_docs", "cli.ingest_docs")
    w(cli, "cmd_ingest_cases", "cli.ingest_cases")
    w(cli, "cmd_ingest_eeg", "cli.ingest_eeg")
    w(cli, "build_kgh", "knowledge.build_kgh")
    w(cli, "augment_pseudo_cases", "cases.augment")
    w(cli, "find_entity_mentions", "cases.link")
    w(cli, "save_stores", "pipeline.save")
    w(CaseStore, "add_record", "cases.add_record")
    w(eeg.EegVectorDatabase, "insert_recording", "eeg.insert")
