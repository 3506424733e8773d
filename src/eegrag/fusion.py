"""Retrieval fusion into a grounded context subgraph, plus guided generation.

The three retrieval channels (EEG matches, hyperedge hits, linked entities)
are fused by seeding a bounded BFS closure over the bipartite store, then
ranking the closure's hyperedges by how many distinct seeds they connect.
The fused context renders deterministically and feeds a pluggable
generation client; the bundled mock client is a pure function of its
inputs so end-to-end runs are byte-reproducible.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from .cases import CaseStore, PatientCase
from .eeg import EegMatch
from .errors import PreconditionError, ReferentialError, TransportError
from .hypergraph import BipartiteStore, Entity, Hyperedge
from .retrieval import EntityMatch, MetadataQuery, ScoredHyperedge
# unused: kept only because perfbench/spans.py wraps this name (``fusion.relink``)
from .retrieval import find_entity_mentions  # noqa: F401

logger = logging.getLogger(__name__)

# score assigned below any real cosine so unscored closure edges sort after
# directly retrieved ones at equal connectivity
_UNSCORED = -2.0


@dataclass
class AblationFlags:
    """Channel toggles: cl = entity/knowledge linking, il = hyperedge
    retrieval, el = EEG retrieval. A disabled channel contributes an empty
    set to the retrieval bundle; all three off reduces the pipeline to
    question-only generation."""

    cl: bool = True
    il: bool = True
    el: bool = True


@dataclass
class RetrievalBundle:
    """Outputs of the three retrieval channels; any channel may be empty."""

    eeg_matches: list[EegMatch] = field(default_factory=list)
    hyperedge_hits: list[ScoredHyperedge] = field(default_factory=list)
    entity_matches: list[EntityMatch] = field(default_factory=list)
    expansion_edges: set[int] = field(default_factory=set)


@dataclass(frozen=True, slots=True)
class ContextEdge:
    """One kept hyperedge of a context, as ``FusedContext.hyperedges`` reads it."""

    hyperedge_id: int
    description: str
    reason: str  # "retrieved" | "expansion" | "closure"
    connectivity: int
    score: float | None


@dataclass(slots=True)
class FusedContext:
    """The fused subgraph context: ranked edges plus their full entity support.

    Kept hyperedges, entities, cases and EEG matches are the sealed stores'
    own records, shared rather than copied; a context only reads them. The
    kept edges' own fields sit in columns beside ``edges``, best first, so
    a context holds no object per edge; ``hyperedges`` reads them as rows.
    """

    edges: list[Hyperedge] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)  # "retrieved" | "expansion" | "closure"
    connectivity: list[int] = field(default_factory=list)
    scores: list[float | None] = field(default_factory=list)
    entities: list[Entity] = field(default_factory=list)
    cases: list[PatientCase] = field(default_factory=list)
    eeg_summaries: list[EegMatch] = field(default_factory=list)
    radius: int = 0
    budget: int = 0
    truncated: bool = False

    @property
    def hyperedges(self) -> list[ContextEdge]:
        return [
            ContextEdge(edge.id, edge.description, reason, connectivity, score)
            for edge, reason, connectivity, score in zip(
                self.edges, self.reasons, self.connectivity, self.scores
            )
        ]

    def is_empty(self) -> bool:
        return not (self.edges or self.cases or self.eeg_summaries)

    def to_dict(self) -> dict:
        return {
            "hyperedges": [
                {
                    "id": e.hyperedge_id,
                    "description": e.description,
                    "reason": e.reason,
                    "connectivity": e.connectivity,
                    "score": e.score,
                }
                for e in self.hyperedges
            ],
            "entities": [
                {"id": e.id, "name": e.name, "definition": e.definition}
                for e in self.entities
            ],
            "cases": [
                {"h": c.h, "attributes": c.canonical, "synthetic": c.synthetic}
                for c in self.cases
            ],
            "eeg_matches": [
                {
                    "recording_id": s.recording_id,
                    "patient_hash": s.patient_hash,
                    "distance": s.distance,
                }
                for s in self.eeg_summaries
            ],
            "radius": self.radius,
            "budget": self.budget,
            "truncated": self.truncated,
        }

    def to_json(self) -> str:
        """Deterministic serialization (stable ordering, sorted keys)."""
        return json.dumps(self.to_dict(), ensure_ascii=False, sort_keys=True)


def fuse(
    bundle: RetrievalBundle,
    store: BipartiteStore,
    case_store: CaseStore | None = None,
    radius: int = 1,
    budget: int = 32,
) -> FusedContext:
    """Close the retrieval results into one bounded context subgraph.

    Seeds are the retrieved hyperedges, the linked query entities, and the
    members of the case-layer edges of cases reached through EEG matches'
    patient hashes (the signal-to-symbol bridge; ``store.case_members``).
    All hyperedges within ``radius`` bipartite hops of a seed are
    candidates, ranked by (number of distinct seed nodes they connect,
    retrieval score, id) and capped at ``budget``; members of every kept
    edge are always included so the context is self-contained.

    EEG matches whose patient hash has no case record contribute no seeds
    (a recording may legitimately lack a linked case).
    """
    if not store.sealed:
        raise PreconditionError("fusion requires a sealed store")
    if radius < 0:
        raise PreconditionError("radius must be >= 0")
    if budget < 1:
        raise PreconditionError("budget must be >= 1")

    bad_edges = [
        h.hyperedge_id
        for h in bundle.hyperedge_hits
        if h.hyperedge_id not in store.hyperedges
    ]
    bad_edges += [h for h in bundle.expansion_edges if h not in store.hyperedges]
    bad_entities = [
        m.entity_id for m in bundle.entity_matches if m.entity_id not in store.entities
    ]
    if bad_edges or bad_entities:
        raise ReferentialError(
            f"bundle references unknown ids: edges={sorted(bad_edges)} "
            f"entities={sorted(bad_entities)}"
        )

    seed_set: set[int] = {h.hyperedge_id for h in bundle.hyperedge_hits}
    seed_set.update(m.entity_id for m in bundle.entity_matches)

    # each matched case once, in the order its first match ranks
    cases: dict[str, PatientCase] = {}
    for match in bundle.eeg_matches:
        ph = match.patient_hash
        if ph and case_store is not None and ph in case_store.cases and ph not in cases:
            cases[ph] = case_store.cases[ph]
            seed_set.update(store.case_members.get(cases[ph].canonical, ()))

    ctx = FusedContext(
        cases=list(cases.values()),
        eeg_summaries=list(bundle.eeg_matches),
        radius=radius,
        budget=budget,
    )
    if not seed_set:
        return ctx

    direct_scores: dict[int, float] = {}
    for hit in bundle.hyperedge_hits:
        prev = direct_scores.get(hit.hyperedge_id)
        if prev is None or hit.score > prev:
            direct_scores[hit.hyperedge_id] = hit.score

    seed_entities = {s for s in seed_set if s in store.entities}
    candidates, ctx.truncated = _candidates(
        store, seed_entities, set(direct_scores), radius, budget
    )
    ranked = []
    for hid, connectivity in candidates.items():
        score = direct_scores.get(hid)
        sort_score = _UNSCORED if score is None else score
        ranked.append((-connectivity, -sort_score, hid, score, connectivity))
    ranked.sort()

    kept = ranked[:budget]
    entity_ids = set(seed_entities)
    for _, _, hid, score, connectivity in kept:
        edge = store.hyperedges[hid]
        if hid in direct_scores:
            reason = "retrieved"
        elif hid in bundle.expansion_edges:
            reason = "expansion"
        else:
            reason = "closure"
        ctx.edges.append(edge)
        ctx.reasons.append(reason)
        ctx.connectivity.append(connectivity)
        ctx.scores.append(score)
        entity_ids |= edge.members

    ctx.entities = [store.entities[eid] for eid in sorted(entity_ids)]
    return ctx


def _candidates(
    store: BipartiteStore,
    seed_entities: set[int],
    seed_edges: set[int],
    radius: int,
    budget: int,
) -> tuple[dict[int, int], bool]:
    """A superset of the ``budget`` best hyperedges within ``radius`` hops of
    a seed, with their connectivity, and whether there are more than ``budget``.

    Only the seed hyperedges (the retrieved, scored ones) and the hyperedges
    holding a seed entity connect a seed. Any of the latter that connects
    two or more seeds holds two seed entities, so it turns up in two seed
    incidence sets; those and the seed hyperedges are counted one by one.
    Every other edge is unscored and connects one seed if it holds a seed
    entity, none if it lies further out, so each group ranks by ascending
    id and only its first ``budget`` edges can be kept. Only that outer
    group needs the walked closure.
    """
    reached: set[int] = set()
    shared = set(seed_edges)
    for eid in seed_entities if radius else ():
        edges = store.incidence.get(eid, set())
        shared |= reached & edges
        reached |= edges
    candidates = {
        hid: len(store.hyperedges[hid].members & seed_entities) + (1 if hid in seed_edges else 0)
        for hid in shared
    }
    single = sorted(reached - shared)
    candidates.update(dict.fromkeys(single[:budget], 1))
    n_closure = len(shared) + len(single)
    if radius > 1:
        hood = store.neighborhood(seed_entities | seed_edges, radius)
        outer = sorted(hood.hyperedge_ids - shared - reached)
        candidates.update(dict.fromkeys(outer[:budget], 0))
        n_closure += len(outer)
    return candidates, n_closure > budget


def render_context(ctx: FusedContext) -> str:
    """Deterministic text rendering with a fixed section order."""
    lines = ["[Knowledge]"]
    if ctx.edges:
        lines.extend(f"- {edge.description}" for edge in ctx.edges)
    else:
        lines.append("(none)")
    lines.append("")
    lines.append("[Similar Cases]")
    if ctx.cases:
        for case in ctx.cases:
            marker = " (synthetic)" if case.synthetic else ""
            lines.append(f"- {case.h}: {case.canonical}{marker}")
    else:
        lines.append("(none)")
    lines.append("")
    lines.append("[EEG Matches]")
    if ctx.eeg_summaries:
        for s in ctx.eeg_summaries:
            patient = s.patient_hash if s.patient_hash else "-"
            lines.append(f"- {s.recording_id} patient={patient} dtw={s.distance:.4f}")
    else:
        lines.append("(none)")
    return "\n".join(lines)


# -- generation clients --------------------------------------------------------


@runtime_checkable
class GenerationClient(Protocol):
    """Maps (generation prompt, rendered context, question) to an answer."""

    @property
    def client_id(self) -> str: ...

    def complete(self, prompt: str, context: str, question: str) -> str: ...


class MockGenerationClient:
    """Pure deterministic stand-in used in tests and offline runs."""

    client_id = "mock"

    def complete(self, prompt: str, context: str, question: str) -> str:
        digest = hashlib.sha256(
            "\x1e".join([prompt, context, question]).encode("utf-8")
        ).hexdigest()[:12]
        return f"Mock diagnostic answer for: {question} [grounding:{digest}]"


class HttpChatClient:
    """Minimal chat-completion-style HTTP backend.

    Sends the generation prompt as the system message and the context plus
    question as the user message. Authentication is read from the
    environment variable named by ``auth_env`` at call time. Calls are
    retried ``retries`` times with linear backoff before raising
    ``TransportError``: a failed connection, a dropped or cut-off response,
    an error status, and a body without a string
    ``choices[0].message.content`` all count as failures. Concurrent
    in-flight requests are capped.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        auth_env: str | None = None,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.5,
        max_inflight: int = 4,
    ):
        self.endpoint = endpoint
        self.model = model
        self.auth_env = auth_env
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._gate = threading.Semaphore(max_inflight)

    @property
    def client_id(self) -> str:
        return f"http:{self.model}"

    def complete(self, prompt: str, context: str, question: str) -> str:
        user_text = f"{context}\n\nQuestion: {question}" if context else f"Question: {question}"
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": prompt},
                {"role": "user", "content": user_text},
            ],
        }
        headers = {"Content-Type": "application/json"}
        if self.auth_env:
            token = os.environ.get(self.auth_env, "")
            if token:
                headers["Authorization"] = f"Bearer {token}"
        request = urllib.request.Request(
            self.endpoint, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
        )

        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * attempt)
            try:
                with self._gate:
                    with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                        data = json.loads(resp.read().decode("utf-8"))
                answer = data["choices"][0]["message"]["content"]
                if not isinstance(answer, str):
                    raise TypeError(f"answer content is {type(answer).__name__}, not str")
                return answer
            # OSError: URLError, HTTPError, a reset connection; HTTPException:
            # RemoteDisconnected, IncompleteRead; the rest: a malformed body
            except (OSError, http.client.HTTPException, LookupError, TypeError, ValueError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # it holds the response's socket open
                last_error = exc
                logger.warning("generation call failed (attempt %d): %s", attempt + 1, exc)
        raise TransportError(
            f"generation backend {self.client_id} failed after "
            f"{self.retries + 1} attempts: {last_error}"
        )


@dataclass(slots=True)
class GenerationResult:
    answer: str
    context_hash: str
    client_id: str
    ungrounded: bool


def generate(
    mq: MetadataQuery,
    ctx: FusedContext,
    client: GenerationClient,
    prompt_asset: str,
) -> GenerationResult:
    """Assemble the grounded prompt and call the generation client.

    The clinical role tag is interpolated into the prompt asset. An empty
    context produces a question-only prompt and marks the answer as
    ungrounded in the provenance.
    """
    role = mq.role if mq.role else "clinician"
    prompt = prompt_asset.replace("{role}", role)
    ungrounded = ctx.is_empty()
    rendered = "" if ungrounded else render_context(ctx)
    answer = client.complete(prompt, rendered, mq.text)
    context_hash = hashlib.sha256(rendered.encode("utf-8")).hexdigest()
    return GenerationResult(answer, context_hash, client.client_id, ungrounded)
