"""Brute-force references the benchmark checks the engine's answers against.

They read the store files directly and share no code with the engine's
retrieval paths: DTW is a numpy row recurrence over all stored recordings at
once, hyperedge retrieval is a cosine per edge, and entity linking scans
every entity name at every token position. Each ``check_*`` returns a list
of mismatch messages, empty when the engine agrees.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


class StoreReference:
    """Everything the references need, loaded from a store directory."""

    def __init__(self, store_dir: Path):
        evd = _read_jsonl(store_dir / "evd.jsonl")
        evd.sort(key=lambda r: r["id"])
        self.rec_ids = [r["id"] for r in evd]
        self.rec_patients = {r["id"]: r["patient_hash"] for r in evd}
        self.rec_values = {r["id"]: np.asarray(r["values"], dtype=np.float64) for r in evd}
        self.n_segments = evd[0]["n_segments"] if evd else 0
        self.normalized = evd[0]["normalized"] if evd else True
        edges = _read_jsonl(store_dir / "hyperedges.jsonl")
        self.edges = {}
        for row in edges:
            if row["embedding"] is not None:
                vec = np.asarray(row["embedding"], dtype=np.float64)
                self.edges[row["id"]] = (row["layer"], vec, float(np.linalg.norm(vec)))
        self.entities = sorted((row["id"], row["name"]) for row in _read_jsonl(store_dir / "entities.jsonl"))


# -- EEG: z-score, PAA and DTW -------------------------------------------------


def paa_reference(x: np.ndarray, n: int) -> np.ndarray:
    """Segment means over [j*T/n, (j+1)*T/n), each sample weighted by overlap."""
    t = x.size
    out = np.empty(n)
    for j in range(n):
        a, b = j * t / n, (j + 1) * t / n
        idx = np.arange(min(math.floor(a), t - 1), min(math.ceil(b), t))
        weights = np.clip(np.minimum(b, idx + 1.0) - np.maximum(a, idx), 0.0, None)
        out[j] = np.dot(weights, x[idx]) / weights.sum()
    return out


def embed_reference(recording, n: int, normalize: bool) -> np.ndarray:
    blocks = []
    for ch in recording.channels:
        x = np.asarray(ch.samples, dtype=np.float64)
        if normalize:
            std = x.std()
            x = np.zeros_like(x) if std < 1e-12 else (x - x.mean()) / std
        blocks.append(paa_reference(x, n))
    return np.concatenate(blocks)


def dtw_all(query: np.ndarray, stored: np.ndarray) -> np.ndarray:
    """Unbanded DTW (|a_i - b_j| cost) from ``query`` to every row of ``stored``."""
    n_rows, m = stored.shape
    prev = np.full((n_rows, m + 1), np.inf)
    prev[:, 0] = 0.0
    for qi in query:
        cost = np.abs(qi - stored)
        cur = np.full((n_rows, m + 1), np.inf)
        for j in range(1, m + 1):
            cur[:, j] = cost[:, j - 1] + np.minimum(np.minimum(prev[:, j - 1], prev[:, j]), cur[:, j - 1])
        prev = cur
    return prev[:, m]


def eeg_topk(ref: StoreReference, query_vec: np.ndarray, k: int) -> list[tuple[str, float]]:
    stored = np.stack([ref.rec_values[r] for r in ref.rec_ids])
    dist = dtw_all(query_vec, stored)
    return sorted(zip((float(d) for d in dist), ref.rec_ids))[:k]


def check_eeg(ref: StoreReference, query_vec: np.ndarray, k: int, matches) -> list[str]:
    want = eeg_topk(ref, query_vec, k)
    got = [(m.recording_id, m.distance, m.patient_hash) for m in matches]
    if [r for _, r in want] != [r for r, _, _ in got]:
        return [f"eeg top-{k} ids {[r for r, _, _ in got]} != reference {[r for _, r in want]}"]
    errors = []
    for (d_want, rid), (_, d_got, patient) in zip(want, got):
        if not _close(d_want, d_got):
            errors.append(f"eeg distance for {rid}: {d_got!r} != reference {d_want!r}")
        if patient != ref.rec_patients[rid]:
            errors.append(f"eeg patient for {rid}: {patient!r} != {ref.rec_patients[rid]!r}")
    return errors


# -- hyperedge cosine scan -----------------------------------------------------


def hyperedge_topk(ref: StoreReference, query_vec: np.ndarray, k: int, layer: str | None) -> list[tuple[float, int]]:
    qn = float(np.linalg.norm(query_vec))
    scored = []
    for hid, (edge_layer, vec, norm) in ref.edges.items():
        if layer is not None and edge_layer != layer:
            continue
        score = 0.0 if qn == 0.0 or norm == 0.0 else float(np.dot(query_vec, vec) / (qn * norm))
        scored.append((-score, hid))
    scored.sort()
    return [(-neg, hid) for neg, hid in scored[:k]]


def check_hyperedges(ref: StoreReference, query_vec: np.ndarray, k: int, layer: str | None, hits) -> list[str]:
    want = hyperedge_topk(ref, query_vec, k, layer)
    got = [(h.hyperedge_id, h.score) for h in hits]
    if [h for _, h in want] != [h for h, _ in got]:
        return [f"hyperedge top-{k} ids {[h for h, _ in got]} != reference {[h for _, h in want]}"]
    return [
        f"hyperedge score for {hid}: {s_got!r} != reference {s_want!r}"
        for (s_want, hid), (_, s_got) in zip(want, got)
        if not _close(s_want, s_got)
    ]


# -- entity linking --------------------------------------------------------------

_WORD = re.compile(r"[0-9A-Za-z]+")


def link_reference(ref: StoreReference, text: str) -> list[tuple[int, int, int]]:
    """(entity id, start, end) of each mention: every name tried at every token
    position, longest match first, then leftmost, in text order."""
    tokens = [(m.group(0).lower(), m.start(), m.end()) for m in _WORD.finditer(text)]
    words = [t[0] for t in tokens]
    first_id: dict[tuple[str, ...], int] = {}
    for eid, name in ref.entities:
        first_id.setdefault(tuple(w.lower() for w in _WORD.findall(name)), eid)
    candidates = []
    for seq, eid in first_id.items():
        if not seq:
            continue
        for i in range(len(words) - len(seq) + 1):
            if tuple(words[i : i + len(seq)]) == seq:
                start, end = tokens[i][1], tokens[i + len(seq) - 1][2]
                candidates.append((end - start, start, eid))
    chosen = []
    for length, start, eid in sorted(candidates, key=lambda c: (-c[0], c[1])):
        end = start + length
        if all(end <= s or start >= e for s, e, _ in chosen):
            chosen.append((start, end, eid))
    return [(eid, s, e) for s, e, eid in sorted(chosen)]


def check_links(ref: StoreReference, text: str, matches) -> list[str]:
    want = link_reference(ref, text)
    got = [(m.entity_id, m.start, m.end) for m in matches]
    return [] if got == want else [f"entity links {got} != reference {want}"]
