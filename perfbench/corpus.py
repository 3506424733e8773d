"""Seeded synthetic corpora for the benchmark workloads.

A corpus is a directory holding exactly what the engine ingests and is asked:

    docs.jsonl, docs.facts.jsonl   knowledge documents and their curated facts
    cases.jsonl                    patient records (eeg_refs link recordings)
    eeg/<id>.json                  stored recordings
    queries.jsonl                  the query pool, in the order it is run
    queries/<id>.json              fresh query recordings (never stored)

The same seed always writes the same bytes. The waveform kinds and the fact
and question templates follow ``fixtures/make_corpus.py``; every draw adds
seeded jitter, so no two recordings and no two questions coincide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from eegrag.cases import PatientRecord, case_id, serialize_case

FS = 256.0
T = 512
CHANNELS = ("Fp1", "Fp2", "C3", "C4")
KINDS = ("spike-wave", "alpha-asym", "beta", "theta", "spindle", "delta-focal")
ETYPES = ("waveform", "symptom", "diagnosis", "treatment", "artifact")
ROLES = ("doctor", "intern", "researcher", "nurse", "patient")
FACTS_PER_DOC = 2

# Entity names are built from these stems so they never collide with the
# template words, the case attribute names or the role tags.
_PREFIXES = (
    "neuro", "cortico", "thalamo", "fronto", "tempo", "parieto", "occipito",
    "hippo", "cerebro", "spino", "myo", "electro", "vaso", "somato", "oculo",
    "ponto",
)
_SUFFIXES = (
    "spike", "wave", "rhythm", "burst", "slowing", "spindle", "seizure",
    "tremor", "lesion", "syndrome", "pathy", "algia", "plasia", "trophy",
    "itis", "osis",
)
_FILLER = (
    "activity", "pattern", "finding", "marker", "change", "onset", "episode",
    "discharge", "response", "profile",
)

# (arity, template) pairs adapted from the fixture's curated facts.
_FACT_TEMPLATES = (
    (2, "{0} can be mimicked by {1} during drowsiness."),
    (2, "{0} also appears in {1}, complicating screening."),
    (3, "Generalized {0} accompanies {1} and supports a diagnosis of {2}."),
    (3, "{0} is a first-line treatment for {1} with {2}."),
    (3, "Excessive {0} correlates with {1} severity in {2}."),
    (3, "{0} suppresses pathological {1} and relieves {2}."),
    (4, "Reduced {0} with frontal {1} is associated with {2} and {3}."),
    (4, "Diffuse {0} with loss of {1} accompanies {2} in {3}."),
)

# Facts take their arity from this cycle (30% binary, 50% ternary, 20%
# quaternary), so the ingest work of a corpus does not depend on its seed.
_FACT_ARITIES = (3, 2, 3, 4, 3, 2, 3, 4, 3, 2)

# (arity, template) pairs adapted from the fixture's QA set.
_QUESTION_TEMPLATES = (
    (1, "A {age} year old {sex} shows {0}. What is the likely diagnosis?"),
    (1, "My EEG report at age {age} mentions {0}. What could this mean?"),
    (2, "A {age} year old {sex} shows {0} with {1}. What is the likely diagnosis?"),
    (2, "Which medication is first line for {0} with {1} at age {age}?"),
    (2, "What happens to {0} after {1} in a {age} year old {sex}?"),
    (3, "EEG shows {0} with {1} and a {age} year old {sex} reports {2}. What diagnosis fits?"),
    (3, "Which rhythm links {0} to {1} severity in {2} at age {age}?"),
)


@dataclass(frozen=True)
class CorpusSpec:
    """Sizes of one synthetic corpus."""

    entities: int
    facts: int
    cases: int
    recordings: int
    stored_queries: int  # questions that pass a stored recording id
    fresh_queries: int  # questions that pass a fresh, unstored recording
    names_per_question: tuple[int, ...]  # entity names a question may mention


def signal(kind: str, rng: np.random.Generator) -> np.ndarray:
    """One (channels, T) recording of a fixture waveform kind, jittered."""
    t = np.arange(T) / FS
    f = 1.0 + 0.08 * rng.standard_normal()
    ph = rng.uniform(0.0, 2.0 * np.pi)
    sig = np.zeros((len(CHANNELS), T))
    if kind == "spike-wave":
        burst = (np.mod(t * 3.0 * f, 1.0) < 0.25).astype(float)
        sig[:] = 1.6 * burst * np.sin(2 * np.pi * 3.0 * f * t + ph) + 0.3 * np.sin(2 * np.pi * 9.0 * t)
    elif kind == "alpha-asym":
        alpha = np.sin(2 * np.pi * 10.0 * f * t + ph)
        sig[:] = np.array([[0.4], [1.2], [0.5], [1.0]]) * alpha
    elif kind == "beta":
        sig[:] = 0.9 * np.sin(2 * np.pi * 20.0 * f * t + ph) + 0.2 * np.sin(2 * np.pi * 6.0 * t)
    elif kind == "theta":
        sig[:] = 1.1 * np.sin(2 * np.pi * 5.0 * f * t + ph) + 0.2 * np.sin(2 * np.pi * 10.0 * t)
    elif kind == "spindle":
        envelope = np.exp(-(((np.mod(t * f, 1.0) - 0.5) / 0.12) ** 2))
        sig[:] = 0.9 * envelope * np.sin(2 * np.pi * 12.5 * t + ph)
    elif kind == "delta-focal":
        delta = np.sin(2 * np.pi * 2.0 * f * t + ph)
        sig[:] = np.array([[1.5], [0.3], [1.2], [0.3]]) * delta
    else:
        raise ValueError(f"unknown waveform kind {kind!r}")
    gains = 1.0 + 0.15 * rng.standard_normal((len(CHANNELS), 1))
    return sig * gains + 0.15 * rng.standard_normal((len(CHANNELS), T))


def _recording_json(rid: str, patient_hash: str | None, sig: np.ndarray) -> str:
    obj = {
        "id": rid,
        "patient_hash": patient_hash,
        "sample_rate": FS,
        "channels": [
            {"name": name, "samples": samples}
            for name, samples in zip(CHANNELS, np.round(sig, 4).tolist())
        ],
    }
    return json.dumps(obj) + "\n"


def _entity_names(rng: np.random.Generator, n: int) -> list[str]:
    words = [p + s for p in _PREFIXES for s in _SUFFIXES]
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n:
        width = int(rng.choice([1, 2, 3], p=[0.15, 0.6, 0.25]))
        name = " ".join(words[i] for i in rng.choice(len(words), size=width, replace=False))
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _mention(name: str, rng: np.random.Generator) -> str:
    """A name as it appears in running text; some spell multiword names hyphenated."""
    return name.replace(" ", "-") if " " in name and rng.random() < 0.2 else name


class _Vocabulary:
    """Entity names with a skewed popularity, so some entities are hubs."""

    def __init__(self, rng: np.random.Generator, n: int):
        self.names = _entity_names(rng, n)
        self.etypes = [ETYPES[i % len(ETYPES)] for i in range(n)]
        weights = 1.0 / (np.arange(n) + 10.0)
        self.p = weights / weights.sum()

    def pick(self, rng: np.random.Generator, k: int) -> list[int]:
        return [int(i) for i in rng.choice(len(self.names), size=k, replace=False, p=self.p)]


def _kind_cycle(order, kinds: list[str]) -> list[int]:
    """``order`` re-arranged to take one index of each waveform kind in turn."""
    by_kind = [[int(i) for i in order if kinds[i] == k] for k in KINDS]
    return [i for group in zip_longest(*by_kind) for i in group if i is not None]


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_corpus(directory: Path, spec: CorpusSpec, seed: int) -> None:
    """Write the corpus of ``spec`` drawn from ``seed`` under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "eeg").mkdir(exist_ok=True)
    (directory / "queries").mkdir(exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    vocab = _Vocabulary(rng, spec.entities)

    # -- knowledge layer: facts grouped into documents -----------------------
    defined: set[int] = set()
    docs, facts = [], []
    for i in range(spec.facts):
        arity = _FACT_ARITIES[i % len(_FACT_ARITIES)]
        templates = [tpl for a, tpl in _FACT_TEMPLATES if a == arity]
        members = vocab.pick(rng, arity)
        description = templates[int(rng.integers(len(templates)))].format(
            *(_mention(vocab.names[m], rng) for m in members)
        )
        description = description[0].upper() + description[1:]
        doc_id = f"doc-{i // FACTS_PER_DOC:05d}"
        entities = []
        for m in members:
            definition = ""
            if m not in defined:
                defined.add(m)
                words = rng.choice(len(_FILLER), size=2, replace=False)
                definition = f"{vocab.etypes[m]} {_FILLER[words[0]]} with {_FILLER[words[1]]}"
            entities.append({"name": vocab.names[m], "etype": vocab.etypes[m], "definition": definition})
        facts.append({"doc_id": doc_id, "description": description, "entities": entities})
        if i % FACTS_PER_DOC == 0:
            docs.append({"id": doc_id, "title": f"Synthetic source {doc_id}", "body": "", "source": "synthetic"})
        docs[-1]["body"] = (docs[-1]["body"] + " " + description).strip()
    _write_jsonl(directory / "docs.jsonl", docs)
    _write_jsonl(directory / "docs.facts.jsonl", facts)

    # -- case layer: cohorts of similar patients, some records incomplete ----
    rng = np.random.default_rng([seed, 2])
    n_profiles = max(2, spec.cases // 3)
    profiles = []
    for j in range(n_profiles):
        picks = vocab.pick(rng, 3)
        profiles.append(
            {
                "diagnosis": vocab.names[picks[0]],
                "symptoms": vocab.names[picks[1]],
                "medication": vocab.names[picks[2]],
                "history": f"{_FILLER[int(rng.integers(len(_FILLER)))]} {int(rng.integers(1, 12))} months",
                "kind": KINDS[j % len(KINDS)],
            }
        )
    cases, case_kinds, case_hashes = [], [], []
    for i in range(spec.cases):
        profile = profiles[i % n_profiles]
        attrs = {"age": str(int(rng.integers(18, 91))), "sex": "F" if rng.random() < 0.5 else "M"}
        for key in ("diagnosis", "symptoms", "medication", "history"):
            if key in ("diagnosis", "symptoms") or rng.random() >= 0.25:
                attrs[key] = profile[key]
        cases.append(attrs)
        case_kinds.append(profile["kind"])
        case_hashes.append(case_id(serialize_case(PatientRecord.from_raw(attrs))))

    # -- EEG layer: each stored recording belongs to one case ---------------
    # The linked cases cycle through the waveform kinds, because DTW's cost
    # per cell depends on the waveforms; the query pool below cycles too, so
    # every prefix of it has the same mix whatever the seed.
    rng = np.random.default_rng([seed, 3])
    linked = _kind_cycle(rng.permutation(spec.cases), case_kinds)[: spec.recordings]
    rec_ids = [f"rec-{i:05d}" for i in range(spec.recordings)]
    rec_kinds = [case_kinds[int(c)] for c in linked]
    for rid, c in zip(rec_ids, linked):
        cases[int(c)]["eeg_refs"] = [rid]
        sig = signal(case_kinds[int(c)], rng)
        (directory / "eeg" / f"{rid}.json").write_text(
            _recording_json(rid, case_hashes[int(c)], sig), encoding="utf-8"
        )
    _write_jsonl(directory / "cases.jsonl", cases)

    # -- query pool: stored-id and fresh questions alternate ----------------
    rng = np.random.default_rng([seed, 4])
    stored_order = _kind_cycle(rng.permutation(spec.recordings), rec_kinds)
    queries, texts = [], set()
    n_queries = spec.stored_queries + spec.fresh_queries
    n_stored = n_fresh = 0
    while len(queries) < n_queries:
        want_fresh = n_fresh < spec.fresh_queries and (
            n_stored >= spec.stored_queries or len(queries) % 2 == 1
        )
        arity = spec.names_per_question[len(queries) % len(spec.names_per_question)]
        templates = [tpl for a, tpl in _QUESTION_TEMPLATES if a == arity]
        text = templates[int(rng.integers(len(templates)))].format(
            *(_mention(vocab.names[m], rng) for m in vocab.pick(rng, arity)),
            age=int(rng.integers(18, 91)),
            sex="woman" if rng.random() < 0.5 else "man",
        )
        if text in texts:
            continue
        texts.add(text)
        qid = f"q-{len(queries):05d}"
        row = {"id": qid, "question": text, "role": ROLES[int(rng.integers(len(ROLES)))], "domain": "synthetic"}
        if want_fresh:
            sig = signal(KINDS[n_fresh % len(KINDS)], rng)
            (directory / "queries" / f"{qid}.json").write_text(_recording_json(f"fresh-{qid}", None, sig), encoding="utf-8")
            row["eeg_file"] = f"queries/{qid}.json"
            n_fresh += 1
        else:
            row["eeg_id"] = rec_ids[int(stored_order[n_stored % spec.recordings])]
            n_stored += 1
        queries.append(row)
    _write_jsonl(directory / "queries.jsonl", queries)

