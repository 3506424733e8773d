"""Patient case store: canonical attribute tuples, hashed ids, pseudo-cases.

Each patient record is serialized into a sorted ``name=value;...`` tuple and
assigned a content hash. ``embed_case`` embeds the hash and tuple as one unit
of text, so cases live in the same semantic space as knowledge hyperedges;
a case is embedded where its vector is used, and the stored vector is the
one on its case-layer hyperedge. Incomplete records are compensated with
synthetic pseudo-cases that copy missing attributes from the most similar
complete neighbor; real cases are never mutated.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .embedding import Embedder
from .errors import PreconditionError, StoreSealedError
from .hashing import collapse_whitespace, fnv1a64_text
from .jsonl import read_jsonl, str_field, str_list, write_jsonl

SYNTHETIC_SUFFIX = "-s"


@dataclass
class PatientRecord:
    """Raw attribute mapping; each attribute carries one or more text values."""

    attributes: dict[str, list[str]]
    eeg_refs: list[str] = field(default_factory=list)

    @classmethod
    def from_raw(cls, obj: dict) -> "PatientRecord":
        """Build from a free-form JSON object; ``eeg_refs`` is reserved (a list
        of strings). Names and values are whitespace-collapsed here, once, so a
        case's hash and stored attributes agree; names that collapse alike are
        rejected. A value that is not a string is written with ``str``; a name
        or a string value that UTF-8 cannot encode is refused."""
        attrs: dict[str, list[str]] = {}
        refs: list[str] = []
        for key, value in obj.items():
            if key == "eeg_refs":
                refs = str_list(value, "eeg_refs")
                continue
            name = collapse_whitespace(str_field(key, "attribute name"))
            if name in attrs:
                raise PreconditionError(f"attribute {key!r} repeats the name {name!r}")
            values = value if isinstance(value, list) else [value]
            attrs[name] = str_list([collapse_whitespace(str(v)) for v in values], f"attribute {key!r}")
        return cls(attributes=attrs, eeg_refs=refs)


def serialize_case(record: PatientRecord | dict[str, list[str]]) -> str:
    """Canonical rendering: attributes sorted by name, values cleaned.

    Values are trimmed with internal whitespace collapsed; multi-valued
    attributes keep their input order, joined by commas.
    """
    attrs = record.attributes if isinstance(record, PatientRecord) else record
    if not attrs:
        raise PreconditionError("patient record must have at least one attribute")
    parts = []
    for name in sorted(attrs):
        values = ",".join(collapse_whitespace(v) for v in attrs[name])
        parts.append(f"{collapse_whitespace(name)}={values}")
    return ";".join(parts)


def case_id(canonical: str) -> str:
    """Stable case hash: lowercase hex of the 64-bit FNV-1a of the rendering."""
    return f"{fnv1a64_text(canonical):016x}"


def embed_case(case_hash: str, canonical: str, embedder: Embedder) -> np.ndarray:
    """Embed the identifier and attribute tuple as one concatenated text."""
    return embedder.embed(f"{case_hash} | {canonical}")


@dataclass
class PatientCase:
    h: str
    attributes: dict[str, list[str]]
    synthetic: bool = False
    eeg_refs: list[str] = field(default_factory=list)

    @cached_property
    def canonical(self) -> str:
        """The attribute tuple's rendering, computed once; a stored case's
        attributes do not change."""
        return serialize_case(self.attributes)


@dataclass
class FillRecord:
    recipient: str
    donor: str
    attributes: list[str]
    similarity: float
    synthetic_hash: str


class CaseStore:
    """Case hyperedges keyed by hash, saved as ``FILE`` in a store directory."""

    FILE = "cases.jsonl"

    def __init__(self):
        self.cases: dict[str, PatientCase] = {}
        self._sealed = False

    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> None:
        self._sealed = True

    def __len__(self) -> int:
        return len(self.cases)

    def _put(self, case: PatientCase, content_hash: bool = False) -> bool:
        """The one writer of ``cases``: check ``case``, copying its lists, and
        insert it under a new hash into an unsealed store; returns whether
        it inserted. With ``content_hash``, ``h`` is first set to the hash
        of the attribute tuple (marked when synthetic), and a case already
        stored under it is left as it is, sealed store or not."""
        if not isinstance(case.synthetic, bool):
            raise PreconditionError(f"synthetic is {case.synthetic!r}, not true or false")
        if not isinstance(case.attributes, dict):
            raise PreconditionError(f"attributes are {case.attributes!r}, not an object")
        attrs = case.attributes.items()
        case.attributes = {str_field(k, "attribute name"): str_list(v, f"attribute {k!r}") for k, v in attrs}
        case.eeg_refs = str_list(case.eeg_refs, "eeg_refs")
        if not case.attributes:
            raise PreconditionError("case has no attributes")
        suffix = SYNTHETIC_SUFFIX if case.synthetic else ""
        if content_hash:
            case.h = case_id(serialize_case(case.attributes)) + suffix
            if case.h in self.cases:
                return False
        if self._sealed:
            raise StoreSealedError("case store is sealed")
        if str_field(case.h, "h") in self.cases:
            raise PreconditionError(f"case hash {case.h!r} repeats")
        if not re.fullmatch(f"[0-9a-f]{{16}}{suffix}", case.h):
            digits = f"16 lowercase hex digits{' and ' + suffix if suffix else ''}"
            raise PreconditionError(f"h is {case.h!r}, not {digits}")
        self.cases[case.h] = case
        return True

    def add_record(self, record: PatientRecord) -> str:
        """Serialize, hash, and store a real case (idempotent by content: a
        record already stored is not written again, sealed or not)."""
        case = PatientCase("", record.attributes, eeg_refs=record.eeg_refs)
        self._put(case, content_hash=True)
        return case.h

    def real_cases(self) -> list[PatientCase]:
        return [self.cases[h] for h in sorted(self.cases) if not self.cases[h].synthetic]

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        write_jsonl(
            Path(directory) / self.FILE,
            (
                {
                    "h": case.h,
                    "e": {k: case.attributes[k] for k in sorted(case.attributes)},
                    "synthetic": case.synthetic,
                    "eeg_refs": case.eeg_refs,
                }
                for _, case in sorted(self.cases.items())
            ),
        )

    @classmethod
    def load(cls, directory: str | Path) -> "CaseStore":
        """The cases saved under ``directory``, none when it has no ``FILE``.
        Every row enters through ``_put``, so a row it refuses is rejected,
        naming its line. ``h`` is checked in form only, not re-derived from
        the attributes: that would cost twice the rest of loading."""

        def case(row: dict) -> None:
            store._put(PatientCase(row["h"], row["e"], row["synthetic"], row["eeg_refs"]))

        path = Path(directory) / cls.FILE
        store = cls()
        if path.exists():
            read_jsonl(path, case)
        return store


def augment_pseudo_cases(
    store: CaseStore,
    embedder: Embedder,
    tau: float = 0.80,
) -> list[FillRecord]:
    """Create synthetic pseudo-cases for records missing prevalent attributes;
    returns one ``FillRecord`` per pseudo-case created.

    An attribute counts as missing when at least half of the real cases have
    it and this case does not. For each such case the nearest other real
    case by cosine similarity of their ``embed_case`` vectors donates its
    values, provided the similarity reaches ``tau``; the result is stored as
    a new synthetic case (hash of the new tuple plus a synthetic marker
    suffix).

    Real cases are never mutated or deleted. With fewer than two real cases
    there is no donor, and nothing is created; a sealed store refuses the
    first pseudo-case it would get.
    """
    if not 0.0 < tau <= 1.0:
        raise PreconditionError("tau must be in (0, 1]")
    real = store.real_cases()

    threshold = len(real) / 2.0
    counts = Counter(name for c in real for name in c.attributes)
    prevalent = sorted(name for name, n in counts.items() if n >= threshold)

    fills: list[FillRecord] = []
    vectors = [embed_case(c.h, c.canonical, embedder) for c in real]
    for case, vector in zip(real, vectors):
        missing = [a for a in prevalent if a not in case.attributes]
        if not missing:
            continue
        # embeddings are unit-norm, so the dot product is cosine; real cases
        # iterate in ascending hash order, so the first occurrence of the
        # best similarity wins ties deterministically
        best: tuple[float, str] | None = None
        for other, other_vector in zip(real, vectors):
            if other.h == case.h:
                continue
            sim = float(np.dot(vector, other_vector))
            if best is None or sim > best[0]:
                best = (sim, other.h)
        if best is None or best[0] < tau:
            continue
        donor = store.cases[best[1]]
        fillable = [a for a in missing if a in donor.attributes]
        if not fillable:
            continue
        new_attrs = {**case.attributes, **{a: donor.attributes[a] for a in fillable}}
        pseudo = PatientCase("", new_attrs, synthetic=True, eeg_refs=case.eeg_refs)
        if store._put(pseudo, content_hash=True):
            fills.append(FillRecord(case.h, donor.h, fillable, best[0], pseudo.h))
    return fills


def load_records(path: str | Path) -> list[PatientRecord]:
    """Read ``cases.jsonl``: one JSON object of free attributes per patient."""

    def record(obj: dict) -> PatientRecord:
        rec = PatientRecord.from_raw(obj)
        if not rec.attributes:
            raise PreconditionError("record has no attributes")
        return rec

    return read_jsonl(path, record)
