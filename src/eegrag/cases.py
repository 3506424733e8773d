"""Patient case store: canonical attribute tuples, hashed ids, pseudo-cases.

Each patient record is serialized into a sorted ``name=value;...`` tuple and
assigned a content hash. ``embed_case`` embeds the hash and tuple as one unit
of text, so cases live in the same semantic space as knowledge hyperedges;
a case is embedded where its vector is used, and the stored vector is the
one on its case-layer hyperedge. Incomplete records are compensated with
synthetic pseudo-cases that copy missing attributes from the most similar
other real case; real cases are never mutated, and the pseudo-cases are
derived again from the real cases on each augmentation.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .embedding import Embedder
from .errors import PreconditionError, StoreSealedError
from .hashing import collapse_whitespace, fnv1a64_text
from .jsonl import read_jsonl, shown, str_field, str_list, write_jsonl

SYNTHETIC_SUFFIX = "-s"

# bytes one row block of the donor search's score matrix may take: 8 MiB
# holds 4k rows of a 256-case store, or 100 rows of a 10k-case one, where
# the whole 4.4k x 10k product would take ~350 MiB
_DONOR_BYTES = 8 << 20


@dataclass
class PatientRecord:
    """Raw attribute mapping; each attribute carries one or more text values."""

    attributes: dict[str, list[str]]

    @classmethod
    def from_raw(cls, obj: dict) -> "PatientRecord":
        """Build from a free-form JSON object with at least one attribute;
        ``eeg_refs`` is reserved: it must be a list of strings, and is then
        dropped, since a recording names its case by ``patient_hash``. Names
        and values are whitespace-collapsed here, once, so a case's hash and
        stored attributes agree; names that collapse alike are rejected. A
        value that is not a string is written with ``str``; a name or string
        value UTF-8 cannot encode is refused."""
        attrs: dict[str, list[str]] = {}
        for key, value in obj.items():
            if key == "eeg_refs":
                str_list(value, "eeg_refs")
                continue
            name = collapse_whitespace(str_field(key, "attribute name"))
            if name in attrs:
                raise PreconditionError(f"attribute {key!r} repeats the name {name!r}")
            values = value if isinstance(value, list) else [value]
            attrs[name] = str_list([collapse_whitespace(str(v)) for v in values], f"attribute {key!r}")
        if not attrs:
            raise PreconditionError("record has no attributes")
        return cls(attrs)


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

    @cached_property
    def canonical(self) -> str:
        """The attribute tuple's rendering, computed once: ``_put`` keeps the
        one it hashes, and a loaded case renders it when first read. A stored
        case's attributes do not change."""
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

    def seal(self) -> None:
        self._sealed = True

    def __len__(self) -> int:
        return len(self.cases)

    def _put(self, case: PatientCase, content_hash: bool = False) -> bool:
        """The one door of ``cases``: check ``case``, copying its lists, and
        insert it under a new hash into an unsealed store; returns whether
        it inserted. With ``content_hash``, ``h`` is first set to the hash
        of the attribute tuple's rendering (marked when synthetic), which
        the case keeps as its ``canonical``, and a case already stored under
        it is left as it is, sealed store or not."""
        if not isinstance(case.synthetic, bool):
            raise PreconditionError(f"synthetic is {shown(case.synthetic)}, not true or false")
        if not isinstance(case.attributes, dict):
            raise PreconditionError(f"attributes are {shown(case.attributes)}, not an object")
        attrs = case.attributes.items()
        case.attributes = {str_field(k, "attribute name"): str_list(v, f"attribute {k!r}") for k, v in attrs}
        if not case.attributes:
            raise PreconditionError("case has no attributes")
        suffix = SYNTHETIC_SUFFIX if case.synthetic else ""
        if content_hash:
            case.canonical = serialize_case(case.attributes)
            case.h = case_id(case.canonical) + suffix
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
        case = PatientCase("", record.attributes)
        self._put(case, content_hash=True)
        return case.h

    def real_cases(self) -> list[PatientCase]:
        return [self.cases[h] for h in sorted(self.cases) if not self.cases[h].synthetic]

    def drop_synthetic(self) -> None:
        """Delete every synthetic case from an unsealed store."""
        if self._sealed:
            raise StoreSealedError("case store is sealed")
        for h in [h for h, case in self.cases.items() if case.synthetic]:
            del self.cases[h]

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        write_jsonl(
            Path(directory) / self.FILE,
            (
                {
                    "h": case.h,
                    "e": {k: case.attributes[k] for k in sorted(case.attributes)},
                    "synthetic": case.synthetic,
                }
                for _, case in sorted(self.cases.items())
            ),
        )

    @classmethod
    def load(cls, directory: str | Path) -> "CaseStore":
        """The cases saved under ``directory``, none when it has no ``FILE``.
        Every row enters through ``_put``, so a row it refuses is rejected,
        naming its line. ``h`` is checked in form only, not re-derived from
        the attributes: that would cost twice the rest of loading. A row's
        other fields, such as an older version's case-to-recording links,
        are ignored."""

        def case(row: dict) -> None:
            store._put(PatientCase(row["h"], row["e"], row["synthetic"]))

        path = Path(directory) / cls.FILE
        store = cls()
        if path.exists():
            read_jsonl(path, case)
        return store


def augment_pseudo_cases(
    store: CaseStore,
    embedder: Embedder,
    tau: float = 0.80,
    vectors: Mapping[str, np.ndarray] | None = None,
) -> list[FillRecord]:
    """Derive the synthetic pseudo-cases from the real cases, replacing
    every synthetic case stored before; returns one ``FillRecord`` per
    pseudo-case stored.

    An attribute counts as missing when at least half of the real cases have
    it and this case does not. For each such case the nearest other real
    case by the dot product of their ``embed_case`` vectors (``vectors`` by
    case hash, or each real case embedded here) donates its values,
    provided the similarity reaches ``tau``; the result is stored as a new
    synthetic case (hash of the new tuple plus a synthetic marker suffix).
    Two cases whose fills give one tuple store it once, with the first
    one's record.

    The stored cases are thus a function of the set of real cases, however
    they were batched. Real cases are never mutated or deleted; synthetic
    ones are re-derived on each run, so a sealed store is refused before
    anything changes.
    """
    if not 0.0 < tau <= 1.0:
        raise PreconditionError("tau must be in (0, 1]")
    store.drop_synthetic()
    real = store.real_cases()

    threshold = len(real) / 2.0
    counts = Counter(name for c in real for name in c.attributes)
    prevalent = sorted(name for name, n in counts.items() if n >= threshold)
    missing = [[a for a in prevalent if a not in c.attributes] for c in real]
    incomplete = [i for i, names in enumerate(missing) if names]
    # a case misses an attribute that at least half of the cases hold, so
    # it has another real case to take a donor from
    if not incomplete:
        return []
    if vectors is None:
        vectors = {c.h: embed_case(c.h, c.canonical, embedder) for c in real}

    fills: list[FillRecord] = []
    donors = _nearest_others([vectors[c.h] for c in real], incomplete)
    for i, (similarity, j) in zip(incomplete, donors):
        if similarity < tau:
            continue
        case, donor = real[i], real[j]
        fillable = [a for a in missing[i] if a in donor.attributes]
        if not fillable:
            continue
        new_attrs = {**case.attributes, **{a: donor.attributes[a] for a in fillable}}
        pseudo = PatientCase("", new_attrs, synthetic=True)
        if store._put(pseudo, content_hash=True):
            fills.append(FillRecord(case.h, donor.h, fillable, similarity, pseudo.h))
    return fills


def _nearest_others(vectors: list[np.ndarray], rows: list[int]) -> list[tuple[float, int]]:
    """For each index ``i`` in ``rows``, ``(float(np.dot(vectors[i],
    vectors[j])), j)`` of the other vector ``j`` that maximizes it, the
    first such ``j`` on a tie; there must be at least two vectors.

    The score matrix only filters. It is taken in blocks of as many rows as
    ``_DONOR_BYTES`` holds (at least one), each row's own column masked,
    and keeps the columns within twice ``_dot_bound`` of the row's best.
    Those are scored again with ``np.dot``, in ascending order with a strict
    ``>``, so the result is that of one ``np.dot`` per pair: the column
    that wins, or ties, is never cut (``retrieve_hyperedges``' rule).
    """
    matrix = np.asarray(vectors)
    norms = np.linalg.norm(matrix, axis=1)
    slack = 2.0 * _dot_bound(matrix.shape[1], matrix.dtype) * norms * norms.max()
    step = max(1, _DONOR_BYTES // (matrix.itemsize * len(matrix)))
    nearest = []
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        approx = _dots(matrix[block], matrix)
        approx[np.arange(len(block)), block] = -np.inf
        # ``~(x < cut)`` also keeps NaN scores, and a NaN cut keeps every
        # column, which is then scored as the pairwise loop has it
        cuts = approx.max(axis=1) - slack[block]
        for i, scores, cut in zip(block, approx, cuts):
            best: tuple[float, int] | None = None
            for j in np.flatnonzero(~(scores < cut)).tolist():
                if j != i:
                    sim = float(np.dot(vectors[i], vectors[j]))
                    if best is None or sim > best[0]:
                        best = (sim, j)
            nearest.append(best)
    return nearest


def _dots(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Each of ``rows`` dotted with each row of ``matrix``, in one matrix
    product: the donor filter's scores."""
    return rows @ matrix.T


def _dot_bound(dim: int, dtype: np.dtype) -> float:
    """Bound, per unit of ``||v|| * ||w||``, on how far two dot products of
    the same ``dim``-vectors of ``dtype``, summed in any order, can differ.

    Each lies within gamma_dim = dim * u / (1 - dim * u) of the true product,
    u being half of ``dtype``'s epsilon, with or without fused multiply-adds;
    ``(dim + 2) * eps`` covers twice that while ``dim * (dim + 2) * eps`` is
    at most 4 (``dim`` up to 10**8 in float64). Gradual underflow is not
    covered, so vectors with norms below about 1e-150 are outside the bound.
    """
    return (dim + 2) * float(np.finfo(dtype).eps)


def load_records(path: str | Path) -> list[PatientRecord]:
    """Read ``cases.jsonl``: one JSON object of free attributes per patient."""
    return read_jsonl(path, PatientRecord.from_raw)
