"""EEG vector database: PAA compression, DTW distance, top-K retrieval.

Recordings are compressed channel-by-channel with Piecewise Aggregate
Approximation (Keogh et al., 2001) after per-channel z-scoring, and the
per-channel segment means are concatenated into one vector. Similarity
search runs Dynamic Time Warping over those compressed vectors against
every stored entry (exhaustive scan; exact at desk scale).

Raw EDF/BDF parsing is out of scope; recordings enter as JSON files shaped

    {"id": "rec-001", "patient_hash": "ab12...", "sample_rate": 256.0,
     "channels": [{"name": "Fp1", "samples": [..]}, ...]}

with every channel carrying the same number of finite samples.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (
    ComparabilityError,
    NotFoundError,
    PreconditionError,
    StoreSealedError,
)
from .jsonl import float_array, int_field, read_json, read_jsonl, shown, str_field, str_list, write_jsonl


# -- recordings ---------------------------------------------------------------


@dataclass
class Channel:
    name: str
    samples: np.ndarray


def _recording_fields(rec_id, sample_rate, patient_hash) -> float:
    """The rules a recording and a stored entry share; returns ``sample_rate`` as a float."""
    if not str_field(rec_id, "id"):
        raise PreconditionError("recording id must be non-empty")
    str_field(patient_hash, "patient_hash", optional=True)
    # an int beyond the largest float would overflow float(); NaN fails both comparisons
    if isinstance(sample_rate, (int, float)) and not isinstance(sample_rate, bool):
        if 0 < sample_rate <= sys.float_info.max:
            return float(sample_rate)
    raise PreconditionError(f"sample_rate is {shown(sample_rate)}, not a finite number > 0")


@dataclass
class EegRecording:
    """A multichannel recording: C channels over T samples each, built valid or not at all: see
    ``_recording_fields``, and a list of ``Channel``s, each a string name and T > 0 finite samples."""

    id: str
    sample_rate: float
    channels: list[Channel]
    patient_hash: str | None = None

    def __post_init__(self):
        self.sample_rate = _recording_fields(self.id, self.sample_rate, self.patient_hash)
        if not isinstance(self.channels, list) or not self.channels:
            raise PreconditionError("recording must have a list of one or more channels")
        for ch in self.channels:
            if not isinstance(ch, Channel):
                raise PreconditionError(f"channel is a {type(ch).__name__}, not a Channel")
            str_field(ch.name, "channel name")
            ch.samples = float_array(ch.samples, f"channel {ch.name!r} samples")
            if not ch.samples.size:
                raise PreconditionError(f"channel {ch.name!r} has no samples")
        lengths = {ch.samples.size for ch in self.channels}
        if len(lengths) != 1:
            raise PreconditionError(f"channels have differing lengths: {sorted(lengths)}")

    @property
    def channel_names(self) -> list[str]:
        return [ch.name for ch in self.channels]


def recording_from_dict(obj: dict) -> EegRecording:
    try:
        channels = [Channel(ch["name"], ch["samples"]) for ch in obj["channels"]]
        return EegRecording(obj["id"], obj["sample_rate"], channels, obj.get("patient_hash"))
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed recording object: {exc}") from exc


def load_recording(path: str | Path) -> EegRecording:
    return read_json(path, recording_from_dict)


# -- piecewise aggregate approximation ----------------------------------------


# distinct (T, n) pairs whose plan is kept; one ingest or server sees a few
_PAA_PLANS = 16


@lru_cache(maxsize=_PAA_PLANS)
def _paa_plan(t: int, n: int) -> tuple[tuple[int, int, np.ndarray, np.float64], ...]:
    """``(i0, i1, weights, weights.sum())`` of each of ``paa``'s n segments of T samples.

    The weights depend on T and n only, so one read-only plan serves every
    channel of every recording of that length, from any thread.
    """
    plan = []
    for j in range(n):
        a = j * t / n
        b = (j + 1) * t / n
        i0 = min(int(math.floor(a)), t - 1)
        i1 = min(int(math.ceil(b)), t)
        idx = np.arange(i0, i1, dtype=np.float64)
        weights = np.minimum(b, idx + 1.0) - np.maximum(a, idx)
        weights = np.clip(weights, 0.0, None)
        weights.flags.writeable = False
        plan.append((i0, i1, weights, weights.sum()))
    return tuple(plan)


def paa(series, n: int) -> np.ndarray:
    """Compress a series of length T into n segment means.

    Segment j covers the real interval [j*T/n, (j+1)*T/n); each sample
    contributes to a segment proportionally to its overlap with that
    interval, so T need not be divisible by n and n may exceed T (samples
    are then replicated proportionally). The segment-length-weighted mean
    of the output equals the input mean.

    Each segment is one ``np.dot`` of its cached weights (``_paa_plan``).
    A weight-matrix product would round differently and change the output.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise PreconditionError("paa expects a 1-D series")
    if x.size == 0:
        raise PreconditionError("paa input must be non-empty")
    if n < 1:
        raise PreconditionError("segment count must be >= 1")
    plan = _paa_plan(x.size, operator.index(n))
    return np.array([float(np.dot(w, x[i0:i1]) / total) for i0, i1, w, total in plan])


def zscore(series) -> np.ndarray:
    """Center and scale a channel; a flat channel (std < 1e-12) becomes zeros.

    Finite samples whose mean or spread overflows a float raise
    ``FloatingPointError``, not a warning and a vector of zeros or NaNs.
    """
    x = np.asarray(series, dtype=np.float64)
    with np.errstate(over="raise", invalid="raise"):
        std = float(x.std())
        if std < 1e-12:
            return np.zeros_like(x)
        return (x - x.mean()) / std


# z-scoring gives a channel of T samples a sum of squares of T, and PAA's
# weights sum to T/n per segment and to 1 per sample, so by Jensen the n
# segment means ``eeg_embed`` stores have a mean square of at most 1, up to
# rounding; a row within it holds no value above sqrt(n), so DTW cannot overflow
_MAX_MEAN_SQUARE = 1.0 + 1e-9


@dataclass
class PaaEmbedding:
    """Channel-major concatenation of per-channel PAA vectors (length C*n); built
    valid (string channel names, a channel, a segment, finite values) or not at all."""

    segments_per_channel: int
    values: np.ndarray
    channel_order: list[str]

    def __post_init__(self):
        self.values = float_array(self.values, "embedding values")
        self.channel_order = str_list(self.channel_order, "channel_order")
        if not self.channel_order or self.segments_per_channel < 1:
            raise PreconditionError("embedding needs at least one channel and one segment")
        expected = self.segments_per_channel * len(self.channel_order)
        if self.values.shape != (expected,):
            raise PreconditionError(
                f"embedding has {self.values.size} values, expected "
                f"{len(self.channel_order)} channels x {self.segments_per_channel} segments"
            )

    @property
    def n_channels(self) -> int:
        return len(self.channel_order)


def eeg_embed(rec: EegRecording, n: int) -> PaaEmbedding:
    """Per-channel z-score, PAA, then concatenation.

    Z-scoring makes the embedding exactly invariant to per-channel gain and
    offset, which otherwise dominate DTW distances between electrodes. A
    channel that ``zscore`` cannot scale is refused, naming it.
    """
    values = []
    for ch in rec.channels:
        try:
            values.append(paa(zscore(ch.samples), n))
        except FloatingPointError as exc:
            raise PreconditionError(f"channel {ch.name!r} cannot be z-scored: {exc}") from None
    return PaaEmbedding(n, np.concatenate(values), rec.channel_names)


# -- dynamic time warping ------------------------------------------------------


# rows of the stored matrix one wavefront scores at once; bounds its buffers
# to (n + 1) x _SCAN_ROWS x C floats each
_SCAN_ROWS = 256


def _dtw_rows(query: np.ndarray, rows: np.ndarray, band: int | None) -> np.ndarray:
    """The banded DTW of ``query`` to each of ``rows``, summed over channel blocks.

    ``query`` is ``(C, n)`` and ``rows`` is ``(R, C, m)``: block c of a row
    is compared with block c of the query, and a row's C distances are
    summed in channel order. Each block's band is ``band`` widened to
    |n - m| (``None``: unbounded).

    The recurrence runs one anti-diagonal s = i + j at a time over every
    row and block: cell (i, j) reads (i-1, j-1) from diagonal s-2 and
    (i-1, j), (i, j-1) from s-1, and the band is the index range
    ceil((s-w)/2) <= i <= floor((s+w)/2). Each cell is |a_i - b_j| +
    min(diag, up, left), as in the row-by-row recurrence; its inputs are
    non-negative and finite or inf, so the min does not depend on the order
    it compares them in, and every distance is that recurrence's to the bit.
    """
    c, n = query.shape
    r, _, m = rows.shape
    w = max(n, m) if band is None else max(band, abs(n - m))
    q = np.ascontiguousarray(query.T)[:, None, :]  # (n, 1, C)
    rev = np.ascontiguousarray(rows[:, :, ::-1].transpose(2, 0, 1))  # rev[m-j] is b_j, (m, R, C)
    # diagonals indexed by i; entries outside a diagonal's band stay inf
    prev2 = np.full((n + 1, r, c), math.inf)
    prev2[0] = 0.0  # diagonal 0: D(0, 0)
    prev1 = np.full((n + 1, r, c), math.inf)
    cur = np.full((n + 1, r, c), math.inf)
    best = np.empty((n, r, c))
    cost = np.empty((n, r, c))
    for s in range(2, n + m + 1):
        lo = max(1, s - m, (s - w + 1) // 2)
        hi = min(n, s - 1, (s + w) // 2)
        # the next two diagonals read this one from lo-1 up; lo and hi never
        # decrease with s, so this buffer's cells above hi were never written
        # and only cur[lo-1] can hold a finite value from three diagonals back
        cur[lo - 1] = math.inf
        if lo <= hi:
            k = hi - lo + 1
            np.minimum(prev2[lo - 1 : hi], prev1[lo - 1 : hi], out=best[:k])
            np.minimum(best[:k], prev1[lo : hi + 1], out=best[:k])
            np.subtract(q[lo - 1 : hi], rev[m - s + lo : m - s + hi + 1], out=cost[:k])
            np.abs(cost[:k], out=cost[:k])
            np.add(cost[:k], best[:k], out=cur[lo : hi + 1])
        prev2, prev1, cur = prev1, cur, prev2
    total = np.zeros(r)
    for block in range(c):
        total += prev1[n, :, block]
    return total


def dtw(a, b, band: int | None = None) -> float:
    """Classic DTW distance with |a_i - b_j| local cost.

    Allowed steps are (i-1,j), (i,j-1), (i-1,j-1) (Sakoe & Chiba, 1978).
    ``band`` restricts the warping path to |i - j| <= band; it is widened to
    |len(a) - len(b)| when narrower, since no path exists below that.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise PreconditionError("dtw inputs must be non-empty")
    if band is not None and band < 0:
        raise PreconditionError("band width must be >= 0")
    return float(_dtw_rows(a[None, :], b[None, None, :], band)[0])


# -- the vector database -------------------------------------------------------


@dataclass
class EvdEntry:
    """Stored recording metadata plus its compressed embedding."""

    id: str
    patient_hash: str | None
    sample_rate: float
    embedding: PaaEmbedding


@dataclass(frozen=True, slots=True)
class EegMatch:
    recording_id: str
    patient_hash: str | None
    distance: float
    rank: int


@dataclass
class EegVectorDatabase:
    """Exhaustive DTW search over PAA-compressed recordings.

    Build phase is single-writer; ``seal()`` freezes the database and
    enables retrieval. One database holds one layout: the first stored
    recording's channels, by name and in order, with ``n_segments`` each,
    are every other recording's and every query's, so a column of the
    sealed matrix is one channel's segment in every row. ``channel_blocked``
    switches DTW from one pass over the whole concatenated vector to one
    pass per channel block with the distances summed, which forbids warping
    across channel boundaries.
    """

    FILE = "evd.jsonl"

    n_segments: int = 20
    band: int | None = None
    channel_blocked: bool = False
    entries: dict[str, EvdEntry] = field(default_factory=dict, init=False)

    def __post_init__(self):
        if self.n_segments < 1:
            raise PreconditionError("n_segments must be >= 1")
        self._sealed = False

    def __len__(self) -> int:
        return len(self.entries)

    def insert_recording(self, rec: EegRecording) -> str:
        emb = eeg_embed(rec, self.n_segments)
        self._add(EvdEntry(rec.id, rec.patient_hash, rec.sample_rate, emb))
        return rec.id

    def _check_layout(self, emb: PaaEmbedding) -> None:
        """Raise ``ComparabilityError`` unless ``emb`` has the stored layout,
        and ``PreconditionError`` unless each channel's values have a mean
        square of at most ``_MAX_MEAN_SQUARE``, as the PAA of a z-scored
        channel has; every stored row and every query passes here."""
        first = next(iter(self.entries.values()), None)
        channels = emb.channel_order if first is None else first.embedding.channel_order
        if (emb.n_channels, emb.segments_per_channel) != (len(channels), self.n_segments):
            raise ComparabilityError(
                f"{emb.n_channels} channels x {emb.segments_per_channel} segments; "
                f"the EEG database holds {len(channels)} x {self.n_segments}"
            )
        if emb.channel_order != channels:
            raise ComparabilityError(
                f"channels {emb.channel_order}; the EEG database holds {channels}"
            )
        with np.errstate(over="ignore"):  # a square past the largest float is inf, and refused
            sum_sq = np.square(emb.values.reshape(-1, self.n_segments)).sum(axis=1)
        worst = int(sum_sq.argmax())
        if sum_sq[worst] > self.n_segments * _MAX_MEAN_SQUARE:
            raise PreconditionError(
                f"channel {channels[worst]!r} values have mean square "
                f"{sum_sq[worst] / self.n_segments:.6g} > 1, so they are not the PAA of a z-scored channel"
            )

    def _add(self, entry: EvdEntry) -> None:
        """The one writer of ``entries``: into an unsealed database, a new
        non-empty string id, a string or null ``patient_hash``, a finite
        ``sample_rate`` > 0 (made a float), and an embedding that
        ``_check_layout`` passes."""
        if self._sealed:
            raise StoreSealedError("EEG database is sealed")
        entry.sample_rate = _recording_fields(entry.id, entry.sample_rate, entry.patient_hash)
        if entry.id in self.entries:
            raise PreconditionError(f"duplicate recording id {entry.id!r}")
        self._check_layout(entry.embedding)
        self.entries[entry.id] = entry

    def get(self, recording_id: str) -> EvdEntry:
        try:
            return self.entries[recording_id]
        except KeyError:
            raise NotFoundError(f"unknown recording id {shown(recording_id)}") from None

    def seal(self) -> None:
        """Freeze the database and stack its embeddings into one read-only matrix.

        Rows are in ascending id order, and every entry's ``values`` becomes
        a view of its row, so each vector is held once. Sealing a sealed
        database keeps its matrix and its ``retrieve_by_id`` memo.
        """
        if self._sealed:
            return
        self._ids = sorted(self.entries)
        embeddings = [self.entries[rid].embedding for rid in self._ids]
        self._matrix = np.vstack([e.values for e in embeddings]) if embeddings else np.empty((0, 0))
        self._matrix.flags.writeable = False
        for emb, row in zip(embeddings, self._matrix):
            emb.values = row
        self._top_k: dict[tuple[str, int], tuple[EegMatch, ...]] = {}
        self._sealed = True

    def retrieve_by_embedding(self, query: PaaEmbedding, k: int) -> list[EegMatch]:
        """The k smallest ``(distance, id)`` over every entry, ties by ascending id.

        Every in-band cell of every entry is computed, ``_SCAN_ROWS`` rows
        of the sealed matrix per wavefront; rows are in id order, so a
        stable sort of the distances breaks ties by id.
        """
        if not self._sealed:
            raise PreconditionError("seal the database before retrieval")
        if k < 1:
            raise PreconditionError("k must be >= 1")
        if not self.entries:
            return []
        self._check_layout(query)
        blocks = query.n_channels if self.channel_blocked else 1
        q = query.values.reshape(blocks, -1)
        rows = self._matrix.reshape(len(self._ids), blocks, -1)
        distances = np.concatenate(
            [
                _dtw_rows(q, rows[start : start + _SCAN_ROWS], self.band)
                for start in range(0, len(rows), _SCAN_ROWS)
            ]
        )
        top = np.argsort(distances, kind="stable")[:k].tolist()
        return [
            EegMatch(self._ids[row], self.entries[self._ids[row]].patient_hash, float(distances[row]), rank)
            for rank, row in enumerate(top, start=1)
        ]

    def retrieve_by_id(self, recording_id: str, k: int) -> list[EegMatch]:
        """``retrieve_by_embedding`` of stored recording ``recording_id``'s embedding.

        That top-k depends only on the sealed matrix, ``band`` and
        ``channel_blocked``, so the first question about a recording keeps
        it, keyed by ``(recording_id, k)``, and a repeat skips DTW. The memo
        is the one write after ``seal()``; a single dict get or set needs no
        lock, and a race only computes equal matches twice.
        """
        if not self._sealed:
            raise PreconditionError("seal the database before retrieval")
        top = self._top_k.get((recording_id, k))
        if top is None:
            top = tuple(self.retrieve_by_embedding(self.get(recording_id).embedding, k))
            self._top_k[recording_id, k] = top
        return list(top)

    def retrieve(self, query: EegRecording, k: int) -> list[EegMatch]:
        """Top-K stored recordings by ascending DTW distance (ties by id)."""
        emb = eeg_embed(query, self.n_segments)
        return self.retrieve_by_embedding(emb, k)

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """One JSON object per entry, sorted by recording id."""
        write_jsonl(
            Path(directory) / self.FILE,
            (
                {
                    "id": e.id,
                    "patient_hash": e.patient_hash,
                    "sample_rate": e.sample_rate,
                    "n_segments": e.embedding.segments_per_channel,
                    "normalized": True,
                    "channel_order": e.embedding.channel_order,
                    "values": e.embedding.values.tolist(),
                }
                for _, e in sorted(self.entries.items())
            ),
        )

    @classmethod
    def load(
        cls,
        directory: str | Path,
        n_segments: int,
        band: int | None = None,
        channel_blocked: bool = False,
    ) -> "EegVectorDatabase":
        """The embeddings saved under ``directory`` with ``n_segments``; none without ``FILE``.

        A row embedded under other settings, whose embedding is invalid (see
        ``PaaEmbedding``), or that ``_add`` refuses (a layout other than the
        stored one, or values that are not the PAA of z-scored channels) is
        rejected, naming its line.
        """

        def entry(row: dict) -> EvdEntry:
            if row["normalized"] is not True:
                raise PreconditionError(f"normalized is {row['normalized']!r}, not true")
            if int_field(row["n_segments"], "n_segments") != n_segments:
                raise PreconditionError(
                    f"EEG database n_segments {row['n_segments']} != configured {n_segments}"
                )
            emb = PaaEmbedding(n_segments, row["values"], row["channel_order"])
            return EvdEntry(row["id"], row["patient_hash"], row["sample_rate"], emb)

        path = Path(directory) / cls.FILE
        db = cls(n_segments, band, channel_blocked)
        if path.exists():
            read_jsonl(path, lambda row: db._add(entry(row)))
        return db
