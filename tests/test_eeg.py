import json
import math

import numpy as np
import pytest

import eegrag.eeg as eeg_module
from eegrag.cases import CaseStore
from eegrag.config import PipelineConfig
from eegrag.eeg import (
    _dtw_rows,
    _paa_plan,
    Channel,
    EegRecording,
    EegVectorDatabase,
    PaaEmbedding,
    dtw,
    eeg_embed,
    load_recording,
    paa,
    recording_from_dict,
    zscore,
)
from eegrag.errors import ComparabilityError, NotFoundError, PreconditionError, StoreSealedError
from eegrag.hypergraph import BipartiteStore
from eegrag.pipeline import Pipeline

from conftest import dtw_python, eeg_topk_oracle, rewrite_row


def float64_recurrence(a: np.ndarray, b: np.ndarray, w: int) -> np.float64:
    """The banded DTW recurrence evaluated on numpy float64 scalars."""
    prev = [np.float64(0.0)] + [np.float64(math.inf)] * b.size
    for i in range(1, a.size + 1):
        cur = [np.float64(math.inf)] * (b.size + 1)
        for j in range(max(1, i - w), min(b.size, i + w) + 1):
            best = min(prev[j - 1], prev[j], cur[j - 1])
            cur[j] = np.abs(a[i - 1] - b[j - 1]) + best
        prev = cur
    return prev[b.size]


def paa_oracle(x: np.ndarray, n: int) -> np.ndarray:
    """Independent fractional-PAA oracle: upsample each sample n times, then
    average contiguous blocks of length T. Exactly equivalent to integrating
    the sample step function over the n equal subintervals."""
    x = np.asarray(x, dtype=np.float64)
    return np.repeat(x, n).reshape(n, x.size).mean(axis=1)


def paa_per_segment(x, n: int) -> np.ndarray:
    """``paa`` as it was before its segment weights were cached: the bit-exact oracle."""
    x = np.asarray(x, dtype=np.float64)
    t = x.size
    out = np.empty(n, dtype=np.float64)
    for j in range(n):
        a = j * t / n
        b = (j + 1) * t / n
        i0 = min(int(math.floor(a)), t - 1)
        i1 = min(int(math.ceil(b)), t)
        idx = np.arange(i0, i1, dtype=np.float64)
        weights = np.minimum(b, idx + 1.0) - np.maximum(a, idx)
        weights = np.clip(weights, 0.0, None)
        out[j] = float(np.dot(weights, x[i0:i1]) / weights.sum())
    return out


def dtw_oracle(a, b) -> float:
    """Exhaustive warping-path enumeration (only viable for short inputs)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    best = [math.inf]

    def walk(i: int, j: int, cost: float) -> None:
        cost += abs(a[i] - b[j])
        if cost >= best[0]:
            return
        if i == len(a) - 1 and j == len(b) - 1:
            best[0] = cost
            return
        if i + 1 < len(a) and j + 1 < len(b):
            walk(i + 1, j + 1, cost)
        if i + 1 < len(a):
            walk(i + 1, j, cost)
        if j + 1 < len(b):
            walk(i, j + 1, cost)

    walk(0, 0, 0.0)
    return best[0]


def make_recording(arrays, rec_id="rec", patient=None) -> EegRecording:
    channels = [Channel(f"ch{i}", np.asarray(arr, dtype=float)) for i, arr in enumerate(arrays)]
    return EegRecording(id=rec_id, sample_rate=100.0, channels=channels, patient_hash=patient)


class TestPaa:
    def test_even_split_segment_means(self):
        np.testing.assert_allclose(paa([1, 2, 3, 4], 2), [1.5, 3.5])

    def test_constant_series_fixed_point(self):
        for n in (1, 2, 3, 7):
            np.testing.assert_allclose(paa([2.5] * 5, n), [2.5] * n, atol=1e-12)

    def test_fractional_example(self):
        # segment 1 covers sample 1 fully and sample 2 half: (1 + 0.5*2)/1.5
        np.testing.assert_allclose(paa([1, 2, 3], 2), [4 / 3, 8 / 3], atol=1e-9)
        np.testing.assert_allclose(paa([1, 2, 3], 2), paa_oracle([1, 2, 3], 2), atol=1e-9)

    def test_identity_when_n_equals_t(self):
        x = np.array([3.0, -1.0, 4.0, 1.5])
        np.testing.assert_array_equal(paa(x, 4), x)

    def test_upsampling_replicates_proportionally(self):
        np.testing.assert_allclose(paa([1.0, 3.0], 4), [1.0, 1.0, 3.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(paa([1.0, 3.0], 3), [1.0, 2.0, 3.0], atol=1e-9)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            t = int(rng.integers(1, 40))
            n = int(rng.integers(1, 25))
            x = rng.normal(size=t)
            np.testing.assert_allclose(paa(x, n), paa_oracle(x, n), atol=1e-9)

    def test_length_weighted_mean_preserved(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            t = int(rng.integers(1, 50))
            n = int(rng.integers(1, 30))
            x = rng.normal(size=t) * 10
            out = paa(x, n)
            assert out.shape == (n,)
            assert abs(out.mean() - x.mean()) < 1e-9

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            paa([], 2)
        with pytest.raises(PreconditionError):
            paa([1.0], 0)
        with pytest.raises(PreconditionError, match="paa expects a 1-D series"):
            paa([[1.0, 2.0]], 1)


class TestPaaPlan:
    def test_bit_identical_to_per_segment_weights(self):
        rng = np.random.default_rng(36)
        # T = 1, n > T, n = T and T % n != 0 all occur, at magnitudes 1e-8 to 1e8.
        # Four series per (T, n) reuse its cached plan, and many lengths share
        # an n, so a plan keyed by n alone would be reused wrongly.
        pairs = [(1, 1), (1, 7), (3, 2), (5, 5), (7, 3), (512, 20), (20, 512), (13, 13)]
        pairs += [(int(rng.integers(1, 161)), int(rng.integers(1, 17))) for _ in range(2_500)]
        for t, n in pairs:
            for _ in range(4):
                x = rng.normal(size=t) * 10.0 ** rng.uniform(-8.0, 8.0)
                assert paa(x, n).tobytes() == paa_per_segment(x, n).tobytes(), (t, n)

    def test_weights_are_read_only(self):
        for i0, i1, weights, total in _paa_plan(10, 3):
            assert not weights.flags.writeable
            assert weights.shape == (i1 - i0,)
            assert total == weights.sum()
            with pytest.raises(ValueError):
                weights[0] = 2.0

    def test_one_plan_serves_every_channel_of_a_recording(self):
        rec = make_recording(np.random.default_rng(37).normal(size=(4, 509)))
        _paa_plan.cache_clear()
        eeg_embed(rec, 11)
        info = _paa_plan.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert _paa_plan(509, 11) is _paa_plan(509, 11)

    def test_numpy_integer_segment_count_shares_the_plan(self):
        x = np.arange(9.0)
        assert paa(x, np.int64(4)).tobytes() == paa(x, 4).tobytes()
        with pytest.raises(TypeError):
            paa(x, 4.0)


class TestZscore:
    def test_centers_and_scales(self):
        z = zscore([1.0, 2.0, 3.0])
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0, abs=1e-12)

    def test_flat_channel_becomes_zero(self):
        np.testing.assert_array_equal(zscore([5.0] * 8), np.zeros(8))


class TestEegEmbed:
    def test_constant_channel_embeds_to_zeros(self):
        rec = make_recording([[4.0, 4.0, 4.0, 4.0]])
        np.testing.assert_array_equal(eeg_embed(rec, 2).values, [0.0, 0.0])

    def test_shape_and_channel_order(self):
        rec = make_recording([[1, 2, 3, 4], [10, 20, 30, 40]])
        emb = eeg_embed(rec, 2)
        assert emb.values.shape == (4,)
        assert emb.channel_order == ["ch0", "ch1"]
        np.testing.assert_allclose(emb.values[:2], paa(zscore([1, 2, 3, 4]), 2))

    def test_value_level_golden_via_independent_pipeline(self):
        rng = np.random.default_rng(33)
        arrays = rng.normal(size=(3, 17))
        rec = make_recording(arrays)
        emb = eeg_embed(rec, 5)
        expected = []
        for arr in arrays:
            std = arr.std()
            z = (arr - arr.mean()) / std
            expected.append(paa_oracle(z, 5))
        np.testing.assert_allclose(emb.values, np.concatenate(expected), atol=1e-9)

    def test_affine_invariance_per_channel(self):
        rng = np.random.default_rng(34)
        arrays = rng.normal(size=(2, 30))
        rec = eeg_embed(make_recording(arrays), 6).values
        scaled = eeg_embed(
            make_recording([3.7 * arrays[0] + 11.0, 0.02 * arrays[1] - 5.0]), 6
        ).values
        np.testing.assert_allclose(rec, scaled, atol=1e-9)

    def test_every_channel_is_within_the_stored_mean_square_bound(self):
        # the bound EegVectorDatabase.load holds every stored row to
        rng = np.random.default_rng(35)
        for _ in range(2000):
            t, n = rng.integers(1, 300), rng.integers(1, 60)
            samples = rng.standard_normal(t) * 10.0 ** rng.integers(-3, 6) + rng.integers(-1000, 1000)
            values = eeg_embed(make_recording([samples]), n).values
            assert np.mean(np.square(values)) <= eeg_module._MAX_MEAN_SQUARE, (t, n)


class TestRecordingValidation:
    def test_ragged_channels_rejected(self):
        with pytest.raises(PreconditionError):
            make_recording([[1, 2, 3], [1, 2]])

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(PreconditionError):
            make_recording([])
        with pytest.raises(PreconditionError):
            make_recording([[]])
        with pytest.raises(PreconditionError):
            make_recording([[1.0, float("nan")]])

    def test_json_round_trip(self, tmp_path):
        obj = {
            "id": "r1",
            "patient_hash": "abc",
            "sample_rate": 250.0,
            "channels": [{"name": "Fp1", "samples": [1.0, 2.0]}],
        }
        path = tmp_path / "r1.json"
        path.write_text(json.dumps(obj))
        rec = load_recording(path)
        assert rec.id == "r1" and len(rec.channels) == 1 and rec.channels[0].samples.shape[0] == 2

    def test_malformed_object(self):
        with pytest.raises(PreconditionError):
            recording_from_dict({"id": "x"})

    def test_the_recording_converts_its_channels(self):
        channel = Channel("Fp1", [1, 2, 3])
        assert channel.samples == [1, 2, 3]  # a lone Channel is not converted
        rec = EegRecording("r", 256, [channel])
        assert rec.sample_rate == 256.0 and isinstance(rec.sample_rate, float)
        assert rec.channels[0].samples.dtype == np.float64
        np.testing.assert_array_equal(rec.channels[0].samples, [1.0, 2.0, 3.0])


class TestZscoreOverflow:
    def test_zscore_raises_instead_of_warning(self):
        with pytest.raises(FloatingPointError):
            zscore([1e308, 0.0, 1.0])

    @pytest.mark.parametrize(
        "samples",
        [[1e308, 1e308, -1e308] * 4, [1e308] + [0.5] * 11, [-1e308] + [0.5] * 11],
        ids=["mean-overflows", "huge-sample", "huge-negative-sample"],
    )
    def test_eeg_embed_names_the_channel(self, samples):
        rec = make_recording([np.arange(12.0), samples])
        with pytest.raises(PreconditionError, match="channel 'ch1' cannot be z-scored: overflow"):
            eeg_embed(rec, 4)

    def test_valid_channels_still_embed(self):
        rec = make_recording([[1e150, -1e150, 0.0, 5e149], [1.0, 1.0, 1.0, 1.0]])
        values = eeg_embed(rec, 2).values
        assert np.isfinite(values).all() and not values[2:].any()


class TestDtw:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            s = rng.normal(size=int(rng.integers(1, 20)))
            assert dtw(s, s) == 0.0

    def test_single_cell(self):
        assert dtw([0.0], [5.0]) == 5.0

    def test_warped_duplicate_costs_nothing(self):
        assert dtw([1, 2, 3], [1, 2, 2, 3]) == 0.0

    def test_exhaustive_oracle_short_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a = rng.integers(-3, 4, size=int(rng.integers(1, 7))).astype(float)
            b = rng.integers(-3, 4, size=int(rng.integers(1, 7))).astype(float)
            assert dtw(a, b) == dtw_oracle(a, b)

    def test_properties_medium_lengths(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(1, 65))
            a = rng.normal(size=n)
            b = rng.normal(size=int(rng.integers(1, 65)))
            d = dtw(a, b)
            assert d >= 0.0
            assert d == dtw(b, a)
        for _ in range(20):
            n = int(rng.integers(1, 65))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            assert dtw(a, b) <= np.abs(a - b).sum() + 1e-12

    def test_band_is_widened_to_feasibility(self):
        # |len(a) - len(b)| = 2 > band 0; the band must widen or no path exists
        d = dtw([1.0, 1.0, 1.0], [1.0], band=0)
        assert math.isfinite(d)

    def test_band_zero_equal_lengths_is_diagonal(self):
        rng = np.random.default_rng(44)
        a, b = rng.normal(size=12), rng.normal(size=12)
        assert dtw(a, b, band=0) == pytest.approx(float(np.abs(a - b).sum()))

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            dtw([], [1.0])
        with pytest.raises(PreconditionError):
            dtw([1.0], [1.0], band=-1)

    def test_kernel_equals_the_recurrence_on_float64_scalars(self):
        # the recurrence on numpy float64 scalars, cell by cell, must give
        # the kernel's IEEE results, with and without a band
        rng = np.random.default_rng(46)
        for _ in range(60):
            a = rng.normal(size=int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-6, 6)
            b = rng.normal(size=int(rng.integers(1, 40))) * 10.0 ** rng.uniform(-6, 6)
            band = None if rng.random() < 0.5 else int(rng.integers(0, 10))
            w = max(a.size, b.size) if band is None else max(band, abs(a.size - b.size))
            assert dtw(a, b, band=band) == float64_recurrence(a, b, w)


def random_batch(rng: np.random.Generator):
    """A query ``(C, n)``, rows ``(R, C, m)`` and a band for the kernel: n != m
    in most batches, values at magnitudes 1e-8 to 1e8, or small integers so
    that distances tie exactly."""
    c, r = int(rng.integers(1, 4)), int(rng.integers(1, 7))
    n, m = int(rng.integers(1, 30)), int(rng.integers(1, 30))
    band = None if rng.random() < 0.3 else int(rng.integers(0, 6))
    if rng.random() < 0.3:
        return rng.integers(-3, 4, size=(c, n)) * 1.0, rng.integers(-3, 4, size=(r, c, m)) * 1.0, band
    scale = 10.0 ** rng.uniform(-8.0, 8.0)
    return rng.normal(size=(c, n)) * scale, rng.normal(size=(r, c, m)) * scale, band


class TestBatchedKernel:
    def test_equals_the_scalar_oracle_on_random_batches(self):
        rng = np.random.default_rng(47)
        for _ in range(600):
            query, rows, band = random_batch(rng)
            expected = [dtw_python(query.tolist(), row.tolist(), band) for row in rows]
            assert _dtw_rows(query, rows, band).tolist() == expected

    def test_blocks_sum_in_order_with_each_band_widened(self):
        rng = np.random.default_rng(48)
        for _ in range(50):
            c, n, m = (int(x) for x in rng.integers(1, 12, size=3))
            query, row = rng.normal(size=(c, n)), rng.normal(size=(c, m))
            band = None if rng.random() < 0.5 else int(rng.integers(0, 3))
            expected = 0.0
            for a, b in zip(query, row):
                expected += dtw(a, b, band=band)
            assert _dtw_rows(query, row[None], band).tolist() == [expected]


def fill_db(recordings, n=4) -> EegVectorDatabase:
    db = EegVectorDatabase(n_segments=n)
    for rec in recordings:
        db.insert_recording(rec)
    return db


class TestVectorDatabase:
    def test_insert_and_get_round_trip(self):
        rec = make_recording([[1, 2, 3, 4, 5, 6]], rec_id="r1")
        db = fill_db([rec], n=3)
        np.testing.assert_array_equal(
            db.get("r1").embedding.values, eeg_embed(rec, 3).values
        )

    def test_duplicate_id_rejected(self):
        rec = make_recording([[1, 2, 3]], rec_id="r1")
        db = fill_db([rec])
        with pytest.raises(PreconditionError):
            db.insert_recording(make_recording([[4, 5, 6]], rec_id="r1"))

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_segments_below_one_refused(self, n):
        with pytest.raises(PreconditionError, match="n_segments must be >= 1"):
            EegVectorDatabase(n_segments=n)

    def test_sealed_rejects_insert(self):
        db = fill_db([make_recording([[1, 2, 3]], rec_id="r1")])
        db.seal()
        with pytest.raises(StoreSealedError):
            db.insert_recording(make_recording([[1, 2]], rec_id="r2"))

    def test_retrieval_requires_seal(self):
        db = fill_db([make_recording([[1, 2, 3]], rec_id="r1")])
        with pytest.raises(PreconditionError):
            db.retrieve(make_recording([[1, 2, 3]], rec_id="q"), 1)

    def test_query_identical_to_stored_ranks_first_at_zero(self):
        rng = np.random.default_rng(52)
        recs = [
            make_recording(rng.normal(size=(1, 30)), rec_id=f"r{i}") for i in range(5)
        ]
        db = fill_db(recs, n=6)
        db.seal()
        query = make_recording([recs[2].channels[0].samples], rec_id="q")
        matches = db.retrieve(query, 3)
        assert matches[0].recording_id == "r2"
        assert matches[0].distance == 0.0
        assert matches[0].rank == 1

    def test_k_larger_than_db_returns_all(self):
        recs = [make_recording([[1, 2, 3]], rec_id="r1"), make_recording([[9, 8, 7]], rec_id="r2")]
        db = fill_db(recs)
        db.seal()
        assert len(db.retrieve(make_recording([[1, 2, 3]], rec_id="q"), 10)) == 2

    def test_empty_db_returns_empty(self):
        db = EegVectorDatabase(n_segments=4)
        db.seal()
        assert db.retrieve(make_recording([[1, 2, 3]], rec_id="q"), 3) == []

    def test_channel_count_mismatch(self):
        db = fill_db([make_recording([[1, 2, 3], [4, 5, 6]], rec_id="r1")])
        db.seal()
        with pytest.raises(ComparabilityError):
            db.retrieve(make_recording([[1, 2, 3]], rec_id="q"), 1)

    def test_insert_rejects_another_channel_count(self):
        db = fill_db([make_recording([[1, 2, 3], [4, 5, 6]], rec_id="r1")])
        with pytest.raises(ComparabilityError, match="1 channels x 4 segments; .* holds 2 x 4"):
            db.insert_recording(make_recording([[1, 2, 3]], rec_id="r2"))
        assert list(db.entries) == ["r1"]

    def test_channel_order_is_part_of_the_layout(self):
        # the same two signals in swapped channels, then under other names
        signals = np.random.default_rng(61).normal(size=(2, 12))
        db = fill_db([make_recording(signals, rec_id="r1")])
        swapped = EegRecording("r2", 100.0, [Channel("ch1", signals[1]), Channel("ch0", signals[0])])
        with pytest.raises(ComparabilityError, match=r"channels \['ch1', 'ch0'\]; .* holds \['ch0', 'ch1'\]"):
            db.insert_recording(swapped)
        assert list(db.entries) == ["r1"]
        db.seal()
        renamed = EegRecording("q", 100.0, [Channel("X", signals[0]), Channel("Y", signals[1])])
        with pytest.raises(ComparabilityError, match=r"channels \['X', 'Y'\]"):
            db.retrieve(renamed, 1)
        assert db.retrieve(make_recording(signals, rec_id="q"), 1)[0].distance == 0.0

    @pytest.mark.parametrize("blocked", [False, True])
    def test_query_with_another_segment_count_rejected(self, blocked):
        db = EegVectorDatabase(n_segments=4, channel_blocked=blocked)
        db.insert_recording(make_recording([[1, 2, 3, 4, 5, 6]], rec_id="r1"))
        db.seal()
        query = eeg_embed(make_recording([[1, 2, 3, 4, 5, 6]], rec_id="q"), 3)
        with pytest.raises(ComparabilityError, match="1 channels x 3 segments"):
            db.retrieve_by_embedding(query, 1)
        assert db.retrieve_by_embedding(db.get("r1").embedding, 1)[0].distance == 0.0

    @pytest.mark.parametrize(
        "values, mean_square",
        [([1e308, -1e308, 1e308, -1e308], "inf"), ([2.0, 0.0, 0.0, 1e-3], "1"), ([0.0, 3.0, 0.0, 0.0], "2.25")],
    )
    def test_query_values_past_the_paa_bound_rejected(self, values, mean_square):
        # a library caller's embedding is held to the bound every stored row
        # meets: no channel's mean square above 1 (a row at 1 passes), so
        # DTW cannot overflow
        db = EegVectorDatabase(n_segments=4)
        db.insert_recording(make_recording([[1, 2, 3, 4, 5, 6]], rec_id="r1"))
        db.seal()
        with pytest.raises(PreconditionError, match=f"channel 'ch0' values have mean square {mean_square} > 1"):
            db.retrieve_by_embedding(PaaEmbedding(4, values, ["ch0"]), 2)
        assert db.retrieve_by_embedding(PaaEmbedding(4, [-2.0, 0.0, 0.0, 0.0], ["ch0"]), 1)[0].recording_id == "r1"

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(53)
        db_rng = np.random.default_rng(54)
        recs = [
            make_recording(db_rng.normal(size=(2, 25)), rec_id=f"r{i:03d}")
            for i in range(20)
        ]
        db = fill_db(recs, n=5)
        db.seal()
        query = make_recording(rng.normal(size=(2, 25)), rec_id="q")
        got = db.retrieve(query, 5)
        expected = eeg_topk_oracle(db, eeg_embed(query, 5), 5)
        assert [(m.distance, m.recording_id) for m in got] == expected

    def test_channel_blocked_distance(self):
        rng = np.random.default_rng(55)
        recs = [make_recording(rng.normal(size=(3, 20)), rec_id="r1")]
        db = EegVectorDatabase(n_segments=4, channel_blocked=True)
        db.insert_recording(recs[0])
        db.seal()
        query = make_recording(rng.normal(size=(3, 20)), rec_id="q")
        (match,) = db.retrieve(query, 1)
        q = eeg_embed(query, 4).values.reshape(3, 4)
        s = db.get("r1").embedding.values.reshape(3, 4)
        expected = sum(dtw(q[c], s[c]) for c in range(3))
        assert match.distance == expected

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(56)
        recs = [
            make_recording(rng.normal(size=(2, 15)), rec_id=f"r{i}", patient=f"p{i % 2}")
            for i in range(4)
        ]
        db = fill_db(recs, n=3)
        db.save(tmp_path)
        loaded = EegVectorDatabase.load(tmp_path, n_segments=3)
        (tmp_path / "again").mkdir()
        loaded.save(tmp_path / "again")
        assert (tmp_path / "evd.jsonl").read_bytes() == (tmp_path / "again" / "evd.jsonl").read_bytes()
        assert loaded.n_segments == 3
        assert sorted(loaded.entries) == sorted(db.entries)

    def test_load_rejects_configured_settings_that_differ(self, tmp_path):
        rng = np.random.default_rng(57)
        db = fill_db([make_recording(rng.normal(size=(2, 15)), rec_id="r1")], n=3)
        db.save(tmp_path)
        loaded = EegVectorDatabase.load(tmp_path, n_segments=3)
        assert loaded.n_segments == 3
        with pytest.raises(PreconditionError, match="n_segments 3 != configured 4"):
            EegVectorDatabase.load(tmp_path, n_segments=4)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("normalized", [True]), ("values", "abc"), ("n_segments", 4), ("normalized", False),
            ("values", [0.0] * 5 + [math.nan]), ("values", [math.inf] * 6), ("channel_order", []),
            ("n_segments", 3.0),
            # not the PAA of z-scored channels: a mean square of 9, and one whose square overflows
            ("values", [3.0] * 3 + [0.0] * 3), ("values", [0.0] * 5 + [-1e200]),
        ],
    )
    def test_load_rejects_malformed_row_naming_its_line(self, tmp_path, field, value):
        rng = np.random.default_rng(58)
        recs = [make_recording(rng.normal(size=(2, 15)), rec_id=f"r{i}") for i in range(2)]
        fill_db(recs, n=3).save(tmp_path)
        rewrite_row(tmp_path / "evd.jsonl", 2, field, value)
        with pytest.raises(PreconditionError, match="evd.jsonl: line 2: "):
            EegVectorDatabase.load(tmp_path, n_segments=3)

    def test_load_rejects_another_channel_count_naming_its_line(self, tmp_path):
        rng = np.random.default_rng(59)
        recs = [make_recording(rng.normal(size=(2, 15)), rec_id=f"r{i}") for i in range(3)]
        fill_db(recs, n=3).save(tmp_path)
        rewrite_row(tmp_path / "evd.jsonl", 3, "channel_order", ["ch0"])
        rewrite_row(tmp_path / "evd.jsonl", 3, "values", lambda v: v[:3])
        with pytest.raises(PreconditionError, match="evd.jsonl: line 3: 1 channels x 3 segments"):
            EegVectorDatabase.load(tmp_path, n_segments=3)

    def test_load_rejects_another_channel_order_naming_its_line(self, tmp_path):
        rng = np.random.default_rng(62)
        recs = [make_recording(rng.normal(size=(2, 15)), rec_id=f"r{i}") for i in range(3)]
        fill_db(recs, n=3).save(tmp_path)
        rewrite_row(tmp_path / "evd.jsonl", 2, "channel_order", ["ch1", "ch0"])
        with pytest.raises(PreconditionError, match=r"evd.jsonl: line 2: channels \['ch1', 'ch0'\]"):
            EegVectorDatabase.load(tmp_path, n_segments=3)

    def test_load_of_empty_file_takes_configured_settings(self, tmp_path):
        (tmp_path / "evd.jsonl").write_text("")
        loaded = EegVectorDatabase.load(tmp_path, n_segments=7)
        assert (loaded.n_segments, len(loaded)) == (7, 0)

    @pytest.mark.parametrize("blocked", [False, True])
    def test_query_without_values_is_rejected(self, tmp_path, blocked):
        row = {"id": "r1", "patient_hash": None, "sample_rate": 100.0, "n_segments": 4,
               "normalized": True, "channel_order": [], "values": []}
        (tmp_path / "evd.jsonl").write_text(json.dumps(row) + "\n")
        with pytest.raises(PreconditionError, match="evd.jsonl: line 1: .*one channel"):
            EegVectorDatabase.load(tmp_path, 4, channel_blocked=blocked)
        with pytest.raises(PreconditionError, match="one channel and one segment"):
            PaaEmbedding(4, [], [])


class TestPaaEmbeddingValidity:
    @pytest.mark.parametrize(
        "segments, values, channels",
        [(0, [], ["c"]), (2, [1.0, math.nan], ["c"]), (1, [math.inf], ["c"]),
         (1, [-math.inf, 0.0], ["c", "d"]), (2, [1.0, 2.0, 3.0], ["c"])],
        ids=["no-segment", "nan", "inf", "minus-inf", "wrong-size"],
    )
    def test_invalid_embedding_cannot_be_built(self, segments, values, channels):
        with pytest.raises(PreconditionError):
            PaaEmbedding(segments, values, channels)


def paired_db(band, blocked, seed=56) -> tuple[EegVectorDatabase, np.random.Generator]:
    """Twelve recordings stored twice each under shuffled ids, so every
    distance is an exact tie and ids alone order each pair."""
    rng = np.random.default_rng(seed)
    db = EegVectorDatabase(n_segments=5, band=band, channel_blocked=blocked)
    signals = [rng.normal(size=(2, 25)) for _ in range(12)]
    ids = [f"r{i:03d}" for i in rng.permutation(24)]
    for rec_id, sig in zip(ids, signals + signals[::-1]):
        db.insert_recording(make_recording(sig, rec_id=rec_id))
    db.seal()
    return db, rng


class TestAbandoningScan:
    """The scan's top k equals the oracle's, ties at the k-th distance included."""

    @pytest.mark.parametrize(
        "band, blocked",
        [(None, False), (0, False), (2, False), (None, True), (2, True)],
        ids=["plain", "band0", "band2", "blocked", "blocked-band2"],
    )
    @pytest.mark.parametrize("k", [1, 3, 24, 26])
    def test_matches_the_bruteforce_top_k_with_ties(self, band, blocked, k):
        db, rng = paired_db(band, blocked)
        queries = [db.get(rid).embedding for rid in sorted(db.entries)[::5]]
        queries += [eeg_embed(make_recording(rng.normal(size=(2, 25)), "q"), 5) for _ in range(3)]
        for query in queries:
            got = db.retrieve_by_embedding(query, k)
            expected = eeg_topk_oracle(db, query, k)
            assert [(m.distance, m.recording_id) for m in got] == expected
            assert [m.rank for m in got] == list(range(1, len(expected) + 1))


class TestStoredIdMemo:
    """``retrieve_by_id`` scans a stored recording once per k, then answers from its memo."""

    @pytest.mark.parametrize(
        "band, blocked", [(None, False), (None, True), (2, False)], ids=["plain", "blocked", "band2"]
    )
    @pytest.mark.parametrize("k", [1, 3, 24, 26])
    def test_equals_retrieve_by_embedding_for_every_stored_id(self, band, blocked, k):
        db, _ = paired_db(band, blocked)
        for rid in sorted(db.entries):
            query = db.get(rid).embedding
            expected = db.retrieve_by_embedding(query, k)
            assert [(m.distance, m.recording_id) for m in expected] == eeg_topk_oracle(db, query, k)
            assert db.retrieve_by_id(rid, k) == expected
            assert db.retrieve_by_id(rid, k) == expected  # from the memo
        assert len(db._top_k) == len(db)

    def test_a_repeat_runs_no_dtw(self, monkeypatch):
        db, _ = paired_db(None, False)
        calls = []
        kernel, check = eeg_module._dtw_rows, EegVectorDatabase._check_layout
        monkeypatch.setattr(eeg_module, "_dtw_rows", lambda *args: calls.append("dtw") or kernel(*args))
        monkeypatch.setattr(EegVectorDatabase, "_check_layout", lambda *args: calls.append("check") or check(*args))
        first = db.retrieve_by_id("r005", 3)
        assert calls == ["check", "dtw"]
        assert db.retrieve_by_id("r005", 3) == first
        assert calls == ["check", "dtw"]
        db.retrieve_by_id("r005", 4)  # another k is another entry
        assert calls == ["check", "dtw"] * 2

    def test_a_returned_list_is_the_callers_own(self):
        db, _ = paired_db(None, True)
        first = db.retrieve_by_id("r000", 3)
        expected = list(first)
        first.reverse()
        first.append(first[0])
        assert db.retrieve_by_id("r000", 3) == expected

    def test_refused_questions_store_nothing(self):
        db, _ = paired_db(None, False)
        with pytest.raises(NotFoundError, match="^unknown recording id 'r999'$"):
            db.retrieve_by_id("r999", 3)
        with pytest.raises(PreconditionError, match="k must be >= 1"):
            db.retrieve_by_id("r000", 0)
        assert db._top_k == {}

    def test_a_second_seal_keeps_the_matrix_and_the_memo(self):
        db, _ = paired_db(None, False)
        first = db.retrieve_by_id("r000", 3)
        matrix, memo = db._matrix, dict(db._top_k)
        db.seal()
        config = PipelineConfig.from_mapping({})
        Pipeline(BipartiteStore(config.embedding_dim), CaseStore(), db, config)
        assert db._matrix is matrix and db._top_k == memo and len(memo) == 1
        assert db.retrieve_by_id("r000", 3) == first

    def test_unsealed_database_refused(self):
        db = fill_db([make_recording([[1, 2, 3]], rec_id="r1")])
        with pytest.raises(PreconditionError, match="seal the database before retrieval"):
            db.retrieve_by_id("r1", 1)
        db.seal()
        assert [m.recording_id for m in db.retrieve_by_id("r1", 1)] == ["r1"]


class TestBatchedScan:
    @pytest.mark.parametrize("blocked", [False, True], ids=["plain", "blocked"])
    @pytest.mark.parametrize("scan_rows", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 24, 26])
    def test_chunks_merge_to_the_oracle_top_k(self, monkeypatch, blocked, scan_rows, k):
        # every distance is tied with a twin under a shuffled id, so chunks of
        # 1 to 3 rows split tied pairs, at the k-th distance too
        monkeypatch.setattr(eeg_module, "_SCAN_ROWS", scan_rows)
        db, rng = paired_db(None, blocked)
        queries = [db.get(rid).embedding for rid in sorted(db.entries)[::7]]
        queries += [eeg_embed(make_recording(rng.normal(size=(2, 25)), "q"), 5) for _ in range(2)]
        for query in queries:
            got = db.retrieve_by_embedding(query, k)
            assert [(m.distance, m.recording_id) for m in got] == eeg_topk_oracle(db, query, k)

    def test_entries_view_one_read_only_matrix(self):
        rng = np.random.default_rng(60)
        recs = [make_recording(rng.normal(size=(2, 15)), rec_id=f"r{i}") for i in (3, 1, 2)]
        db = fill_db(recs, n=3)
        before = {rid: e.embedding.values.copy() for rid, e in db.entries.items()}
        db.seal()
        matrix = db._matrix
        assert matrix.shape == (3, 6) and not matrix.flags.writeable
        for row, rid in enumerate(sorted(db.entries)):
            values = db.get(rid).embedding.values
            assert np.shares_memory(values, matrix)
            assert values.tobytes() == matrix[row].tobytes() == before[rid].tobytes()
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            db.get("r1").embedding.values[0] = 1.0
