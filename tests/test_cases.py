import contextlib
import io
import json
import re
import shutil
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eegrag.cases as cases_module
from eegrag.cases import (
    CaseStore,
    FillRecord,
    PatientCase,
    PatientRecord,
    augment_pseudo_cases,
    case_id,
    embed_case,
    load_records,
    serialize_case,
)
from eegrag.cli import main
from eegrag.embedding import HashedTokenEmbedder
from eegrag.errors import PreconditionError, StoreSealedError
from eegrag.hashing import fnv1a64_text

from conftest import FIXTURES, rewrite_row

EMB = HashedTokenEmbedder(64)


def record(**attrs) -> PatientRecord:
    return PatientRecord.from_raw(attrs)


class TestSerializeCase:
    def test_sorted_rendering(self):
        assert serialize_case(record(sex="F", age="34")) == "age=34;sex=F"

    def test_trimming_and_collapse(self):
        assert serialize_case(record(age="  34 ")) == "age=34"
        assert serialize_case(record(history="two  years   ago")) == "history=two years ago"

    def test_empty_record_rejected(self):
        with pytest.raises(PreconditionError):
            serialize_case({})

    def test_multivalued_attributes_keep_order(self):
        rec = record(symptoms=["tremor", "rigidity"])
        assert serialize_case(rec) == "symptoms=tremor,rigidity"

    @given(
        st.dictionaries(
            st.text(alphabet="abcdefg", min_size=1, max_size=5),
            st.text(alphabet="xyz 01", min_size=0, max_size=8),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rendering_is_deterministic_and_sorted(self, attrs):
        rec = PatientRecord.from_raw(attrs)
        rendered = serialize_case(rec)
        assert rendered == serialize_case(rec)
        names = [part.split("=", 1)[0] for part in rendered.split(";")]
        assert names == sorted(names)


class TestFromRaw:
    def test_names_and_values_are_collapsed_once_so_the_hash_matches(self):
        rec = PatientRecord.from_raw({"age": " 34 ", " sex": "F", "past  history": ["a  b", 3]})
        assert rec.attributes == {"age": ["34"], "sex": ["F"], "past history": ["a b", "3"]}
        store = build_store(rec)
        (case,) = store.cases.values()
        assert case.h == case_id(case.canonical) == case_id("age=34;past history=a b,3;sex=F")
        assert case.attributes == rec.attributes

    def test_names_that_collapse_alike_are_rejected(self):
        with pytest.raises(PreconditionError, match="attribute 'a ' repeats the name 'a'"):
            PatientRecord.from_raw({"a": "1", "a ": "2"})

    @pytest.mark.parametrize("refs", ["rec-001", [1], [None], {"rec-001": 1}])
    def test_eeg_refs_must_be_a_list_of_strings(self, refs):
        with pytest.raises(PreconditionError, match="eeg_refs is .*, not a list of strings"):
            PatientRecord.from_raw({"age": "34", "eeg_refs": refs})


class TestCaseId:
    def test_deterministic(self):
        assert case_id("age=34;sex=F") == case_id("age=34;sex=F")

    def test_distinct_on_fixed_pair(self):
        assert case_id("age=34;sex=F") != case_id("age=35;sex=F")

    def test_reference_golden(self):
        # frozen from an independent FNV-1a computation over the rendering
        assert case_id("age=34;sex=F") == "4cef488d6c207ed8"

    def test_shape(self):
        h = case_id("age=34;sex=F")
        assert len(h) == 16
        assert h == h.lower()
        int(h, 16)


class TestEmbedCase:
    def test_identical_inputs_identical_vectors(self):
        canonical = "age=34;sex=F"
        h = case_id(canonical)
        np.testing.assert_array_equal(
            embed_case(h, canonical, EMB), embed_case(h, canonical, EMB)
        )

    def test_unit_norm(self):
        canonical = "age=34;sex=F"
        vec = embed_case(case_id(canonical), canonical, EMB)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-6)

    def test_attribute_change_moves_vector(self):
        a = serialize_case(record(age="34", sex="F", diagnosis="epilepsy"))
        b = serialize_case(record(age="34", sex="F", diagnosis="depression"))
        va = embed_case(case_id(a), a, EMB)
        vb = embed_case(case_id(b), b, EMB)
        assert float(va @ vb) < 1.0 - 1e-6


def case_rows(store: CaseStore) -> dict[str, tuple[dict, bool]]:
    return {h: (c.attributes, c.synthetic) for h, c in store.cases.items()}


def build_store(*records: PatientRecord) -> CaseStore:
    store = CaseStore()
    for rec in records:
        store.add_record(rec)
    return store


class TestCaseStore:
    def test_content_addressed_idempotency(self, tmp_path):
        rec = record(age="34", sex="F")
        store = build_store(rec, rec)
        assert len(store) == 1
        store.save(tmp_path)
        again = build_store(rec)
        (tmp_path / "b").mkdir()
        again.save(tmp_path / "b")
        assert (tmp_path / "cases.jsonl").read_bytes() == (tmp_path / "b" / "cases.jsonl").read_bytes()

    def test_round_trip(self, tmp_path):
        store = build_store(record(age="34", sex="F", eeg_refs=["rec-1"]))
        store.save(tmp_path)
        loaded = CaseStore.load(tmp_path)
        (tmp_path / "again").mkdir()
        loaded.save(tmp_path / "again")
        assert (tmp_path / "cases.jsonl").read_bytes() == (tmp_path / "again" / "cases.jsonl").read_bytes()
        # an input record's eeg_refs is checked, then dropped: a recording
        # names its case by patient_hash
        (line,) = (tmp_path / "cases.jsonl").read_text(encoding="utf-8").splitlines()
        assert json.loads(line) == {"h": case_id("age=34;sex=F"), "e": {"age": ["34"], "sex": ["F"]}, "synthetic": False}

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("e", {"age": "34", "sex": ["F"]}, "attribute 'age' is '34', not a list of strings"),
            ("e", {"age": [34], "sex": ["F"]}, "attribute 'age' is [34], not a list of strings"),
            ("synthetic", 0, "synthetic is 0, not true or false"),
            ("synthetic", "false", "synthetic is 'false', not true or false"),
            ("h", 5, "h is 5, not a string"),
            ("e", {}, "case has no attributes"),
        ],
    )
    def test_load_rejects_mistyped_fields_naming_the_line(self, tmp_path, field, value, message):
        path = tmp_path / "cases.jsonl"
        build_store(record(age="34", sex="F"), record(age="35", sex="M")).save(tmp_path)
        rewrite_row(path, 2, field, value)
        with pytest.raises(PreconditionError, match=re.escape(f"{path}: line 2: {message}")):
            CaseStore.load(tmp_path)

    def test_canonical_is_serialized_once(self, monkeypatch, tmp_path):
        # a stored record keeps the rendering it was hashed by; a loaded
        # case renders its tuple when first read
        import eegrag.cases as cases_module

        calls = []
        monkeypatch.setattr(
            cases_module, "serialize_case", lambda attrs: calls.append(1) or serialize_case(attrs)
        )
        store = build_store(record(age="34", sex="F"))
        assert len(calls) == 1
        store.save(tmp_path)
        (stored,) = store.cases.values()
        (loaded,) = CaseStore.load(tmp_path).cases.values()
        for case, renders in ((stored, 1), (loaded, 2)):
            assert [case.canonical for _ in range(3)] == ["age=34;sex=F"] * 3
            assert len(calls) == renders

    def test_sealed_rejects_mutation(self):
        store = build_store(record(age="1"))
        store.seal()
        with pytest.raises(StoreSealedError):
            store.add_record(record(age="2"))
        assert len(store) == 1
        # a record already stored writes nothing, so sealing does not refuse it
        assert store.add_record(record(age="1")) in store.cases


class TestAugmentation:
    def complete(self, **extra):
        base = {"age": "30", "sex": "F", "medication": "drug"}
        base.update(extra)
        return record(**base)

    def test_all_complete_is_noop(self):
        store = build_store(self.complete(age="30"), self.complete(age="31"))
        assert augment_pseudo_cases(store, EMB, tau=0.5) == []
        assert len(store) == 2

    def test_single_donor_fill(self):
        donor = record(age="30", sex="F", medication="valproate", diagnosis="epilepsy")
        recipient = record(age="31", sex="F", diagnosis="epilepsy")
        filler = record(age="70", sex="M", medication="none", diagnosis="dementia")
        store = build_store(donor, recipient, filler)
        fills = augment_pseudo_cases(store, EMB, tau=0.1)
        # recipient misses `medication` (present in 2/3 cases >= 50%)
        fills = [f for f in fills if f.attributes == ["medication"]]
        assert len(fills) == 1
        fill = fills[0]
        assert fill.recipient == case_id(serialize_case(recipient))
        synthetic = store.cases[fill.synthetic_hash]
        assert synthetic.synthetic
        assert synthetic.attributes["medication"] == store.cases[fill.donor].attributes["medication"]
        assert set(synthetic.attributes) >= set(store.cases[fill.recipient].attributes)
        vectors = [embed_case(h, store.cases[h].canonical, EMB) for h in (fill.recipient, fill.donor)]
        assert fill.similarity == float(np.dot(*vectors))

    def test_prevalence_counts_real_cases_only(self):
        donor = record(age="30", sex="F", history="absence", medication="valproate")
        recipient = record(age="30", sex="F", history="absence")
        other = record(age="70", sex="M", history="stroke")
        store = build_store(donor, recipient, other)
        # `medication` is in 1 of 3 real cases, under the threshold of 1.5;
        # synthetic cases carrying it would lift it over if they were counted
        for h in ("a-s", "b-s"):
            store.cases[h] = PatientCase(
                h, {"age": ["1"], "medication": ["y"]}, synthetic=True
            )
        assert len(augment_pseudo_cases(store, EMB, tau=0.1)) == 0
        # in 2 of 3 real cases it is prevalent, and the recipient takes it
        other = record(age="70", sex="M", history="stroke", medication="none")
        assert len(augment_pseudo_cases(build_store(donor, recipient, other), EMB, tau=0.1)) == 1

    def test_threshold_one_blocks_non_identical(self):
        store = build_store(
            record(age="30", sex="F", medication="x"), record(age="99", sex="M")
        )
        assert augment_pseudo_cases(store, EMB, tau=1.0) == []

    def test_reals_never_mutated(self):
        donor = record(age="30", sex="F", medication="valproate")
        recipient = record(age="31", sex="F")
        store = build_store(donor, recipient)
        before = {h: dict(c.attributes) for h, c in store.cases.items()}
        augment_pseudo_cases(store, EMB, tau=0.1)
        for h, attrs in before.items():
            assert store.cases[h].attributes == attrs
            assert not store.cases[h].synthetic

    def test_synthetic_hash_carries_marker(self):
        store = build_store(record(age="30", sex="F", medication="x"), record(age="31", sex="F"))
        (fill,) = augment_pseudo_cases(store, EMB, tau=0.1)
        assert fill.synthetic_hash.endswith("-s")

    def test_preconditions(self):
        store2 = build_store(record(age="1"), record(age="2"))
        with pytest.raises(PreconditionError):
            augment_pseudo_cases(store2, EMB, tau=0.0)
        with pytest.raises(PreconditionError):
            augment_pseudo_cases(store2, EMB, tau=1.5)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_real_cases_create_nothing(self, n):
        store = build_store(*[record(age="30", sex="F")][:n])
        assert augment_pseudo_cases(store, EMB, tau=0.1) == []
        assert len(store) == n

    def test_sealed_store_is_refused(self):
        store = build_store(record(age="30", sex="F", medication="x"), record(age="31", sex="F"))
        store.seal()
        with pytest.raises(StoreSealedError):
            augment_pseudo_cases(store, EMB, tau=0.1)
        assert len(store) == 2

    def test_rerun_is_idempotent(self):
        # a second run derives the same pseudo-cases again, in place of the first's
        store = build_store(
            record(age="30", sex="F", medication="x"), record(age="31", sex="F")
        )
        first = augment_pseudo_cases(store, EMB, tau=0.1)
        after_first = case_rows(store)
        second = augment_pseudo_cases(store, EMB, tau=0.1)
        assert len(first) == 1
        assert second == first
        assert case_rows(store) == after_first


class TestLoadRecords:
    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text('{"age": "34"}\n{broken\n')
        with pytest.raises(PreconditionError, match="line 2"):
            load_records(path)

    def test_eeg_refs_reserved(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text('{"age": "34", "eeg_refs": ["rec-1", "rec-2"]}\n')
        (rec,) = load_records(path)
        assert rec == PatientRecord({"age": ["34"]})


def pairwise_donors(vectors: list, rows: list[int]) -> list[tuple[float, int]]:
    """(similarity, index) of each row's nearest other vector by one
    ``float(np.dot)`` per pair, the first on a tie: the loop the blocked
    donor search replaced (test oracle)."""
    nearest = []
    for i in rows:
        best = None
        for j, other in enumerate(vectors):
            if j == i:
                continue
            sim = float(np.dot(vectors[i], other))
            if best is None or sim > best[0]:
                best = (sim, j)
        nearest.append(best)
    return nearest


def augment_oracle(store: CaseStore, embedder, tau: float) -> tuple[list[FillRecord], dict]:
    """The fills and case rows of ``augment_pseudo_cases`` as the pairwise
    loop made them, on a fresh store of ``store``'s real cases (test oracle)."""
    fresh = CaseStore()
    for case in store.real_cases():
        fresh.add_record(PatientRecord(case.attributes))
    real = fresh.real_cases()
    counts = Counter(name for c in real for name in c.attributes)
    prevalent = sorted(name for name, n in counts.items() if n >= len(real) / 2.0)
    vectors = [embed_case(c.h, c.canonical, embedder) for c in real]
    fills = []
    for i, case in enumerate(real):
        missing = [a for a in prevalent if a not in case.attributes]
        if not missing:
            continue
        ((similarity, j),) = pairwise_donors(vectors, [i])
        donor = real[j]
        fillable = [a for a in missing if a in donor.attributes]
        if similarity < tau or not fillable:
            continue
        pseudo = PatientCase("", {**case.attributes, **{a: donor.attributes[a] for a in fillable}}, synthetic=True)
        if fresh._put(pseudo, content_hash=True):
            fills.append(FillRecord(case.h, donor.h, fillable, similarity, pseudo.h))
    return fills, case_rows(fresh)


def tie_vectors(rng, n: int, dim: int, scale: float = 1.0) -> list[np.ndarray]:
    """``n`` vectors that tie exactly (copies), one ulp apart, as scaled
    copies, point the opposite way, vanish, or are random; each times
    ``scale``."""
    base = rng.normal(size=(3, dim))
    vectors = []
    for _ in range(n):
        kind = int(rng.integers(0, 6))
        vec = base[rng.integers(3)].copy()
        if kind == 1:
            slot = rng.integers(dim)
            vec[slot] = np.nextafter(vec[slot], rng.choice([-np.inf, np.inf]))
        elif kind == 2:
            vec *= rng.choice([0.5, 2.0, 3.0])
        elif kind == 3:
            vec = -vec
        elif kind == 4:
            vec = np.zeros(dim)
        elif kind == 5:
            vec = rng.normal(size=dim)
        vectors.append(vec * scale)
    return vectors


class TableEmbedder:
    """Embeds a case as the row of ``table`` its attribute tuple hashes to,
    so distinct cases share vectors, not of unit norm (test stub)."""

    def __init__(self, table: list[np.ndarray]):
        self.table = table
        self.dim = table[0].size

    def embed(self, text: str) -> np.ndarray:
        return self.table[fnv1a64_text(text.split(" | ", 1)[1]) % len(self.table)]


def random_records(rng, n: int, values: dict[str, list[str]]) -> list[dict[str, str]]:
    """``n`` records over ``values``' attributes, ~40% of them missing one."""
    records = []
    for _ in range(n):
        row = {name: str(rng.choice(options)) for name, options in values.items()}
        if rng.random() < 0.4:
            del row[str(rng.choice(sorted(row)))]
        records.append(row)
    return records


SMALL_VALUES = {"age": ["30", "40", "50"], "sex": ["F", "M"], "drug": ["x", "y", "z"], "dx": ["a", "b", "c", "d"]}


class TestDonorSearch:
    """The blocked filter-and-rescore donor search against the pairwise loop,
    compared exactly: donors, similarities and fill records."""

    @pytest.mark.parametrize("budget", [1, 3 * 8 * 40, cases_module._DONOR_BYTES])
    def test_equals_the_pairwise_loop_on_tie_vectors(self, monkeypatch, budget):
        monkeypatch.setattr(cases_module, "_DONOR_BYTES", budget)
        rng = np.random.default_rng(41)
        for _ in range(60):
            dim = int(rng.choice([1, 2, 3, 8, 33]))
            n = int(rng.integers(2, 40))
            vectors = tie_vectors(rng, n, dim, scale=float(rng.choice([1e-3, 1.0, 7.0, 1e5])))
            rows = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            assert cases_module._nearest_others(vectors, rows) == pairwise_donors(vectors, rows)

    def test_equals_the_pairwise_loop_when_the_filter_errs_by_its_bound(self, monkeypatch):
        # each filter score pushed up or down by 3/4 of the bound the filter
        # allows it to err by: the donor, a copy of others or not, must
        # survive the cut
        rng = np.random.default_rng(42)

        def erring_dots(rows, matrix):
            exact = np.array([[float(np.dot(r, w)) for w in matrix] for r in rows])
            norms = np.outer(np.linalg.norm(rows, axis=1), np.linalg.norm(matrix, axis=1))
            err = 0.75 * cases_module._dot_bound(matrix.shape[1], matrix.dtype) * norms
            return exact + rng.choice([-1.0, 1.0], size=exact.shape) * err

        monkeypatch.setattr(cases_module, "_dots", erring_dots)
        monkeypatch.setattr(cases_module, "_DONOR_BYTES", 8 * 8 * 30)
        for _ in range(60):
            dim = int(rng.choice([3, 8, 33]))
            n = int(rng.integers(2, 30))
            base = rng.normal(size=(3, dim)) * 4.0
            vectors = [base[rng.integers(3)].copy() for _ in range(n)]
            rows = list(range(n))
            assert cases_module._nearest_others(vectors, rows) == pairwise_donors(vectors, rows)

    @pytest.mark.parametrize("tau", [1e-9, 0.3, 0.8, 1.0])
    def test_fills_equal_the_pairwise_loop(self, monkeypatch, tau):
        monkeypatch.setattr(cases_module, "_DONOR_BYTES", 8 * 8 * 5)
        rng = np.random.default_rng(43)
        for trial in range(30):
            records = random_records(rng, int(rng.integers(0, 40)), SMALL_VALUES)
            store = build_store(*(PatientRecord.from_raw(r) for r in records))
            if trial % 2:
                embedder = TableEmbedder(tie_vectors(rng, 7, 8, scale=3.0))
            else:
                embedder = EMB
            want_fills, want_rows = augment_oracle(store, embedder, tau)
            assert augment_pseudo_cases(store, embedder, tau=tau) == want_fills
            assert case_rows(store) == want_rows

    def test_given_vectors_replace_embedding(self):
        store = build_store(record(age="30", sex="F", medication="x"), record(age="31", sex="F"))
        vectors = {c.h: embed_case(c.h, c.canonical, EMB) for c in store.real_cases()}
        want = augment_pseudo_cases(store, EMB, tau=0.1)

        class NoEmbedder:
            def embed(self, text):
                raise AssertionError("embedded a case whose vector was given")

        assert augment_pseudo_cases(store, NoEmbedder(), tau=0.1, vectors=vectors) == want


def test_batching_does_not_change_the_stored_cases(tmp_path):
    # the stored cases, and the case layer linked from them, are a function
    # of the set of real records, however many ingest-cases brought them
    values = {
        "age": [str(a) for a in range(30, 80, 5)],
        "sex": ["F", "M"],
        "medication": ["valproate", "sertraline", "levodopa", "none"],
        "diagnosis": ["epilepsy", "depression", "parkinson disease", "alzheimer disease", "insomnia"],
    }
    docs = tmp_path / "docs"
    assert main(["ingest-docs", str(FIXTURES / "docs.jsonl"), "--store", str(docs)]) == 0
    rng = np.random.default_rng(44)
    for seed in range(3):
        records = random_records(rng, 60, values)
        stores = []
        for k in (1, 2, 3):
            store = tmp_path / f"{seed}-{k}"
            shutil.copytree(docs, store)
            for batch in range(k):
                path = tmp_path / f"{seed}-{k}-{batch}.jsonl"
                path.write_text("".join(json.dumps(r) + "\n" for r in records[batch::k]), encoding="utf-8")
                argv = ["ingest-cases", str(path), "--store", str(store), "--set", "pseudo_tau=0.3"]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
            stores.append(store)
        rows = (stores[0] / "cases.jsonl").read_text(encoding="utf-8").splitlines()
        assert any(json.loads(row)["synthetic"] for row in rows)
        for store in stores[1:]:
            for name in ("cases.jsonl", "case_edges.jsonl"):
                assert (store / name).read_bytes() == (stores[0] / name).read_bytes(), (seed, store.name, name)
