"""Each store has one door per kind of row, and the door is the one
definition of a storable row. So whatever a library writer puts through it
saves and loads back equal, and a field of the wrong JSON type, or a string
that UTF-8 cannot encode, is refused at the writer with
``PreconditionError``, not later by ``load`` or ``save``.

The writers are ``add_entity`` (a merge included), ``add_hyperedge``,
``add_record``, ``augment_pseudo_cases`` and ``insert_recording``.

Each input record (``Document``, ``EntitySpec``, ``Fact``, ``QaExample``,
``EegRecording`` and ``PatientRecord.from_raw``) and each ``PaaEmbedding`` is
likewise its own door: built by a reader or a library caller, it is valid or
it is not built.
"""

import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegrag.cases import CaseStore, PatientRecord, augment_pseudo_cases
from eegrag.config import PipelineConfig
from eegrag.eeg import Channel, EegRecording, EegVectorDatabase, PaaEmbedding
from eegrag.embedding import HashedTokenEmbedder
from eegrag.errors import NotFoundError, PreconditionError, ReferentialError
from eegrag.evaluation import QaExample
from eegrag.hypergraph import LAYERS, BipartiteStore
from eegrag.knowledge import Document, EntitySpec, Fact

DIM = 4
SEGMENTS = 3
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)

TEXT = st.text(max_size=8)
NON_BLANK = TEXT.filter(str.strip)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# a string with a lone surrogate, which UTF-8 cannot encode, so no store can write it
SURROGATE = st.tuples(TEXT, st.integers(0xD800, 0xDFFF).map(chr), TEXT).map("".join)
# JSON values that are not strings, not integers and not a list of strings
NOT_STR = st.one_of(st.none(), st.booleans(), st.integers(), FINITE, st.lists(TEXT, max_size=2))
NOT_INT = st.one_of(st.none(), st.booleans(), FINITE, TEXT)
NOT_STR_LIST = st.one_of(
    st.none(), st.booleans(), st.integers(), TEXT, st.lists(st.integers() | st.none(), min_size=1, max_size=2)
)


def one_mistyped(strategies: dict):
    """``(field, value)``: one field of ``strategies`` and a value drawn for it."""
    return st.sampled_from(sorted(strategies)).flatmap(lambda f: st.tuples(st.just(f), strategies[f]))


def saved_and_loaded(store, load):
    with tempfile.TemporaryDirectory() as directory:
        store.save(directory)
        return load(directory)


# -- the hypergraph -------------------------------------------------------------


def graph_rows(store: BipartiteStore):
    edges = {h: (e.description, e.members, e.layer, e.embedding.tobytes()) for h, e in store.hyperedges.items()}
    return store.entities, edges, store.incidence, store.case_members, store.names.by_seq


@PROPERTY
@given(
    entities=st.lists(st.tuples(NON_BLANK, TEXT, TEXT), min_size=1, max_size=5),
    edges=st.lists(
        st.tuples(
            NON_BLANK,
            st.lists(st.integers(0, 4), min_size=1, max_size=3),
            st.lists(FINITE, min_size=DIM, max_size=DIM),
            st.sampled_from(LAYERS),
        ),
        max_size=6,
        unique_by=lambda edge: edge[0],
    ),
)
def test_hypergraph_rows_from_every_writer_load_back_equal(entities, edges):
    store = BipartiteStore(DIM)
    ids = []
    for name, etype, definition in entities:
        ids.append(store.add_entity(name))
        # the same name, spaced otherwise: a merge of the two texts
        assert store.add_entity(f" {name}\t", etype, definition) == ids[-1]
    for description, picks, vector, layer in edges:
        store.add_hyperedge(description, {ids[i % len(ids)] for i in picks}, vector, layer)
    loaded = saved_and_loaded(store, lambda d: BipartiteStore.load(d, DIM))
    assert graph_rows(loaded) == graph_rows(store)


@PROPERTY
@given(field=st.sampled_from(["name", "etype", "definition"]), value=NOT_STR | SURROGATE, merge=st.booleans())
@example(field="name", value="epi\ud800", merge=False)
@example(field="etype", value="\udcff", merge=True)
@example(field="definition", value="a\ud83d", merge=False)
def test_add_entity_refuses_a_mistyped_field(field, value, merge):
    store = BipartiteStore(DIM)
    if merge:
        store.add_entity("epilepsy", "disorder", "recurrent seizures")
    before = {eid: dict(vars(e)) for eid, e in store.entities.items()}
    with pytest.raises(PreconditionError, match=f"{field} is .*, not a string|in {field} is not valid UTF-8"):
        store.add_entity(**{"name": "epilepsy", "etype": "", "definition": "", field: value})
    assert {eid: vars(e) for eid, e in store.entities.items()} == before


MISTYPED_EDGE = {
    "description": NOT_STR | SURROGATE,
    "members": st.one_of(st.none(), st.integers(), st.lists(NOT_INT, min_size=1, max_size=2)),
    "layer": NOT_STR,
    # a vector holding a value that is not a finite float64: null, text that
    # spells no number, or an integer too large for a float; one of the
    # wrong shape is a DimensionMismatchError
    "embedding": st.lists(
        st.one_of(FINITE, st.sampled_from([None, "x", 10**400])), min_size=DIM, max_size=DIM
    ).filter(lambda v: not all(isinstance(x, float) for x in v)),
}


@PROPERTY
@given(mistyped=one_mistyped(MISTYPED_EDGE))
@example(mistyped=("description", "fact \ud800"))
@example(mistyped=("embedding", ["x"] * DIM))
@example(mistyped=("embedding", [10**400] * DIM))
def test_add_hyperedge_refuses_a_mistyped_field(mistyped):
    store = BipartiteStore(DIM)
    eid = store.add_entity("epilepsy")
    args = {"description": "a fact", "members": {eid}, "embedding": np.ones(DIM), "layer": "knowledge"}
    field, args[field] = mistyped[0], mistyped[1]
    with pytest.raises(PreconditionError):
        store.add_hyperedge(**args)
    assert store.hyperedges == {} and store.incidence[eid] == set()


@pytest.mark.parametrize(
    "args, error, message",
    [
        ({"members": {10**5000}}, ReferentialError, r"unknown entity ids: <a list holding "),
        ({"members": 10**5000}, PreconditionError, r"^members is <an integer of 16610 bits>, not a list"),
        ({"layer": 10**5000}, PreconditionError, r"^unknown layer <an integer of 16610 bits>;"),
    ],
    ids=["member", "members", "layer"],
)
def test_add_hyperedge_names_an_integer_past_repr_by_its_size(args, error, message):
    # 10**5000 has more digits than Python will format, so the refusal
    # names its size instead of raising ValueError while formatting it
    store = BipartiteStore(DIM)
    eid = store.add_entity("epilepsy")
    with pytest.raises(error, match=message):
        store.add_hyperedge(**{"description": "d", "members": {eid}, "embedding": np.ones(DIM), **args})
    assert store.hyperedges == {}


def test_get_names_an_unknown_recording_id_past_repr_by_its_size():
    with pytest.raises(NotFoundError, match=r"^unknown recording id <an integer of 16610 bits>$"):
        EegVectorDatabase(n_segments=4).get(10**5000)


@pytest.mark.parametrize("name", ["", " ", "\t\n"])
def test_add_entity_refuses_a_blank_name(name):
    with pytest.raises(PreconditionError, match="entity name must be non-empty"):
        BipartiteStore(DIM).add_entity(name)


@pytest.mark.parametrize("description", ["", "  "])
def test_add_hyperedge_refuses_a_blank_description(description):
    store = BipartiteStore(DIM)
    with pytest.raises(PreconditionError, match="hyperedge description must be non-blank"):
        store.add_hyperedge(description, {store.add_entity("a")}, np.ones(DIM))


# -- the case store ---------------------------------------------------------------

ATTRIBUTES = st.dictionaries(
    st.sampled_from(["age", "sex", "diagnosis", "medication", "history"]),
    st.lists(TEXT, max_size=2),
    min_size=1,
)


def case_rows(store: CaseStore):
    return {h: (c.attributes, c.synthetic) for h, c in store.cases.items()}


@PROPERTY
@given(records=st.lists(ATTRIBUTES, max_size=6))
@example(records=[{"age": ["30"], "sex": ["F"], "medication": ["x"]}, {"age": ["31"], "sex": ["F"]}])
def test_case_rows_from_every_writer_load_back_equal(records):
    store = CaseStore()
    for attributes in records:
        store.add_record(PatientRecord(attributes))
    augment_pseudo_cases(store, HashedTokenEmbedder(64), tau=0.1)
    assert case_rows(saved_and_loaded(store, CaseStore.load)) == case_rows(store)


def test_the_pseudo_case_example_makes_a_pseudo_case():
    # the explicit example above exercises augment_pseudo_cases's writes
    store = CaseStore()
    store.add_record(PatientRecord({"age": ["30"], "sex": ["F"], "medication": ["x"]}))
    store.add_record(PatientRecord({"age": ["31"], "sex": ["F"]}))
    assert len(augment_pseudo_cases(store, HashedTokenEmbedder(64), tau=0.1)) == 1


MISTYPED_RECORD = {
    "attributes": st.one_of(
        st.lists(st.tuples(TEXT, st.lists(TEXT, max_size=1)), max_size=2),  # pairs, not an object
        st.dictionaries(st.integers(), st.lists(TEXT, max_size=1), min_size=1, max_size=1),
        st.dictionaries(TEXT, NOT_STR_LIST, min_size=1, max_size=2),
        st.dictionaries(SURROGATE, st.lists(TEXT, max_size=1), min_size=1, max_size=1),
        st.dictionaries(TEXT, st.lists(SURROGATE, min_size=1, max_size=2), min_size=1, max_size=1),
    ),
}


@PROPERTY
@given(mistyped=one_mistyped(MISTYPED_RECORD))
@example(mistyped=("attributes", {"age\ud800": ["30"]}))
@example(mistyped=("attributes", {"age": ["3\ud800"]}))
def test_add_record_refuses_a_mistyped_field(mistyped):
    store = CaseStore()
    record = PatientRecord({"age": ["30"]})
    setattr(record, *mistyped)
    with pytest.raises(PreconditionError):
        store.add_record(record)
    assert store.cases == {}


def test_add_record_copies_the_record_lists():
    store = CaseStore()
    record = PatientRecord({"age": ["30"]})
    case = store.cases[store.add_record(record)]
    record.attributes["age"].append("31")
    assert case.attributes == {"age": ["30"]}


# -- the EEG vector database ------------------------------------------------------


def evd_rows(db: EegVectorDatabase):
    return {
        rid: (e.patient_hash, e.sample_rate, e.embedding.channel_order, e.embedding.values.tobytes())
        for rid, e in db.entries.items()
    }


def recording(rec_id, sample_rate, patient_hash, names, samples) -> EegRecording:
    channels = [Channel(name, np.roll(samples, i)) for i, name in enumerate(names)]
    return EegRecording(rec_id, sample_rate, channels, patient_hash)


@PROPERTY
@given(
    names=st.lists(TEXT, min_size=1, max_size=3),
    recordings=st.lists(
        st.tuples(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(1, 10_000), st.floats(1e-3, 1e6)),
            st.one_of(st.none(), TEXT),
            st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5),
        ),
        max_size=5,
        unique_by=lambda rec: rec[0],
    ),
)
def test_evd_rows_from_every_writer_load_back_equal(names, recordings):
    db = EegVectorDatabase(SEGMENTS)
    for rec_id, rate, patient_hash, samples in recordings:
        db.insert_recording(recording(rec_id, rate, patient_hash, names, samples))
    loaded = saved_and_loaded(db, lambda d: EegVectorDatabase.load(d, SEGMENTS))
    assert evd_rows(loaded) == evd_rows(db)


MISTYPED_RECORDING = {
    "id": NOT_STR | st.just("") | SURROGATE,
    "sample_rate": st.one_of(
        st.none(),
        st.booleans(),
        TEXT,
        st.lists(FINITE, max_size=1),
        st.floats(max_value=0.0),
        st.sampled_from([math.nan, 10**400]),
    ),
    "patient_hash": st.one_of(st.booleans(), st.integers(), FINITE, st.lists(TEXT, max_size=2), SURROGATE),
    "channel name": NOT_STR | SURROGATE,
}


@PROPERTY
@given(mistyped=one_mistyped(MISTYPED_RECORDING))
@example(mistyped=("id", "rec-\ud800"))
@example(mistyped=("patient_hash", "\udcff"))
@example(mistyped=("channel name", "Fp\ud800"))
def test_insert_recording_refuses_a_mistyped_field(mistyped):
    args = {"id": "rec-1", "sample_rate": 256.0, "patient_hash": None, "channel name": "Fp1"}
    field, args[field] = mistyped[0], mistyped[1]
    db = EegVectorDatabase(SEGMENTS)
    with pytest.raises(PreconditionError):
        rec = recording(args["id"], args["sample_rate"], args["patient_hash"], [args["channel name"]], [1.0, 2, 3])
        db.insert_recording(rec)
    assert db.entries == {}


# -- the input records -------------------------------------------------------------


def fp1(samples=(1.0, 2.0, 3.0)) -> list[Channel]:
    return [Channel("Fp1", list(samples))]


MISTYPED_INPUT = {
    "document-id": lambda: Document(5, "t", "body"),
    "document-title": lambda: Document("d", None, "body"),
    "document-body": lambda: Document("d", "", 5),
    "document-source": lambda: Document("d", "t", "body", "src\ud800"),
    "entity-name": lambda: EntitySpec(5),
    "entity-etype": lambda: EntitySpec("A", etype=None),
    "entity-definition": lambda: EntitySpec("A", definition=["x"]),
    "fact-description": lambda: Fact(7, [EntitySpec("A")]),
    "fact-entities": lambda: Fact("f", [{"name": "A"}]),
    "qa-question": lambda: QaExample("q", "", "", 7, "g"),
    "qa-domain": lambda: QaExample("q", None, "", "question", "g"),
    "qa-eeg-ref": lambda: QaExample("q", "", "", "question", "g", eeg_ref=5),
    "recording-id": lambda: EegRecording(5, 256.0, fp1()),
    "recording-sample-rate": lambda: EegRecording("r", "fast", fp1()),
    "recording-sample-rate-huge": lambda: EegRecording("r", 10**400, fp1()),
    "recording-sample-rate-past-repr": lambda: EegRecording("r", 10**5000, fp1()),
    "recording-patient-hash": lambda: EegRecording("r", 256.0, fp1(), patient_hash=7),
    "recording-channels": lambda: EegRecording("r", 256.0, "Fp1"),
    "recording-channel": lambda: EegRecording("r", 256.0, ["Fp1"]),
    "channel-name": lambda: EegRecording("r", 256.0, [Channel(3, [1.0, 2.0])]),
    "channel-samples-text": lambda: EegRecording("r", 256.0, fp1(["x"])),
    "channel-samples-2d": lambda: EegRecording("r", 256.0, [Channel("Fp1", [[1.0, 2.0]])]),
    "patient-record-empty": lambda: PatientRecord.from_raw({}),
    "paa-values-text": lambda: PaaEmbedding(2, ["x", "y"], ["c"]),
    "paa-values-huge": lambda: PaaEmbedding(2, [10**400, 1.0], ["c"]),
    "config-layer-past-repr": lambda: PipelineConfig(retrieval_layer=10**5000),
    "config-client-past-repr": lambda: PipelineConfig(client=10**5000),
}


@pytest.mark.parametrize("build", MISTYPED_INPUT.values(), ids=MISTYPED_INPUT)
def test_an_input_record_refuses_a_mistyped_field_when_built(build):
    with pytest.raises(PreconditionError):
        build()
