import hashlib
import json
import math
import os
import shutil

import pytest

import eegrag.eeg as eeg_module
from eegrag.cases import CaseStore, embed_case, serialize_case
from eegrag.cli import main
from eegrag.config import PipelineConfig
from eegrag.eeg import EegVectorDatabase, load_recording
from eegrag.embedding import HashedTokenEmbedder
from eegrag.errors import PreconditionError
from eegrag.hypergraph import BipartiteStore
from eegrag.pipeline import Pipeline
from eegrag.retrieval import find_entity_mentions

from conftest import FIXTURES, GOLDEN, rewrite_row, run_cli


QUERY_ARGS = [
    "query",
    "A 34 year old woman shows 3 Hz spike-wave discharge with brief staring spells. What is the likely diagnosis?",
    "--role",
    "doctor",
    "--eeg-id",
    "rec-001",
]


class TestIngest:
    def test_store_bytes_match_the_golden_digests(self, tmp_path, capsys):
        # the sha256 of every store file after each ingest command; a change
        # that alters a stored byte must update the golden file and say why
        golden = json.loads((GOLDEN / "fixture_store.sha256.json").read_text(encoding="utf-8"))
        store = tmp_path / "store"
        for command, source in (
            ("ingest-docs", "docs.jsonl"),
            ("ingest-cases", "cases.jsonl"),
            ("ingest-eeg", "eeg"),
        ):
            assert main([command, str(FIXTURES / source), "--store", str(store)]) == 0
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(store.iterdir())}
            assert digests == golden[command], command

    def test_zero_line_docs_file(self, tmp_path, capsys):
        empty = tmp_path / "docs.jsonl"
        empty.write_text("")
        assert main(["ingest-docs", str(empty), "--store", str(tmp_path / "s")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["documents"] == 0
        assert report["entities_added"] == 0

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        bad = tmp_path / "docs.jsonl"
        bad.write_text('{"id": "d1", "title": "", "body": "ok"}\n{oops\n')
        code = main(["ingest-docs", str(bad), "--store", str(tmp_path / "s")])
        assert code != 0
        assert "line 2" in capsys.readouterr().err

    def test_double_ingest_all_merged(self, built_store, tmp_path, capsys):
        store2 = tmp_path / "fresh"
        main(["ingest-docs", str(FIXTURES / "docs.jsonl"), "--store", str(store2)])
        capsys.readouterr()
        main(["ingest-docs", str(FIXTURES / "docs.jsonl"), "--store", str(store2)])
        second = json.loads(capsys.readouterr().out)
        assert second["entities_added"] == 0
        assert second["hyperedges_added"] == 0
        assert second["entities_merged"] > 0

    def test_ingest_eeg_skips_known_recordings(self, built_store, capsys):
        assert main(["ingest-eeg", str(FIXTURES / "eeg"), "--store", str(built_store)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["recordings_inserted"] == 0
        assert report["recordings_skipped"] == 6

    def test_ingest_eeg_rejects_another_channel_count_naming_the_file(self, tmp_path):
        inputs, store = tmp_path / "eeg", tmp_path / "store"
        inputs.mkdir()
        for name in ("rec-001.json", "rec-002.json"):
            shutil.copy(FIXTURES / "eeg" / name, inputs)
        rec = json.loads((FIXTURES / "eeg" / "rec-003.json").read_text(encoding="utf-8"))
        rec["channels"] = rec["channels"][:2]
        (inputs / "rec-003.json").write_text(json.dumps(rec), encoding="utf-8")
        code, err = run_cli(["ingest-eeg", inputs, "--store", store])
        assert code == 2
        assert f"error: {inputs / 'rec-003.json'}: 2 channels x 20 segments; " in err
        assert not (store / "evd.jsonl").exists()

    def test_ingest_eeg_rejects_an_unembeddable_recording_naming_the_file(self, tmp_path):
        # finite samples whose mean overflows a float
        inputs, store = tmp_path / "eeg", tmp_path / "store"
        inputs.mkdir()
        shutil.copy(FIXTURES / "eeg" / "rec-001.json", inputs)
        rec = json.loads((FIXTURES / "eeg" / "rec-003.json").read_text(encoding="utf-8"))
        for channel in rec["channels"]:
            channel["samples"] = [1e308, 1e308, -1e308] * 40
        (inputs / "rec-003.json").write_text(json.dumps(rec), encoding="utf-8")
        code, err = run_cli(["ingest-eeg", inputs, "--store", store])
        assert code == 2
        assert f"error: {inputs / 'rec-003.json'}: channel 'Fp1' cannot be z-scored: overflow" in err
        assert not (store / "evd.jsonl").exists()

    def test_ingest_eeg_rejects_one_huge_sample_naming_the_file_and_channel(self, tmp_path):
        # one finite sample whose square overflows: z-scoring it would store
        # the channel as zeros
        inputs, store = tmp_path / "eeg", tmp_path / "store"
        inputs.mkdir()
        rec = json.loads((FIXTURES / "eeg" / "rec-001.json").read_text(encoding="utf-8"))
        rec["channels"][0]["samples"][0] = 1e308
        (inputs / "rec-001.json").write_text(json.dumps(rec), encoding="utf-8")
        code, err = run_cli(["ingest-eeg", inputs, "--store", store])
        assert code == 2
        assert f"error: {inputs / 'rec-001.json'}: channel 'Fp1' cannot be z-scored: overflow" in err
        assert "Warning" not in err
        assert not (store / "evd.jsonl").exists()

    def test_ingest_eeg_rejects_another_channel_order_naming_the_file(self, tmp_path):
        inputs, store = tmp_path / "eeg", tmp_path / "store"
        inputs.mkdir()
        shutil.copy(FIXTURES / "eeg" / "rec-001.json", inputs)
        rec = json.loads((FIXTURES / "eeg" / "rec-002.json").read_text(encoding="utf-8"))
        rec["channels"][0], rec["channels"][1] = rec["channels"][1], rec["channels"][0]
        (inputs / "rec-002.json").write_text(json.dumps(rec), encoding="utf-8")
        code, err = run_cli(["ingest-eeg", inputs, "--store", store])
        assert code == 2
        assert f"error: {inputs / 'rec-002.json'}: channels ['Fp2', 'Fp1', 'C3', 'C4']; " in err
        assert not (store / "evd.jsonl").exists()

    @pytest.mark.parametrize(
        "command, unused",
        [
            ("ingest-docs", [EegVectorDatabase]),
            ("ingest-cases", [EegVectorDatabase]),
            ("ingest-eeg", [BipartiteStore, CaseStore]),
        ],
    )
    def test_ingest_loads_only_the_stores_it_uses(
        self, built_store, tmp_path, monkeypatch, capsys, command, unused
    ):
        inputs = {
            "ingest-docs": FIXTURES / "docs.jsonl",
            "ingest-cases": FIXTURES / "cases.jsonl",
            "ingest-eeg": FIXTURES / "eeg",
        }
        store = tmp_path / "store"
        store.mkdir()
        for f in built_store.iterdir():
            (store / f.name).write_bytes(f.read_bytes())

        def refuse(*args, **kwargs):
            raise AssertionError(f"{command} loaded a store it does not use")

        for cls in unused:
            monkeypatch.setattr(cls, "load", refuse)
        assert main([command, str(inputs[command]), "--store", str(store)]) == 0
        for f in built_store.iterdir():
            assert (store / f.name).read_bytes() == f.read_bytes()

    def test_embedding_dim_checked_only_where_the_hypergraph_is_read(
        self, built_store, tmp_path, capsys
    ):
        store = tmp_path / "store"
        store.mkdir()
        for f in built_store.iterdir():
            (store / f.name).write_bytes(f.read_bytes())
        dim = ["--store", str(store), "--set", "embedding_dim=128"]
        for argv in (
            ["ingest-docs", str(FIXTURES / "docs.jsonl")],
            ["ingest-cases", str(FIXTURES / "cases.jsonl")],
            QUERY_ARGS,
        ):
            assert main(argv + dim) == 2
            assert "store embedding_dim 256 != configured 128" in capsys.readouterr().err
        # ingest-eeg neither reads nor writes the hypergraph
        assert main(["ingest-eeg", str(FIXTURES / "eeg")] + dim) == 0
        for f in built_store.iterdir():
            assert (store / f.name).read_bytes() == f.read_bytes()

    @pytest.mark.parametrize(
        "raw, message",
        [
            ('{"age": "35", "eeg_refs": "rec-001"}', "eeg_refs is 'rec-001', not a list of strings"),
            ('{"age": "35", "eeg_refs": ["rec-001", 2]}', "eeg_refs is ['rec-001', 2], not a list of strings"),
            ('{"age": "35", "age ": "36"}', "attribute 'age ' repeats the name 'age'"),
        ],
        ids=["eeg-refs-string", "eeg-refs-non-string", "names-collapse-alike"],
    )
    def test_bad_case_record_exits_2_naming_its_line(self, tmp_path, capsys, raw, message):
        path = tmp_path / "cases.jsonl"
        path.write_text('{"age": "34", "eeg_refs": ["rec-001"]}\n' + raw + "\n", encoding="utf-8")
        assert main(["ingest-cases", str(path), "--store", str(tmp_path / "store")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 2: {message}" in err
        assert "Traceback" not in err

    def test_entities_are_stored_without_embeddings(self, built_store):
        with (built_store / "entities.jsonl").open(encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows and all("embedding" not in row for row in rows)

    def test_store_with_entity_and_case_vectors_still_loads(self, built_store, tmp_path, capsys):
        # the earlier format stored "embedding": null on each entity row and
        # the case's embed_case vector on each case row
        store = tmp_path / "store"
        shutil.copytree(built_store, store)
        entities, cases = store / "entities.jsonl", store / "cases.jsonl"
        for line in range(1, len(entities.read_text(encoding="utf-8").splitlines()) + 1):
            rewrite_row(entities, line, "embedding", None)
        embedder = HashedTokenEmbedder(256)
        rows = map(json.loads, cases.read_text(encoding="utf-8").splitlines())
        for line, row in enumerate(rows, start=1):
            vector = embed_case(row["h"], serialize_case(row["e"]), embedder)
            rewrite_row(cases, line, "embedding", vector.tolist())
        assert main(QUERY_ARGS + ["--store", str(store)]) == 0
        assert capsys.readouterr().out == (GOLDEN / "query_transcript.json").read_text(encoding="utf-8")
        assert main(["ingest-cases", str(FIXTURES / "cases.jsonl"), "--store", str(store)]) == 0
        for f in built_store.iterdir():
            assert (store / f.name).read_bytes() == f.read_bytes(), f.name

    def test_re_ingest_rebuilds_the_case_layer(self, tmp_path, capsys):
        # a knowledge layer that grows after the cases were linked re-links
        # each case in place: one edge per case that mentions an entity
        few = tmp_path / "docs.jsonl"
        lines = (FIXTURES / "docs.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        few.write_text("".join(lines[:3]), encoding="utf-8")
        store, facts = tmp_path / "store", ["--facts", FIXTURES / "docs.facts.jsonl"]
        for argv in (
            ["ingest-docs", few, *facts],
            ["ingest-cases", FIXTURES / "cases.jsonl"],
            ["ingest-docs", FIXTURES / "docs.jsonl", *facts],
            ["ingest-cases", FIXTURES / "cases.jsonl"],
        ):
            assert run_cli([*argv, "--store", store])[0] == 0
            report = capsys.readouterr().out
        assert case_edges(store) == 9 == json.loads(report)["case_hyperedges_linked"]

    def test_docs_and_cases_ingest_in_either_order_alike(self, tmp_path):
        docs = ["ingest-docs", FIXTURES / "docs.jsonl"]
        cases = ["ingest-cases", FIXTURES / "cases.jsonl"]
        stores = []
        for name, commands in (("docs-first", (docs, cases)), ("cases-first", (cases, docs))):
            stores.append(tmp_path / name)
            for argv in commands:
                assert run_cli([*argv, "--store", stores[-1]])[0] == 0
        files = sorted(f.name for f in stores[0].iterdir())
        assert files == sorted(f.name for f in stores[1].iterdir())
        for name in files:
            assert (stores[0] / name).read_bytes() == (stores[1] / name).read_bytes(), name
        assert case_edges(stores[0]) == 9

    def test_format_version_1_store_asks_for_a_re_ingest(self, built_store, tmp_path):
        store = tmp_path / "store"
        shutil.copytree(built_store, store)
        meta = json.loads((store / "meta.json").read_text(encoding="utf-8"))
        (store / "meta.json").write_text(json.dumps({**meta, "format_version": 1}), encoding="utf-8")
        for argv in (QUERY_ARGS, ["ingest-cases", FIXTURES / "cases.jsonl"]):
            code, err = run_cli([*argv, "--store", store])
            assert code == 2
            assert f"error: {store / 'meta.json'}: unsupported store format version 1; " in err
            assert "re-run the ingest commands into an empty store directory" in err

    def test_repeated_case_layer_description_exits_2_naming_its_line(self, built_store, tmp_path):
        store = tmp_path / "store"
        shutil.copytree(built_store, store)
        path = store / "hyperedges.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = next(r for r in map(json.loads, lines) if r["layer"] == "case")
        stale = {**row, "id": row["id"] ^ 1, "members": row["members"][:1]}
        path.write_text("".join(lines) + json.dumps(stale) + "\n", encoding="utf-8")
        code, err = run_cli([*QUERY_ARGS, "--store", store])
        assert code == 2
        assert f"error: {path}: line {len(lines) + 1}: case-layer description " in err

    def test_ingest_eeg_rejects_other_paa_settings(self, built_store, capsys):
        args = ["ingest-eeg", str(FIXTURES / "eeg"), "--store", str(built_store)]
        assert main(args + ["--set", "paa_segments=10"]) == 2
        assert "n_segments 20 != configured 10" in capsys.readouterr().err


def case_edges(store) -> int:
    with (store / "hyperedges.jsonl").open(encoding="utf-8") as fh:
        return sum(json.loads(line)["layer"] == "case" for line in fh)


def first_entity(value):
    return lambda entities: [{**entities[0], "name": value}, *entities[1:]]


def first_channel(value):
    return lambda channels: [{**channels[0], "name": value}, *channels[1:]]


# (input file, line (None: a JSON file), field, value or value(old), message)
MISTYPED = [
    ("rec-001.json", None, "id", 5, "id is 5, not a string"),
    ("rec-001.json", None, "id", [1], "id is [1], not a string"),
    ("rec-001.json", None, "patient_hash", 5, "patient_hash is 5, not a string or null"),
    ("rec-001.json", None, "channels", first_channel(5), "channel name is 5, not a string"),
    ("docs.jsonl", 2, "id", ["x"], "id is ['x'], not a string"),
    ("docs.facts.jsonl", 2, "entities", first_entity(5), "entity name is 5, not a string"),
    ("docs.facts.jsonl", 2, "description", 5, "description is 5, not a string"),
    ("docs.facts.jsonl", 2, "doc_id", ["x"], "doc_id is ['x'], not a string"),
    ("qa.jsonl", 2, "role", 5, "role is 5, not a string"),
    ("qa.jsonl", 2, "domain", [1], "domain is [1], not a string"),
    ("qa.jsonl", 2, "eeg_ref", ["rec-001"], "eeg_ref is ['rec-001'], not a string or null"),
    ("hyperedges.jsonl", 1, "members", [], "hyperedge members must be non-empty"),
    ("hyperedges.jsonl", 1, "members", [True], "member is True, not an integer"),
    ("hyperedges.jsonl", 2, "id", "x", "id is 'x', not an integer"),
    ("hyperedges.jsonl", 2, "id", False, "id is False, not an integer"),
    ("hyperedges.jsonl", 2, "description", 5, "description is 5, not a string"),
    ("hyperedges.jsonl", 2, "embedding", None, "embedding values have shape (), not a list of numbers"),
    ("entities.jsonl", 2, "name", 5, "name is 5, not a string"),
    ("entities.jsonl", 2, "id", 1.5, "id is 1.5, not an integer"),
    ("entities.jsonl", 2, "id", 1 << 63, "entity id 9223372036854775808 carries the hyperedge tag bit"),
    ("entities.jsonl", 2, "id", -1, "entity id -1 is not in [0, 2**64)"),
    ("hyperedges.jsonl", 2, "id", 1 << 64, "hyperedge id 18446744073709551616 is not in [0, 2**64)"),
    ("hyperedges.jsonl", 2, "id", 5, "hyperedge id 5 lacks the hyperedge tag bit"),
    ("evd.jsonl", 2, "patient_hash", 5, "patient_hash is 5, not a string or null"),
    ("evd.jsonl", 2, "channel_order", [1, 2, 3, 4], "channel_order is [1, 2, 3, 4], not a list of strings"),
    ("evd.jsonl", 2, "sample_rate", "x", "sample_rate is 'x', not a finite number > 0"),
    ("evd.jsonl", 2, "sample_rate", 0, "sample_rate is 0, not a finite number > 0"),
    ("evd.jsonl", 2, "n_segments", 20.0, "n_segments is 20.0, not an integer"),
    ("evd.jsonl", 1, "values", lambda v: [1e308, *v[1:]], "channel 'Fp1' values have mean square inf > 1"),
    ("meta.json", None, "embedding_dim", 256.0, "embedding_dim is 256.0, not an integer"),
    ("cases.jsonl", 2, "h", 5, "h is 5, not a string"),
    *[
        ("rec-001.json", None, "sample_rate", value, f"sample_rate is {value!r}, not a finite number > 0")
        for value in ("nan", math.inf, -5, 0, "256", True)
    ],
    # rows that no ingest writes: each store's door refuses them on load too
    ("entities.jsonl", 2, "name", "", "entity name must be non-empty"),
    ("entities.jsonl", 2, "name", "  ", "entity name must be non-empty"),
    ("entities.jsonl", 2, "name", "beta  oscillation", "entity name 'beta  oscillation' is not whitespace-collapsed"),
    ("hyperedges.jsonl", 2, "description", "", "hyperedge description must be non-blank"),
    ("hyperedges.jsonl", 2, "description", " ", "hyperedge description must be non-blank"),
    ("evd.jsonl", 2, "id", "", "recording id must be non-empty"),
    # line 2 is the real case 26bb22054f5fdaf9, line 1 a pseudo-case
    ("cases.jsonl", 2, "synthetic", True, "h is '26bb22054f5fdaf9', not 16 lowercase hex digits and -s"),
    ("cases.jsonl", 2, "h", "26bb22054f5fdaf9-s", "h is '26bb22054f5fdaf9-s', not 16 lowercase hex digits"),
    ("cases.jsonl", 2, "h", "26BB22054F5FDAF9", "h is '26BB22054F5FDAF9', not 16 lowercase hex digits"),
    ("cases.jsonl", 2, "h", "26bb22054f5fdaf", "h is '26bb22054f5fdaf', not 16 lowercase hex digits"),
]
STORE_FILES = ("meta.json", "entities.jsonl", "hyperedges.jsonl", "evd.jsonl", "cases.jsonl")


@pytest.mark.parametrize(
    "name, line, field, value, message",
    MISTYPED,
    ids=[f"{name}-{field}-{value if not callable(value) else 5}" for name, _, field, value, _ in MISTYPED],
)
def test_mistyped_field_exits_2_naming_file_and_line(
    built_store, tmp_path, name, line, field, value, message
):
    inputs, store = tmp_path / "in", tmp_path / "store"
    inputs.mkdir()
    for f in ("docs.jsonl", "docs.facts.jsonl", "qa.jsonl", "eeg/rec-001.json"):
        shutil.copy(FIXTURES / f, inputs)
    shutil.copytree(built_store, store)
    path = (store if name in STORE_FILES else inputs) / name
    if line is None:
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj[field] = value(obj[field]) if callable(value) else value
        path.write_text(json.dumps(obj), encoding="utf-8")
    else:
        rewrite_row(path, line, field, value)
    argv = {
        "rec-001.json": ["ingest-eeg", path],
        "docs.jsonl": ["ingest-docs", inputs / "docs.jsonl"],
        "docs.facts.jsonl": ["ingest-docs", inputs / "docs.jsonl"],
        "qa.jsonl": ["bench", path, "--out", tmp_path / "out"],
    }.get(name, QUERY_ARGS)
    code, err = run_cli([*argv, "--store", store])
    assert code == 2
    where = str(path) if line is None else f"{path}: line {line}"
    assert f"error: {where}: {message}" in err


@pytest.mark.parametrize(
    "name, key, message",
    [
        ("entities.jsonl", "id", "entity id {} repeats"),
        ("hyperedges.jsonl", "id", "hyperedge id {} repeats"),
        ("evd.jsonl", "id", "duplicate recording id {!r}"),
        ("cases.jsonl", "h", "case hash {!r} repeats"),
    ],
    ids=["entities", "hyperedges", "evd", "cases"],
)
def test_repeated_id_exits_2_naming_its_line(built_store, tmp_path, name, key, message):
    store = tmp_path / "store"
    shutil.copytree(built_store, store)
    path = store / name
    first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])[key]
    rewrite_row(path, 2, key, first)
    code, err = run_cli([*QUERY_ARGS, "--store", store])
    assert code == 2
    assert f"error: {path}: line 2: {message.format(first)}" in err


@pytest.mark.parametrize(
    "argv",
    [
        QUERY_ARGS,
        ["ingest-docs", FIXTURES / "docs.jsonl"],
        ["ingest-cases", FIXTURES / "cases.jsonl"],
        ["serve", "--bind", "127.0.0.1:0"],
    ],
    ids=["query", "ingest-docs", "ingest-cases", "serve"],
)
def test_case_without_attributes_exits_2_naming_its_line(built_store, tmp_path, monkeypatch, argv):
    # loading must refuse the row: a store that loads it fails later, unlocated
    monkeypatch.setattr("eegrag.server.serve", lambda *a: pytest.fail("the store loaded"))
    store = tmp_path / "store"
    shutil.copytree(built_store, store)
    path = store / "cases.jsonl"
    rewrite_row(path, 2, "e", {})
    code, err = run_cli([*argv, "--store", store])
    assert code == 2
    assert f"error: {path}: line 2: case has no attributes" in err


@pytest.mark.parametrize(
    "command, name, line, field, value",
    [
        ("ingest-docs", "docs.facts.jsonl", 2, "entities", first_entity("epi\ud800")),
        ("ingest-cases", "cases.jsonl", 3, "age", "3\ud8004"),
        ("ingest-eeg", "rec-001.json", None, "id", "rec-\ud800"),
    ],
    ids=["ingest-docs", "ingest-cases", "ingest-eeg"],
)
def test_lone_surrogate_escape_exits_2_naming_file_and_line(tmp_path, command, name, line, field, value):
    # json reads "\ud800" as a lone surrogate, which no store can write as UTF-8
    for f in ("docs.jsonl", "docs.facts.jsonl", "cases.jsonl", "eeg/rec-001.json"):
        shutil.copy(FIXTURES / f, tmp_path)
    path = tmp_path / name
    if line is None:
        path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")), field: value}), encoding="utf-8")
    else:
        rewrite_row(path, line, field, value)
    assert "\\ud800" in path.read_text(encoding="utf-8")
    inputs = {
        "ingest-docs": [tmp_path / "docs.jsonl", "--facts", path],
        "ingest-cases": [path],
        "ingest-eeg": [path],
    }[command]
    code, err = run_cli([command, *inputs, "--store", tmp_path / "store"])
    assert code == 2
    where = f"{path}: line {line}" if line else path
    assert f"error: {where}: string " in err and "is not valid UTF-8 text: a lone surrogate '\\ud800'" in err


def test_entity_ids_with_the_hyperedge_tag_exit_2_before_any_traversal(built_store, tmp_path):
    # the entities that neither the question nor a case names are tagged,
    # members alike, so every seed is found and the closure walks from a
    # retrieved edge into a tagged entity
    store = tmp_path / "store"
    shutil.copytree(built_store, store)
    graph = BipartiteStore.load(store, 256)
    seeds = {m.entity_id for m in find_entity_mentions(QUERY_ARGS[1], graph)}
    seeds.update(*(e.members for e in graph.hyperedges.values() if e.layer == "case"))
    tag = 1 << 63

    def retag(eid):
        return eid if eid in seeds else eid | tag

    for name, field, rewrite in (
        ("entities.jsonl", "id", retag),
        ("hyperedges.jsonl", "members", lambda members: [retag(m) for m in members]),
    ):
        path = store / name
        for line in range(1, len(path.read_text(encoding="utf-8").splitlines()) + 1):
            rewrite_row(path, line, field, rewrite)
    code, err = run_cli([*QUERY_ARGS, "--store", store, "--set", "closure_radius=2"])
    assert code == 2
    assert f"error: {store / 'entities.jsonl'}: line " in err
    assert "carries the hyperedge tag bit" in err


class TestQuery:
    def test_golden_transcript(self, built_store, capsys):
        assert main(QUERY_ARGS + ["--store", str(built_store)]) == 0
        out = capsys.readouterr().out
        golden = (GOLDEN / "query_transcript.json").read_text(encoding="utf-8")
        assert out == golden

    def test_case_rows_that_still_hold_eeg_refs_answer_the_same(self, built_store, tmp_path, capsys):
        # stores written before cases dropped eeg_refs hold it on every row
        store = tmp_path / "store"
        shutil.copytree(built_store, store)
        path = store / "cases.jsonl"
        for line in range(1, len(path.read_text(encoding="utf-8").splitlines()) + 1):
            rewrite_row(path, line, "eeg_refs", ["rec-001"])
        assert main(QUERY_ARGS + ["--store", str(store)]) == 0
        assert capsys.readouterr().out == (GOLDEN / "query_transcript.json").read_text(encoding="utf-8")

    def test_repeat_runs_byte_identical(self, built_store, capsys):
        main(QUERY_ARGS + ["--store", str(built_store)])
        first = capsys.readouterr().out
        main(QUERY_ARGS + ["--store", str(built_store)])
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    def test_config_file_with_a_byte_order_mark(self, built_store, tmp_path, capsys):
        path = tmp_path / "bom.conf"
        path.write_bytes("\ufeffeeg_top_k = 3\n".encode("utf-8"))
        assert main(QUERY_ARGS + ["--store", str(built_store), "--config", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["traces"]["eeg"]) == 3

    def test_repeated_stored_id_runs_dtw_once(self, built_store, monkeypatch):
        pipeline = Pipeline.from_directory(built_store, PipelineConfig())
        calls = []
        kernel = eeg_module._dtw_rows
        monkeypatch.setattr(eeg_module, "_dtw_rows", lambda *args: calls.append(1) or kernel(*args))
        question = QUERY_ARGS[1]
        stored = [pipeline.run_query(question, "doctor", eeg_recording_id="rec-001").to_json() for _ in range(2)]
        assert stored[0].encode() == stored[1].encode()
        scan = len(calls)
        assert scan > 0
        recording = load_recording(FIXTURES / "eeg" / "rec-003.json")
        fresh = [pipeline.run_query(question, eeg_recording=recording).to_json() for _ in range(2)]
        assert fresh[0] == fresh[1]
        assert len(calls) == 3 * scan

    def test_eeg_ignored_when_channel_disabled(self, built_store, capsys):
        args = QUERY_ARGS + ["--store", str(built_store), "--set", "el=false"]
        assert main(args) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["traces"]["eeg"] == []
        assert result["context"]["eeg_matches"] == []

    def test_eeg_file_ignored_with_warning_when_disabled(self, built_store, capsys, caplog):
        args = [
            "query",
            "anything at all",
            "--eeg",
            str(FIXTURES / "eeg" / "rec-003.json"),
            "--store",
            str(built_store),
            "--set",
            "el=false",
        ]
        with caplog.at_level("WARNING", logger="eegrag.pipeline"):
            assert main(args) == 0
        assert any("ignoring" in r.message for r in caplog.records)
        result = json.loads(capsys.readouterr().out)
        assert result["traces"]["eeg"] == []

    def test_eeg_file_query_matches_itself(self, built_store, capsys):
        args = [
            "query",
            "what does this recording resemble",
            "--eeg",
            str(FIXTURES / "eeg" / "rec-003.json"),
            "--store",
            str(built_store),
        ]
        assert main(args) == 0
        result = json.loads(capsys.readouterr().out)
        top = result["traces"]["eeg"][0]
        assert top["recording_id"] == "rec-003"
        assert top["distance"] == 0.0

    def test_eeg_file_with_other_channel_names_exits_2(self, built_store, tmp_path):
        rec = json.loads((FIXTURES / "eeg" / "rec-003.json").read_text(encoding="utf-8"))
        for name, channel in zip("WXYZ", rec["channels"]):
            channel["name"] = name
        (tmp_path / "q.json").write_text(json.dumps(rec), encoding="utf-8")
        code, err = run_cli(["query", "what is this", "--eeg", tmp_path / "q.json", "--store", built_store])
        assert code == 2
        assert "error: channels ['W', 'X', 'Y', 'Z']; the EEG database holds ['Fp1', 'Fp2', 'C3', 'C4']" in err

    def test_query_against_empty_knowledge_store(self, tmp_path, capsys):
        store = tmp_path / "empty"
        empty = tmp_path / "docs.jsonl"
        empty.write_text("")
        main(["ingest-docs", str(empty), "--store", str(store)])
        capsys.readouterr()
        assert main(["query", "what about alpha rhythm", "--store", str(store)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert "[Knowledge]\n(none)" in result["rendered_context"]
        assert result["provenance"]["ungrounded"]

    def test_missing_store_guidance(self, tmp_path, capsys):
        code = main(["query", "q", "--store", str(tmp_path / "nowhere")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ingest" in err
        assert f"no store found under {tmp_path / 'nowhere'}; run the ingest commands first" in err

    def test_eeg_only_store_is_queryable(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert run_cli(["ingest-eeg", FIXTURES / "eeg", "--store", store])[0] == 0
        assert [p.name for p in store.iterdir()] == ["evd.jsonl"]
        capsys.readouterr()
        assert run_cli([*QUERY_ARGS, "--store", store]) == (0, "")
        result = json.loads(capsys.readouterr().out)
        assert [m["recording_id"] for m in result["traces"]["eeg"]][:1] == ["rec-001"]
        assert result["traces"]["hyperedges"] == [] and result["context"]["cases"] == []

    def test_eeg_file_and_eeg_id_together_exit_2(self, built_store, capsys):
        argv = ["query", "q", "--eeg", str(FIXTURES / "eeg" / "rec-003.json"), "--eeg-id", "rec-001"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--store", str(built_store)])
        assert exit_info.value.code == 2
        assert "argument --eeg-id: not allowed with argument --eeg" in capsys.readouterr().err

    @pytest.mark.parametrize("el", ["true", "false"])
    def test_run_query_refuses_a_recording_and_a_stored_id_together(self, built_store, el):
        pipeline = Pipeline.from_directory(built_store, PipelineConfig.from_mapping({"el": el}))
        recording = load_recording(FIXTURES / "eeg" / "rec-003.json")
        with pytest.raises(PreconditionError, match="not both"):
            pipeline.run_query("q", eeg_recording=recording, eeg_recording_id="rec-001")

    @pytest.mark.parametrize("option", ["question", "--role", "--domain"])
    def test_undecodable_argument_exits_2_naming_the_field(self, built_store, option):
        # Python decodes argv with surrogateescape, so the byte 0xff arrives as "\udcff"
        text = os.fsdecode(b"epilepsy \xff")
        argv = ["query", text] if option == "question" else [*QUERY_ARGS, option, text]
        code, err = run_cli([*argv, "--store", built_store])
        assert code == 2
        field = {"question": "text", "--role": "role", "--domain": "domain"}[option]
        assert f"in query {field} is not valid UTF-8 text: a lone surrogate '\\udcff'" in err

    @pytest.mark.parametrize(
        "query, message",
        [
            ({"question": "epilepsy \ud800"}, "in query text is not valid UTF-8 text"),
            ({"question": "q", "role": "\udcff"}, "in query role is not valid UTF-8 text"),
            ({"question": "q", "domain": 3}, "query domain is 3, not a string or null"),
            ({"question": None}, "query text is None, not a string"),
            (
                {"question": "q", "eeg_recording_id": ["rec-001"]},
                r"eeg_recording_id is \['rec-001'\], not a string or null",
            ),
            (
                {"question": "q", "eeg_recording_id": {"id": "rec-001"}},
                r"eeg_recording_id is \{'id': 'rec-001'\}, not a string or null",
            ),
            ({"question": "q", "eeg_recording": "rec-001"}, "eeg_recording is a str, not an EegRecording"),
        ],
        ids=[
            "surrogate-text", "surrogate-role", "int-domain", "none-text",
            "list-recording-id", "object-recording-id", "string-recording",
        ],
    )
    def test_run_query_refuses_text_that_is_not_valid(self, built_store, query, message):
        pipeline = Pipeline.from_directory(built_store, PipelineConfig())
        with pytest.raises(PreconditionError, match=message):
            pipeline.run_query(**query)

    def test_unknown_eeg_id(self, built_store, capsys):
        code = main(["query", "q", "--eeg-id", "rec-nope", "--store", str(built_store)])
        assert code == 2
        assert "rec-nope" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, key",
        [
            ("entities.jsonl", "name"),
            ("hyperedges.jsonl", "members"),
            ("cases.jsonl", "e"),
            ("evd.jsonl", "values"),
        ],
    )
    @pytest.mark.parametrize("damage", ["torn-last-line", "missing-key"])
    def test_malformed_store_file_exits_2_naming_path_and_line(
        self, built_store, tmp_path, capsys, name, key, damage
    ):
        store = tmp_path / "store"
        store.mkdir()
        for f in built_store.iterdir():
            (store / f.name).write_bytes(f.read_bytes())
        path = store / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        if damage == "torn-last-line":
            lines[-1] = lines[-1][: len(lines[-1]) // 2]
            line = len(lines)
        else:
            row = json.loads(lines[0])
            del row[key]
            lines[0] = json.dumps(row) + "\n"
            line = 1
        path.write_text("".join(lines), encoding="utf-8")
        assert main(QUERY_ARGS + ["--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line {line}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, key", [("evd.jsonl", "values"), ("hyperedges.jsonl", "embedding")]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_embedding_exits_2_naming_path_and_line(
        self, built_store, tmp_path, capsys, name, key, value
    ):
        store = tmp_path / "store"
        store.mkdir()
        for f in built_store.iterdir():
            (store / f.name).write_bytes(f.read_bytes())
        path = store / name
        rewrite_row(path, 3, key, lambda v: v[:-1] + [value])
        assert main(QUERY_ARGS + ["--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line 3: embedding values must be finite" in err
        assert "Traceback" not in err

    def test_evd_settings_must_match_config(self, built_store, capsys):
        code = main(QUERY_ARGS + ["--store", str(built_store), "--set", "paa_segments=12"])
        assert code == 2
        assert "configured" in capsys.readouterr().err


class TestBench:
    def test_writes_reports_and_is_deterministic(self, built_store, tmp_path, capsys):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        args = ["bench", str(FIXTURES / "qa.jsonl"), "--store", str(built_store), "--set", "bootstrap_resamples=100"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
        table = capsys.readouterr().out
        assert "Overall" in table
        payload = json.loads((out1 / "report.json").read_text())
        assert payload["errored"] == 0
        assert len(payload["examples"]) == 12

    def test_echo_gold_client_scores_hundred_everywhere(self, built_store):
        from eegrag.config import PipelineConfig
        from eegrag.evaluation import load_qa, run_benchmark
        from conftest import CannedAnswerClient
        from eegrag.pipeline import Pipeline

        dataset = load_qa(FIXTURES / "qa.jsonl")
        client = CannedAnswerClient({e.question: e.gold for e in dataset})
        pipeline = Pipeline.from_directory(built_store, PipelineConfig(), client=client)
        report = run_benchmark(dataset, pipeline, resamples=0, seed=0)
        assert report.overall.em == 100.0 and report.overall.f1 == 100.0
        for agg in list(report.domains.values()) + list(report.roles.values()):
            assert agg.em == 100.0 and agg.f1 == 100.0
        assert "100.00" in report.format_table()

    def test_missing_recording_counted_as_errored(self, built_store, tmp_path, capsys):
        dataset = tmp_path / "qa.jsonl"
        dataset.write_text(
            '{"id": "x1", "domain": "d", "role": "r", "question": "q?", "gold": "g", "eeg_ref": "rec-missing"}\n'
            '{"id": "x2", "domain": "d", "role": "r", "question": "q2?", "gold": "g"}\n'
        )
        code = main(
            ["bench", str(dataset), "--store", str(built_store), "--out", str(tmp_path / "o"),
             "--set", "bootstrap_resamples=0"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "o" / "report.json").read_text())
        assert payload["errored"] == 1

    def test_all_errored_returns_nonzero(self, built_store, tmp_path):
        dataset = tmp_path / "qa.jsonl"
        dataset.write_text(
            '{"id": "x1", "domain": "d", "role": "r", "question": "q?", "gold": "g", "eeg_ref": "rec-missing"}\n'
        )
        code = main(
            ["bench", str(dataset), "--store", str(built_store), "--out", str(tmp_path / "o"),
             "--set", "bootstrap_resamples=0"]
        )
        assert code == 1


class TestAblationSemantics:
    def run_query_with(self, built_store, capsys, *sets: str) -> dict:
        args = QUERY_ARGS + ["--store", str(built_store)]
        for s in sets:
            args += ["--set", s]
        assert main(args) == 0
        return json.loads(capsys.readouterr().out)

    def test_each_flag_empties_exactly_its_channel(self, built_store, capsys):
        full = self.run_query_with(built_store, capsys)
        assert full["traces"]["eeg"] and full["traces"]["hyperedges"] and full["traces"]["entities"]

        no_el = self.run_query_with(built_store, capsys, "el=false")
        assert no_el["traces"]["eeg"] == []
        assert no_el["traces"]["hyperedges"] == full["traces"]["hyperedges"]
        assert no_el["traces"]["entities"] == full["traces"]["entities"]

        no_il = self.run_query_with(built_store, capsys, "il=false")
        assert no_il["traces"]["hyperedges"] == []
        assert no_il["traces"]["eeg"] == full["traces"]["eeg"]
        assert no_il["traces"]["entities"] == full["traces"]["entities"]

        no_cl = self.run_query_with(built_store, capsys, "cl=false")
        assert no_cl["traces"]["entities"] == []
        assert no_cl["traces"]["expansion_edges"] == []
        assert no_cl["traces"]["eeg"] == full["traces"]["eeg"]
        assert no_cl["traces"]["hyperedges"] == full["traces"]["hyperedges"]

    def test_all_disabled_is_question_only(self, built_store, capsys):
        naive = self.run_query_with(
            built_store, capsys, "cl=false", "il=false", "el=false"
        )
        assert naive["traces"] == {
            "eeg": [],
            "hyperedges": [],
            "entities": [],
            "expansion_edges": [],
        }
        assert naive["provenance"]["ungrounded"]
        assert naive["context"]["hyperedges"] == []
        assert naive["rendered_context"] == (
            "[Knowledge]\n(none)\n\n[Similar Cases]\n(none)\n\n[EEG Matches]\n(none)"
        )


class TestBadInput:
    """Malformed command-line input prints ``error: ...`` and exits 2."""

    def run(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_none_for_a_setting_that_must_not_be_none(self, built_store, capsys):
        err = self.run(capsys, *QUERY_ARGS, "--store", str(built_store), "--set", "seed=none")
        assert "'seed' must not be none" in err

    def test_set_without_equals(self, built_store, capsys):
        err = self.run(capsys, *QUERY_ARGS, "--store", str(built_store), "--set", "eeg_top_k")
        assert "--set expects key=value, got 'eeg_top_k'" in err

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.conf"
        path.write_bytes("seed = 1 # caf\xe9\n".encode("latin-1"))
        err = self.run(capsys, "query", "q", "--store", str(tmp_path), "--config", str(path))
        assert "not UTF-8" in err

    def test_config_file_that_is_a_directory(self, tmp_path, capsys):
        self.run(capsys, "query", "q", "--store", str(tmp_path), "--config", str(tmp_path))

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("remote_max_inflight=-1", "remote_max_inflight must be >= 1"),
            ("remote_retries=-1", "remote_retries must be >= 0"),
            ("remote_timeout=0", "remote_timeout must be > 0"),
        ],
        ids=["max_inflight", "retries", "timeout"],
    )
    def test_bad_remote_call_policy(self, built_store, capsys, setting, message):
        remote = ["client=remote", "remote_endpoint=http://127.0.0.1:9/v1", "remote_model=m"]
        sets = [arg for item in (*remote, setting) for arg in ("--set", item)]
        err = self.run(capsys, *QUERY_ARGS, "--store", str(built_store), *sets)
        assert message in err

    def test_negative_bootstrap_resamples(self, built_store, tmp_path, capsys):
        out = tmp_path / "out"
        err = self.run(
            capsys, "bench", str(FIXTURES / "qa.jsonl"), "--store", str(built_store),
            "--out", str(out), "--set", "bootstrap_resamples=-1",
        )
        assert "bootstrap_resamples must be >= 0" in err
        assert not (out / "report.json").exists()

    def test_negative_seed(self, built_store, tmp_path):
        argv = ["bench", FIXTURES / "qa.jsonl", "--store", built_store, "--out", tmp_path / "out"]
        code, err = run_cli(argv + ["--set", "seed=-1"])
        assert code == 2
        assert "error: seed must be >= 0" in err
        assert not (tmp_path / "out").exists()

    def test_case_attribute_that_is_not_a_list_exits_2(self, built_store, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        for f in built_store.iterdir():
            (store / f.name).write_bytes(f.read_bytes())
        path = store / "cases.jsonl"
        rewrite_row(path, 2, "e", lambda e: {**e, "age": "36"})
        err = self.run(capsys, *QUERY_ARGS, "--store", str(store))
        assert f"{path}: line 2: attribute 'age' is '36', not a list of strings" in err

    @pytest.mark.parametrize("key", ["eeg_normalize", "link_case_hyperedges", "pseudo_max_fills"])
    def test_removed_setting_is_an_unknown_key(self, tmp_path, capsys, key):
        err = self.run(capsys, *QUERY_ARGS, "--store", str(tmp_path), "--set", f"{key}=true")
        assert f"unknown config key {key!r}" in err

    def test_ingest_cases_has_no_augment_switch(self, tmp_path, capsys):
        argv = ["ingest-cases", str(FIXTURES / "cases.jsonl"), "--store", str(tmp_path)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--no-augment"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-augment" in capsys.readouterr().err

    @pytest.mark.parametrize("bind", ["127.0.0.1:abc", "127.0.0.1:99999", "127.0.0.1:"])
    def test_serve_rejects_a_bad_port_before_loading_the_store(self, tmp_path, capsys, bind):
        # the store does not exist, so only a check made before loading it names --bind
        err = self.run(capsys, "serve", "--bind", bind, "--store", str(tmp_path / "nowhere"))
        assert "--bind" in err
