"""Every command exits 0 or 2, whatever one JSON value of its input holds.

Each example copies the fixture corpus and the store built from it, mutates
one JSON value of one input or store file (a type swap, a lone surrogate, a
huge integer or float, NaN or a nested value) and runs a command that reads
that file through ``eegrag.cli.main``. It must exit 0 or 2 with no
traceback, and an ingest that exits 0 must leave a store that loads and
saves back byte-identical.
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from eegrag.cases import CaseStore
from eegrag.config import PipelineConfig
from eegrag.eeg import EegVectorDatabase
from eegrag.hypergraph import LAYER_FILES, BipartiteStore
from eegrag.pipeline import save_stores

from conftest import FIXTURES, run_cli

QUESTION = "A 34 year old woman shows 3 Hz spike-wave discharge. What is the likely diagnosis?"
QUERY = ["query", QUESTION, "--role", "doctor", "--eeg-id", "rec-001"]
# each input file with the ingest that reads it, and the file each ingest is given
INGEST = {
    "docs.jsonl": "ingest-docs",
    "docs.facts.jsonl": "ingest-docs",
    "cases.jsonl": "ingest-cases",
    "rec-001.json": "ingest-eeg",
}
INPUT = {"ingest-docs": "docs.jsonl", "ingest-cases": "cases.jsonl", "ingest-eeg": "rec-001.json"}
GRAPH = ["meta.json", "entities.jsonl", "hyperedges.jsonl", "case_edges.jsonl"]
CASE_GRAPH = ["meta.json", "entities.jsonl", "case_edges.jsonl"]
# the store files each command reads, and those each ingest writes
READS = {
    "query": [*GRAPH, "cases.jsonl", "evd.jsonl"],
    "ingest-docs": [*GRAPH, "cases.jsonl"],
    "ingest-cases": [*CASE_GRAPH, "cases.jsonl"],
    "ingest-eeg": ["evd.jsonl"],
}
WRITES = {
    "ingest-docs": GRAPH,
    "ingest-cases": ["meta.json", "case_edges.jsonl", "cases.jsonl"],
    "ingest-eeg": ["evd.jsonl"],
}
# one of each JSON type, for a type swap
JSON_TYPES = [None, True, 7, 1.5, "x", [], {}]


def paths(value, prefix=()):
    """The path of ``value`` and of each value inside it (a list's first two only)."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value[:2]) if isinstance(value, list) else ()
    for key, inner in items:
        yield from paths(inner, (*prefix, key))


def mutated(value, mutation: str, draw):
    if mutation == "type":
        return draw(st.sampled_from([v for v in JSON_TYPES if type(v) is not type(value)]))
    if mutation == "surrogate":
        if isinstance(value, str):
            at = draw(st.integers(0, len(value)))
            return value[:at] + "\ud800" + value[at:]
        if isinstance(value, dict) and value:
            key = draw(st.sampled_from(sorted(value)))
            return {(k + "\udcff" if k == key else k): v for k, v in value.items()}
        return "a\udcff"
    if mutation == "huge":
        return draw(st.sampled_from([10**400, -(10**400), 1e308, -1e308]))
    if mutation == "nan":
        return float("nan")
    return [value]


def replaced(row, path, new):
    if not path:
        return new
    row[path[0]] = replaced(row[path[0]], path[1:], new)
    return row


def mutate_file(path: Path, draw) -> None:
    """Replace one JSON value of ``path`` (a JSON document or one JSONL row)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    jsonl = path.suffix == ".jsonl"
    index = draw(st.integers(0, len(lines) - 1)) if jsonl else 0
    text = lines[index] if jsonl else "\n".join(lines)
    row = json.loads(text)
    where = draw(st.sampled_from(list(paths(row))))
    value = row
    for key in where:
        value = value[key]
    mutation = draw(st.sampled_from(["type", "surrogate", "huge", "nan", "nested"]))
    # json.dumps escapes a lone surrogate as \\udXXX, so the file stays UTF-8
    text = json.dumps(replaced(row, where, mutated(value, mutation, draw)))
    lines = [*lines[:index], text, *lines[index + 1 :]] if jsonl else [text]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def assert_store_round_trips(store: Path, command: str) -> None:
    """The store files ``command`` wrote load and save back byte-identical;
    the hypergraph loads only the layers whose files ``command`` wrote."""
    config = PipelineConfig()
    layers = [layer for layer, name in LAYER_FILES.items() if name in WRITES[command]]
    with tempfile.TemporaryDirectory() as again:
        save_stores(
            again,
            store=BipartiteStore.load(store, config.embedding_dim, layers) if "meta.json" in WRITES[command] else None,
            case_store=CaseStore.load(store) if "cases.jsonl" in WRITES[command] else None,
            evd=EegVectorDatabase.load(store, config.paa_segments) if "evd.jsonl" in WRITES[command] else None,
        )
        for name in WRITES[command]:
            assert (Path(again) / name).read_bytes() == (store / name).read_bytes(), name


class Scripted:
    """Stands in for ``st.data()`` in an explicit example: each draw returns the next value."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


# an input file with the ingest that reads it, or a store file with a command that reads it
TARGETS = [("inputs", name, command) for name, command in INGEST.items()] + [
    ("store", name, command) for command, names in READS.items() for name in names
]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(target=st.sampled_from(TARGETS), argv=st.none(), data=st.data())
@example(target=("store", "meta.json", "query"), argv=os.fsdecode(b"epilepsy \xff"), data=None)
# one sample whose square overflows a float when the channel is z-scored
@example(
    target=("inputs", "rec-001.json", "ingest-eeg"),
    argv=None,
    data=Scripted(("channels", 0, "samples", 0), "huge", 1e308),
)
# a float where the store keeps an integer size
@example(target=("store", "meta.json", "query"), argv=None, data=Scripted(("embedding_dim",), "type", 256.0))
# a stored PAA value that overflows the DTW sums of a query
@example(target=("store", "evd.jsonl", "query"), argv=None, data=Scripted(0, ("values", 0), "huge", 1e308))
def test_every_command_exits_0_or_2(built_store, target, argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        inputs, store = Path(tmp) / "inputs", Path(tmp) / "store"
        inputs.mkdir()
        for name in ("docs.jsonl", "docs.facts.jsonl", "cases.jsonl", "eeg/rec-001.json"):
            shutil.copy(FIXTURES / name, inputs)
        shutil.copytree(built_store, store)
        directory, name, command = target
        if argv is None:  # an explicit example sets argv and mutates no file
            mutate_file(Path(tmp) / directory / name, data.draw)
        if name == "rec-001.json":
            (store / "evd.jsonl").unlink()  # so the recording is read, not skipped
        if command == "query":
            args = QUERY if argv is None else ["query", argv]
        else:
            args = [command, inputs / INPUT[command]]
        code, err = run_cli([*args, "--store", store])
        assert code in (0, 2), err
        if code == 0 and command != "query":
            assert_store_round_trips(store, command)
