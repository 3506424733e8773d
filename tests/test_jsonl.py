import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eegrag.cases import CaseStore, PatientCase
from eegrag.eeg import EegVectorDatabase
from eegrag.errors import DimensionMismatchError, PreconditionError, ReferentialError
from eegrag.hypergraph import BipartiteStore
from eegrag import jsonl
from eegrag.jsonl import (
    VectorEncoder,
    int_field,
    read_json,
    read_jsonl,
    shown,
    str_field,
    str_list,
    write_json,
    write_jsonl,
)

from conftest import vector_oracle


class TestRead:
    def test_blank_lines_skipped_and_rows_parsed_in_order(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('\n{"a": 1}\n   \n{"a": 2}\n\n', encoding="utf-8")
        assert read_jsonl(path, lambda row: row["a"]) == [1, 2]

    @pytest.mark.parametrize(
        "text, line",
        [
            ('{"a": 1}\n{"a": 2', 2),  # torn last line
            ('{"a": 1}\n\n{"b": 2}\n', 3),  # missing key
            ('{"a": 1}\n[1, 2]\n', 2),  # not an object
            ('"text"\n', 1),
            ('{"a": "\xe9"}\n'.encode("latin-1"), 1),  # not UTF-8
            ('{"a": 1}\n' + "[" * 100_000 + "\n", 2),  # past the recursion limit
        ],
        ids=["torn", "missing-key", "array-row", "string-row", "not-utf8", "deep-nesting"],
    )
    def test_malformed_line_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "rows.jsonl"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(PreconditionError, match=f"rows.jsonl: line {line}: "):
            read_jsonl(path, lambda row: row["a"])

    @pytest.mark.parametrize("error", [DimensionMismatchError, ReferentialError])
    def test_store_errors_keep_their_type(self, tmp_path, error):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n', encoding="utf-8")

        def parse(row):
            if row["a"] == 2:
                raise error("bad row")
            return row

        with pytest.raises(error, match="rows.jsonl: line 2: bad row"):
            read_jsonl(path, parse)

    def test_integer_too_large_for_a_float_names_the_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n{"a": 1' + "0" * 400 + "}\n", encoding="utf-8")
        with pytest.raises(PreconditionError, match="rows.jsonl: line 2: .*too large"):
            read_jsonl(path, lambda row: float(row["a"]))

    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None, [1]])
    def test_int_field_takes_json_integers_only(self, value):
        assert int_field(-3, "id") == -3
        with pytest.raises(PreconditionError, match=r"^id is .*, not an integer$"):
            int_field(value, "id")

    def test_shown_names_an_integer_too_long_to_format_by_its_size(self):
        assert shown("a") == "'a'" and shown(-(10**40)) == repr(-(10**40))
        assert shown(10**5000) == "<an integer of 16610 bits>"
        assert shown([1, 10**5000]) == "<a list holding an integer too long to show>"
        with pytest.raises(PreconditionError, match=r"^id is <an integer of 16610 bits>, not a string$"):
            str_field(10**5000, "id")
        with pytest.raises(PreconditionError, match=r"^ids is <a list holding .*>, not a list of strings$"):
            str_list([10**5000], "ids")

    def test_malformed_json_document_names_path(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text('{"format_version": ', encoding="utf-8")
        with pytest.raises(PreconditionError, match="meta.json: "):
            read_json(path, dict)

    def test_document_nested_past_the_recursion_limit_names_path(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(PreconditionError, match="meta.json: .*recursion"):
            read_json(path, dict)

    @pytest.mark.parametrize(
        "text, parse",
        [
            ('{"a": "x\\ud800y"}', lambda row: str_field(row["a"], "a")),
            ('{"a": ["ok", "\\udfff"]}', lambda row: str_list(row["a"], "a")),
            ('{"\\ud800": 1}', lambda row: [str_field(key, "a") for key in row]),  # a key that is read
            ('{"a": "\\ude00\\ud83d"}', lambda row: str_field(row["a"], "a")),  # a pair in the wrong order
        ],
        ids=["value", "nested", "key", "reversed-pair"],
    )
    def test_lone_surrogate_escape_names_path_and_line(self, tmp_path, text, parse):
        # a field checker refuses the string; the reader adds the location
        path = tmp_path / "rows.jsonl"
        valid = text.replace("\\u", "u")  # the escapes spelt out as plain text
        path.write_text(valid + "\n" + text + "\n", encoding="utf-8")
        with pytest.raises(PreconditionError, match=r"rows.jsonl: line 2: string .* in a is not valid UTF-8 text"):
            read_jsonl(path, parse)
        meta = tmp_path / "meta.json"
        meta.write_text(text, encoding="utf-8")
        with pytest.raises(PreconditionError, match=r"meta.json: string .* in a is not valid UTF-8 text"):
            read_json(meta, parse)

    def test_lone_surrogate_in_a_field_no_parser_reads_is_ignored(self, tmp_path):
        text = '{"a": "ok", "b": ["\\ud800"], "\\udc00": 1}'
        path = tmp_path / "rows.jsonl"
        path.write_text(text + "\n", encoding="utf-8")
        assert read_jsonl(path, lambda row: str_field(row["a"], "a")) == ["ok"]
        meta = tmp_path / "meta.json"
        meta.write_text(text, encoding="utf-8")
        assert read_json(meta, lambda row: str_field(row["a"], "a")) == "ok"

    @pytest.mark.parametrize(
        "text, value",
        [
            ('{"a": "\\ud83d\\ude00"}', "\U0001f600"),  # a surrogate pair is one character
            ('{"a": "\\\\ud800"}', "\\ud800"),  # an escaped backslash, then text
            ('{"a": "\\u00e9"}', "\xe9"),
        ],
    )
    def test_escapes_that_spell_valid_text_are_read(self, tmp_path, text, value):
        path = tmp_path / "rows.jsonl"
        path.write_text(text + "\n", encoding="utf-8")
        assert read_jsonl(path, lambda row: row["a"]) == [value]
        meta = tmp_path / "meta.json"
        meta.write_text(text, encoding="utf-8")
        assert read_json(meta, dict) == {"a": value}

    def test_json_document_with_an_encoded_surrogate_names_path(self, tmp_path):
        # "surrogatepass" would read these bytes as "\ud800"; strict UTF-8 refuses them
        path = tmp_path / "meta.json"
        path.write_bytes(b'{"a": "\xed\xa0\x80"}')
        with pytest.raises(PreconditionError, match="meta.json: .*codec can't decode"):
            read_json(path, dict)

    def test_json_document_in_utf16_is_read(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_bytes('{"a": "\xe9"}'.encode("utf-16"))
        assert read_json(path, dict) == {"a": "\xe9"}


def _read_a(row):
    """``row["a"]``, through ``str_field`` when it is a string."""
    return str_field(row["a"], "a") if isinstance(row["a"], str) else row["a"]


def _first_bad_line(lines: list[bytes]) -> int | None:
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                a = json.loads(line.decode("utf-8"))["a"]
                if isinstance(a, str):
                    a.encode("utf-8")  # a lone surrogate
            except Exception:
                return lineno
    return None


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("ab"), inner, max_size=2),
    max_leaves=6,
)
_LINES = st.one_of(
    st.dictionaries(st.just("a"), _JSON_VALUES, min_size=1).map(lambda row: json.dumps(row).encode()),
    _JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    st.sampled_from([b"", b"  ", b"\t\r"]),
    st.binary(max_size=24).map(lambda raw: raw.replace(b"\n", b"")),
    st.sampled_from([b'{"a": "\\ud800"}', b'{"a": 1, "\\udc00": 2}', b'{"a": "\\ud83d\\ude00"}']),
)


class TestReadFuzz:
    @settings(
        max_examples=150,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(lines=st.lists(_LINES, max_size=6))
    def test_rows_or_the_first_bad_line(self, tmp_path, lines):
        path = tmp_path / "fuzz.jsonl"
        path.write_bytes(b"\n".join(lines))
        bad = _first_bad_line(lines)
        if bad is None:
            expected = [json.loads(line.decode("utf-8"))["a"] for line in lines if line.strip()]
            # compared as JSON text, since NaN != NaN
            assert json.dumps(read_jsonl(path, _read_a)) == json.dumps(expected)
        else:
            with pytest.raises(PreconditionError) as err:
                read_jsonl(path, _read_a)
            assert str(err.value).startswith(f"{path}: line {bad}: ")


class TestWrite:
    def test_rows_are_sorted_key_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"b": 1, "a": "é"}, {"c": None}])
        assert path.read_bytes() == '{"a":"é","b":1}\n{"c":null}\n'.encode("utf-8")
        write_json(tmp_path / "meta.json", {"b": 1, "a": 2})
        assert (tmp_path / "meta.json").read_text() == '{\n  "a": 2,\n  "b": 1\n}\n'

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_interrupted_write_keeps_previous_file(self, tmp_path, error):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"a": 1}])
        before = path.read_bytes()

        def rows():
            yield {"a": 2}
            yield {"a": 3}
            raise error("interrupted")

        with pytest.raises(error):
            write_jsonl(path, rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]

    def test_interrupted_store_save_keeps_previous_file(self, tmp_path):
        store = CaseStore()
        for h in ("a", "b"):
            store.cases[h] = PatientCase(h, {"age": ["30"]})
        path = tmp_path / "cases.jsonl"
        store.save(tmp_path)
        before = path.read_bytes()
        # sorts after the saved rows, so the save fails part-way through
        store.cases["c"] = PatientCase("c", {"age": [object()]})
        with pytest.raises(TypeError):
            store.save(tmp_path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cases.jsonl"]


# finite floats, with the values whose repr is easiest to get wrong
_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, 1e-7, 1e22, 0.1, 1.7976931348623157e308]
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_VECTORS = st.one_of(
    st.lists(st.just(0.0) | _FINITE, min_size=1, max_size=300),
    st.integers(1, 300).map(lambda n: [0.0] * n),
    st.lists(_FINITE.filter(lambda x: x != 0.0), min_size=1, max_size=300),
)


def assert_encodes(encode: VectorEncoder, vector: np.ndarray) -> None:
    """``encode(vector)`` is the compact ``json.dumps`` of the vector with
    each ``+0.0`` as ``0``, and ``json.loads`` gives back its float64 bits."""
    text = encode(vector)
    assert text == json.dumps(vector_oracle(vector), separators=(",", ":"))
    loaded = np.array(json.loads(text), dtype=np.float64)
    assert loaded.view(np.uint64).tolist() == vector.view(np.uint64).tolist()


class TestVectorEncoder:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(values=_VECTORS)
    def test_equals_json_dumps(self, values):
        encode = VectorEncoder()
        vector = np.array(values, dtype=np.float64)
        assert_encodes(encode, vector)
        # the second call reads every repr from the memo
        assert_encodes(encode, vector)

    def test_a_full_memo_is_emptied_and_output_is_unchanged(self, monkeypatch):
        monkeypatch.setattr(jsonl, "REPR_MEMO_SIZE", 3)
        encode = VectorEncoder()
        rng = np.random.default_rng(18)
        for _ in range(50):
            vector = rng.standard_normal(int(rng.integers(1, 20)))
            vector[rng.random(len(vector)) < 0.5] = 0.0
            vector[rng.random(len(vector)) < 0.1] = -0.0
            assert_encodes(encode, vector)
            assert len(encode._reprs) <= 3


class TestStoreDirectory:
    def test_each_store_loads_empty_without_its_file(self, tmp_path):
        graph = BipartiteStore.load(tmp_path, 4)
        assert (graph.embedding_dim, graph.entities, graph.hyperedges) == (4, {}, {})
        assert len(CaseStore.load(tmp_path)) == 0
        evd = EegVectorDatabase.load(tmp_path, 3, band=2, channel_blocked=True)
        assert (evd.n_segments, evd.band, evd.channel_blocked, len(evd)) == (3, 2, True, 0)
        assert list(tmp_path.iterdir()) == []
