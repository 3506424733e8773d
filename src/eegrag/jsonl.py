"""The one reader and writer of the package's JSON and JSONL files.

Reading decodes strictly (an encoded surrogate is malformed), skips blank
lines and reports a malformed line as ``PreconditionError("<path>: line N:
...")``; a store's own typed errors (``DimensionMismatchError``,
``ReferentialError``) keep their type and gain the same location. A record
or a store's door checks each field it holds with ``str_field``,
``str_list``, ``int_field`` or ``float_array``: its JSON type, for a string
that UTF-8 can encode it, and for a number list that every value is finite,
so a lone surrogate escape such as ``"\\ud800"`` is refused in a field that
is read and ignored in one that is not. A refusal message shows the value
with ``shown``. Writing goes to a sibling temporary file that replaces the
target only once it is complete, so an exception or a process crash
mid-write leaves the previous file as it was. Nothing is fsynced: the
guarantee does not cover a power loss.

``write_jsonl`` writes each row as compact JSON: ``json.dumps(row,
ensure_ascii=False, sort_keys=True, separators=(",", ":"))``. A store whose
rows hold long, mostly-zero float vectors (the hypergraph) formats its
lines itself, with ``json_str`` for strings and a ``VectorEncoder`` for the
vector, and passes them to ``write_lines``; the bytes are those
``write_jsonl`` would write, except that each ``+0.0`` of the vector is
written ``0``, and only the vector's other entries are turned into Python
floats and formatted. ``json`` reads ``0`` and ``0.0``, and compact and
spaced separators, to the same values, so the readers take rows written
either way.
"""

from __future__ import annotations

import json
import os
import reprlib
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from pathlib import Path
from typing import TypeVar

import numpy as np

from .errors import DimensionMismatchError, PreconditionError, ReferentialError

T = TypeVar("T")

# what parsing a malformed value raises: JSONDecodeError, UnicodeDecodeError
# and PreconditionError are ValueErrors, a missing key is a LookupError, a
# row of the wrong JSON type raises TypeError or AttributeError, an integer
# too large for a float raises OverflowError, and JSON nested past the
# interpreter's recursion limit raises RecursionError
_MALFORMED = (ValueError, LookupError, TypeError, AttributeError, OverflowError, RecursionError)


def _located(exc: Exception, where: str) -> Exception:
    typed = isinstance(exc, (DimensionMismatchError, ReferentialError))
    return (type(exc) if typed else PreconditionError)(f"{where}: {exc}")


def shown(value) -> str:
    """``repr(value)``, for a refusal message; a value that holds an integer
    too long for ``repr`` (more than ``sys.get_int_max_str_digits()``
    digits) is named by its type, and an integer by its size in bits."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<an integer of {value.bit_length()} bits>"
        return f"<a {type(value).__name__} holding an integer too long to show>"


def str_field(value, what: str, optional: bool = False) -> str | None:
    """``value``, if it is a JSON string that UTF-8 can encode (or null, when
    ``optional``). A lone surrogate cannot be encoded; a ``\\u`` escape or
    an argument Python decoded with ``surrogateescape`` can hold one."""
    if isinstance(value, str):
        if not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise PreconditionError(
                    f"string {reprlib.repr(value)} in {what} is not valid UTF-8 text: "
                    f"a lone surrogate {value[exc.start]!r} at index {exc.start}"
                ) from None
        return value
    if optional and value is None:
        return None
    raise PreconditionError(f"{what} is {shown(value)}, not a string{' or null' if optional else ''}")


def str_list(value, what: str) -> list[str]:
    """``value`` as a new list, if it is a JSON list of strings that
    ``str_field`` passes (checked one by one only when not all ASCII)."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise PreconditionError(f"{what} is {shown(value)}, not a list of strings")
    if not "".join(value).isascii():
        for v in value:
            str_field(v, what)
    return list(value)


def int_field(value, what: str) -> int:
    """``value``, if it is a JSON integer (``true`` and ``false`` are not)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise PreconditionError(f"{what} is {shown(value)}, not an integer")


def float_array(value, what: str) -> np.ndarray:
    """``value`` as a 1-D array of finite float64s (``value`` itself if it is
    one), each value converted as numpy converts it: ``"1.5"`` and ``true`` pass."""
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"{what} are not numbers: {exc}") from None
    if array.ndim != 1:
        raise PreconditionError(f"{what} have shape {array.shape}, not a list of numbers")
    if not np.isfinite(array).all():
        raise PreconditionError(f"{what} must be finite")
    return array


def read_jsonl(path: str | Path, parse: Callable[[object], T]) -> list[T]:
    """``parse`` of each non-blank line of ``path``, in file order."""
    rows = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    rows.append(parse(json.loads(line.decode("utf-8"))))
                except _MALFORMED as exc:
                    raise _located(exc, f"{path}: line {lineno}") from exc
    return rows


def read_json(path: str | Path, parse: Callable[[object], T]) -> T:
    """``parse`` of the one JSON document in ``path``, decoded as ``json``
    detects (UTF-8, -16 or -32), strictly."""
    raw = Path(path).read_bytes()
    try:
        return parse(json.loads(raw.decode(json.detect_encoding(raw))))
    except _MALFORMED as exc:
        raise _located(exc, str(path)) from exc


@contextmanager
def _replacing(path: str | Path):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# a JSON string literal, as ``json.dumps(s, ensure_ascii=False)`` writes it
json_str = json.JSONEncoder(ensure_ascii=False).encode

# distinct floats whose repr one VectorEncoder keeps; a 10k-hyperedge
# hashed-token store holds about 120, a dense embedder one per entry
REPR_MEMO_SIZE = 4096


class VectorEncoder:
    """A finite 1-D float64 ``v`` as a compact JSON list: ``0`` for each
    ``+0.0``, and ``float.__repr__`` for every other entry (``-0.0`` among
    them), as ``json`` formats a finite float; ``json.loads`` gives back
    ``v``'s float64 bits.

    Every slot starts as ``0``; only entries whose bit pattern is nonzero
    are formatted. Reprs are memoised by bit pattern for the encoder's
    life, and the memo is emptied when it reaches ``REPR_MEMO_SIZE``
    entries. Non-finite values are not checked: ``json`` would write
    ``NaN``, which no store holds.
    """

    def __init__(self):
        self._reprs: dict[int, str] = {}

    def __call__(self, v: np.ndarray) -> str:
        bits = v.view(np.uint64)
        nonzero = np.flatnonzero(bits)
        parts = ["0"] * len(v)
        for i, b in zip(nonzero.tolist(), bits[nonzero].tolist()):
            text = self._reprs.get(b)
            if text is None:
                if len(self._reprs) >= REPR_MEMO_SIZE:
                    self._reprs.clear()
                text = self._reprs[b] = float.__repr__(float(v[i]))
            parts[i] = text
        return "[" + ",".join(parts) + "]"


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Each of ``lines`` plus a newline, replacing ``path`` when complete."""
    with _replacing(path) as fh:
        for line in lines:
            fh.write(line + "\n")


# a row as one compact, sorted-key JSON line
_row = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """One compact, sorted-key JSON object per line, replacing ``path`` when
    complete."""
    write_lines(path, map(_row, rows))


def write_json(path: str | Path, obj: dict) -> None:
    """``obj`` indented with sorted keys, replacing ``path`` when complete."""
    with _replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
