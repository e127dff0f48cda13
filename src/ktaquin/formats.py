"""Text and JSON forms for tableaux, trace dumps, and the coefficient cache."""

from __future__ import annotations

import fcntl
import json
import math
import os
import time
from dataclasses import dataclass
from .shapes import Box, Part, ShapeFitError, partition, row_length
from .tableaux import AugmentedTableau, IncreasingTableau, SetValuedTableau
from .jdt import SwitchState, SwitchTrace
from .coefficients import CoefficientRecord
from . import __version__

Tableau = IncreasingTableau | AugmentedTableau | SetValuedTableau


class ParseError(ValueError):
    """Malformed tableau text; carries the 1-based (row, column) token position."""

    def __init__(self, row: int, col: int, message: str):
        super().__init__(f"row {row}, column {col}: {message}")
        self.row = row
        self.col = col


def format_tableau(t: Tableau) -> str:
    """Grid form: one line per row, '.' for inner holes, 'X' marks, '{a,b}' sets."""
    labels = {
        (r, c): "{" + ",".join(map(str, v)) + "}" if isinstance(v, tuple) else str(v) for r, c, v in t.cells
    }
    if isinstance(t, AugmentedTableau):
        labels.update(dict.fromkeys(t.x_marks, "X"))
    return _grid(t.outer, t.inner, labels)


def _grid(outer: Part, inner: Part, labels: dict[Box, str]) -> str:
    """One line per row of outer: each box's label, else '.' in inner, else a blank."""
    lines = []
    for r, width in enumerate(outer, start=1):
        hole = row_length(inner, r)
        row = (labels.get((r, c), "." if c <= hole else " ") for c in range(1, width + 1))
        lines.append(" ".join(row).rstrip())
    return "\n".join(lines)


def _parse_set_token(token: str, row: int, col: int) -> tuple[int, ...]:
    body = token[1:-1]
    try:
        vals = tuple(int(x) for x in body.split(",") if x.strip() != "")
    except ValueError as exc:
        raise ParseError(row, col, f"bad set {token!r}") from exc
    if not vals:
        raise ParseError(row, col, "empty set")
    return vals


def parse_tableau(text: str) -> Tableau:
    """Parse the grid or JSON form into a validated tableau of the right type.

    Syntax problems raise ParseError with a position; a well-formed grid whose
    filling breaks the type's rules raises the type's own invariant error.
    Neither form carries a type tag: the type is read from the content, so an
    unmarked AugmentedTableau and a SetValuedTableau with an empty region both
    read back as an IncreasingTableau with the same outer, inner and cells.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict):
            return tableau_from_json_dict(doc)
    return _parse_grid(stripped)


def _parse_grid(text: str) -> Tableau:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        return IncreasingTableau((), (), ())
    outer: list[int] = []
    inner: list[int] = []
    num_cells: list[tuple[int, int, int]] = []
    set_cells: list[tuple[int, int, tuple[int, ...]]] = []
    marks: list[Box] = []
    for r, tokens in enumerate(rows, start=1):
        holes = 0
        seen_entry = False
        width = len(tokens)
        for c, token in enumerate(tokens, start=1):
            if token == ".":
                if not seen_entry:
                    holes += 1
                elif any(tok != "." for tok in tokens[c - 1:]):
                    raise ParseError(r, c, "hole after an entry")
                else:
                    width = c - 1  # trailing dots are padding
                    break
            elif token == "X":
                seen_entry = True
                marks.append((r, c))
            elif token.startswith("{") and token.endswith("}"):
                seen_entry = True
                set_cells.append((r, c, _parse_set_token(token, r, c)))
            else:
                seen_entry = True
                try:
                    num_cells.append((r, c, int(token)))
                except ValueError as exc:
                    raise ParseError(r, c, f"unrecognized token {token!r}") from exc
        outer.append(width)
        inner.append(holes)
    return _make_tableau(partition(outer), partition(inner), num_cells, set_cells, marks)


def _make_tableau(outer: Part, inner: Part, nums: list, sets: list, marks: list[Box]) -> Tableau:
    """The set-valued tableau if any box holds a set, else augmented if marked, else increasing."""
    if sets:
        if marks:
            raise ParseError(*marks[0], "set-valued tableaux are unmarked")
        return SetValuedTableau(outer, tuple(sets) + tuple((r, c, (v,)) for r, c, v in nums), inner)
    if marks:
        return AugmentedTableau(outer, inner, tuple(nums), tuple(marks))
    return IncreasingTableau(outer, inner, tuple(nums))


def tableau_to_json_dict(t: Tableau) -> dict:
    cells = [[r, c, list(v) if isinstance(v, tuple) else v] for r, c, v in t.cells]
    if isinstance(t, AugmentedTableau):
        cells += [[r, c, "X"] for r, c in t.x_marks]
    return {"outer": list(t.outer), "inner": list(t.inner), "cells": cells}


def coefficient_to_json_dict(r: CoefficientRecord) -> dict:
    """The record fields shared by ``coeff --json`` output and a cache line."""
    checks = [[name, ok] for name, ok in r.checks]
    return {"kind": r.kind, "lambda": list(r.lam), "mu": list(r.mu), "nu": list(r.nu), "value": r.value,
            "checks": checks}


def tableau_from_json_dict(doc: dict) -> Tableau:
    """Build a tableau from its JSON form.

    Cell positions and labels, set elements and the parts of ``outer`` and
    ``inner`` must be JSON integers, by the cache's rule: a float, a boolean
    or a string is a ParseError naming its field, never truncated or
    converted.  A document that is not a JSON object is a ParseError too.
    """
    if not isinstance(doc, dict):
        raise ParseError(1, 1, f"a tableau document must be a JSON object, got {type(doc).__name__}")
    try:
        outer = _json_partition(doc, "outer")
        inner = _json_partition(doc, "inner") if "inner" in doc else ()
        raw_cells = doc["cells"]
        if not isinstance(raw_cells, list):
            raise ValueError("cells must be a list")
        nums, sets, marks = [], [], []
        for i, entry in enumerate(raw_cells):
            field = f"cells[{i}]"
            if not isinstance(entry, list) or len(entry) != 3:
                raise ValueError(f"{field} must be [row, column, label]")
            r, c, v = entry
            box = (_json_int(r, field, 0), _json_int(c, field, 1))
            if v == "X":
                marks.append(box)
            elif isinstance(v, list):
                sets.append((*box, tuple(_json_int(x, f"{field}[2]", j) for j, x in enumerate(v))))
            else:
                nums.append((*box, _json_int(v, field, 2)))
    except KeyError as exc:
        raise ParseError(1, 1, f"bad tableau document: {exc}") from exc
    except ShapeFitError:  # well-formed parts that are not a partition
        raise
    except ValueError as exc:
        raise ParseError(1, 1, str(exc)) from None
    return _make_tableau(outer, inner, nums, sets, marks)


def format_switch_state(state: SwitchState) -> str:
    """Grid with '*' for bullets and a blank for an empty box."""
    labels = {(r, c): str(v) for r, c, v in state.cells}
    labels.update(dict.fromkeys(state.bullets, "*"))
    return _grid(state.outer, state.inner, labels)


def format_trace(trace: SwitchTrace) -> str:
    blocks = []
    for i, state in enumerate(trace.states):
        stage = "place bullets" if state.stage is None else f"switch past {state.stage}"
        header = f"[{i}] {state.direction} {stage}, uniform={state.origins is not None}"
        blocks.append(header + "\n" + format_switch_state(state))
    return "\n\n".join(blocks)


_REQUIRED_FIELDS = ("kind", "lambda", "mu", "nu", "value")


def _json_int(value, field: str, index: int | None = None) -> int:
    if type(value) is not int:  # bool is a subclass of int, float would truncate
        where = field if index is None else f"{field}[{index}]"
        raise ValueError(f"{where} must be an integer")
    return value


def _json_partition(doc: dict, field: str) -> tuple[int, ...]:
    parts = doc[field]
    if not isinstance(parts, list):
        raise ValueError(f"{field} must be a list of integers")
    for i, p in enumerate(parts):
        _json_int(p, field, i)
    return partition(parts)


def _json_checks(doc: dict) -> tuple[tuple[str, bool], ...]:
    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ValueError("checks must be a list of [name, true|false] pairs")
    for i, pair in enumerate(checks):
        if not (isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is str and type(pair[1]) is bool):
            raise ValueError(f"checks[{i}] must be [name, true|false]")
    return tuple(map(tuple, checks))


def _not_json(token: str):
    """Refuse the ``NaN`` and ``Infinity`` tokens that Python's json module would accept."""
    raise ValueError(f"{token} is not a JSON number")


# built once: json.loads with parse_constant would build a decoder per cache line
_DECODER = json.JSONDecoder(parse_constant=_not_json)


@dataclass(frozen=True)
class CacheRecord:
    """A coefficient record plus provenance metadata, one JSON line each."""

    record: CoefficientRecord
    timestamp: float
    version: str = __version__

    def key(self) -> tuple:
        r = self.record
        return (r.kind, r.lam, r.mu, r.nu)

    def to_json(self) -> str:
        doc = coefficient_to_json_dict(self.record)
        doc.update(timestamp=self.timestamp, version=self.version)
        return json.dumps(doc, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, line: str) -> "CacheRecord":
        """Parse one line; a malformed or incomplete record raises ValueError.

        ``value`` and the parts of ``lambda``, ``mu`` and ``nu`` must be JSON
        integers: a float or a boolean is rejected, never truncated.  Each
        check must be a ``[name, true|false]`` pair: a flag is never converted.
        A ``timestamp`` must be a finite JSON number and a ``version`` a string;
        ``NaN``, ``Infinity`` and ``-Infinity`` are not JSON in any field.
        """
        doc = _DECODER.decode(line)
        if not isinstance(doc, dict):
            raise ValueError("record is not a JSON object")
        for name in _REQUIRED_FIELDS:
            if name not in doc:
                raise ValueError(f"missing field {name!r}")
        record = CoefficientRecord(
            doc["kind"],
            _json_partition(doc, "lambda"),
            _json_partition(doc, "mu"),
            _json_partition(doc, "nu"),
            _json_int(doc["value"], "value"),
            _json_checks(doc),
        )
        timestamp = doc.get("timestamp", 0.0)
        if type(timestamp) not in (int, float):  # a bool or a string is never converted
            raise ValueError("timestamp must be a number")
        if type(timestamp) is float and not math.isfinite(timestamp):  # 1e999 parses as inf
            raise ValueError("timestamp must be a finite number")
        version = doc.get("version", "unknown")
        if type(version) is not str:
            raise ValueError("version must be a string")
        return cls(record, timestamp, version)

    @classmethod
    def now(cls, record: CoefficientRecord) -> "CacheRecord":
        return cls(record, time.time())


class CacheConflictError(RuntimeError):
    """Two cached records disagree on the value of one coefficient key."""


class CacheFormatError(RuntimeError):
    """A cache line is not a complete record; the message starts with path:line."""


def cache_append(path: str, record: CacheRecord) -> None:
    """Append one record as a single atomic write.

    If the file does not end in a newline (a torn earlier write), the record
    starts a line of its own instead of extending the torn one.  An exclusive
    lock held until the close keeps the write from being half visible to
    another appender's last-byte check or to ``cache_load``, which reads under
    a shared lock.
    """
    line = record.to_json() + "\n"
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = "\n" + line
        os.write(fd, line.encode())
    finally:
        os.close(fd)


# the last path a load in this process merged, and no other: the bytes up to the
# last newline merged without error, their line count, and the merged table
_validated: dict[str, tuple[bytes, int, dict[tuple, CacheRecord]]] = {}

# new lines are split and merged in slices of about this many bytes, each
# ending at a newline, so a load holds one slice's lines at a time
_MERGE_SLICE = 1 << 16


def _merge(path: str, table: dict[tuple, CacheRecord], chunk: bytes, lineno: int) -> int:
    """Fold the records of ``chunk`` into ``table``; return the last line number.

    Lines end at LF, CRLF or a lone CR, as in text mode, and are numbered from
    ``lineno + 1``.  On an error, ``table`` holds the lines merged before it.
    """
    for raw in chunk.splitlines(keepends=True):
        lineno += 1
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CacheFormatError(f"{path}:{lineno}: not valid UTF-8") from None
        if not line.strip():
            continue
        try:
            rec = CacheRecord.from_json(line)
        except json.JSONDecodeError as exc:
            raise CacheFormatError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
        except (TypeError, ValueError) as exc:
            raise CacheFormatError(f"{path}:{lineno}: {exc}") from None
        key = rec.key()
        if key in table and table[key].record.value != rec.record.value:
            raise CacheConflictError(
                f"conflicting cached values for {key}: "
                f"{table[key].record.value} vs {rec.record.value}"
            )
        table[key] = rec
    return lineno


def cache_load(path: str) -> dict[tuple, CacheRecord]:
    """Merge records by key; conflicting values are a hard error naming the key.

    A malformed or incomplete line raises CacheFormatError naming its file and line.
    Every call reads the whole file, under a shared lock so that no append is
    half done.  Bytes up to the last newline that an earlier call in this
    process validated are compared, not parsed again; if any of them changed,
    or the file is shorter, the merge starts over from line 1.  Only the last
    path loaded is kept, so only a process that loads one cache more than once
    in a row saves work this way (a Python session or a test run calling
    ``cli.main`` repeatedly); a single ``ktaquin coeff`` process loads once and
    parses every line.  The new lines are merged in slices that end at a
    newline, so besides the file's bytes a load holds the lines of one slice,
    not of the whole file.
    """
    with open(path, "rb") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_SH)  # no append is half done while we read
        data = fh.read()
    prefix, lineno, validated = _validated.get(path, (b"", 0, {}))
    if not data.startswith(prefix):
        prefix, lineno, validated = b"", 0, {}
    cut = data.rfind(b"\n") + 1
    table = dict(validated)
    start = len(prefix)
    while start < cut:
        # the first newline at or past one slice's length; data[cut - 1] is one
        end = data.find(b"\n", min(start + _MERGE_SLICE, cut) - 1) + 1
        lineno = _merge(path, table, data[start:end], lineno)
        start = end
    _validated.clear()
    _validated[path] = (data if cut == len(data) else data[:cut], lineno, table)
    table = dict(table)  # the caller's copy, so its edits never reach the next load
    _merge(path, table, data[cut:], lineno)
    return table
