"""Fuzz of every outside input: the tableau constructors, the parsers and the CLI.

A build either raises the constructors' own ``TableauError`` or gives a
tableau whose JSON form and grid form both parse back to it.  bool is a subclass of int and ``True == 1``, so a bool
position or label lands in the region unless the constructor refuses it, and
its JSON form would not parse back.  The shapes are skew shapes in the 3x3
box, and a valid filling has up to two of its positions and labels replaced
by small ints or bools.

Each parser (grid and JSON tableau text, partitions, cache lines) either
returns a value that round-trips through its text form or raises its own
error: ``ParseError``, ``TableauError``, ``ShapeFitError`` or
``CacheFormatError``.  ``cli.main`` on generated argv over small shapes
returns 0, 1 or 2 and raises nothing.  Hypothesis runs derandomized, by the
profile that ``conftest.py`` loads.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from ktaquin import cli
from ktaquin.coefficients import KINDS
from ktaquin.formats import (
    CacheFormatError,
    CacheRecord,
    ParseError,
    cache_load,
    format_tableau,
    parse_tableau,
    tableau_from_json_dict,
    tableau_to_json_dict,
)
from ktaquin.shapes import ShapeFitError, format_partition, parse_partition
from ktaquin.tableaux import AugmentedTableau, IncreasingTableau, SetValuedTableau, TableauError

SMALL = st.one_of(st.booleans(), st.integers(0, 4))
SMALL_SET = st.lists(SMALL, max_size=2).map(tuple)
ROWS = st.lists(st.integers(0, 3), max_size=3).map(lambda rows: sorted(rows, reverse=True))
EXAMPLES = settings(max_examples=60)


@st.composite
def shapes_and_cells(draw, set_valued=False, marks=False):
    """outer, inner, cells and X marks in the 3x3 box, with up to two fields edited.

    Before the edits, box (r, c) holds r + c - 1 (as a one-letter set if
    set_valued), and the marks are up to two region boxes.  An edit puts a
    small int or bool in one position or label.
    """
    outer = draw(ROWS)
    # the rows of inner sorted down stay inside the rows of outer
    inner = sorted((draw(st.integers(0, width)) for width in outer), reverse=True)
    boxes = [
        (r, c)
        for r, width in enumerate(outer, start=1)
        for c in range((inner[r - 1] if r <= len(inner) else 0) + 1, width + 1)
    ]
    marked = draw(st.lists(st.sampled_from(boxes), max_size=2, unique=True)) if marks and boxes else []
    cells = [[r, c, (r + c - 1,) if set_valued else r + c - 1] for r, c in boxes if (r, c) not in marked]
    x_marks = [list(box) for box in marked]
    for _ in range(draw(st.integers(0, 2)) if boxes else 0):
        target = draw(st.sampled_from(cells + x_marks))
        field = draw(st.integers(0, len(target) - 1))
        target[field] = draw(SMALL_SET if set_valued and field == 2 else SMALL)
    return outer, inner, tuple(map(tuple, cells)), tuple(map(tuple, x_marks))


def key(t):
    """What a text form must carry: the shapes, the cells and any X marks."""
    return (t.outer, t.inner, t.cells, getattr(t, "x_marks", ()))


def assert_round_trips(build, *args):
    try:
        t = build(*args)
    except TableauError:
        return
    doc = json.loads(json.dumps(tableau_to_json_dict(t)))
    assert key(tableau_from_json_dict(doc)) == key(t)
    assert key(parse_tableau(format_tableau(t))) == key(t)


@EXAMPLES
@given(shapes_and_cells())
def test_increasing_round_trips(drawn):
    outer, inner, cells, _ = drawn
    assert_round_trips(IncreasingTableau, outer, inner, cells)


@EXAMPLES
@given(shapes_and_cells(set_valued=True))
def test_set_valued_round_trips(drawn):
    outer, inner, cells, _ = drawn
    assert_round_trips(SetValuedTableau, outer, cells, inner)


@EXAMPLES
@given(shapes_and_cells(marks=True))
def test_augmented_round_trips(drawn):
    assert_round_trips(AugmentedTableau, *drawn)


# ---------------------------------------------------------------------------
# Parsers: generated text, mostly well formed, with a few stray tokens.

TEXT_ERRORS = (ParseError, TableauError, ShapeFitError)
GRID_TOKEN = st.sampled_from(
    [".", ".", "X", "1", "1", "2", "2", "3", "3", "4", "0", "-1", "{1}", "{1,2}", "{2,3}", "{3,2}", "{1,1}",
     "{}", "{a}", "1.5", "x", "{", "True"]
)
GRID_TEXT = st.lists(st.lists(GRID_TOKEN, max_size=3).map(" ".join), max_size=3).map("\n".join)
JSON_INT = st.one_of(
    st.integers(0, 3), st.integers(0, 3), st.integers(-1, 4), st.booleans(), st.sampled_from([1.0, 1.5, "1", None])
)
JSON_CELL = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)).map(list),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.just("X")).map(list),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.lists(st.integers(1, 4), min_size=1, max_size=2)).map(list),
    st.lists(st.one_of(JSON_INT, st.just("X"), st.lists(JSON_INT, max_size=2)), max_size=4),
    JSON_INT,
)
JSON_ROWS = st.one_of(ROWS, ROWS, st.lists(JSON_INT, max_size=3), JSON_INT)
JSON_DOC = st.fixed_dictionaries(
    {"outer": JSON_ROWS, "cells": st.one_of(st.lists(JSON_CELL, max_size=4), JSON_INT)},
    optional={"inner": JSON_ROWS},
)
JSON_TEXT = st.one_of(
    JSON_DOC.map(json.dumps), JSON_DOC.map(json.dumps), st.text(alphabet='{}[]",: 0123X.cel', max_size=20)
)
PARTITION_TEXT = st.one_of(
    st.lists(st.integers(-1, 4), max_size=3).map(lambda ps: "[" + ",".join(map(str, ps)) + "]"),
    st.lists(st.integers(0, 4), max_size=3).map(lambda ps: ",".join(map(str, sorted(ps, reverse=True)))),
    st.text(alphabet="[], 0123-x.", max_size=8),
)
PARSER_EXAMPLES = settings(max_examples=100)


def assert_text_round_trips(text):
    try:
        t = parse_tableau(text)
    except TEXT_ERRORS:
        return
    doc = json.loads(json.dumps(tableau_to_json_dict(t)))
    assert key(tableau_from_json_dict(doc)) == key(t)
    assert key(parse_tableau(format_tableau(t))) == key(t)


@PARSER_EXAMPLES
@given(GRID_TEXT)
@example(". 1 2\n1 X\n{2,3}")
@example(". 1 2\n1 X")
def test_grid_text_parses_or_refuses(text):
    assert_text_round_trips(text)


@PARSER_EXAMPLES
@given(JSON_TEXT)
@example('{"outer": [2, 1], "inner": [1], "cells": [[1, 2, 1], [2, 1, [1, 2]]]}')
@example('{"outer": [2, 1], "cells": [[1, 1, 1], [1, 2, "X"], [2, 1, 2]]}')
def test_json_text_parses_or_refuses(text):
    assert_text_round_trips(text)


@PARSER_EXAMPLES
@given(PARTITION_TEXT)
@example(" [3, 1] ")
def test_partition_text_parses_or_refuses(text):
    try:
        parts = parse_partition(text)
    except ShapeFitError:
        return
    assert parse_partition(format_partition(parts)) == parts


BAD_JSON = st.one_of(JSON_INT, st.sampled_from([["C"], [1.5], {}, float("nan"), float("inf"), -1e999, "x"]))


@st.composite
def cache_docs(draw):
    """A cache record with value 0, its optional fields present or not, and up to two fields edited.

    An edit puts a small or ill-typed JSON value in one field, or drops it.
    """
    doc = {"kind": draw(st.sampled_from(list(KINDS))), "lambda": draw(ROWS), "mu": draw(ROWS), "nu": draw(ROWS),
           "value": 0}
    doc.update(draw(st.fixed_dictionaries({}, optional={
        "checks": st.lists(st.tuples(st.sampled_from(["buch", "symmetry"]), st.booleans()).map(list), max_size=2),
        "timestamp": st.one_of(st.integers(0, 10**10), st.floats(0, 1e10)),
        "version": st.just("0.1.0"),
    })))
    for _ in range(draw(st.integers(0, 2))):
        field = draw(st.sampled_from(["kind", "lambda", "mu", "nu", "value", "checks", "timestamp", "version"]))
        if draw(st.booleans()):
            doc[field] = draw(st.one_of(BAD_JSON, st.lists(BAD_JSON, max_size=2)))
        else:
            doc.pop(field, None)
    return doc


CACHE_DOC = cache_docs()
CACHE_LINE = st.one_of(
    CACHE_DOC.map(json.dumps),
    st.tuples(CACHE_DOC.map(json.dumps), st.integers(1, 60)).map(lambda torn: torn[0][: torn[1]]),
    st.text(alphabet='{}[]",: 01NaInfity\n\r', max_size=20),
)


@settings(max_examples=60)
@given(CACHE_LINE, st.sampled_from(["\n", "\r\n", ""]))
@example('{"kind": "C", "lambda": [1], "mu": [1], "nu": [2], "value": 1, "timestamp": 3}', "\n")
def test_cache_line_loads_or_refuses(line, end):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(line + end)
        try:
            table = cache_load(path)
        except CacheFormatError:
            return
    for k, rec in table.items():
        assert rec.key() == k
        assert CacheRecord.from_json(rec.to_json()) == rec


# ---------------------------------------------------------------------------
# cli.main: argv over small shapes, each option's value well formed or not.

SHAPE = st.one_of(ROWS.map(format_partition), ROWS.map(format_partition), PARTITION_TEXT)
FRAME = st.sampled_from(["1,2,1,2", "1,3,1,2", "2,3,1,2", "1,2,2,3", "0,2,1,2", "1,2", "a,b,c,d"])
AMBIENT = st.sampled_from(["2,3", "2,4", "3,3", "1,1", "0,2", "2", "x,y"])
TABLEAU_TEXT = st.one_of(
    st.sampled_from(["1 2\n2", ". 1\n1 2", ". . 1\n. 2\n1", "1 3\n2", ". 2\n1 3", "1 X", "{1,2}", "1"]),
    GRID_TEXT,
    JSON_TEXT,
)


def _options(draw, pairs):
    """Each (flag, strategy) pair, drawn into argv or left out."""
    argv = []
    for flag, values in pairs:
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["coeff", "expand", "verify", "enumerate", "counterexample", "product",
                                    "rectify", "other"]))
    argv = ["--json"] if draw(st.booleans()) else []
    if command == "coeff":
        argv += ["coeff", draw(st.sampled_from([*KINDS, "Z"])), "--lambda", draw(SHAPE), "--mu", draw(SHAPE),
                 "--nu", draw(SHAPE)]
        argv += _options(draw, [("--check", None), ("--frame", FRAME), ("--cache", st.just("{cache}"))])
    elif command == "expand":
        argv += ["expand", "--op", draw(st.sampled_from(["product", "coproduct", "sum"]))]
        argv += _options(draw, [("--lambda", SHAPE), ("--mu", SHAPE), ("--nu", SHAPE), ("--ambient", AMBIENT),
                                ("--frame", FRAME), ("--basis", st.sampled_from(["ideal-sheaf", "other"]))])
    elif command == "verify":  # only refusals: a suite run takes seconds
        argv += ["verify", draw(st.sampled_from(["no-such-suite", "products", "sharpness"])), "--seed",
                 draw(st.sampled_from(["1", "x"]))]
    elif command == "enumerate":
        argv += ["enumerate", "--outer", draw(SHAPE)]
        argv += _options(draw, [
            ("--inner", SHAPE),
            ("--kind", st.sampled_from(["increasing", "augmented", "set-valued", "other"])),
            ("--max-entry", st.sampled_from(["0", "2", "3", "-1", "x"])),
            ("--surjective", None),
            ("--content", st.sampled_from(["1,1", "2,1", "1,0,1", "", "1,x", "-1"])),
            ("--limit", st.sampled_from(["0", "2", "x"])),
        ])
    elif command == "counterexample":
        argv += ["counterexample", "--lambda", draw(SHAPE)]
    elif command == "product":
        op = draw(st.sampled_from(["odot", "diamond", "insert", "other"]))
        right = st.sampled_from(["1", "3", "x", "-1"]) if op == "insert" else TABLEAU_TEXT
        argv += ["product", "--op", op, "--left", draw(TABLEAU_TEXT), "--right", draw(right)]
    elif command == "rectify":
        argv += ["rectify", "--tableau", draw(TABLEAU_TEXT)] + _options(draw, [("--order", TABLEAU_TEXT)])
    else:
        argv += draw(st.lists(st.sampled_from(["coeff", "C", "--lambda", "[1]", "--help", "-x", "rectify"]),
                              max_size=4))
    return argv


@settings(max_examples=100)
@given(cli_argv())
@example(["coeff", "C", "--lambda", "[1]", "--mu", "[1]", "--nu", "[2]", "--check", "--cache", "{cache}"])
def test_cli_main_exits_0_1_or_2(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{cache}", os.path.join(tmp, "cache.jsonl")) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) in (0, 1, 2), argv
