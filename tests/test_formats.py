"""Grid/JSON round trips, parse error positions, trace dumps, and the cache."""

import json
import random

import pytest

from ktaquin.shapes import AmbientRectangle, ShapeFitError
from ktaquin.tableaux import (
    AugmentedTableau,
    IncreasingTableau,
    SetValuedTableau,
    TableauError,
)
from ktaquin.jdt import SlideStep, switch_trace
from ktaquin.coefficients import CoefficientRecord
from ktaquin.formats import (
    CacheConflictError,
    CacheFormatError,
    CacheRecord,
    ParseError,
    cache_append,
    cache_load,
    format_tableau,
    format_trace,
    parse_tableau,
    tableau_from_json_dict,
    tableau_to_json_dict,
)

from helpers import random_increasing, random_skew


class TestGrid:
    def test_increasing_round_trip(self):
        text = ". 1\n1 ."
        t = parse_tableau(". 1\n1")
        assert isinstance(t, IncreasingTableau)
        assert t.outer == (2, 1) and t.inner == (1,)
        assert parse_tableau(format_tableau(t)) == t
        # trailing dots are padding
        assert parse_tableau(text) == t

    def test_augmented_display(self):
        text = ". . 1 2 X\n. 1 X\n2 4"
        t = parse_tableau(text)
        assert isinstance(t, AugmentedTableau)
        assert t.outer == (5, 3, 2) and t.inner == (2, 1)
        assert t.x_marks == ((1, 5), (2, 3))
        assert parse_tableau(format_tableau(t)) == t

    def test_set_valued(self):
        t = parse_tableau("{1,2} 2\n3 .")
        assert isinstance(t, SetValuedTableau)
        assert t.shape == (2, 1)
        assert t.cells == ((1, 1, (1, 2)), (1, 2, (2,)), (2, 1, (3,)))
        assert parse_tableau(format_tableau(t)) == t

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse_tableau("1 ? 3")
        assert (err.value.row, err.value.col) == (1, 2)
        with pytest.raises(ParseError) as err:
            parse_tableau("1 . 2")
        assert (err.value.row, err.value.col) == (1, 2)

    def test_invariant_errors_distinct(self):
        with pytest.raises(TableauError):
            parse_tableau("2 1")  # decreasing row: well-formed grid, bad filling
        with pytest.raises(ShapeFitError):
            parse_tableau("1 2\n3 4 5")  # outer rows increase

    def test_random_round_trips(self):
        rng = random.Random(31)
        for _ in range(100):
            t = random_increasing(rng, random_skew(rng, 8))
            assert parse_tableau(format_tableau(t)) == t
            assert tableau_from_json_dict(tableau_to_json_dict(t)) == t

    def test_random_augmented_round_trips(self):
        from ktaquin.tableaux import enumerate_augmented

        def key(t):
            return (t.outer, t.inner, t.cells, getattr(t, "x_marks", ()))

        rng = random.Random(77)
        for _ in range(40):
            shape = random_skew(rng, 6)
            family = list(enumerate_augmented(shape, range(1, rng.randint(2, 4))))
            if not family:
                continue
            t = rng.choice(family)
            # a mark-free augmented tableau reads back as a plain increasing one
            assert key(parse_tableau(format_tableau(t))) == key(t)
            assert key(tableau_from_json_dict(tableau_to_json_dict(t))) == key(t)

    def test_random_set_valued_round_trips(self):
        from ktaquin.tableaux import enumerate_set_valued

        rng = random.Random(13)
        for shape, content in [((2, 1), (2, 1, 1)), ((3, 1), (2, 2, 1)), ((2, 2), (2, 2, 1))]:
            for t in enumerate_set_valued(shape, content):
                assert parse_tableau(format_tableau(t)) == t
                assert tableau_from_json_dict(tableau_to_json_dict(t)) == t


class TestJsonForm:
    def test_json_string_accepted(self):
        doc = {"outer": [2, 1], "inner": [1], "cells": [[1, 2, 1], [2, 1, 1]]}
        t = parse_tableau(json.dumps(doc))
        assert isinstance(t, IncreasingTableau)
        assert t.cells == ((1, 2, 1), (2, 1, 1))

    def test_marks_and_sets(self):
        aug = AugmentedTableau((2, 1), (1,), ((2, 1, 1),), ((1, 2),))
        assert tableau_from_json_dict(tableau_to_json_dict(aug)) == aug
        sv = SetValuedTableau((2,), ((1, 1, (1,)), (1, 2, (1, 2))))
        assert tableau_from_json_dict(tableau_to_json_dict(sv)) == sv

    def test_bad_document(self):
        with pytest.raises(ParseError):
            parse_tableau('{"cells": []}')

    @pytest.mark.parametrize(
        "doc, reason",
        [
            ({"outer": [2], "cells": [[1, 1, 1.9], [1, 2, 2.5]]}, "cells[0][2] must be an integer"),
            ({"outer": [2], "cells": [[1, 1, True], [1, 2, 2]]}, "cells[0][2] must be an integer"),
            ({"outer": [2], "cells": [[1, 1, 1], [1, 2, "2"]]}, "cells[1][2] must be an integer"),
            ({"outer": [2.7], "cells": [[1, 1, 1], [1, 2, 2]]}, "outer[0] must be an integer"),
            ({"outer": [2], "inner": [True], "cells": [[1, 2, 1]]}, "inner[0] must be an integer"),
            ({"outer": "2", "cells": [[1, 1, 1], [1, 2, 2]]}, "outer must be a list of integers"),
            ({"outer": [1], "cells": [[1.0, 1, 1]]}, "cells[0][0] must be an integer"),
            ({"outer": [2], "cells": [[1, 1, [1, 1.5]], [1, 2, [2]]]}, "cells[0][2][1] must be an integer"),
            ({"outer": [1], "cells": [[1, 1]]}, "cells[0] must be [row, column, label]"),
        ],
    )
    def test_non_integers_are_rejected_not_truncated(self, doc, reason):
        with pytest.raises(ParseError) as err:
            parse_tableau(json.dumps(doc))
        assert str(err.value) == f"row 1, column 1: {reason}"

    def test_cli_exit_code(self, capsys):
        from ktaquin.cli import EXIT_USAGE, main

        doc = json.dumps({"outer": [2], "cells": [[1, 1, 1.9], [1, 2, 2.5]]})
        assert main(["rectify", "--tableau", doc]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "cells[0][2] must be an integer" in err and "Traceback" not in err

    def test_non_partition_is_a_shape_error(self):
        with pytest.raises(ShapeFitError):
            parse_tableau(json.dumps({"outer": [1, 2], "cells": [[1, 1, 1], [2, 1, 2], [2, 2, 3]]}))


class TestTraceDump:
    def test_format(self):
        t = IncreasingTableau.make((2,), (1,), {(1, 2): 1})
        trace = switch_trace(t, [SlideStep("forward", frozenset({(1, 1)}))], AmbientRectangle(1, 3))
        text = format_trace(trace)
        assert "place bullets" in text and "switch past 1" in text
        assert "*" in text


class TestCache:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        rec = CacheRecord.now(
            CoefficientRecord("D", (2,), (2, 1), (3, 1), -2, (("buch", True),))
        )
        cache_append(path, rec)
        table = cache_load(path)
        assert table[rec.key()].record.value == -2

    def test_new_line_has_no_method_field(self):
        doc = json.loads(CacheRecord.now(CoefficientRecord("C", (1,), (1,), (2,), 1)).to_json())
        assert doc["kind"] == "C" and "method" not in doc

    def test_duplicates_merge(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        rec = CacheRecord.now(CoefficientRecord("C", (1,), (1,), (2,), 1))
        cache_append(path, rec)
        cache_append(path, rec)
        assert len(cache_load(path)) == 1

    def test_conflict_is_hard_error(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache_append(path, CacheRecord.now(CoefficientRecord("C", (1,), (1,), (2,), 1)))
        with open(path, "a") as fh:
            doc = {
                "kind": "C", "lambda": [1], "mu": [1], "nu": [2],
                "value": 7, "method": "jdt", "checks": [], "timestamp": 0, "version": "x",
            }
            fh.write(json.dumps(doc) + "\n")
        with pytest.raises(CacheConflictError) as err:
            cache_load(path)
        assert "(1,)" in str(err.value)

    def test_torn_final_line_is_reported_and_not_extended(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        rec = CacheRecord.now(CoefficientRecord("C", (1,), (1,), (2,), 1))
        cache_append(path, rec)
        with open(path, "a") as fh:
            fh.write('{"kind": "C", "lambda": [1], "mu"')  # a write cut short
        cache_append(path, rec)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 3 and CacheRecord.from_json(lines[2]).key() == rec.key()
        with pytest.raises(CacheFormatError) as err:
            cache_load(path)
        assert str(err.value).startswith(f"{path}:2: malformed JSON")

    def test_missing_field_names_line_and_field(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache_append(path, CacheRecord.now(CoefficientRecord("C", (1,), (1,), (2,), 1)))
        with open(path, "a") as fh:
            fh.write(json.dumps({"kind": "C", "lambda": [1], "mu": [1], "nu": [2]}) + "\n")
        with pytest.raises(CacheFormatError) as err:
            cache_load(path)
        assert str(err.value) == f"{path}:2: missing field 'value'"

    def test_non_object_line(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        with open(path, "w") as fh:
            fh.write("[1, 2]\n")
        with pytest.raises(CacheFormatError, match=":1: record is not a JSON object"):
            cache_load(path)
