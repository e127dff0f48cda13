"""Round trips of the three tableau types, on generated cells of small ints and bools.

A build either raises the constructors' own ``TableauError`` or gives a
tableau whose JSON form and grid form both parse back to it.  bool is a subclass of int and ``True == 1``, so a bool
position or label lands in the region unless the constructor refuses it, and
its JSON form would not parse back.  The shapes are skew shapes in the 3x3
box, and a valid filling has up to two of its positions and labels replaced
by small ints or bools.  Hypothesis runs derandomized, by the profile that ``conftest.py``
loads.
"""

import json

from hypothesis import given, settings, strategies as st

from ktaquin.formats import format_tableau, parse_tableau, tableau_from_json_dict, tableau_to_json_dict
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
