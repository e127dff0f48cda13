"""Mutant catalogue: every check of ``compute_with_checks`` shows that it can fail.

Each mutant is a fixture that monkeypatches one fault into the engine.  The
parametrized test runs all five kinds over one fixed universe under a mutant,
with ``coefficients._memo`` cleared before and after, and pins the (kind,
check) pairs that disagree on some triple and the kinds whose call raises
InternalInvariantError.  So a check that goes blind to a mutant fails here,
and so does a mutant that nothing catches.
"""

import pytest

from ktaquin import coefficients, jdt, schur
from ktaquin.coefficients import compute_with_checks
from ktaquin.jdt import InternalInvariantError
from ktaquin.shapes import add_boxes, partitions_in_rectangle, psize, row_length

from helpers import drop_the_all_corners_strip

# lambda and mu in the 2x2 box, nu in the 3x2 box: 360 triples per kind
UNIVERSE = [
    (lam, mu, nu)
    for lam in partitions_in_rectangle(2, 2)
    for mu in partitions_in_rectangle(2, 2)
    for nu in partitions_in_rectangle(3, 2)
]


def _unsigned(monkeypatch, kind):
    real = coefficients._COUNTS[kind]
    monkeypatch.setitem(coefficients._COUNTS, kind, lambda lam, mu, nu: abs(real(lam, mu, nu)))


def _classical_only(monkeypatch, kind):
    real = coefficients._COUNTS[kind]

    def count(lam, mu, nu):
        return real(lam, mu, nu) if psize(nu) == psize(lam) + psize(mu) else 0

    monkeypatch.setitem(coefficients._COUNTS, kind, count)


@pytest.fixture
def unsigned_count_C(monkeypatch):
    """``_count_C`` without its sign."""
    _unsigned(monkeypatch, "C")


@pytest.fixture
def classical_count_C(monkeypatch):
    """``_count_C`` without its K-theoretic terms: 0 unless |nu| = |lam| + |mu|."""
    _classical_only(monkeypatch, "C")


@pytest.fixture
def unsigned_count_D(monkeypatch):
    """``_count_D`` without its sign."""
    _unsigned(monkeypatch, "D")


@pytest.fixture
def classical_count_D(monkeypatch):
    """``_count_D`` without its K-theoretic terms: 0 unless |nu| = |lam| + |mu|."""
    _classical_only(monkeypatch, "D")


def _size_test_one_box_early(monkeypatch, kind):
    # the count with its inline size test firing at |nu| = |lam| + |mu| too: there
    # it returns 0, and everywhere else the real count runs and its own test decides
    real = coefficients._COUNTS[kind]

    def count(lam, mu, nu):
        return 0 if psize(nu) == psize(lam) + psize(mu) else real(lam, mu, nu)

    monkeypatch.setitem(coefficients._COUNTS, kind, count)


@pytest.fixture
def early_size_test_C_buch(monkeypatch):
    """``_count_C_buch``'s size test one box early: 0 at |nu| = |lam| + |mu| as well."""
    _size_test_one_box_early(monkeypatch, "C-buch")


@pytest.fixture
def early_size_test_D_buch(monkeypatch):
    """``_count_D_buch``'s size test one box early: 0 at |nu| = |lam| + |mu| as well."""
    _size_test_one_box_early(monkeypatch, "D-buch")


@pytest.fixture
def smallest_class_first(monkeypatch):
    """``_label_step`` switching the S classes smallest first, not largest first."""
    real = coefficients._label_step

    def step(filled, classes, placed):
        now, new, landed = real(filled, classes[::-1], placed)
        return now, new[::-1], landed

    monkeypatch.setattr(coefficients, "_label_step", step)


def _step_with_stale_neighbours(filled, classes, placed):
    # ``_label_step`` with the placed class's neighbours taken once, before any
    # switch: a class next to where the placed class has moved to is not switched
    boxes = [(r, row_length(filled, r) + 1) for r in placed]
    entries = dict.fromkeys(boxes, 1)
    near = {nb for box in boxes for nb in jdt._NEIGHBOURS[box]}
    new = list(classes)
    before, after, moved = set(boxes), set(), 0
    for s in range(len(new) - 1, -1, -1):
        if near.isdisjoint(new[s]):
            continue
        bullets = jdt._run_switches(entries, set(new[s]), False)
        jdt._check_apart(bullets)
        before.update(new[s])
        after.update(bullets)
        moved += len(bullets)
        new[s] = coefficients._interned("boxes", frozenset(bullets))
    now = add_boxes(filled, boxes)
    after.update(entries)
    if after != before or len(before) != len(entries) + moved:
        raise InternalInvariantError(f"S classes and landed boxes do not tile {now} after placing {boxes}")
    return coefficients._interned("partition", now), tuple(new), coefficients._interned("boxes", frozenset(entries))


@pytest.fixture
def stale_neighbours(monkeypatch):
    """``_label_step`` whose neighbour set of the placed class is not refreshed after a switch."""
    monkeypatch.setattr(coefficients, "_label_step", _step_with_stale_neighbours)


@pytest.fixture
def no_lattice_intervals(monkeypatch):
    """``enumerate_set_valued`` ignoring its lattice intervals, in both of Buch's rules."""
    real = coefficients.enumerate_set_valued
    monkeypatch.setattr(
        coefficients, "enumerate_set_valued", lambda nu, content, lattice=(), inner=(): real(nu, content, (), inner)
    )


@pytest.fixture
def lr_plus_one(monkeypatch):
    """``schur.lr_coefficient`` plus 1 when nonzero."""
    real = schur.lr_coefficient

    def lr(lam, mu, nu):
        value = real(lam, mu, nu)
        return value + 1 if value else value

    monkeypatch.setattr(schur, "lr_coefficient", lr)


@pytest.fixture
def no_all_corners_strip(monkeypatch):
    """``rook_strip_contractions`` without nu minus all its corners (``helpers``)."""
    drop_the_all_corners_strip(monkeypatch)


def _outcome():
    """The (kind, check) pairs that disagree somewhere, and the kinds that raise, from a cold memo."""
    coefficients._memo.clear()
    disagree, raised = set(), set()
    try:
        for kind in coefficients.KINDS:
            for lam, mu, nu in UNIVERSE:
                try:
                    record = compute_with_checks(kind, lam, mu, nu)
                except InternalInvariantError:
                    raised.add(kind)
                    continue
                disagree.update((kind, check) for check, ok in record.checks if not ok)
    finally:
        coefficients._memo.clear()
    return disagree, raised


def test_the_engine_passes_every_check():
    assert _outcome() == (set(), set())


CATCHES = {
    # the record's sign test raises for C and E; D's identity reads C
    "unsigned_count_C": ({("D", "identity"), ("E", "rook-strip"), ("F", "identity")}, {"C", "E"}),
    "classical_count_C": ({("C", "buch"), ("D", "identity"), ("E", "rook-strip"), ("F", "identity")}, set()),
    # only the record's sign test
    "unsigned_count_D": (set(), {"D", "F"}),
    "classical_count_D": ({("D", "buch"), ("D", "identity"), ("F", "buch"), ("F", "identity")}, set()),
    # the classical terms of Buch's rules go: C's and E's checks read C-buch, D's and F's read D-buch
    "early_size_test_C_buch": ({("C", "buch"), ("E", "rook-strip")}, set()),
    "early_size_test_D_buch": ({("D", "buch"), ("F", "buch")}, set()),
    # the tiling invariant raises first; symmetry catches C triples on which buch passes
    "smallest_class_first": (
        {
            ("C", "buch"), ("C", "classical"), ("C", "symmetry"), ("D", "buch"), ("D", "identity"),
            ("E", "rook-strip"), ("F", "buch"), ("F", "identity"), ("c", "schur-oracle"),
        },
        {"C", "D", "E", "F"},
    ),
    # a skipped class stays put, so every state still tiles and nothing raises
    "stale_neighbours": (
        {
            ("C", "buch"), ("C", "classical"), ("C", "symmetry"), ("D", "buch"), ("D", "identity"),
            ("E", "rook-strip"), ("F", "buch"), ("F", "identity"), ("c", "schur-oracle"),
        },
        set(),
    ),
    "no_lattice_intervals": ({("C", "buch"), ("D", "buch"), ("E", "rook-strip"), ("F", "buch")}, set()),
    "lr_plus_one": ({("C", "classical"), ("c", "schur-oracle")}, set()),
    "no_all_corners_strip": ({("E", "rook-strip")}, set()),
}


@pytest.mark.parametrize("mutant", list(CATCHES))
def test_every_mutant_is_caught(request, mutant):
    request.getfixturevalue(mutant)
    disagree, raised = _outcome()
    assert disagree or raised
    assert (disagree, raised) == CATCHES[mutant]
