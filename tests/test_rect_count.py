"""The label-by-label rectification count against the per-filling reference tally."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ktaquin import coefficients, jdt
from ktaquin.coefficients import _rect_count, coeff_C, coeff_D, rect_tally
from ktaquin.jdt import InternalInvariantError
from ktaquin.shapes import SkewShape, contains, partitions_in_rectangle, partitions_of, psize, star
from ktaquin.tableaux import enumerate_increasing

from helpers import random_skew, reference_label_step, reference_rect_tally, reference_tiles, superstandard_row

SMALL = list(partitions_in_rectangle(2, 2))
_REFERENCE: dict[tuple, dict] = {}


def reference(outer, inner, m):
    """The reference histogram of outer/inner over 1..m, built once per test run."""
    key = (outer, inner, m)
    if key not in _REFERENCE:
        _REFERENCE[key] = reference_rect_tally(outer, inner, range(1, m + 1))
    return _REFERENCE[key]


def sign(exponent):
    return -1 if exponent % 2 else 1


class TestExhaustive:
    """Every C and D over small boxes, classical and K-range, equals the reference count."""

    def test_C(self):
        coefficients._memo.clear()
        k_range = nonzero = 0
        for lam in SMALL:
            for mu in SMALL:
                for nu in partitions_in_rectangle(3, 4):
                    excess = psize(nu) - psize(lam) - psize(mu)
                    if excess < 0:
                        continue
                    expected = 0
                    if contains(nu, lam):
                        row = superstandard_row(reference(nu, lam, psize(mu)))
                        expected = sign(excess) * row.get(mu, 0)
                    assert coeff_C(lam, mu, nu) == expected, (lam, mu, nu)
                    k_range += excess > 0 and expected != 0
                    nonzero += expected != 0
        assert nonzero >= 130 and k_range >= 50

    def test_D(self):
        coefficients._memo.clear()
        k_range = nonzero = 0
        for lam in SMALL:
            for mu in SMALL:
                shape = star(lam, mu)
                for nu in partitions_in_rectangle(3, 3):
                    if psize(nu) > psize(lam) + psize(mu):
                        continue
                    row = superstandard_row(reference(shape.outer, shape.inner, psize(nu)))
                    expected = sign(psize(lam) + psize(mu) + psize(nu)) * row.get(nu, 0)
                    assert coeff_D(lam, mu, nu) == expected, (lam, mu, nu)
                    k_range += psize(nu) < psize(lam) + psize(mu) and expected != 0
                    nonzero += expected != 0
        assert nonzero >= 120 and k_range >= 55

    def test_D_with_every_given_target(self):
        """Targets with repeated labels and targets no filling reaches included."""
        reached = repeated = 0
        for lam in SMALL:
            for mu in SMALL:
                if psize(lam) + psize(mu) > 5:
                    continue
                shape = star(lam, mu)
                for n in range(psize(lam) + psize(mu) + 1):
                    for nu in partitions_of(n):
                        for m in range(n + 1):
                            tally = reference(shape.outer, shape.inner, m)
                            for t in enumerate_increasing(SkewShape.straight(nu), range(1, m + 1), surjective=True):
                                count = tally.get((nu, t.cells), 0)
                                assert coeff_D(lam, mu, nu, target=t) == sign(psize(lam) + psize(mu) + n) * count
                                reached += count > 0
                                repeated += count > 0 and m < n
        assert reached >= 400 and repeated >= 170


class TestAgainstReferenceTally:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_row_and_one_target(self, rng):
        shape = random_skew(rng, 7)
        m = rng.randint(0, psize(shape.outer) - psize(shape.inner) + 1)
        tally = reference(shape.outer, shape.inner, m)
        assert _rect_count(shape.outer, shape.inner, m) == superstandard_row(tally)
        if tally:
            (_, cells), count = rng.choice(sorted(tally.items()))
            classes = {}
            for r, c, v in cells:
                classes.setdefault(v, set()).add((r, c))
            targets = [frozenset(classes[v]) for v in sorted(classes)]
            assert _rect_count(shape.outer, shape.inner, m, targets) == {(): count}


class TestInvariants:
    def test_row_is_memoized_per_shape_and_alphabet(self):
        coefficients._memo.clear()
        row = rect_tally((3, 1), (1,), 3)
        assert row == {(3,): 1, (2, 1): 1}  # c^{31}_{1,3} = c^{31}_{1,21} = 1
        assert coefficients._memo[((3, 1), (1,), 3)] is row

    @staticmethod
    def _lose_an_S_box(monkeypatch):
        # a step met before is not run again, so the patched kernel needs a cold memo
        coefficients._memo.clear()
        real = jdt._run_switches

        def losing(entries, bullets, reverse, on_switch=None):
            bullets = real(entries, bullets, reverse, on_switch)
            bullets.pop()  # an S box vanishes
            return bullets

        monkeypatch.setattr(jdt, "_run_switches", losing)

    def test_a_state_that_does_not_tile_is_refused(self, monkeypatch):
        self._lose_an_S_box(monkeypatch)
        with pytest.raises(InternalInvariantError, match="do not tile"):
            _rect_count((3, 2), (1,), 3)

    def test_a_state_that_does_not_tile_is_refused_on_the_target_path(self, monkeypatch):
        self._lose_an_S_box(monkeypatch)
        targets = [frozenset({(1, 1)}), frozenset({(1, 2)}), frozenset({(2, 1)})]
        with pytest.raises(InternalInvariantError, match="do not tile"):
            _rect_count((3, 2), (1,), 3, targets)

    @staticmethod
    def _keep_the_old_boxes(monkeypatch):
        coefficients._memo.clear()
        real = jdt._run_switches

        def keeping(entries, bullets, reverse, on_switch=None):
            old = set(bullets)
            real(entries, bullets, reverse, on_switch)
            return old  # a class that moved is reported where it started

        monkeypatch.setattr(jdt, "_run_switches", keeping)

    @staticmethod
    def _drop_a_landed_box(monkeypatch):
        coefficients._memo.clear()
        real = jdt._run_switches

        def dropping(entries, bullets, reverse, on_switch=None):
            bullets = real(entries, bullets, reverse, on_switch)
            if entries:
                entries.popitem()  # a box of the placed class vanishes
            return bullets

        monkeypatch.setattr(jdt, "_run_switches", dropping)

    @pytest.mark.parametrize("mutant", ["_keep_the_old_boxes", "_drop_a_landed_box"])
    def test_a_wrong_move_is_refused(self, monkeypatch, mutant):
        getattr(self, mutant)(monkeypatch)
        with pytest.raises(InternalInvariantError, match="do not tile"):
            _rect_count((3, 2), (1,), 3)

    @pytest.mark.parametrize("mutant", ["_keep_the_old_boxes", "_drop_a_landed_box"])
    def test_a_wrong_move_is_refused_on_the_target_path(self, monkeypatch, mutant):
        getattr(self, mutant)(monkeypatch)
        targets = [frozenset({(1, 1)}), frozenset({(1, 2)}), frozenset({(2, 1)})]
        with pytest.raises(InternalInvariantError, match="do not tile"):
            _rect_count((3, 2), (1,), 3, targets)


def _exhaustive_rows():
    """The (outer, inner, m) row of every C and every D in TestExhaustive's universes."""
    rows = set()
    for lam in SMALL:
        for mu in SMALL:
            for nu in partitions_in_rectangle(3, 4):
                if psize(nu) >= psize(lam) + psize(mu) and contains(nu, lam):
                    rows.add((nu, lam, psize(mu)))
            shape = star(lam, mu)
            for nu in partitions_in_rectangle(3, 3):
                if psize(nu) <= psize(lam) + psize(mu):
                    rows.add((shape.outer, shape.inner, psize(nu)))
    return sorted(rows)


class TestSharedSteps:
    """Label steps shared across rows give every row its own count, whatever the order."""

    def test_cold_canonical_and_shuffled_orders_agree(self):
        rows = _exhaustive_rows()
        coefficients._memo.clear()
        canonical = {row: rect_tally(*row) for row in rows}
        canonical_steps = self._steps()
        shuffled_rows = list(rows)
        random.Random(14).shuffle(shuffled_rows)
        assert shuffled_rows != rows
        coefficients._memo.clear()
        shuffled = {row: rect_tally(*row) for row in shuffled_rows}
        assert shuffled == canonical
        for row in rows:
            assert canonical[row] == superstandard_row(reference(*row)), row
        # each order met the same steps and found the same outcome for each
        assert self._steps() == canonical_steps
        assert len(rows) >= 800 and len(canonical_steps) >= 1000
        assert sum(1 for row in canonical.values() if row) >= 150

    def test_every_step_tiles_its_filled_shape(self):
        """Every step that a cold sweep keeps passes the full-shape tiling check of the reference."""
        coefficients._memo.clear()
        for row in _exhaustive_rows():
            rect_tally(*row)
        steps = self._steps()
        assert len(steps) >= 1000
        assert [key for key, value in steps.items() if not reference_tiles(*key[1:], value)] == []

    def test_every_step_equals_the_reference_step(self):
        """Each step of a cold sweep equals the one that sends every S class through the kernel."""
        coefficients._memo.clear()
        for row in _exhaustive_rows():
            rect_tally(*row)
        steps = self._steps()
        assert len(steps) >= 1000
        assert [key for key, value in steps.items() if value != reference_label_step(*key[1:])] == []
        # most steps leave some S class where it was (893 of 1114): one the step does not switch
        kept = sum(1 for key, (_, new, _) in steps.items() if any(map(frozenset.__eq__, key[2], new)))
        assert kept >= 800

    def test_every_kernel_call_of_a_step_moves_a_class_that_is_then_checked_apart(self, monkeypatch):
        coefficients._memo.clear()
        events = []
        real_switches, real_apart = jdt._run_switches, jdt._check_apart

        def switches(entries, bullets, reverse, on_switch=None):
            given = frozenset(bullets)
            out = real_switches(entries, bullets, reverse, on_switch)
            events.append(("switch", given, frozenset(out)))
            return out

        def apart(bullets):
            events.append(("apart", frozenset(bullets)))
            real_apart(bullets)

        monkeypatch.setattr(jdt, "_run_switches", switches)
        monkeypatch.setattr(jdt, "_check_apart", apart)
        for row in _exhaustive_rows():
            rect_tally(*row)  # only label steps call the kernel here
        calls = [i for i, event in enumerate(events) if event[0] == "switch"]
        assert len(calls) >= 1000
        assert [events[i] for i in calls if events[i][1] == events[i][2]] == []
        # the class a switch produces is the next set checked apart
        assert [events[i] for i in calls if events[i + 1:i + 2] != [("apart", events[i][2])]] == []

    @staticmethod
    def _steps():
        return {key: value for key, value in coefficients._memo.items() if key[0] == "label-step"}
