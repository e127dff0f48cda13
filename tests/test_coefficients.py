"""Coefficient families against worked values, cross-routes, and brute force."""

from itertools import product

import pytest

from ktaquin.jdt import krect
from ktaquin.shapes import (
    AmbientRectangle,
    DirectSumFrame,
    ShapeFitError,
    SkewShape,
    contains,
    dagger,
    omega_dual,
    partitions_in_rectangle,
    partitions_of,
    psize,
    star,
)
from ktaquin.tableaux import IncreasingTableau, enumerate_augmented, enumerate_set_valued, superstandard
from ktaquin.coefficients import (
    CoefficientRecord,
    DisagreementError,
    coeff_C,
    coeff_D,
    coeff_D_buch,
    coeff_D_via_identity,
    coeff_E,
    coeff_E_via_C,
    coeff_F,
    coeff_c_classical,
    compute_with_checks,
    expand_coproduct,
    expand_product,
)
from ktaquin import coefficients, schur

from helpers import drop_the_all_corners_strip, reference_count_E

from helpers import reference_schur_product


class TestCoeffC:
    def test_small_values(self):
        assert coeff_C((1,), (1,), (2,)) == 1
        assert coeff_C((1,), (1,), (2, 1)) == -1
        assert coeff_C((3, 1), (), (3, 1)) == 1
        assert coeff_C((2,), (1,), (1,)) == 0  # target does not contain lambda

    def test_commutativity_sweep(self):
        shapes = [(), (1,), (2,), (1, 1), (2, 1)]
        for lam in shapes:
            for mu in shapes:
                for n in range(0, 5):
                    for nu in partitions_of(n):
                        assert coeff_C(lam, mu, nu) == coeff_C(mu, lam, nu)


class TestCoeffD:
    def test_flagship(self):
        assert coeff_D((2,), (2, 1), (3, 1)) == -2

    def test_identity_element(self):
        assert coeff_D((3, 1), (), (3, 1)) == 1
        assert coeff_D((), (), ()) == 1

    def test_single_box(self):
        assert coeff_D((1,), (1,), (1,)) == -1

    def test_target_override_independence(self):
        # shape (3,1) targets over 3 letters all have the same preimage count
        targets = [
            IncreasingTableau.from_rows([[1, 2, 3], [2]]),
            IncreasingTableau.from_rows([[1, 2, 3], [3]]),
        ]
        values = {coeff_D((2,), (2, 1), (3, 1), target=t) for t in targets}
        assert values == {-2}
        assert coeff_D((2,), (2, 1), (3, 1), target=superstandard((3, 1))) == -2

    def test_target_shape_checked(self):
        with pytest.raises(ShapeFitError):
            coeff_D((2,), (2, 1), (3, 1), target=superstandard((2, 2)))


class TestCoeffDBuch:
    def test_flagship(self):
        assert coeff_D_buch((2,), (2, 1), (3, 1)) == -2

    def test_trivial(self):
        assert coeff_D_buch((1,), (), (1,)) == 1
        assert coeff_D_buch((1,), (1,), (1,)) == -1

    def test_agreement_small(self):
        shapes = [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]
        for lam in shapes:
            for mu in shapes:
                for n in range(0, 5):
                    for nu in (nu for nu in partitions_of(n, max_rows=3) if not nu or nu[0] <= 3):
                        assert coeff_D(lam, mu, nu) == coeff_D_buch(lam, mu, nu), (lam, mu, nu)


class TestCoeffDIdentity:
    def test_flagship_frame(self):
        frame = DirectSumFrame(1, 3, 2, 4)
        assert coeff_D_via_identity((2,), (2, 1), (3, 1), frame) == -2

    def test_tiny_frame(self):
        frame = DirectSumFrame(1, 2, 1, 2)
        assert coeff_D_via_identity((1,), (1,), (1,), frame) == -1

    def test_empty_second_factor(self):
        frame = DirectSumFrame(2, 4, 1, 3)
        assert coeff_D_via_identity((2, 1), (), (2, 1), frame) == coeff_D((2, 1), (), (2, 1)) == 1

    def test_fit_errors(self):
        with pytest.raises(ShapeFitError):
            coeff_D_via_identity((2,), (2, 1), (3, 1), DirectSumFrame(1, 2, 1, 2))

    def test_default_frame_never_gives_the_d_shape(self):
        # The identity counts C over dagger(lam, mu)/omega_dual.  If that skew shape
        # were star(lam, mu), the check would read D's own row of the memo back.
        box = list(partitions_in_rectangle(3, 3))
        triples = [(lam, mu, nu) for lam in box for mu in box for nu in partitions_in_rectangle(4, 4)]
        assert len(triples) == 28000
        same = []
        for lam, mu, nu in triples:
            frame = coefficients._identity_frame(lam, mu, nu, None)
            frame.require_fits(lam, mu, nu)
            d_shape = star(lam, mu)
            if (dagger(lam, mu, frame), omega_dual(frame)) == (d_shape.outer, d_shape.inner):
                same.append((lam, mu, nu))
        assert same == []


class TestCoeffE:
    def test_flagship(self):
        assert coeff_E((1,), (1,), (2, 1)) == -3

    def test_small(self):
        assert coeff_E((1,), (1,), (2,)) == 1
        assert coeff_E((1,), (1,), (1, 1)) == 1

    def test_rook_strip_route(self):
        assert coeff_E_via_C((1,), (1,), (2, 1)) == -3
        assert coeff_E_via_C((1,), (1,), (2,)) == 1
        # term-by-term: the contractions of (2,1) contribute -1, -1, -1, +0
        terms = {
            (2, 1): coeff_C((1,), (1,), (2, 1)),
            (2,): -coeff_C((1,), (1,), (2,)),
            (1, 1): -coeff_C((1,), (1,), (1, 1)),
            (1,): coeff_C((1,), (1,), (1,)),
        }
        assert terms == {(2, 1): -1, (2,): -1, (1, 1): -1, (1,): 0}

    def test_agreement_sweep(self):
        shapes = [(), (1,), (2,), (1, 1), (2, 1)]
        for lam in shapes:
            for mu in shapes:
                for n in range(0, 7):
                    for nu in (nu for nu in partitions_of(n, max_rows=3) if not nu or nu[0] <= 3):
                        assert coeff_E(lam, mu, nu) == coeff_E_via_C(lam, mu, nu), (lam, mu, nu)

    def test_matches_the_per_filling_count(self):
        """The rook-strip sum of C rows against each X-augmented filling rectified on its own."""
        lams = list(partitions_in_rectangle(2, 3))
        triples = [(lam, mu, nu) for lam in lams for mu in lams for nu in partitions_in_rectangle(3, 4)]
        assert len(triples) == 3500
        coefficients._memo.clear()
        values = {t: coeff_E(*t) for t in triples}
        assert [t for t in triples if values[t] != reference_count_E(*t)] == []
        assert sum(1 for v in values.values() if v) == 892

    def test_raw_count_matches_augmented_tableaux(self):
        # the definition: each X-augmented tableau built, erased and rectified by krect
        shapes = [(), (1,), (2,), (1, 1), (2, 1)]
        for lam in shapes:
            for mu in shapes:
                for n in range(0, 6):
                    for nu in (nu for nu in partitions_of(n, max_rows=3) if not nu or nu[0] <= 3):
                        if not contains(nu, lam):
                            continue
                        target, order = superstandard(mu), superstandard(lam)
                        count = sum(
                            krect(aug.erase_x(), order) == target
                            for aug in enumerate_augmented(SkewShape(nu, lam), range(1, psize(mu) + 1))
                        )
                        sign = -1 if (n - psize(lam) - psize(mu)) % 2 else 1
                        assert coeff_E(lam, mu, nu) == sign * count, (lam, mu, nu)


def ideal_sheaf_tables():
    """(lam, mu, ambient) for every product table of five small ambients: 861 tables."""
    for k, n in [(2, 4), (2, 5), (2, 6), (3, 5), (3, 6)]:
        ambient = AmbientRectangle(k, n)
        shapes = list(partitions_in_rectangle(ambient.rows, ambient.cols))
        yield from ((lam, mu, ambient) for lam in shapes for mu in shapes)


class TestChecksOfE:
    """E's check and the ideal-sheaf table check share no rook-strip enumeration with E's value."""

    TRIPLES = [
        (lam, mu, nu)
        for lam in partitions_in_rectangle(2, 2)
        for mu in partitions_in_rectangle(2, 2)
        for nu in partitions_in_rectangle(3, 3)
    ]

    def test_the_check_path_never_enumerates_rook_strips(self, monkeypatch):
        def refuse(nu):
            raise AssertionError("the check path enumerated rook strips")

        monkeypatch.setattr(coefficients, "rook_strip_contractions", refuse)
        values = [coeff_E_via_C(*t) for t in self.TRIPLES]
        monkeypatch.undo()
        assert values == [coeff_E(*t) for t in self.TRIPLES]

    def test_the_e_check_catches_the_strip_mutant(self, monkeypatch):
        assert len(self.TRIPLES) == 720
        drop_the_all_corners_strip(monkeypatch)
        refused = [t for t in self.TRIPLES if not compute_with_checks("E", *t).agreed]
        assert len(refused) == 107
        for t in refused:
            assert compute_with_checks("E", *t).checks == (("rook-strip", False),)

    def test_ideal_sheaf_tables_pass_their_check(self):
        tables = list(ideal_sheaf_tables())
        assert len(tables) == 861
        for lam, mu, ambient in tables:
            expand_product(lam, mu, ambient, "ideal-sheaf")

    def test_the_ideal_sheaf_check_catches_the_strip_mutant(self, monkeypatch):
        drop_the_all_corners_strip(monkeypatch)
        refused = 0
        for lam, mu, ambient in ideal_sheaf_tables():
            try:
                expand_product(lam, mu, ambient, "ideal-sheaf")
            except DisagreementError as exc:
                assert "the duality of the two bases gives" in str(exc)
                refused += 1
        assert refused == 106

    def test_rook_strip_predicate_against_its_boxes(self):
        shapes = list(partitions_in_rectangle(3, 3))
        for outer in shapes:
            for inner in shapes:
                boxes = SkewShape(outer, inner).boxes() if contains(outer, inner) else None
                expected = boxes is not None and (
                    len({r for r, _ in boxes}) == len({c for _, c in boxes}) == len(boxes)
                )
                assert coefficients._is_rook_strip(outer, inner) == expected, (outer, inner)


class TestCoeffF:
    def test_equals_splitting(self):
        assert coeff_F((2,), (2, 1), (3, 1)) == -2
        assert coeff_F((2, 1), (), (2, 1)) == 1
        assert coeff_F((1,), (1,), (1,)) == -1


class TestMemo:
    SWEEP = [
        (lam, mu, nu)
        for lam in [(), (1,), (2,), (1, 1)]
        for mu in [(1,), (2,), (2, 1)]
        for n in (3, 4)
        for nu in partitions_of(n)
    ]

    def _values(self):
        return [
            (coeff_C(*t), coeff_D(*t), coeff_E(*t), coeff_c_classical(*t), schur.lr_coefficient(*t))
            for t in self.SWEEP
        ]

    def test_cold_and_warm_sweeps_agree(self):
        coefficients._memo.clear()
        assert not coefficients._memo
        cold = self._values()
        size = len(coefficients._memo)
        # the Schur oracle's monomials and the normal forms live in the one
        # memo, so clear() reset them too
        assert any(key[0] == "schur" for key in coefficients._memo)
        partitions = {key for key in coefficients._memo if key[0] == "partition"}
        assert partitions
        steps = {key for key in coefficients._memo if key[0] == "label-step"}
        assert steps  # the label steps of the rectification counts live there too
        assert self._values() == cold
        assert len(coefficients._memo) == size  # the warm sweep computed nothing new
        assert {key for key in coefficients._memo if key[0] == "partition"} == partitions
        assert {key for key in coefficients._memo if key[0] == "label-step"} == steps
        assert sum(1 for row in cold for v in row if v) >= 50

    def test_target_count_is_not_memoized(self):
        coefficients._memo.clear()
        target = IncreasingTableau.from_rows([[1, 2, 3], [2]])
        assert coeff_D((2,), (2, 1), (3, 1), target=target) == -2
        assert ("D", (2,), (2, 1), (3, 1)) not in coefficients._memo
        assert any(key[0] == "label-step" for key in coefficients._memo)  # its steps are
        assert coeff_D((2,), (2, 1), (3, 1)) == -2
        assert coefficients._memo[("D", (2,), (2, 1), (3, 1))] == -2


class TestZeroBySize:
    """Each count's own size test against its rule without it, lambda and mu in 2x2, nu in 3x3."""

    BOX = list(partitions_in_rectangle(2, 2))
    TRIPLES = list(product(BOX, BOX, partitions_in_rectangle(3, 3)))

    @staticmethod
    def _without_size_test(kind, lam, mu, nu):
        """The signed rect_tally entry, or the signed enumerator count, whatever the sizes."""
        excess = psize(nu) - psize(lam) - psize(mu)
        sign = (-1) ** excess
        if kind == "C":
            return sign * coefficients.rect_tally(nu, lam, psize(mu)).get(mu, 0) if contains(nu, lam) else 0
        if kind == "D":
            d_shape = star(lam, mu)
            return sign * coefficients.rect_tally(d_shape.outer, d_shape.inner, psize(nu)).get(nu, 0)
        if kind == "C-buch":
            d_shape = star(lam, mu)
            lattice = [(1, len(nu))] if nu else []
            return sign * sum(1 for _ in enumerate_set_valued(d_shape.outer, nu, lattice, d_shape.inner))
        p, q = len(lam), len(mu)
        lattice = [(a, b) for a, b in ((1, p), (p + 1, p + q)) if a <= b]
        return sign * sum(1 for _ in enumerate_set_valued(nu, lam + mu, lattice))

    @pytest.mark.parametrize("kind", ["C", "C-buch", "D", "D-buch"])
    def test_each_count_equals_its_rule_without_the_shortcut(self, kind):
        coefficients._memo.clear()
        try:
            values = [
                (coefficients._COUNTS[kind](*t), self._without_size_test(kind, *t)) for t in self.TRIPLES
            ]
        finally:
            coefficients._memo.clear()
        assert all(got == want for got, want in values)
        # the sweep reaches both sides of every size test
        excess = [psize(nu) - psize(lam) - psize(mu) for lam, mu, nu in self.TRIPLES]
        assert sum(e < 0 for e in excess) == 267 and sum(e > 0 for e in excess) == 360
        assert sum(1 for got, _ in values if got) == {"C": 98, "C-buch": 98, "D": 125, "D-buch": 125}[kind]

    def test_zero_by_size_enters_no_enumerator_and_stores_no_row(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the enumerator was entered for a count that is zero by size")

        monkeypatch.setattr(coefficients, "_set_valued_cells", unreachable)
        coefficients._memo.clear()
        try:
            checked = 0
            for lam, mu, nu in self.TRIPLES:
                excess = psize(nu) - psize(lam) - psize(mu)
                # C and E (whose terms shrink nu) below the size of the star, D and F above it
                for kind in ("C", "E") if excess < 0 else ("D", "F") if excess > 0 else ():
                    record = compute_with_checks(kind, lam, mu, nu)
                    assert record.value == 0 and record.agreed and record.checks
                    checked += 1
            rows = [key for key in coefficients._memo if not isinstance(key[0], str)]  # (outer, inner, m)
        finally:
            coefficients._memo.clear()
        assert checked == 2 * (267 + 360)
        assert rows == []

    def test_the_identity_equals_its_rule_without_the_shortcut(self):
        coefficients._memo.clear()
        try:
            values = []
            for lam, mu, nu in self.TRIPLES:
                frame = coefficients._identity_frame(lam, mu, nu, None)
                outer, inner = dagger(lam, mu, frame), omega_dual(frame)
                sign = (-1) ** (psize(outer) - psize(inner) - psize(nu))
                want = sign * coefficients.rect_tally(outer, inner, psize(nu)).get(nu, 0)
                values.append((coeff_D_via_identity(lam, mu, nu, frame), want))
        finally:
            coefficients._memo.clear()
        assert all(got == want for got, want in values)
        # the sweep reaches both sides of the identity's size test
        assert sum(psize(nu) > psize(lam) + psize(mu) for lam, mu, nu in self.TRIPLES) == 360
        assert sum(1 for got, _ in values if got) == 125

    def test_a_zero_by_size_identity_builds_no_shape_and_stores_no_C(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the identity built a frame shape for a D that is zero by size")

        monkeypatch.setattr(coefficients, "_dagger", unreachable)
        monkeypatch.setattr(coefficients, "omega_dual", unreachable)
        coefficients._memo.clear()
        try:
            checked = 0
            for lam, mu, nu in self.TRIPLES:
                if psize(nu) > psize(lam) + psize(mu):
                    for kind in ("D", "F"):
                        record = compute_with_checks(kind, lam, mu, nu)
                        assert record.value == 0 and record.agreed and record.checks
                        checked += 1
            c_keys = [key for key in coefficients._memo if key[0] == "C"]
            # the fit check still runs first: this triple is zero by size, but lambda misfits
            with pytest.raises(ShapeFitError, match="does not fit the 1x2 rectangle"):
                coeff_D_via_identity((3,), (1,), (3, 2), DirectSumFrame(1, 3, 1, 3))
        finally:
            coefficients._memo.clear()
        assert checked == 2 * 360
        assert c_keys == []


class TestClassical:
    def test_values(self):
        assert coeff_c_classical((1,), (1,), (2,)) == 1
        assert coeff_c_classical((2, 1), (2, 1), (3, 2, 1)) == 2
        assert coeff_c_classical((1,), (1,), (3,)) == 0

    def test_matches_oracle(self):
        for lam in [(1,), (2,), (2, 1), (1, 1)]:
            for mu in [(1,), (2, 1), (2,)]:
                for nu in partitions_of(psize(lam) + psize(mu)):
                    assert coeff_c_classical(lam, mu, nu) == schur.lr_coefficient(lam, mu, nu)


class TestExpansions:
    def test_structure_product(self):
        table = expand_product((1,), (1,), AmbientRectangle(2, 4))
        assert table == {(2,): 1, (1, 1): 1, (2, 1): -1}

    def test_ideal_product(self):
        table = expand_product((1,), (1,), AmbientRectangle(2, 4), basis="ideal-sheaf")
        assert table == {(2,): 1, (1, 1): 1, (2, 1): -3, (2, 2): coeff_E((1,), (1,), (2, 2))}
        assert table[(2, 2)] == 1

    def test_unit(self):
        assert expand_product((), (2, 1), AmbientRectangle(2, 4)) == {(2, 1): 1}

    def test_unknown_basis_is_refused(self):
        with pytest.raises(ValueError, match="basis must be structure-sheaf or ideal-sheaf, got 'schubert'"):
            expand_product((1,), (1,), AmbientRectangle(2, 4), basis="schubert")

    def test_coproduct_single_box(self):
        table = expand_coproduct((1,), DirectSumFrame(1, 2, 1, 2))
        assert table == {((1,), ()): 1, ((), (1,)): 1, ((1,), (1,)): -1}

    def test_coproduct_empty(self):
        assert expand_coproduct((), DirectSumFrame(1, 2, 1, 2)) == {((), ()): 1}

    def test_coproduct_flagship(self):
        table = expand_coproduct((3, 1), DirectSumFrame(1, 3, 2, 4))
        assert table[((2,), (2, 1))] == -2


class TestTargetIndependence:
    def test_counts_match_every_target_in_fixed_alphabet(self):
        """Unsigned splitting counts ignore which standard target of the shape is fixed."""
        from ktaquin.tableaux import enumerate_increasing

        cases = [((2,), (2, 1)), ((1, 1), (2,)), ((2, 1), (1,))]
        checked = 0
        for lam, mu in cases:
            for n in range(0, 6):
                for nu in (nu for nu in partitions_of(n, max_rows=3) if not nu or nu[0] <= 3):
                    expected = coeff_D(lam, mu, nu)
                    for t in enumerate_increasing(SkewShape.straight(nu), range(1, n + 1), surjective=True):
                        assert coeff_D(lam, mu, nu, target=t) == expected, (lam, mu, nu, t)
                        checked += expected != 0
        assert checked >= 20


class TestRecords:
    def test_sign_validation(self):
        with pytest.raises(ValueError):
            CoefficientRecord("D", (2,), (2, 1), (3, 1), 2)
        CoefficientRecord("D", (2,), (2, 1), (3, 1), -2)
        with pytest.raises(ValueError):
            CoefficientRecord("c", (1,), (1,), (2,), -1)

    def test_compute_with_checks(self):
        rec = compute_with_checks("D", (2,), (2, 1), (3, 1), DirectSumFrame(1, 3, 2, 4))
        assert rec.value == -2
        assert dict(rec.checks) == {"buch": True, "identity": True}
        assert rec.agreed
        rec_e = compute_with_checks("E", (1,), (1,), (2, 1))
        assert rec_e.value == -3 and rec_e.checks == (("rook-strip", True),)
        rec_k = compute_with_checks("C", (1,), (1,), (2, 1))
        # equal factors: the swap would read the same memo entry, so no symmetry check
        assert rec_k.value == -1 and rec_k.checks == (("buch", True),)
        rec_s = compute_with_checks("C", (2,), (1,), (2, 1))
        assert rec_s.value == 1 and [name for name, _ in rec_s.checks] == ["symmetry", "buch", "classical"]
        rec_c = compute_with_checks("c", (2, 1), (2, 1), (3, 2, 1))
        assert rec_c.value == 2 and rec_c.agreed

    def test_f_is_checked_through_d_routes(self):
        rec = compute_with_checks("F", (2,), (2, 1), (3, 1))
        assert rec.value == -2
        assert rec.checks == (("buch", True), ("identity", True))

    @pytest.mark.parametrize("kind", sorted(coefficients.KINDS))
    def test_checked_value_is_the_kinds_rule(self, kind):
        rule = coefficients.KINDS[kind]
        small = list(partitions_in_rectangle(2, 2))
        for lam in small:  # the sign-invariant sweep
            for mu in small:
                for nu in partitions_in_rectangle(2, 3):
                    assert compute_with_checks(kind, lam, mu, nu).value == rule(lam, mu, nu)

    def test_unknown_kind_is_refused_before_any_count(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a count ran for an unknown kind")

        monkeypatch.setattr(coefficients, "_memoized_count", refuse)
        monkeypatch.setattr(schur, "lr_coefficient", refuse)
        for kind in list(coefficients.KINDS):
            monkeypatch.setitem(coefficients.KINDS, kind, refuse)
        with pytest.raises(ValueError, match=r"^unknown coefficient kind 'X'$"):
            compute_with_checks("X", (1,), (1,), (2,))


class TestSchurOracle:
    def test_pieri(self):
        assert schur.lr_coefficient((1,), (1,), (2,)) == 1
        assert schur.lr_coefficient((1,), (1,), (1, 1)) == 1

    def test_expansion(self):
        table = schur.schur_product_expansion((2, 1), (2, 1))
        assert table[(3, 2, 1)] == 2
        assert table[(4, 2)] == 1
        assert table[(2, 2, 1, 1)] == 1
        assert sum(v * 1 for v in table.values()) > 0
        # total dimension check: multiplicities weighted by standard counts
        assert schur.lr_coefficient((2, 1), (2, 1), (6,)) == 0

    def test_degree_mismatch(self):
        assert schur.lr_coefficient((2,), (1,), (2,)) == 0

    def test_packed_oracle_matches_the_tuple_oracle(self):
        pairs = [
            (lam, mu)
            for total in range(9)
            for a in range(total + 1)
            for lam in partitions_of(a)
            for mu in partitions_of(total - a)
        ]
        assert len(pairs) == 434  # every pair with |lam| + |mu| <= 8
        coefficients._memo.clear()
        tables = {pair: schur.schur_product_expansion(*pair) for pair in pairs}
        assert [pair for pair in pairs if tables[pair] != reference_schur_product(*pair)] == []
        assert max(v for table in tables.values() for v in table.values()) == 2
