"""The verification suites not already exercised by the acceptance module."""

import pytest

from ktaquin import suites
from ktaquin.tableaux import IncreasingTableau


def test_origin_invariants_suite():
    result = suites.origin_invariants_suite()
    assert result.ok


def test_superstandard_independence_suite():
    result = suites.superstandard_independence_suite()
    assert result.ok


def test_count_independence_suite():
    result = suites.count_independence_suite()
    assert result.ok


def test_random_equivalence_suite():
    result = suites.random_equivalence_suite(seed=5)
    assert result.ok and result.seed == 5


def test_suite_registry_runs():
    assert set(suites.SUITES) >= {
        "star-groups",
        "augmented-witnesses",
        "sharpness",
        "triple-agreement",
        "degeneration",
        "products",
    }
    for name in ("star-groups", "products", "augmented-witnesses"):
        assert suites.SUITES[name]().ok


def test_sign_invariant_fails_below_floor(monkeypatch):
    # a sweep that sees almost nothing must fail rather than pass vacuously
    monkeypatch.setattr(suites, "partitions_in_rectangle", lambda rows, cols: iter([()]))
    result = suites.sign_invariant_suite()
    assert not result.ok and result.summary.endswith(" checked, expected 210")


@pytest.mark.parametrize("change", ["drop", "add"])
def test_a_sweep_of_another_size_fails_naming_both_counts(monkeypatch, change):
    # one partition of 8 fewer, or one repeated: every triple checked still agrees,
    # so only the size of the universe can fail the sweep
    real = suites.partitions_of

    def changed(n):
        parts = list(real(n))
        if n == 8:
            parts = parts[1:] if change == "drop" else parts + parts[:1]
        return iter(parts)

    monkeypatch.setattr(suites, "partitions_of", changed)
    result = suites.degeneration_suite()
    checked, expected = result.summary.split(" checked, expected ")
    assert not result.ok and not result.details and expected == "6830"
    assert (int(checked) < 6830) if change == "drop" else (int(checked) > 6830)


def test_triple_agreement_reads_no_d_row_back(triple_agreement):
    # the identity counts C on dagger(lam, mu)/omega_dual; that skew shape must
    # never be star(lam, mu), whose count is D's own row (spied in conftest.py)
    result = triple_agreement.result
    assert result.ok and triple_agreement.calls == 11134
    assert triple_agreement.self_reads == 0
    assert "2772 identities read in a frame one column wider" in result.summary


VERIFY_ALL_ORDER = [
    "star-groups",
    "augmented-witnesses",
    "rect-order-independence",
    "strong-equivalence",
    "random-equivalence",
    "sharpness",
    "reversibility",
    "infusion-involution",
    "rev-rect-anchor",
    "origin-invariants",
    "count-independence",
    "superstandard-independence",
    "products",
    "degeneration",
    "triple-agreement",
    "sign-invariant",
]

EMPTIED_SWEEPS = {
    "rect-order-independence",
    "strong-equivalence",
    "sharpness",
    "rev-rect-anchor",
    "origin-invariants",
    "superstandard-independence",
    "degeneration",
    "triple-agreement",
}


def test_registry_order_is_the_verify_all_order():
    assert list(suites.SUITES) == VERIFY_ALL_ORDER


def test_every_result_carries_its_registered_name(monkeypatch):
    # the sweeps run on emptied universes and the seeded ones on one small
    # tableau: the stamp is under test, and an emptied sweep must fail on its count
    for source in ("partitions_of", "_rectangles", "_frames"):
        monkeypatch.setattr(suites, source, lambda *args: iter(()))
    tiny = IncreasingTableau.from_rows([[1], [2]], inner=(1,))
    monkeypatch.setattr(suites, "_random_skew_instance", lambda rng: tiny)
    failed = set()
    for name, fn in suites.SUITES.items():
        result = fn()
        assert result.name == name and result.elapsed > 0
        if not result.ok:
            failed.add(name)
            assert result.summary.startswith("0 ") and not result.details
    assert failed == EMPTIED_SWEEPS


def test_seeded_suites_are_read_from_the_signatures():
    assert suites.SEEDED_SUITES == {"reversibility", "infusion-involution", "random-equivalence"}


def test_an_empty_sweep_fails():
    empty = suites._sweep(0, 1, [], "x")
    assert not empty.ok and empty.summary == "0 checked, expected 1"
    assert suites._sweep(1, 1, [], "x").summary == "1 x"
    result = suites._sweep(3, 3, ["a", "b"], "x", shown=1)
    assert not result.ok and result.summary == "2 failures" and result.details == ["a"]


def test_a_failing_seeded_sweep_names_its_instances(monkeypatch):
    monkeypatch.setattr(suites, "rev_kjdt_slide", lambda t, boxes, ambient: t)
    result = suites.reversibility_suite()
    assert not result.ok and result.summary.endswith(" failures")
    assert result.details and "is not undone" in result.details[0]
