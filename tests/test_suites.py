"""The verification suites not already exercised by the acceptance module."""

from ktaquin import suites
from ktaquin.tableaux import IncreasingTableau


def test_origin_invariants_suite():
    result = suites.origin_invariants_suite(max_area=4, depth=2)
    assert result.ok


def test_superstandard_independence_suite():
    result = suites.superstandard_independence_suite(max_extra=2)
    assert result.ok


def test_count_independence_suite():
    result = suites.count_independence_suite()
    assert result.ok


def test_random_equivalence_suite():
    result = suites.random_equivalence_suite(runs=30, seed=5)
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
    assert not result.ok and "need 100" in result.details[0]


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
    # tableau: the stamp is under test, and an emptied sweep must fail
    for source in ("partitions_of", "_rectangles", "_frames"):
        monkeypatch.setattr(suites, source, lambda *args: iter(()))
    tiny = IncreasingTableau.from_rows([[1], [2]], inner=(1,))
    monkeypatch.setattr(suites, "_random_skew_instance", lambda rng, max_boxes: tiny)
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
    assert not suites._sweep(0, [], "x").ok
    assert suites._sweep(1, [], "x").summary == "1 x"
    result = suites._sweep(3, ["a", "b"], "x", shown=1)
    assert not result.ok and result.summary == "2 failures" and result.details == ["a"]


def test_a_failing_seeded_sweep_names_its_instances(monkeypatch):
    monkeypatch.setattr(suites, "rev_kjdt_slide", lambda t, boxes, ambient: t)
    result = suites.reversibility_suite()
    assert not result.ok and result.summary.endswith(" failures")
    assert result.details and "is not undone" in result.details[0]
