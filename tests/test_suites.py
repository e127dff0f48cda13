"""The verification suites not already exercised by the acceptance module."""

from ktaquin import suites
from ktaquin.shapes import dagger, omega_dual, star


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
    assert not result.ok and "need 100" in result.summary


def test_triple_agreement_reads_no_d_row_back(monkeypatch):
    # the identity counts C on dagger(lam, mu)/omega_dual; that skew shape must
    # never be star(lam, mu), whose count is D's own row
    real = suites.coeff_D_via_identity
    calls = self_reads = 0

    def spy(lam, mu, nu, frame):
        nonlocal calls, self_reads
        calls += 1
        own = star(lam, mu)
        self_reads += (dagger(lam, mu, frame), omega_dual(frame)) == (own.outer, own.inner)
        return real(lam, mu, nu, frame)

    monkeypatch.setattr(suites, "coeff_D_via_identity", spy)
    result = suites.triple_agreement_suite()
    assert result.ok and calls == 11134
    assert self_reads == 0
    assert "2772 identities read in a frame one column wider" in result.summary
