import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from ktaquin import suites
from ktaquin.shapes import dagger, omega_dual, star

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


def pytest_addoption(parser):
    parser.addoption(
        "--test-order",
        metavar="reverse|SEED",
        help="run the collected tests in reverse order, or shuffled with this integer seed",
    )


def pytest_collection_modifyitems(config, items):
    """Reorder the collected tests by ``--test-order``, so that no test leans on another's leftovers."""
    order = config.getoption("--test-order")
    if order is None:
        return
    if order == "reverse":
        items.reverse()
        return
    try:
        seed = int(order)
    except ValueError:
        raise pytest.UsageError(f"--test-order takes reverse or an integer seed, got {order!r}") from None
    random.Random(seed).shuffle(items)


@pytest.fixture(scope="session")
def triple_agreement():
    """One triple-agreement sweep per run: every triple over every frame with k <= 2, n <= 4.

    ``coeff_D_via_identity`` is spied on for the sweep, counting its calls and
    the ones that would read D's own row back: the identity counts C on
    dagger(lam, mu)/omega_dual, which must never be star(lam, mu).
    """
    real = suites.coeff_D_via_identity
    spied = SimpleNamespace(calls=0, self_reads=0)

    def spy(lam, mu, nu, frame):
        spied.calls += 1
        own = star(lam, mu)
        spied.self_reads += (dagger(lam, mu, frame), omega_dual(frame)) == (own.outer, own.inner)
        return real(lam, mu, nu, frame)

    suites.coeff_D_via_identity = spy
    try:
        spied.result = suites.triple_agreement_suite()
    finally:
        suites.coeff_D_via_identity = real
    return spied
