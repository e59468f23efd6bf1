import numpy as np
import pytest

from linksig import catalog
from linksig.ccomplex import GeneralizedSeifertSystem, canonical_patterns


@pytest.fixture(autouse=True)
def unchecked_catalog():
    """Each test starts and ends with the once-per-process catalog check not yet run.

    A test that patches the catalog data then sees its own patch checked, not
    an earlier test's pass.
    """
    catalog.check_shipped.cache_clear()
    yield
    catalog.check_shipped.cache_clear()


@pytest.fixture
def example_system() -> GeneralizedSeifertSystem:
    """The C(4,3,2) system, written out directly from its matrix data."""
    return GeneralizedSeifertSystem(
        mu=2,
        rank=2,
        matrices={"++": [[0, 0], [0, -2]], "+-": [[-1, 1], [0, -1]]},
        name="C(4,3,2)",
    )


def random_system(rng: np.random.Generator, mu: int, rank: int, bound: int = 5):
    """A random generalized Seifert system with entries in [-bound, bound]."""
    matrices = {
        pattern: rng.integers(-bound, bound + 1, size=(rank, rank))
        for pattern in canonical_patterns(mu)
    }
    return GeneralizedSeifertSystem(mu=mu, rank=rank, matrices=matrices)


def random_torus_fractions(rng: np.random.Generator, mu: int):
    from fractions import Fraction

    out = []
    for _ in range(mu):
        den = int(rng.integers(2, 40))
        num = int(rng.integers(1, den))
        out.append(Fraction(num, den))
    return tuple(out)
