import itertools
from fractions import Fraction

import numpy as np
import pytest

from linksig import catalog
from linksig.ccomplex import (
    GeneralizedSeifertSystem,
    TorusPoint,
    canonical_patterns,
    pattern_to_string,
)


@pytest.fixture(autouse=True)
def unchecked_catalog():
    """Each test starts and ends with the once-per-process catalog check not yet run.

    A test that patches the catalog data then sees its own patch checked, not
    an earlier test's pass.
    """
    catalog.self_check.cache_clear()
    yield
    catalog.self_check.cache_clear()


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


def full_family(system: GeneralizedSeifertSystem):
    """(eps, A^eps) for all 2^mu sign patterns, A^(-eps) = (A^eps)^T read off the stored half."""
    for pattern in itertools.product((1, -1), repeat=system.mu):
        if pattern[0] > 0:
            yield pattern, np.asarray(system.matrices[pattern])
        else:
            yield pattern, np.asarray(system.matrices[tuple(-s for s in pattern)]).T


def random_torus_fractions(rng: np.random.Generator, mu: int):
    out = []
    for _ in range(mu):
        den = int(rng.integers(2, 40))
        num = int(rng.integers(1, den))
        out.append(Fraction(num, den))
    return tuple(out)


def grid_points(grid) -> list[TorusPoint]:
    """The points of a scan grid, in the row-major order of its arrays."""
    axis = [Fraction(k, grid.resolution + 1) for k in range(1, grid.resolution + 1)]
    return [TorusPoint(point) for point in itertools.product(axis, repeat=grid.mu)]


def system_document(gss: GeneralizedSeifertSystem) -> dict:
    """The JSON document of a system, the format that ``load_system`` reads."""
    doc = {
        "mu": gss.mu,
        "rank": gss.rank,
        "matrices": {
            pattern_to_string(p): np.asarray(m).tolist()
            for p, m in sorted(gss.matrices.items(), reverse=True)
        },
    }
    if gss.linking is not None:
        doc["linking"] = np.asarray(gss.linking).tolist()
    if gss.name is not None:
        doc["name"] = gss.name
    return doc
