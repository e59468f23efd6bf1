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


def write_mixed_system(path, one: str = "1.0"):
    """A mu = 1 system file whose entry ``one`` sits next to k^2 = (2^27 + 1)^2,
    which has no float64.  H(-1) = 4 [[1, k], [k, k^2]] is singular: sigma 1, eta 1."""
    path.write_text(
        f'{{"mu": 1, "rank": 2, "matrices": {{"+": [[{one}, 268435458], [0, 18014398777917441]]}}}}',
        encoding="utf-8",
    )
    return path


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


#: The rank-80 two-bridge Conway forms of the benchmark's exact-inertia workload,
#: C(4,3,4,3,...,4,3,2) and five like it; H(-1,-1) = 4T is negative definite for each.
TWOBRIDGE_FORMS = tuple(
    ",".join(map(str, pair * count + tail))
    for pair, count, tail in [
        ([4, 3], 40, [2]), ([2, 1], 80, [2]), ([6, 2], 26, [6]),
        ([4, 1], 40, [2]), ([2, 3], 80, [2]), ([8, 2], 20, [2]),
    ]
)


def unit_lower(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    """A unit lower triangular integer matrix, off-diagonal entries -1, 0, 1 at ``density``."""
    entries = rng.integers(-1, 2, size=(n, n)) * (rng.random((n, n)) < density)
    return np.eye(n, dtype=np.int64) + np.tril(entries, -1)


def known_form(rng: np.random.Generator, n: int, hyperbolic: int):
    """(form, sigma, eta): a symmetric integer form with even diagonal and known inertia.

    The seeded forms of the benchmark's exact-inertia workload, drawn the same
    way: ``P (L D L^T  (+)  [[0, M], [M^T, 0]]) P^T`` with ``P`` a permutation,
    ``L`` unit lower triangular (so unimodular), ``D`` diagonal in {2, -2, 0}
    with at least one 0, and ``M = U J V`` with ``U``, ``V`` unimodular and
    ``J`` a 0/1 diagonal of rank ``r``.  The second block adds r positive, r
    negative and ``hyperbolic - 2r`` zero eigenvalues.
    """
    m = hyperbolic // 2
    k = n - 2 * m
    d = rng.choice([2, -2, 0], size=k, p=[0.45, 0.45, 0.10])
    d[rng.integers(k)] = 0
    lower = unit_lower(rng, k, 0.5)
    form = np.zeros((n, n), dtype=np.int64)
    form[:k, :k] = lower @ np.diag(d) @ lower.T
    sigma = int((d > 0).sum() - (d < 0).sum())
    eta = int((d == 0).sum())
    if m:
        r = m - max(1, m // 8)
        j = np.diag([1] * r + [0] * (m - r))
        mm = unit_lower(rng, m, 0.5) @ j @ unit_lower(rng, m, 0.5).T
        form[k:k + m, k + m:] = mm
        form[k + m:, k:k + m] = mm.T
        eta += 2 * (m - r)
    perm = rng.permutation(n)
    return form[np.ix_(perm, perm)], sigma, eta


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
