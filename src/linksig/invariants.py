"""Evaluating the signature and nullity over the torus.

The signature sigma(omega) and nullity eta(omega) of a generalized Seifert
system are the inertia data of H(omega).  This module evaluates single
points, recovers the one-variable (Levine-Tristram) invariants from the
diagonal, scans rectangular grids for the zero locus of det H, and
estimates the minimal nullity over the torus from samples.

Scans exclude the boundary angles 0 and 1 by construction: H vanishes when
a coordinate hits 1, so grid fractions are k/(R+1) for k = 1..R.  A scan
assembles H for a chunk of points at a time and classifies the chunk with
one ``eigvalsh`` call.  Samples carry |det H|, the product of the
eigenvalue magnitudes from that same call (its last printed digit can
differ from an LU determinant), and the sign of the real determinant,
(-1)^negatives, set to 0 when the nullity is positive.  The sign going
through zero between neighbouring samples is the discrete trace of the
zero locus, across which the signature is allowed to change.

A scan classifies only one point of each conjugate pair (omega, conj omega)
and mirrors the other.  Every A^eps is a real matrix (``validate`` demands
integer entries), so H(conj omega) = conj(H(omega)), which has the same
spectrum: sigma, eta and |det H| agree at the two points.  Conjugating every
coordinate sends grid fraction k/(R+1) to (R+1-k)/(R+1), that is flat index
i of the row-major grid to N-1-i.  Conjugating only some coordinates is no
symmetry: it reverses the orientation of those colors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .ccomplex import (
    GeneralizedSeifertSystem,
    TorusPoint,
    assemble_h,
    assemble_stack,
    h_at_minus_ones,
    torus_coordinate,
)
from .hermitian import hermitian_signature, inertia_stack, integer_symmetric_signature

#: Bytes of complex H matrices assembled and classified at a time, which
#: bounds a scan's working memory at any resolution.
CHUNK_BYTES = 256 * 1024


@dataclass(frozen=True)
class InvariantSample:
    """Invariants of one torus point.

    ``det_sign`` is the sign of the real determinant of H, (-1)^negatives,
    forced to 0 when the sample is flagged as a potential zero of the
    torsion polynomial (positive nullity).
    """

    omega: TorusPoint
    sigma: int
    eta: int
    abs_det: float
    det_sign: int

    @property
    def near_zero(self) -> bool:
        return self.det_sign == 0


def _axis(resolution: int) -> list[Fraction]:
    return [Fraction(k, resolution + 1) for k in range(1, resolution + 1)]


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Row-major grid of samples at fractions k/(resolution+1), k = 1..R.

    ``sigma``, ``eta``, ``abs_det`` and ``det_sign`` are arrays of R^mu
    entries, one per sample, with the meaning of the
    :class:`InvariantSample` fields.
    """

    resolution: int
    mu: int
    sigma: np.ndarray
    eta: np.ndarray
    abs_det: np.ndarray
    det_sign: np.ndarray

    @property
    def samples(self) -> tuple[InvariantSample, ...]:
        """The samples as :class:`InvariantSample` objects, built on each access."""
        points = itertools.product(_axis(self.resolution), repeat=self.mu)
        columns = (self.sigma, self.eta, self.abs_det, self.det_sign)
        return tuple(
            InvariantSample(TorusPoint(point), *values)
            for point, *values in zip(points, *(c.tolist() for c in columns))
        )

    @property
    def min_eta(self) -> int:
        return int(self.eta.min())

    @property
    def near_zero_count(self) -> int:
        return int(np.count_nonzero(self.det_sign == 0))


def _inertia(gss: GeneralizedSeifertSystem, values: np.ndarray):
    """Positive and negative counts and |det H| at each row of ``values``.

    Assembles and classifies CHUNK_BYTES of H matrices at a time.
    """
    step = max(1, CHUNK_BYTES // (16 * max(1, gss.rank) ** 2))
    positives = np.empty(len(values), dtype=int)
    negatives = np.empty(len(values), dtype=int)
    abs_det = np.empty(len(values))
    for start in range(0, len(values), step):
        chunk = slice(start, start + step)
        positives[chunk], negatives[chunk], abs_det[chunk] = inertia_stack(
            assemble_stack(gss, values[chunk])
        )
    return positives, negatives, abs_det


def signature_nullity(gss: GeneralizedSeifertSystem, omega: TorusPoint) -> tuple[int, int]:
    """(sigma, eta) at one torus point.

    Uses the exact integer path when every coordinate fraction is 1/2,
    floating-point classification with the ``DEFAULT_TOL`` zero test
    elsewhere.
    """
    if omega.mu == gss.mu and omega.is_minus_ones():
        result = integer_symmetric_signature(h_at_minus_ones(gss))
    else:
        # assemble_h rejects a point with the wrong number of coordinates.
        result = hermitian_signature(assemble_h(gss, omega))
    return result.signature, result.nullity


def lt_signature_from_multivariable(
    gss: GeneralizedSeifertSystem, omega_scalar
) -> tuple[int, int]:
    """Levine-Tristram invariants of the underlying ordered link.

    Evaluates the diagonal point (omega, ..., omega) and subtracts the
    total linking number between colors from the signature; the nullity is
    the diagonal nullity unchanged.  Requires linking data when mu > 1.
    """
    q = Fraction(omega_scalar)
    point = TorusPoint.diagonal(q, gss.mu)
    sigma, eta = signature_nullity(gss, point)
    if gss.mu == 1:
        return sigma, eta
    return sigma - gss.total_linking(), eta


def torus_scan(gss: GeneralizedSeifertSystem, resolution: int) -> ScanGrid:
    """Sample sigma, eta and |det H| on the full R^mu grid, row-major.

    Only the first ceil(N/2) of the N = R^mu samples are classified; sample
    N-1-i is the joint conjugate of sample i and takes its values.  That
    rests on every A^eps being real, which :func:`validate` guarantees; a
    non-real A^eps would make H non-Hermitian, which :func:`inertia_stack`
    rejects on the half that is computed.

    With odd R the middle sample is its own conjugate and the all-1/2
    point; its inertia is the exact one of :func:`h_at_minus_ones`.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    # Allocated before the axis is built, so that an impossible R^mu fails at once.
    values = np.empty((resolution,) * gss.mu + (gss.mu,), dtype=complex)
    axis = np.array([torus_coordinate(q) for q in _axis(resolution)])
    np.stack(np.meshgrid(*[axis] * gss.mu, indexing="ij"), axis=-1, out=values)
    values = values.reshape(-1, gss.mu)
    mirrored = len(values) // 2
    computed = _inertia(gss, values[: len(values) - mirrored])
    positives, negatives, abs_det = (
        np.concatenate((half, half[:mirrored][::-1])) for half in computed
    )
    if resolution % 2:
        exact = integer_symmetric_signature(h_at_minus_ones(gss))
        middle = np.ravel_multi_index((resolution // 2,) * gss.mu, (resolution,) * gss.mu)
        positives[middle], negatives[middle] = exact.positives, exact.negatives
    eta = gss.rank - positives - negatives
    return ScanGrid(
        resolution=resolution,
        mu=gss.mu,
        sigma=positives - negatives,
        eta=eta,
        abs_det=abs_det,
        det_sign=np.where(eta > 0, 0, 1 - 2 * (negatives % 2)),
    )


def estimate_beta(gss: GeneralizedSeifertSystem, samples: Sequence[TorusPoint]) -> int:
    """Minimum sampled nullity: an upper bound for the minimal nullity.

    The true minimum over the whole torus (the rank of the Alexander
    module) can only be smaller, so rank-obstruction bounds computed from
    this estimate stay valid, merely possibly weaker.
    """
    points = list(samples)
    if not points:
        raise ValueError("at least one sample point is required")
    return min(signature_nullity(gss, omega)[1] for omega in points)


def undetected_sigma_jumps(grid: ScanGrid) -> list[tuple[int, int]]:
    """Pairs of adjacent samples where sigma changes with no sign of a zero.

    A signature change between neighbours is legitimate only when the
    determinant crossed zero on the way: one endpoint flagged near-zero or
    the real determinant changing sign.  Anything else is returned, as pairs
    of flat row-major indices: axis by axis, and row-major within an axis.
    """
    shape = (grid.resolution,) * grid.mu
    arrays = [a.reshape(shape) for a in (grid.sigma, grid.det_sign, np.arange(grid.sigma.size))]
    bad = []
    for axis in range(grid.mu):
        # With the axis moved last, a boolean mask lists its pairs row-major.
        sigma, sign, index = (np.moveaxis(a, axis, -1) for a in arrays)
        jump = (sigma[..., 1:] != sigma[..., :-1]) & (sign[..., 1:] * sign[..., :-1] > 0)
        bad += zip(index[..., :-1][jump].tolist(), index[..., 1:][jump].tolist())
    return bad


def scan_to_csv(grid: ScanGrid) -> str:
    """Render a scan as CSV, angles in decimal with 12 significant digits."""
    header = ",".join(f"theta_{i + 1}" for i in range(grid.mu)) + ",sigma,eta,absdet\n"
    labels = [f"{float(q):.12g}," for q in _axis(grid.resolution)]
    # The angles of all axes but the last, joined once per row prefix.
    prefixes = ["".join(p) for p in itertools.product(labels, repeat=grid.mu - 1)]
    # %-formatting renders the same text as format(.12g), and faster.
    rows = map(
        "%s%s%d,%d,%.12g\n".__mod__,
        zip(
            itertools.chain.from_iterable(itertools.repeat(p, len(labels)) for p in prefixes),
            itertools.cycle(labels),
            grid.sigma.tolist(),
            grid.eta.tolist(),
            grid.abs_det.tolist(),
        ),
    )
    return "".join(itertools.chain([header], rows))


def write_scan_csv(grid: ScanGrid, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(scan_to_csv(grid))
