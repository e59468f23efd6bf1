"""Evaluating the signature and nullity over the torus.

The signature sigma(omega) and nullity eta(omega) of a generalized Seifert
system are the inertia data of H(omega).  This module evaluates single
points, recovers the one-variable (Levine-Tristram) invariants from the
diagonal, and scans rectangular grids for the zero locus of det H.

Scans exclude the boundary angles 0 and 1 by construction: H vanishes when
a coordinate hits 1, so grid fractions are k/(R+1) for k = 1..R.  On a line
of the last coordinate, det H vanishes only at the unit-circle roots of the
line's pencil (B, B*), so sigma and eta are constant on each arc between two
roots.  ``eigvalsh`` classifies every sample within half a grid step of a
root (a near sample).  An arc is a maximal run of the other samples, and
each arc end takes its inertia from the near sample c beside it when c is in
the classified half, is not the odd-R middle sample, has eta = 0 and has
exactly one root near it and off it (a double root is two nu near c):

- Root beyond c, away from the arc: the end has the inertia of c.  A root
  between c and the end would be near c too, or near the end.
- Root between c and the end: the end has the inertia of c with the sign of
  c's least-magnitude eigenvalue flipped, if c's second-least |eigenvalue|
  exceeds the root's Weyl radius, at least 2 |w_r - w_c| ||B||_F.  On the
  circle H(w) = B - w B* - conj(w) B + B*, so ||H(w) - H(w_c)||_2 is at most
  2 |w - w_c| ||B||_2 for every w on the arc from w_c to the root w_r.  By
  Weyl's inequality each eigenvalue of H(w) stays within the radius of its
  value at w_c, so every eigenvalue but the least keeps its sign up to w_r,
  and the least is the one that vanishes there.  The root is simple, so det H
  and that eigenvalue change sign at it, and no other root comes before the end.

An end without such a sample, or whose guard refuses, goes to ``eigvalsh``.
An arc whose ends agree with eta = 0 hands their inertia to its interior,
where det H(w) = (1 - conj w)^n det M prod_i (1 - (w - w0) nu_i) over the
pencil's eigenvalues nu, with M = B - w0 B* factored once per line.  Derived
ends take |det H| from that product too.  A sample goes to ``eigvalsh`` when
the product is not finite, not real or not of the sign (-1)^negatives, and
so does every sample of an arc whose ends disagree.  The sign of
the real determinant, (-1)^negatives, is 0 when the nullity is positive; its
going through zero between neighbouring samples is the discrete trace of the
zero locus, across which the signature may change.

A scan classifies only one point of each conjugate pair (omega, conj omega)
and mirrors the other.  Every A^eps is a real matrix (``validate`` demands
integer entries), so H(conj omega) = conj(H(omega)), which has the same
spectrum: sigma, eta and |det H| agree at the two points.  Conjugating every
coordinate sends grid fraction k/(R+1) to (R+1-k)/(R+1), that is flat index
i of the row-major grid to N-1-i.  Conjugating only some coordinates is no
symmetry: it reverses the orientation of those colors.  The CSV likewise
formats the sigma, eta and |det H| cells of each conjugate pair once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ccomplex import (
    GeneralizedSeifertSystem,
    TorusPoint,
    assemble_stack,
    h_at_minus_ones,
    torus_coordinate,
)
from .hermitian import (
    DEFAULT_TOL,
    _eigenvalues,
    _spectrum,
    inertia_stack,
    integer_inertia,
    integer_symmetric_signature,
)

#: Bytes of complex matrices assembled and factorized at a time, which
#: bounds a scan's working memory at any resolution.
CHUNK_BYTES = 256 * 1024
#: The pencil shift w0, an irrational turn; the reciprocal 1-norm condition number of
#: M = B - w0 B* below which a line's roots are not trusted; the |1 - |w|| below which a root
#: is on the circle (a double one splits ~1e-8); and the largest |Im det H| / |det H| trusted.
_SHIFT, _MIN_RCOND, _ON_CIRCLE, _REAL = np.exp(2j * np.pi * (3 - 5**0.5) / 2), 1e-8, 1e-3, 1e-8


def _axis(resolution: int) -> list[float]:
    """The grid fractions k/(R+1), k = 1..R, each correctly rounded, as float(Fraction) rounds."""
    return [k / (resolution + 1) for k in range(1, resolution + 1)]


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Invariants of a scan, one entry per sample.

    ``sigma``, ``eta``, ``abs_det`` and ``det_sign`` are arrays of R^mu
    entries in row-major order over the fractions k/(resolution+1),
    k = 1..R: the last coordinate varies fastest.  ``det_sign`` is the sign
    of the real determinant of H, (-1)^negatives, forced to 0 when eta > 0.
    """

    resolution: int
    mu: int
    sigma: np.ndarray
    eta: np.ndarray
    abs_det: np.ndarray
    det_sign: np.ndarray

    @property
    def min_eta(self) -> int:
        return int(self.eta.min())

    @property
    def near_zero_count(self) -> int:
        return int(np.count_nonzero(self.det_sign == 0))


def _chunks(gss: GeneralizedSeifertSystem, axis: np.ndarray, indices: np.ndarray, digits: int):
    """(indices, coordinates) per CHUNK_BYTES of n x n complex matrices.  Row j of
    the coordinates holds the first ``digits`` of row-major grid index ``indices[j]``."""
    step = max(1, CHUNK_BYTES // (16 * max(1, gss.rank) ** 2))
    powers = len(axis) ** np.arange(digits - 1, -1, -1)
    for start in range(0, len(indices), step):
        chunk = indices[start : start + step]
        yield chunk, axis[chunk[:, None] // powers % len(axis)]


def _inertia(gss, axis, indices, positives, negatives, abs_det, leading=0) -> np.ndarray:
    """Classify the samples at ``indices`` by the rule of :func:`inertia_stack`, in
    place.  Returns, for each of the first ``leading`` samples, its least eigenvalue,
    the one of least magnitude (on a tie the later in eigvalsh's ascending order, the
    nonnegative one), and the second-least magnitude (inf below rank 2)."""
    least, done = np.empty((leading, 2)), 0
    for chunk, values in _chunks(gss, axis, indices, gss.mu):
        eigenvalues, threshold = _eigenvalues(assemble_stack(gss, values))
        positives[chunk], negatives[chunk], abs_det[chunk] = _spectrum(eigenvalues, threshold)
        if done < leading:
            # Reversed, so that argmin, which takes the first of a tie, takes the later one.
            magnitudes = np.abs(eigenvalues[: leading - done, ::-1])
            rows, pick = np.arange(len(magnitudes)), magnitudes.argmin(axis=-1)
            least[done : done + len(rows), 0] = eigenvalues[rows, -1 - pick]
            magnitudes[rows, pick] = np.inf
            least[done : done + len(rows), 1] = magnitudes.min(axis=-1)
        done += len(chunk)
    return least


def _near_roots(gss: GeneralizedSeifertSystem, axis: np.ndarray, lines: int):
    """(lines, R) mask of the samples within half a grid step of a root of det H
    on their line (grid index j of the first mu - 1 coordinates), and of every
    sample of a line whose M is ill-conditioned or whose nu is not finite.
    Then, per line, nu and slogdet(M) (phase, log|det M|), NaN where M fails the guard.
    Last, the sorted flat indices of the samples that exactly one root is near,
    off the sample, and per such sample the root's offset in grid steps and its
    Weyl radius (module docstring).

    On the line H(w) = (1 - conj w)(B - w B*), as every A^eps is real.  With
    M = H(w0) / (1 - conj w0) and B* = (H(-1) / 2 - M) / (w0 + 1), the roots
    of det H are w0 + 1/nu over the eigenvalues nu of M^-1 B*.
    """
    size = len(axis)
    near = np.zeros((lines, size), dtype=bool)
    nus = np.full((lines, gss.rank), np.nan, dtype=complex)
    sign_m, log_m = np.full(lines, np.nan, dtype=complex), np.full(lines, np.nan)
    roots = []  # per chunk: (flat sample index, offset, radius) of each root near a sample
    for index, heads in _chunks(gss, axis, np.arange(lines), gss.mu - 1):
        shifted, halfway = (
            assemble_stack(gss, np.column_stack((heads, np.full(len(index), w))))
            for w in (_SHIFT, -1.0)
        )
        nu = nus[index[0] : index[-1] + 1]  # a view: the chunk's lines are consecutive
        # An overflow or an ill-conditioned M leaves its line's nu at NaN.
        with np.errstate(all="ignore"):
            m = shifted / (1 - np.conj(_SHIFT))
            b_star = (halfway / 2 - m) / (_SHIFT + 1)
            good = np.isfinite(b_star).all(axis=(-2, -1))
            if gss.rank:  # cond is not defined on 0 x 0 matrices
                good[good] = np.linalg.cond(m[good], 1) * _MIN_RCOND < 1
            nu[good] = np.linalg.eigvals(np.linalg.solve(m[good], b_star[good]))
            sign_m[index[good]], log_m[index[good]] = np.linalg.slogdet(m[good])
            z = _SHIFT * nu + 1  # the root is z / nu
            on_circle = np.abs(np.abs(z) - np.abs(nu)) < _ON_CIRCLE * np.abs(nu)
            scale = np.linalg.norm(m + _SHIFT * b_star, axis=(-2, -1))
        near[index[~np.isfinite(nu).all(-1)]] = True
        line, root = np.nonzero(on_circle)
        # Sample c (from 0) sits at (c + 1) / (R + 1) turns.
        turns = np.angle(z[line, root] * nu[line, root].conj()) / (2 * np.pi) % 1.0
        position = turns * (size + 1) - 1
        low, high = np.ceil(position - 0.5), np.floor(position + 0.5)
        both = low != high  # a root halfway between two samples is near both
        line, position = (np.concatenate((a, a[both])) for a in (line, position))
        column = np.concatenate((low, high[both]))
        inside = (column >= 0) & (column < size)
        line, position, column = line[inside], position[inside], column[inside].astype(int)
        near[index[line], column] = True
        offset = position - column
        # The Weyl radius bounds 2 |w_r - w_c| ||B||_2 with room for rounding.
        # |w_r - w_c| <= 2 pi |offset| / (R + 1), an arc being no shorter than its
        # chord, and ||B||_2 <= ||B||_F.  The term 4 DEFAULT_TOL ||B||_F, at least
        # DEFAULT_TOL ||H(w_c)||_2, holds the errors of c's eigenvalues and of B.
        # Assembly and eigvalsh keep those near n u ||H||_2 (u = 2^-53), within
        # the band that the tolerance route trusts eigenvalues to.  The factor
        # 1 + 2 (n + 2)^2 u covers the n^2 roundings of the norm's sum and the
        # few of the radius itself.
        radius = 4 * np.pi * np.abs(offset) / (size + 1) + 4 * DEFAULT_TOL
        radius *= scale[line] * (1 + 2 * (gss.rank + 2) ** 2 * 2.0**-53)
        roots.append((index[line] * size + column, offset, radius))
    at, offset, radius = (np.concatenate(r) for r in zip(*roots))
    # A double root shows as two nu near one sample.
    _, first, count = np.unique(at, return_index=True, return_counts=True)
    first = first[(count == 1) & (offset[first] != 0)]
    return near, nus, sign_m, log_m, at[first], offset[first], radius[first]


def _pencil_det(nu, sign_m, log_m, axis, samples):
    """det H = det M prod_i (1 - conj w)(1 - (w - w0) nu_i) at flat grid indices
    ``samples``, by line: its phase, a unit complex, and log|det H|."""
    line, w = samples // len(axis), axis[samples % len(axis)]
    terms = np.take(nu.T, line, axis=1)  # (n, samples): the products run over rows
    terms *= (1 - np.conj(w)) * (_SHIFT - w)
    terms += 1 - np.conj(w)
    terms /= (magnitude := np.abs(terms))
    return terms.prod(0) * sign_m[line], np.log(magnitude, out=magnitude).sum(0) + log_m[line]


def signature_nullity(gss: GeneralizedSeifertSystem, omega: TorusPoint) -> tuple[int, int]:
    """(sigma, eta) at one torus point.

    Uses the exact integer path when every coordinate fraction is 1/2,
    floating-point classification with the ``DEFAULT_TOL`` zero test
    elsewhere.
    """
    if omega.mu == gss.mu and omega.is_minus_ones():
        result = integer_symmetric_signature(h_at_minus_ones(gss))
        return result.signature, result.nullity
    # assemble_stack rejects a point with the wrong number of coordinates.
    positives, negatives, _ = inertia_stack(assemble_stack(gss, [omega.values()]))
    p, q = int(positives[0]), int(negatives[0])
    return p - q, gss.rank - p - q


def lt_signature_from_multivariable(
    gss: GeneralizedSeifertSystem, omega_scalar
) -> tuple[int, int]:
    """Levine-Tristram invariants of the underlying ordered link.

    Evaluates the diagonal point (omega, ..., omega) and subtracts the
    total linking number between colors from the signature; the nullity is
    the diagonal nullity unchanged.  Requires linking data when mu > 1.
    """
    point = TorusPoint.diagonal(omega_scalar, gss.mu)
    sigma, eta = signature_nullity(gss, point)
    if gss.mu == 1:
        return sigma, eta
    return sigma - gss.total_linking(), eta


def torus_scan(gss: GeneralizedSeifertSystem, resolution: int) -> ScanGrid:
    """Sample sigma, eta and |det H| on the full R^mu grid, row-major.

    Only the first ceil(N/2) of the N = R^mu samples are classified; sample
    N-1-i is the joint conjugate of sample i and takes its values.  That
    rests on every A^eps being real, which the integer-entry check of
    :func:`validate` guarantees.

    Lines are classified arc by arc as the module docstring says, arc
    interiors from the line's pencil.  One ``eigvalsh`` round classifies the
    near samples and the arc ends that no near sample can vouch for: a line's
    outer ends, the ends at the mirrored half, and ends beside a sample with
    no single root.  Each other arc end takes the inertia of the near sample
    beside it, the same or with its least eigenvalue flipped across the root;
    a second round classifies the ends whose eta > 0 or Weyl guard refuses
    that.  With odd R the middle sample is its own conjugate and the all-1/2
    point, classified first, exactly, by :func:`integer_inertia` on
    :func:`h_at_minus_ones`; its |det H| comes from the same ``eigh``.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    size = resolution**gss.mu
    # Allocated before any work, so that an impossible R^mu fails at once.
    positives, negatives, abs_det = np.empty(size, int), np.empty(size, int), np.empty(size)
    axis = np.array([torus_coordinate(turns) for turns in _axis(resolution)])
    half = size - size // 2
    near, nu, sign_m, log_m, source, offset, radius = _near_roots(
        gss, axis, -(-half // resolution)
    )
    free = ~near
    free.ravel()[half:] = False  # the mirrored half
    # An arc is a maximal run of free samples along a line.
    starts = free & ~np.pad(free, ((0, 0), (1, 0)))[:, :-1]
    ends = free & ~np.pad(free, ((0, 0), (0, 1)))[:, 1:]
    # The odd-R middle sample, the last of the classified half, is classified exactly.
    middle = size // 2 if resolution % 2 else -1
    # A near sample with exactly one root near it and off it vouches for the arc
    # ends beside it on its line (the next and the previous sample, where free),
    # when it is in the classified half and is not the middle.
    keep = near.ravel()[source] & (source < half) & (source != middle)
    source, offset, radius = source[keep], offset[keep], radius[keep]
    end = np.concatenate((source + 1, source - 1))
    column = source % resolution
    beside = np.concatenate((column < resolution - 1, column > 0))
    beside[beside] = free.ravel()[end[beside]]
    beside &= end != middle
    which = np.concatenate((np.arange(len(source)),) * 2)[beside]  # the end's source
    end, across = end[beside], np.concatenate((offset > 0, offset < 0))[beside]
    direct = (~free | starts | ends).ravel()[:half]
    direct[end] = False
    direct[source] = False  # classified first, to read their least eigenvalues
    if resolution % 2:
        # In ``direct`` until now: near a root, or an arc end (the next sample is mirrored).
        exact, abs_det[middle] = integer_inertia(h_at_minus_ones(gss))
        positives[middle], negatives[middle] = exact.positives, exact.negatives
        direct[middle] = False
    classified = np.concatenate((source, np.flatnonzero(direct)))
    least = _inertia(gss, axis, classified, positives, negatives, abs_det, len(source))[which]
    # Across the root, the source's least eigenvalue changes sign, if the next
    # one lies beyond the root's Weyl radius: the module docstring has the proof.
    source, flip = source[which], np.where(least[:, 0] > 0, 1, -1) * across
    derive = positives[source] + negatives[source] == gss.rank
    derive &= ~across | (least[:, 1] > radius[which])
    # An arc of one sample may have a source on each side: the one before it wins.
    derived, pick = np.unique(end[derive], return_index=True)
    source, flip = source[derive][pick], flip[derive][pick]
    positives[derived], negatives[derived] = positives[source] - flip, negatives[source] + flip
    refused = np.zeros(half, dtype=bool)
    refused[end] = True
    refused[derived] = False
    _inertia(gss, axis, np.flatnonzero(refused), positives, negatives, abs_det)
    first, last = np.flatnonzero(starts), np.flatnonzero(ends)
    agree = (positives[first] == positives[last]) & (negatives[first] == negatives[last])
    agree &= positives[first] + negatives[first] == gss.rank
    interior = np.flatnonzero(free & ~starts & ~ends)
    arc = np.cumsum(starts)[interior] - 1
    fill = agree[arc]
    filled, redo = interior[fill], [interior[~fill]]
    positives[filled], negatives[filled] = positives[first[arc[fill]]], negatives[first[arc[fill]]]
    filled = np.concatenate((filled, derived))  # derived ends take |det H| from the pencil too
    # Pencil bytes per sample: 24 n in (n, samples) arrays, 16 n of ufunc buffer, ~100 more.
    step = max(1, CHUNK_BYTES // (48 * (gss.rank + 3)))
    for chunk in (filled[start : start + step] for start in range(0, len(filled), step)):
        with np.errstate(all="ignore"):
            phase, log_abs = _pencil_det(nu, sign_m, log_m, axis, chunk)
            abs_det[chunk] = np.exp(log_abs)
        # det H is real, with the sign (-1)^negatives of the arc's ends.
        signed = phase.real * (1 - 2 * (negatives[chunk] % 2)) > 0
        redo.append(chunk[~(signed & (np.abs(phase.imag) <= _REAL) & np.isfinite(abs_det[chunk]))])
    _inertia(gss, axis, np.concatenate(redo), positives, negatives, abs_det)
    for values in (positives, negatives, abs_det):
        values[half:] = values[: size // 2][::-1]
    eta = gss.rank - positives - negatives
    return ScanGrid(
        resolution=resolution,
        mu=gss.mu,
        sigma=positives - negatives,
        eta=eta,
        abs_det=abs_det,
        det_sign=np.where(eta > 0, 0, 1 - 2 * (negatives % 2)),
    )


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
    """Render a scan as CSV: angles with 12 significant digits, |det H| with 10."""
    header = ",".join(f"theta_{i + 1}" for i in range(grid.mu)) + ",sigma,eta,absdet\n"
    labels = [f"{turns:.12g}," for turns in _axis(grid.resolution)]
    # The angles of all axes but the last, joined once per row prefix.
    prefixes = ["".join(p) for p in itertools.product(labels, repeat=grid.mu - 1)]
    columns, size = (grid.sigma, grid.eta, grid.abs_det), grid.sigma.size
    # Sample N-1-i of a scan mirrors sample i: format each conjugate pair once.
    count = size - size // 2 if all(np.array_equal(c, c[::-1]) for c in columns) else size
    # %-formatting renders the same text as format(.10g), and faster.
    cells = list(map("%d,%d,%.10g\n".__mod__, zip(*(c[:count].tolist() for c in columns))))
    cells += cells[: size - count][::-1]
    rows = zip(
        itertools.chain.from_iterable(itertools.repeat(p, len(labels)) for p in prefixes),
        itertools.cycle(labels),
        cells,
    )
    return "".join(itertools.chain([header], itertools.chain.from_iterable(rows)))


def write_scan_csv(grid: ScanGrid, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(scan_to_csv(grid))
