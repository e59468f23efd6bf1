"""Signature and nullity of Hermitian matrices.

Two routes are provided.  ``inertia_stack`` classifies the spectra of a
stack of exactly Hermitian matrices, such as ``assemble_stack`` builds, with
one ``eigvalsh`` call; it checks only that the entries are finite.
``hermitian_signature`` is the checking entry point for one matrix of any
origin: it rejects asymmetry beyond the tolerance and symmetrizes the rest
before ``inertia_stack``.  ``integer_symmetric_signature`` is exact.  From
rank ``CERTIFIED_MIN_RANK`` on it first tries ``integer_inertia``, which
certifies the signs of one ``eigh``'s eigenvalues by congruence and a
rigorous radius and also gives |det| (a scan's all-1/2 middle sample takes
both from it); what is left undecided goes to fraction-free elimination,
whose primitive rows stay below the Bareiss minors.  Both eigenvalue routes
count signs and |det| by one rule, ``_spectrum``, and differ only in the
margin: the threshold ``DEFAULT_TOL * max(1, max |entry|)`` or the certified
radius.  The routes must agree whenever both apply; the tests lean on that.

``bordered_delta`` measures how the signature and nullity react when a
Hermitian matrix is enlarged by one bordering row/column.  Eigenvalue
interlacing forces ``|delta_sigma| + |delta_eta| = 1`` for every border.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

import numpy as np

from .ccomplex import exact_int, exact_int_rows, int_array  # importable from here too

#: Relative tolerance of the floating-point zero test; it is not a parameter.
DEFAULT_TOL = 1e-9
#: Rank from which :func:`integer_symmetric_signature` tries the certificate
#: of :func:`integer_inertia` before elimination, which is faster below it
#: (both take about 50 us at rank 10 on an x86-64 box, one BLAS thread).
CERTIFIED_MIN_RANK = 10


class SignatureResult(NamedTuple):
    """Inertia of a Hermitian matrix.

    ``positives + negatives + nullity`` equals the dimension and
    ``signature == positives - negatives``.
    """

    signature: int
    nullity: int
    positives: int
    negatives: int


def _square(matrix, dtype=None) -> np.ndarray:
    a = np.asarray(matrix, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _threshold(stack):
    """Each matrix's zero threshold ``DEFAULT_TOL * max(1, max |entry|)``;
    ``ValueError`` for a non-finite entry."""
    scale = np.abs(stack).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(scale).all():
        raise ValueError("matrix has non-finite entries")
    return DEFAULT_TOL * np.maximum(1.0, scale)


def _spectrum(eigenvalues, margin):
    """Counts of eigenvalues above ``margin`` and below ``-margin`` along the
    last axis, and |det| as the product of their magnitudes (``inf`` when it
    overflows); ``ValueError`` for a NaN eigenvalue."""
    if np.isnan(eigenvalues).any():
        raise ValueError("eigenvalue computation returned NaN")
    with np.errstate(over="ignore", invalid="ignore"):  # fmax reads inf * 0 as 0
        abs_det = np.fmax(np.abs(eigenvalues).prod(axis=-1), 0.0)
    return (eigenvalues > margin).sum(axis=-1), (eigenvalues < -margin).sum(axis=-1), abs_det


def inertia_stack(stack):
    """Inertia of every matrix in an (N, n, n) stack of exactly Hermitian matrices.

    Returns three length-N arrays: the counts of positive and of negative
    eigenvalues, and the product of the eigenvalue magnitudes (|det|), all
    from one ``eigvalsh`` call, which reads the lower triangle only.
    Eigenvalues within a matrix's threshold ``DEFAULT_TOL * max(1, max |entry|)``
    count as zero.

    Raises ``ValueError`` for a non-finite entry or a NaN eigenvalue.
    """
    threshold = _threshold(stack)[:, None]
    return _spectrum(np.linalg.eigvalsh(stack), threshold)


def hermitian_signature(matrix) -> SignatureResult:
    """Signature, nullity and inertia counts of a Hermitian matrix.

    Eigenvalues lambda with ``|lambda| <= DEFAULT_TOL * max(1, max |entry|)``
    count as zero.  The empty (0 x 0) matrix yields ``(0, 0, 0, 0)``.

    Raises ``ValueError`` for non-square input, non-finite entries, or a
    matrix that is not Hermitian within that threshold.
    """
    a = _square(matrix, complex)
    threshold, adjoint = _threshold(a), a.conj().T
    if np.abs(a - adjoint).max(initial=0.0) > threshold:
        raise ValueError("matrix is not Hermitian within tolerance")
    # Symmetrize to kill rounding asymmetry before the eigensolver; halving
    # before adding keeps large finite entries from overflowing the sum.
    positives, negatives, _ = inertia_stack((0.5 * a + 0.5 * adjoint)[None])
    p, q = int(positives[0]), int(negatives[0])
    return SignatureResult(p - q, a.shape[0] - p - q, p, q)


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def integer_inertia(matrix) -> tuple[SignatureResult, float]:
    """Exact inertia of an integer symmetric matrix A, and |det A| as the
    product of the eigenvalue magnitudes of one ``eigh``.

    A is read by :func:`int_array`, never as floats; the certificate needs
    |entries| <= 2^53, so that the float copy is A.
    With ``lam, V = eigh(A)``, M = V^T A V is computed with error at most
    gamma_2n |V^T||A||V| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.5), whose 2-norm is at most ||V||_F^2 ||A||_inf.
    That plus the larger absolute row or column sum of M^ - diag(lam),
    inflated over its own rounding and underflow (Rump, Acta Numerica 19,
    2010), is a radius r >= ||M - diag(lam)||_2.  By Weyl's inequality each
    eigenvalue of M is within r of its lam.  If every |lam| > r, M is
    nonsingular, hence so are V and A, and by Sylvester's law of inertia
    the signs of lam are the inertia of A.  Anything else goes to the
    elimination of :func:`integer_symmetric_signature`, with its errors;
    an entry beyond floating-point range or a NaN eigenvalue raises
    ``ValueError``.
    """
    a = _square(int_array(matrix))
    try:
        lam, v = np.linalg.eigh(f := a.astype(float))
    except OverflowError:
        raise ValueError("matrix entries beyond floating-point range") from None
    # A symmetric integer array whose float64 copy is exact.
    exact = a.dtype.kind in "iu" and (a.size == 0 or -(2**53) <= a.min() <= a.max() <= 2**53)
    n, u, radius = len(a), 2.0**-53, np.inf
    if exact and (a == a.T).all():
        residual = v.T @ (f @ v)
        residual[np.diag_indices(n)] -= lam
        residual = np.abs(residual)
        gap = max(residual.sum(0).max(initial=0.0), residual.sum(1).max(initial=0.0))
        spread = np.vdot(v, v) * np.abs(f).sum(1).max(initial=0.0)
        # (2n + 2)u >= gamma_2n, and the factor covers every rounded sum and
        # product here.  Underflow adds below (n^4 + n^1.5 ||V||_F) 2^-1074: less
        # than 2^-900 for n < 2^30 and ||V||_F < 2^100, and else far below the rest.
        radius = (1 + 4 * (n + 2) ** 2 * u) * (gap + (2 * n + 2) * u * spread) + 2.0**-900
    p, q, abs_det = _spectrum(lam, radius)
    if p + q == n:
        return SignatureResult(int(p - q), 0, int(p), int(q)), float(abs_det)
    return _eliminate(a.tolist()), float(abs_det)


def integer_symmetric_signature(matrix) -> SignatureResult:
    """Exact signature and nullity of an integer symmetric matrix.

    An integer array of rank at least ``CERTIFIED_MIN_RANK`` goes through
    :func:`integer_inertia`, which certifies it if it is symmetric with
    entries of at most 2^53.  Anything else, and what its certificate leaves
    undecided, takes fraction-free elimination on Python integers: row i of
    the working matrix is a positive multiple of row i of the current Schur
    complement, so diagonal signs are exact and no denominator is tracked.
    A 1 x 1 step pivots on the nonzero diagonal entry of least magnitude;
    with a zero diagonal, a 2 x 2 step eliminates a hyperbolic block (one
    positive, one negative eigenvalue); what is left when every entry is 0
    is the nullity.  Only rows with a nonzero entry in the pivot columns are
    updated (O(n^2) for tridiagonal forms), each then divided by its gcd.
    A primitive row divides its Schur-complement row times det A[K, K],
    whose entries are the Bareiss minors det A[K+i, K+j] for pivot set K, so
    no entry exceeds Hadamard's bound.

    Raises ``ValueError`` for non-square, non-integer or non-symmetric input.
    """
    a = np.asarray(matrix)
    if a.ndim == 2 and a.shape[0] == a.shape[1] >= CERTIFIED_MIN_RANK and a.dtype.kind in "iu":
        return integer_inertia(a)[0]
    return _eliminate(exact_int_rows(matrix))


def _eliminate(a: list[list[int]]) -> SignatureResult:
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")

    positives = negatives = 0
    while a:
        m = len(a)
        k = min((i for i in range(m) if a[i][i]), key=lambda i: abs(a[i][i]), default=None)
        if k is not None:
            row_k = a.pop(k)
            p = row_k.pop(k)
            if p > 0:
                positives += 1
            else:
                negatives += 1
                p, row_k = -p, [-y for y in row_k]
            for i, row in enumerate(a):
                f = row.pop(k)
                if f:
                    a[i] = _primitive([p * x - f * y for x, y in zip(row, row_k)])
            continue

        # All diagonal entries vanish: eliminate a hyperbolic 2 x 2 block.
        pair = next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j]), None)
        if pair is None:
            break
        k, l = pair
        positives += 1
        negatives += 1
        row_l, row_k = a.pop(l), a.pop(k)
        del row_l[l]
        h_lk = row_l.pop(k)
        h_kl = row_k.pop(l)
        del row_k[k]
        h = h_kl * h_lk  # positive: both are positive multiples of one entry
        for i, row in enumerate(a):
            a_il, a_ik = row.pop(l), row.pop(k)
            if a_ik or a_il:
                c_l, c_k = a_ik * h_kl, a_il * h_lk
                a[i] = _primitive(
                    [h * x - c_l * y - c_k * z for x, y, z in zip(row, row_l, row_k)]
                )

    return SignatureResult(positives - negatives, len(a), positives, negatives)


def bordered_delta(matrix, border, corner):
    """Change of (signature, nullity) under a rank-one bordering.

    Forms ``M' = [[M, z], [conj(z)^T, lam]]`` and returns
    ``(sigma(M') - sigma(M), eta(M') - eta(M))``.  When all inputs are
    real integers the exact path is used, otherwise :func:`hermitian_signature`.

    Raises ``ValueError`` when the border length does not match ``M`` or an entry is not finite.
    """
    a = _square(matrix, complex)
    n = a.shape[0]
    z = np.asarray(border, dtype=complex)
    if z.shape != (n,):
        raise ValueError(f"border has shape {z.shape}, expected ({n},)")

    try:
        base = exact_int_rows(matrix)
        col = [exact_int(v) for v in np.asarray(border).tolist()]
        lam = exact_int(corner)
    except ValueError:  # some input is not an integer: floating route
        bordered = np.zeros((n + 1, n + 1), dtype=complex)
        bordered[:n, :n] = a
        bordered[:n, n] = z
        bordered[n, :n] = z.conj()
        bordered[n, n] = corner
        before = hermitian_signature(a)
        after = hermitian_signature(bordered)
    else:
        big = [row + [c] for row, c in zip(base + [col], col + [lam])]
        before = integer_symmetric_signature(base) if base else SignatureResult(0, 0, 0, 0)
        after = integer_symmetric_signature(big)
    return (after.signature - before.signature, after.nullity - before.nullity)
