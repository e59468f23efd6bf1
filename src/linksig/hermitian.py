"""Signature and nullity of Hermitian matrices.

Two routes are provided.  ``hermitian_signature`` classifies the spectrum of
a complex Hermitian matrix in floating point; the zero eigenvalue test uses
the fixed relative tolerance ``DEFAULT_TOL``.  It is the one-matrix case of
``inertia_stack``, which classifies a whole stack with one ``eigvalsh``
call.  ``integer_symmetric_signature`` handles integer symmetric matrices
exactly (Sylvester's law of inertia) by fraction-free elimination, whose
primitive rows stay below the Bareiss minors, so no tolerance enters at
all.  The two must agree whenever both apply; the test suite leans on that.

``bordered_delta`` measures how the signature and nullity react when a
Hermitian matrix is enlarged by one bordering row/column.  Eigenvalue
interlacing forces ``|delta_sigma| + |delta_eta| = 1`` for every border.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

import numpy as np

#: Relative tolerance of the floating-point zero test; it is not a parameter.
DEFAULT_TOL = 1e-9


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


def _checked(stack):
    """Each matrix's adjoint and zero threshold ``DEFAULT_TOL * max(1, max |entry|)``;
    ``ValueError`` for a non-finite entry or asymmetry beyond the threshold."""
    scale = np.abs(stack).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(scale).all():
        raise ValueError("matrix has non-finite entries")
    adjoint = stack.conj().swapaxes(-1, -2)
    threshold = DEFAULT_TOL * np.maximum(1.0, scale)
    if (np.abs(stack - adjoint).max(axis=(-2, -1), initial=0.0) > threshold).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    return adjoint, threshold


def inertia_stack(stack):
    """Inertia of every matrix in an (N, n, n) stack of Hermitian matrices.

    Returns three length-N arrays: the counts of positive and of negative
    eigenvalues, and the product of the eigenvalue magnitudes (|det|), all
    from one ``eigvalsh`` call.  Eigenvalues within a matrix's threshold
    ``DEFAULT_TOL * max(1, max |entry|)`` count as zero.

    Raises ``ValueError`` for a non-finite entry, a matrix that violates
    Hermitian symmetry beyond that threshold, or a NaN eigenvalue.
    """
    adjoint, threshold = _checked(stack)
    # Symmetrize to kill rounding asymmetry before the eigensolver; halving
    # before adding keeps large finite entries from overflowing the sum.
    eigenvalues = np.linalg.eigvalsh(0.5 * stack + 0.5 * adjoint)
    if np.isnan(eigenvalues).any():
        raise ValueError("eigenvalue computation returned NaN")
    threshold = threshold[:, None]
    positives = (eigenvalues > threshold).sum(axis=1)
    negatives = (eigenvalues < -threshold).sum(axis=1)
    with np.errstate(over="ignore"):  # an overflowing |det| is reported as inf
        return positives, negatives, np.abs(eigenvalues).prod(axis=1)


def det_stack(stack):
    """Real determinants of a Hermitian stack from one LU, after the checks of
    :func:`inertia_stack`; one beyond float range reads inf or NaN."""
    _checked(stack)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.det(stack).real


def hermitian_signature(matrix) -> SignatureResult:
    """Signature, nullity and inertia counts of a Hermitian matrix.

    Eigenvalues lambda with ``|lambda| <= DEFAULT_TOL * max(1, max |entry|)``
    count as zero.  The empty (0 x 0) matrix yields ``(0, 0, 0, 0)``.

    Raises ``ValueError`` for non-square input, non-finite entries, or a
    matrix that is not Hermitian within that threshold.
    """
    a = _square(matrix, complex)
    positives, negatives, _ = inertia_stack(a[None])
    p, q = int(positives[0]), int(negatives[0])
    return SignatureResult(p - q, a.shape[0] - p - q, p, q)


def exact_int(value) -> int:
    """``value`` as a Python int, provided it is exactly an integer.

    Accepts Python and numpy integers, finite integral floats and complex
    values with zero imaginary part.  Raises ``ValueError`` for booleans,
    text, ``None``, non-finite and fractional values.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)) and value.imag == 0:
        value = value.real
    if isinstance(value, (float, np.floating)) and value.is_integer():
        return int(value)
    raise ValueError(f"non-integer value {value!r}")


def exact_int_rows(matrix) -> list[list[int]]:
    """The rows of a square matrix as Python ints, each read by :func:`exact_int`."""
    a = _square(matrix)
    if a.dtype.kind in "iu":
        return a.tolist()
    return [[exact_int(value) for value in row] for row in a.tolist()]


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def integer_symmetric_signature(matrix) -> SignatureResult:
    """Exact signature and nullity of an integer symmetric matrix.

    Fraction-free elimination on Python integers: row i of the working
    matrix is a positive multiple of row i of the current Schur complement,
    so diagonal signs are exact and no denominator is tracked.  A 1 x 1 step
    pivots on the nonzero diagonal entry of least magnitude; with a zero
    diagonal, a 2 x 2 step eliminates a hyperbolic block (one positive, one
    negative eigenvalue); what is left when every entry is 0 is the nullity.
    Only rows with a nonzero entry in the pivot columns are updated (O(n^2)
    for tridiagonal forms), each then divided by its gcd.  A primitive row
    divides its Schur-complement row times det A[K, K], whose entries are
    the Bareiss minors det A[K+i, K+j] for pivot set K, so no entry exceeds
    Hadamard's bound.

    Raises ``ValueError`` for non-square, non-integer or non-symmetric input.
    """
    a = exact_int_rows(matrix)
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
