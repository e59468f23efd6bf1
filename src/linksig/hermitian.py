"""Signature and nullity of Hermitian matrices.

Two routes are provided.  ``hermitian_signature`` classifies the spectrum of
a complex Hermitian matrix in floating point, with an explicit relative
tolerance for the zero eigenvalue test; it is the one-matrix case of
``inertia_stack``, which classifies a whole stack with one ``eigvalsh``
call.  ``integer_symmetric_signature`` handles real symmetric matrices with
integer entries exactly, by congruent diagonalization over the rationals
(Sylvester's law of inertia), so no tolerance enters at all.  The two must
agree whenever both apply; the test suite leans on that redundancy.

``bordered_delta`` measures how the signature and nullity react when a
Hermitian matrix is enlarged by one bordering row/column.  Eigenvalue
interlacing forces ``|delta_sigma| + |delta_eta| = 1`` for every border.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

#: Default relative tolerance for the floating-point zero test.
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


def _as_square_complex(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def inertia_stack(stack, tol: float = DEFAULT_TOL):
    """Inertia of every matrix in an (N, n, n) stack of Hermitian matrices.

    Returns three length-N arrays: the counts of positive and of negative
    eigenvalues, and the product of the eigenvalue magnitudes (|det|).  The
    rules are those of :func:`hermitian_signature`, applied per matrix; all
    eigenvalues come from one ``eigvalsh`` call on the stack.

    Raises ``ValueError`` for negative ``tol`` or a matrix that violates
    Hermitian symmetry beyond its scaled tolerance.
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    adjoint = stack.conj().swapaxes(-1, -2)
    threshold = tol * np.maximum(1.0, np.abs(stack).max(axis=(-2, -1), initial=0.0))
    if (np.abs(stack - adjoint).max(axis=(-2, -1), initial=0.0) > threshold).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    # Symmetrize to kill rounding asymmetry before the eigensolver.
    eigenvalues = np.linalg.eigvalsh((stack + adjoint) / 2.0)
    threshold = threshold[:, None]
    positives = (eigenvalues > threshold).sum(axis=1)
    negatives = (eigenvalues < -threshold).sum(axis=1)
    return positives, negatives, np.abs(eigenvalues).prod(axis=1)


def hermitian_signature(matrix, tol: float = DEFAULT_TOL) -> SignatureResult:
    """Signature, nullity and inertia counts of a Hermitian matrix.

    Eigenvalues lambda with ``|lambda| <= tol * max(1, max |entry|)`` are
    counted as zero.  The empty (0 x 0) matrix yields ``(0, 0, 0, 0)``.

    Raises ``ValueError`` for non-square input, negative ``tol``, or a
    matrix that violates Hermitian symmetry beyond the scaled tolerance.
    """
    a = _as_square_complex(matrix)
    positives, negatives, _ = inertia_stack(a[None], tol)
    p, q = int(positives[0]), int(negatives[0])
    return SignatureResult(p - q, a.shape[0] - p - q, p, q)


def _as_int_rows(matrix) -> list[list[int]]:
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    rows = []
    for row in a.tolist():
        out = []
        for value in row:
            if isinstance(value, bool) or value != int(value):
                raise ValueError(f"non-integer entry {value!r}")
            out.append(int(value))
        rows.append(out)
    return rows


def _swap_symmetric(a: list[list[Fraction]], i: int, j: int) -> None:
    if i == j:
        return
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def integer_symmetric_signature(matrix) -> SignatureResult:
    """Exact signature and nullity of an integer symmetric matrix.

    Runs congruent diagonalization over the rationals with full symmetric
    pivoting.  When every remaining diagonal entry vanishes but some
    off-diagonal entry survives, the corresponding hyperbolic 2 x 2 block
    contributes one positive and one negative eigenvalue.

    Raises ``ValueError`` for non-square, non-integer or non-symmetric
    input.
    """
    rows = _as_int_rows(matrix)
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")

    a: list[list[Fraction]] = [[Fraction(v) for v in row] for row in rows]
    positives = negatives = nullity = 0
    k = 0
    while k < n:
        # Largest remaining diagonal entry as the pivot.
        pivot_index = max(range(k, n), key=lambda i: abs(a[i][i]))
        pivot = a[pivot_index][pivot_index]
        if pivot != 0:
            _swap_symmetric(a, k, pivot_index)
            pivot = a[k][k]
            if pivot > 0:
                positives += 1
            else:
                negatives += 1
            for i in range(k + 1, n):
                factor = a[i][k] / pivot
                if factor:
                    row_k = a[k]
                    row_i = a[i]
                    for j in range(k + 1, n):
                        row_i[j] -= factor * row_k[j]
            k += 1
            continue

        # All remaining diagonal entries vanish.
        off = next(
            ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0),
            None,
        )
        if off is None:
            nullity += n - k
            break
        i0, j0 = off
        _swap_symmetric(a, k, i0)  # j0 > i0 >= k, so the partner stays at column j0
        _swap_symmetric(a, k + 1, j0)
        h = a[k][k + 1]
        positives += 1
        negatives += 1
        # Eliminate against the block [[0, h], [h, 0]]: the trailing update
        # is A -= C B^{-1} C^T with C the two bordering columns.
        for i in range(k + 2, n):
            ui, vi = a[i][k], a[i][k + 1]
            if ui == 0 and vi == 0:
                continue
            row_i = a[i]
            for j in range(k + 2, n):
                uj, vj = a[j][k], a[j][k + 1]
                row_i[j] -= (ui * vj + vi * uj) / h
        k += 2

    return SignatureResult(positives - negatives, nullity, positives, negatives)


def _int_or_none(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return int(value) if value == int(value) else None
    if isinstance(value, (complex, np.complexfloating)):
        if value.imag == 0 and value.real == int(value.real):
            return int(value.real)
        return None
    return None


def _exact_border_inputs(matrix, border, corner):
    a = np.asarray(matrix)
    z = np.asarray(border)
    base = [[_int_or_none(v) for v in row] for row in a.tolist()] if a.size else []
    col = [_int_or_none(v) for v in z.tolist()]
    lam = _int_or_none(corner)
    if lam is None or any(v is None for v in col):
        return None
    if any(v is None for row in base for v in row):
        return None
    n = len(col)
    for i in range(n):
        for j in range(n):
            if base[i][j] != base[j][i]:
                return None
    return base, col, lam


def bordered_delta(matrix, border, corner, tol: float = DEFAULT_TOL):
    """Change of (signature, nullity) under a rank-one bordering.

    Forms ``M' = [[M, z], [conj(z)^T, lam]]`` and returns
    ``(sigma(M') - sigma(M), eta(M') - eta(M))``.  When all inputs are
    real integers the exact path is used, otherwise the floating one.

    Raises ``ValueError`` when the border length does not match ``M``.
    """
    a = _as_square_complex(matrix)
    n = a.shape[0]
    z = np.asarray(border, dtype=complex)
    if z.shape != (n,):
        raise ValueError(f"border has shape {z.shape}, expected ({n},)")

    exact = _exact_border_inputs(matrix, border, corner)
    if exact is not None:
        base, col, lam = exact
        big = [row + [col[i]] for i, row in enumerate(base)]
        big.append(col + [lam])
        before = integer_symmetric_signature(base) if base else SignatureResult(0, 0, 0, 0)
        after = integer_symmetric_signature(big)
    else:
        bordered = np.zeros((n + 1, n + 1), dtype=complex)
        bordered[:n, :n] = a
        bordered[:n, n] = z
        bordered[n, :n] = z.conj()
        bordered[n, n] = corner
        before = hermitian_signature(a, tol)
        after = hermitian_signature(bordered, tol)
    return (after.signature - before.signature, after.nullity - before.nullity)
