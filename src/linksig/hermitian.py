"""Signature and nullity of Hermitian matrices.

Two routes are provided.  ``inertia_stack`` classifies the spectra of a
stack of exactly Hermitian matrices, such as ``assemble_stack`` builds, with
one ``eigvalsh`` call; it checks only that the entries are finite.
``hermitian_signature`` is the checking entry point for one matrix of any
origin: it rejects asymmetry beyond the tolerance and symmetrizes the rest
before ``inertia_stack``.  ``integer_symmetric_signature`` is exact, and its
route follows the form's band, rank and entry size, never the container of
the form.  A tridiagonal form, at any rank, takes the recurrence of its
leading minors, whose signs give the signs of its LDL^T pivots in O(n)
integer steps.  From rank ``CERTIFIED_MIN_RANK`` on, any other form first
goes to ``integer_inertia``, which certifies the signs of one ``eigh``'s
eigenvalues by congruence and a rigorous radius, ``_radius``, and also
gives |det| (a scan's all-1/2 middle sample takes both from it).  What is
left undecided goes to fraction-free elimination, whose primitive rows stay
below the Bareiss minors.  From rank ``CERTIFIED_MIN_RANK`` on it runs on
int64 arrays while every product fits, else on Python integers.  Both
eigenvalue routes count signs and |det| by one rule, ``_spectrum``, and differ
only in the margin: the threshold ``DEFAULT_TOL * max(1, max |entry|)`` or the
certified radius.  The routes must agree whenever both apply; the tests lean on that.

``bordered_delta`` measures how the signature and nullity react when a
Hermitian matrix is enlarged by one bordering row/column.  Eigenvalue
interlacing forces ``|delta_sigma| + |delta_eta| = 1`` for every border.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

import numpy as np

from .ccomplex import exact_int_rows, int_array, shape_of

#: Relative tolerance of the floating-point zero test; it is not a parameter.
DEFAULT_TOL = 1e-9
#: Rank from which :func:`integer_symmetric_signature` tries the ``eigh``
#: certificate, on a form that is not tridiagonal, and elimination int64 steps,
#: each slower below it.  With one BLAS thread on x86-64, on dense forms with
#: entries of at most 3, elimination takes 14-31, 35-60, 44-74 and 54-113 us at
#: ranks 5, 9, 10 and 12, and the certificate 39-42, 44-46, 45-48 and 51-55 us.
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


def _square(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
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


def _eigenvalues(stack):
    """The ascending eigenvalues of each matrix of a stack, from one ``eigvalsh``
    call, and each matrix's :func:`_threshold` as a column; ``ValueError`` for a
    non-finite entry."""
    threshold = _threshold(stack)[:, None]
    return np.linalg.eigvalsh(stack), threshold


def inertia_stack(stack):
    """Inertia of every matrix in an (N, n, n) stack of exactly Hermitian matrices.

    Returns three length-N arrays: the counts of positive and of negative
    eigenvalues, and the product of the eigenvalue magnitudes (|det|), all
    from one ``eigvalsh`` call, which reads the lower triangle only.
    Eigenvalues within a matrix's threshold ``DEFAULT_TOL * max(1, max |entry|)``
    count as zero.

    Raises ``ValueError`` for a non-finite entry or a NaN eigenvalue.
    """
    return _spectrum(*_eigenvalues(stack))


def hermitian_signature(matrix) -> SignatureResult:
    """Signature, nullity and inertia counts of a Hermitian matrix.

    Eigenvalues lambda with ``|lambda| <= DEFAULT_TOL * max(1, max |entry|)``
    count as zero.  The empty (0 x 0) matrix yields ``(0, 0, 0, 0)``.

    Raises ``ValueError`` for non-square input, non-finite entries, or a
    matrix that is not Hermitian within that threshold.
    """
    a = _square(matrix)
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


def _exact_form(matrix) -> np.ndarray:
    """``matrix``, read by :func:`int_array` and square as given (``[]`` is not
    0 x 0 here); ``ValueError`` names the first asymmetric (i, j) in row-major order."""
    a = int_array(matrix)
    if len(shape := a.shape if a.size else shape_of(matrix)) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    if not (a == a.T).all():
        i, j = np.argwhere(a != a.T)[0]
        raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    return a


def _gap(residual: np.ndarray) -> float:
    """The larger absolute row or column sum of ``residual``, a bound on its 2-norm."""
    residual = np.abs(residual)
    return max(residual.sum(0).max(initial=0.0), residual.sum(1).max(initial=0.0))


def _radius(n: int, gap: float, spread) -> float:
    """A bound r >= ||X||_2 on an n x n matrix X computed as a float residual.

    ``gap`` is the residual's :func:`_gap`.  The residual holds X up to one
    rounding per entry and the error of matrix products of inner length at
    most 2n, which is at most gamma_2n ||P||_2 for the product P of their
    absolute factors (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 3.5), given ``spread`` >= ||P||_2.  The sum is inflated over its
    own rounding and underflow (Rump, Acta Numerica 19, 2010).
    """
    u = 2.0**-53
    # (2n + 2)u >= gamma_2n, and the factor covers every rounded sum and
    # product here.  Underflow adds below (n^4 + n^1.5 ||V||_F) 2^-1074 to the
    # V^T A V of integer_inertia: less than 2^-900 for n < 2^30 and
    # ||V||_F < 2^100, and else far below the rest.
    return (1 + 4 * (n + 2) ** 2 * u) * (gap + (2 * n + 2) * u * spread) + 2.0**-900


def integer_inertia(matrix) -> tuple[SignatureResult, float]:
    """Exact inertia of an integer symmetric matrix A, and |det A| as the
    product of the eigenvalue magnitudes of one ``eigh``.

    A is read by :func:`_exact_form`, never as floats; the certificate needs
    |entries| <= 2^53, so that the float copy is A.
    With ``lam, V = eigh(A)``, M = V^T A V is computed with error at most
    gamma_2n |V^T||A||V|, whose 2-norm is at most ||V||_F^2 ||A||_inf.  From
    that and the computed M^ - diag(lam), :func:`_radius` gives a radius
    r >= ||M - diag(lam)||_2.  By Weyl's inequality each
    eigenvalue of M is within r of its lam.  If every |lam| > r, M is
    nonsingular, hence so are V and A, and by Sylvester's law of inertia
    the signs of lam are the inertia of A.  Anything else goes to the
    elimination of :func:`integer_symmetric_signature`, with its errors and
    its kernel, picked by dtype and rank alone; an entry beyond
    floating-point range or a NaN eigenvalue raises ``ValueError``.
    """
    a = _exact_form(matrix)
    try:
        lam, v = np.linalg.eigh(f := a.astype(float))
    except OverflowError:
        raise ValueError("matrix entries beyond floating-point range") from None
    n, radius = len(a), np.inf
    if a.dtype != object and (a.size == 0 or -(2**53) <= a.min() <= a.max() <= 2**53):
        residual = v.T @ (f @ v)
        residual[np.diag_indices(n)] -= lam
        radius = _radius(n, _gap(residual), np.vdot(v, v) * np.abs(f).sum(1).max(initial=0.0))
    p, q, abs_det = _spectrum(lam, radius)
    if p + q == n:
        return SignatureResult(int(p - q), 0, int(p), int(q)), float(abs_det)
    return _eliminate(a), float(abs_det)


def integer_symmetric_signature(matrix) -> SignatureResult:
    """Exact signature and nullity of an integer symmetric matrix.

    A tridiagonal form, of any rank and entry size, is decided by the
    recurrence p_k = d_k p_(k-1) - e_(k-1)^2 p_(k-2) of its leading minors:
    pivot k of LDL^T is p_k / p_(k-1), so it counts as positive when p_k and
    p_(k-1) have one sign (Sylvester's law of inertia; the count behind
    Sturm-sequence bisection, Golub and Van Loan, Matrix Computations).  A
    zero minor with a nonzero coupling e_k closes a hyperbolic 2 x 2 block
    (one positive, one negative eigenvalue), whose Schur complement leaves
    d_(k+2) unchanged; with e_k = 0 it adds one to the nullity.  Either way
    the recurrence starts afresh after it, so every p_k is a principal minor
    and below Hadamard's bound.
    Any other form of rank at least ``CERTIFIED_MIN_RANK`` with entries of
    at most 2^53, in a list or any array, may be certified in floating point
    by one ``eigh`` (:func:`integer_inertia`).  Anything else, and what the
    certificate leaves undecided, takes fraction-free elimination: row i of
    the working matrix is a positive multiple of row i of the current Schur
    complement, so diagonal signs are exact and no denominator is tracked.
    From rank ``CERTIFIED_MIN_RANK`` on it runs on int64 arrays while a bound
    in Python integers shows that no product or difference of a step reaches
    2^63, and on Python integers after that, as smaller ranks do throughout.
    A 1 x 1 step pivots on the nonzero diagonal entry of least magnitude;
    with a zero diagonal, a 2 x 2 step eliminates a hyperbolic block (one
    positive, one negative eigenvalue); what is left when every entry is 0
    is the nullity.  Only rows with a nonzero entry in the pivot columns are
    updated, each then divided by its gcd; int64 steps give the same rows.
    A primitive row divides its Schur-complement row times det A[K, K],
    whose entries are the Bareiss minors det A[K+i, K+j] for pivot set K, so
    no entry exceeds Hadamard's bound.

    Raises ``ValueError`` for non-square, non-integer or non-symmetric input.
    """
    a = _exact_form(matrix)
    diagonal, couplings = np.diagonal(a), np.diagonal(a, 1)
    if np.count_nonzero(a) == np.count_nonzero(diagonal) + 2 * np.count_nonzero(couplings):
        return _tridiagonal(diagonal.tolist(), couplings.tolist())
    if len(a) >= CERTIFIED_MIN_RANK and a.dtype != object:
        return integer_inertia(a)[0]
    return _eliminate(a)


def _tridiagonal(d: list[int], e: list[int]) -> SignatureResult:
    """Inertia of the symmetric tridiagonal form with diagonal ``d`` and
    couplings ``e`` (``e[k]`` joins k and k + 1), by the recurrence that
    :func:`integer_symmetric_signature` describes; ``before`` and ``last`` are
    the two latest minors since the last restart, ``before`` 0 at a restart."""
    positives = negatives = nullity = k = 0
    n, before, last = len(d), 0, 1
    while k < n:
        minor = d[k] * last - e[k - 1] ** 2 * before if before else d[k]
        if minor:
            if (minor > 0) == (last > 0):
                positives += 1
            else:
                negatives += 1
            before, last, k = last, minor, k + 1
            continue
        if k + 1 < n and e[k]:
            positives, negatives, k = positives + 1, negatives + 1, k + 2
        else:
            nullity, k = nullity + 1, k + 1
        before, last = 0, 1
    return SignatureResult(positives - negatives, nullity, positives, negatives)


def _eliminate(a: np.ndarray) -> SignatureResult:
    """The elimination of :func:`integer_symmetric_signature` on an integer
    array, whose dtype and rank alone pick the kernel: from rank
    ``CERTIFIED_MIN_RANK`` on, a non-object array takes int64 steps
    (:func:`_int64_steps`) while every product fits, and the rest the loop on
    Python integers."""
    n, positives, negatives = len(a), 0, 0
    if a.dtype != object and n >= CERTIFIED_MIN_RANK:
        positives, negatives, a = _int64_steps(a)
    a = a.tolist()
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

    return SignatureResult(positives - negatives, n - positives - negatives, positives, negatives)


def _int64_steps(a: np.ndarray) -> tuple[int, int, np.ndarray]:
    """The steps of :func:`_eliminate` on an integer array, as int64 updates of
    one working copy w, while none can wrap: (positives, negatives, rest),
    where ``rest`` holds the rows and columns of w still nonzero.

    A step updates the rows with a nonzero f, the pivot column, to
    ``p w - f row`` or the hyperbolic form, which zeroes the pivot rows and
    columns, and divides each by its gcd.  It runs only when a bound in
    Python integers on every product and difference, from |p| and the
    largest |entry| of w, f and row, stays below 2^63, and so must every
    |entry| of the input, read in its own dtype.  Rows keep the zero pattern
    of the symmetric Schur complement, so ``rest`` is square.
    """
    if not -(2**63) < int(a.min()) <= int(a.max()) < 2**63:
        return 0, 0, a
    n, positives, negatives = len(a), 0, 0
    w = a.astype(np.int64)
    while (largest := int(np.abs(w).max())) > 0:
        diagonal = np.abs(w.diagonal())
        pivots = np.flatnonzero(diagonal)
        if pivots.size:
            k = pivots[diagonal[pivots].argmin()]
            p, f = int(w[k, k]), w[:, k]
            row = w[k] if p > 0 else -w[k]
            if abs(p) * largest + int(np.abs(f).max()) * int(np.abs(row).max()) >= 2**63:
                break
            touched = np.flatnonzero(f)
            update = abs(p) * w[touched] - np.outer(f[touched], row)
            if p > 0:
                positives += 1
            else:
                negatives += 1
        else:
            k, l = divmod(int(np.flatnonzero(w)[0]), n)
            h_kl, h_lk = int(w[k, l]), int(w[l, k])
            h, c_l, c_k = h_kl * h_lk, w[:, k], w[:, l]
            bound = h * largest
            bound += int(np.abs(c_l).max()) * abs(h_kl) * int(np.abs(w[l]).max())
            bound += int(np.abs(c_k).max()) * abs(h_lk) * int(np.abs(w[k]).max())
            if bound >= 2**63:
                break
            touched = np.flatnonzero(c_l | c_k)
            update = h * w[touched]
            update -= np.outer(c_l[touched] * h_kl, w[l]) + np.outer(c_k[touched] * h_lk, w[k])
            positives, negatives = positives + 1, negatives + 1
        update //= np.maximum(np.gcd.reduce(update, axis=1), 1)[:, None]
        w[touched] = update
    live = w.any(axis=1)
    return positives, negatives, w[np.ix_(live, live)]


def bordered_delta(matrix, border, corner):
    """Change of (signature, nullity) under a rank-one bordering.

    Forms ``M' = [[M, z], [conj(z)^T, lam]]`` and returns
    ``(sigma(M') - sigma(M), eta(M') - eta(M))``.  When all inputs are
    real integers the exact path is used, otherwise :func:`hermitian_signature`.

    Raises ``ValueError`` when the border length does not match ``M`` or an entry is not finite.
    """
    a = _square(matrix)
    n, z = len(a), np.asarray(border, dtype=complex)
    if z.shape != (n,):
        raise ValueError(f"border has shape {z.shape}, expected ({n},)")

    try:
        base = exact_int_rows(matrix)
        big = exact_int_rows([[*row, c] for row, c in zip([*base, border], [*border, corner])])
    except ValueError:  # some input is not an integer: floating route
        before = hermitian_signature(a)
        after = hermitian_signature(np.block([[a, z[:, None]], [z.conj(), corner]]))
    else:
        before = integer_symmetric_signature(base) if base else SignatureResult(0, 0, 0, 0)
        after = integer_symmetric_signature(big)
    return (after.signature - before.signature, after.nullity - before.nullity)
