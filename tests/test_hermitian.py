import math
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from conftest import TWOBRIDGE_FORMS, known_form, unit_lower
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linksig import hermitian
from linksig.ccomplex import h_at_minus_ones
from linksig.hermitian import (
    CERTIFIED_MIN_RANK,
    SignatureResult,
    bordered_delta,
    exact_int,
    exact_int_rows,
    hermitian_signature,
    inertia_stack,
    integer_inertia,
    integer_symmetric_signature,
)
from linksig.twobridge import ConwayForm, build_gss


def _swap_symmetric(a: list[list[Fraction]], i: int, j: int) -> None:
    if i == j:
        return
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def rational_inertia(matrix) -> SignatureResult:
    """Reference for integer_symmetric_signature: congruent diagonalization
    over the rationals with full symmetric pivoting and hyperbolic 2 x 2
    blocks, the package's original exact path."""
    rows = exact_int_rows(matrix)
    n = len(rows)
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


def eigenvalues_2x2(a, b, d):
    """Closed-form eigenvalues of the real symmetric matrix [[a, b], [b, d]]."""
    mean = (a + d) / 2.0
    radius = math.hypot((a - d) / 2.0, b)
    return mean - radius, mean + radius


def classify(eigenvalues, tol=0.0):
    pos = sum(1 for x in eigenvalues if x > tol)
    neg = sum(1 for x in eigenvalues if x < -tol)
    return pos - neg, len(eigenvalues) - pos - neg


class TestExactInt:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (3, 3),
            (2**70, 2**70),
            (np.int64(-4), -4),
            (np.uint8(7), 7),
            (2.0, 2),
            (np.float32(-5.0), -5),
            (float(2**60), 2**60),
            (complex(7, 0), 7),
            (np.complex128(-1 + 0j), -1),
            (np.float16(2), 2),
            (np.complex64(3), 3),
            (np.int8(-1), -1),
            (np.uint64(2**64 - 1), 2**64 - 1),
        ],
    )
    def test_accepts_exact_integers(self, value, expected):
        result = exact_int(value)
        assert result == expected and type(result) is int

    @pytest.mark.parametrize(
        "value",
        [True, np.bool_(False), "1", None, 0.5, np.float64(-2.5), math.inf, -math.inf,
         math.nan, complex(1, 1), complex(math.inf, 0), [1], Fraction(3), Decimal(3)],
    )
    def test_rejects_everything_else(self, value):
        with pytest.raises(ValueError, match="non-integer"):
            exact_int(value)

    def test_integer_array_rows_are_python_ints(self):
        rows = exact_int_rows(np.array([[1, -2], [3, 4]], dtype=np.int32))
        assert rows == [[1, -2], [3, 4]] and all(type(v) is int for r in rows for v in r)


class TestHermitianSignature:
    def test_scaled_example_matrix(self):
        m = 4 * np.array([[-2, 1], [1, -6]])
        result = hermitian_signature(m)
        assert (result.signature, result.nullity) == (-2, 0)

    def test_zero_matrix(self):
        result = hermitian_signature(np.zeros((2, 2)))
        assert result == SignatureResult(0, 2, 0, 0)

    def test_hyperbolic_plane(self):
        result = hermitian_signature([[0, 1], [1, 0]])
        assert result == SignatureResult(0, 0, 1, 1)

    def test_empty_matrix(self):
        assert hermitian_signature(np.zeros((0, 0))) == SignatureResult(0, 0, 0, 0)

    def test_complex_hermitian(self):
        m = np.array([[2, 1j], [-1j, 2]])  # eigenvalues 1 and 3
        result = hermitian_signature(m)
        assert result == SignatureResult(2, 0, 2, 0)

    def test_counts_sum_to_dimension(self):
        m = np.diag([3.0, 0.0, -1.0, 0.0])
        result = hermitian_signature(m)
        assert result.positives + result.negatives + result.nullity == 4
        assert result.signature == result.positives - result.negatives

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_signature(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_signature([[0, 1], [2, 0]])

    # The threshold is DEFAULT_TOL * max(1, max|entry|): 4e-9 here, and 1e-9
    # where the largest entry is below 1.
    @pytest.mark.parametrize(
        "diagonal, expected",
        [
            ([4.0, 5e-9, 3e-9, -5e-9], SignatureResult(1, 1, 2, 1)),
            ([0.5, 2e-9, 5e-10], SignatureResult(2, 1, 2, 0)),
        ],
        ids=["scaled", "floored"],
    )
    def test_zero_test_threshold(self, diagonal, expected):
        assert hermitian_signature(np.diag(diagonal)) == expected

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0, math.nan)])
    def test_rejects_non_finite(self, entry):
        with pytest.raises(ValueError, match="non-finite"):
            hermitian_signature([[entry]])

    def test_large_finite_entries(self):
        # Each entry is finite, but twice it is not: symmetrizing must not overflow.
        assert hermitian_signature(np.diag([1.5e308, -1.5e308])) == SignatureResult(0, 0, 1, 1)

    def test_near_hermitian_within_tol(self):
        m = np.array([[1.0, 1.0 + 1e-13], [1.0, 1.0]])
        hermitian_signature(m)  # must not raise


class TestStacks:
    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    @pytest.mark.parametrize("kernel", [inertia_stack])
    def test_reject_non_finite(self, kernel, entry):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1, 1, 0] = stack[1, 0, 1] = entry
        with pytest.raises(ValueError, match="non-finite"):
            kernel(stack)

    def test_inertia_and_det_of_a_hermitian_stack(self):
        stack = np.array([[[2, 1j], [-1j, 2]], [[0, 1], [1, 0]], [[0, 0], [0, -1]]])
        positives, negatives, abs_det = inertia_stack(stack)
        assert positives.tolist() == [2, 1, 0] and negatives.tolist() == [0, 1, 1]
        assert abs_det == pytest.approx([3, 1, 0])


def inertia_and_abs_det(kernel, matrix):
    """(positives, negatives, |det|) of one integer matrix through one of the
    two eigenvalue routes."""
    if kernel is inertia_stack:
        positives, negatives, abs_det = inertia_stack(matrix.astype(complex)[None])
        return int(positives[0]), int(negatives[0]), float(abs_det[0])
    result, abs_det = integer_inertia(matrix)
    return result.positives, result.negatives, abs_det


class TestSignRule:
    """Both eigenvalue routes count signs and |det| by one rule."""

    @pytest.mark.parametrize("kernel", [inertia_stack, integer_inertia])
    def test_nan_eigenvalue(self, kernel):
        nan = lambda f: np.full(f.shape[:-1], np.nan)
        with mock.patch.object(np.linalg, "eigvalsh", nan), \
                mock.patch.object(np.linalg, "eigh", lambda f: (nan(f), np.eye(len(f)))):
            with pytest.raises(ValueError, match="eigenvalue computation returned NaN"):
                inertia_and_abs_det(kernel, np.eye(2, dtype=np.int64))

    @pytest.mark.parametrize("kernel", [inertia_stack, integer_inertia])
    def test_overflowing_abs_det_reads_inf(self, kernel):
        # (2^50)^40 = 2^2000 is beyond float range; the warning filter of this
        # suite turns any overflow warning into a failure.
        assert inertia_and_abs_det(kernel, np.diag([2**50] * 40)) == (40, 0, math.inf)

    @pytest.mark.parametrize("kernel", [inertia_stack, integer_inertia])
    def test_zero_eigenvalue_after_an_overflow_reads_0(self, kernel):
        # eigh sorts ascending, so the product overflows to inf before it
        # meets the zero eigenvalue: inf * 0 would be NaN.  integer_inertia
        # leaves this singular form to elimination, with the same |det|.
        singular = np.diag([-(2**50)] * 40 + [0])
        assert inertia_and_abs_det(kernel, singular) == (0, 40, 0.0)
        assert integer_inertia(singular)[0] == SignatureResult(-40, 1, 0, 40)


class TestIntegerSymmetricSignature:
    def test_example_matrix(self):
        result = integer_symmetric_signature([[-2, 1], [1, -6]])
        assert (result.signature, result.nullity) == (-2, 0)

    def test_one_by_one_zero(self):
        assert integer_symmetric_signature([[0]]) == SignatureResult(0, 1, 0, 0)

    def test_2x2_against_eigenvalue_oracle(self):
        # eigenvalues of [[-2, 1], [1, -2]] are -1 and -3
        low, high = eigenvalues_2x2(-2, 1, -2)
        assert (round(low), round(high)) == (-3, -1)
        result = integer_symmetric_signature([[-2, 1], [1, -2]])
        assert (result.signature, result.nullity) == (-2, 0)

    def test_hyperbolic_block_path(self):
        # zero diagonal forces the rank-2 block handling
        m = [[0, 3, 0], [3, 0, 0], [0, 0, 0]]
        result = integer_symmetric_signature(m)
        assert result == SignatureResult(0, 1, 1, 1)

    def test_hyperbolic_block_with_coupling(self):
        m = [[0, 2, 1], [2, 0, 1], [1, 1, 0]]
        exact = integer_symmetric_signature(m)
        eigenvalues = np.linalg.eigvalsh(np.array(m, dtype=float))
        assert (exact.signature, exact.nullity) == classify(eigenvalues, 1e-12)

    def test_empty(self):
        assert integer_symmetric_signature(np.zeros((0, 0), dtype=int)) == SignatureResult(0, 0, 0, 0)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            integer_symmetric_signature([[0, 1], [2, 0]])

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="integer"):
            integer_symmetric_signature([[0.5, 0], [0, 1]])

    @pytest.mark.parametrize("entry", [math.inf, math.nan])
    def test_rejects_non_finite(self, entry):
        with pytest.raises(ValueError, match="non-integer"):
            integer_symmetric_signature([[entry]])

    def test_agrees_with_floating_path(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            m = rng.integers(-9, 10, size=(n, n))
            m = m + m.T
            exact = integer_symmetric_signature(m)
            floating = hermitian_signature(m.astype(float))
            assert exact == floating


    def test_known_inertia_rank_56(self):
        # P (L D L^T (+) [[0, M], [M^T, 0]]) P^T: L and the factors of
        # M = U J V are unit triangular, hence unimodular, so the inertia is
        # that of D plus r hyperbolic planes and 2 (m - r) zeros.
        rng = np.random.default_rng(2016)
        n, m, r = 56, 12, 10

        def unit_lower(size):
            entries = rng.integers(-1, 2, size=(size, size)) * (rng.random((size, size)) < 0.5)
            return np.eye(size, dtype=np.int64) + np.tril(entries, -1)

        k = n - 2 * m
        d = rng.choice([2, -2, 0], size=k, p=[0.45, 0.45, 0.10])
        d[0] = 0
        lower = unit_lower(k)
        mm = unit_lower(m) @ np.diag([1] * r + [0] * (m - r)) @ unit_lower(m).T
        form = np.zeros((n, n), dtype=np.int64)
        form[:k, :k] = lower @ np.diag(d) @ lower.T
        form[k:k + m, k + m:] = mm
        form[k + m:, k:k + m] = mm.T
        perm = rng.permutation(n)
        form = form[np.ix_(perm, perm)]

        positives = int((d > 0).sum()) + r
        negatives = int((d < 0).sum()) + r
        nullity = int((d == 0).sum()) + 2 * (m - r)
        expected = SignatureResult(positives - negatives, nullity, positives, negatives)
        assert integer_symmetric_signature(form) == expected
        # The certificate declines it (eta > 0), and every step of its
        # elimination, hyperbolic ones included, runs on int64.
        assert handed_off(form) == (expected, (0, 1, 1), [(0, 0)])
        assert handed_off(form.tolist()) == (expected, (0, 1, 1), [(0, 0)])


class TestBorderedDelta:
    def test_border_of_empty_positive(self):
        assert bordered_delta(np.zeros((0, 0)), [], 5) == (1, 0)

    def test_border_of_empty_zero(self):
        assert bordered_delta(np.zeros((0, 0)), [], 0) == (0, 1)

    def test_unit_matrix_with_null_corner(self):
        # bordered matrix [[1, 1], [1, 0]] has one positive and one
        # negative eigenvalue (the golden-ratio pair), so sigma drops by 1
        assert bordered_delta([[1]], [1], 0) == (-1, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="border"):
            bordered_delta([[1]], [1, 2], 0)

    @pytest.mark.parametrize("corner", [math.inf, math.nan])
    def test_non_finite_corner_rejected(self, corner):
        # Unchecked, the floating route gives (-1, 2) for an infinite corner,
        # which breaks interlacing.
        with pytest.raises(ValueError, match="non-finite"):
            bordered_delta([[1.0]], [1.0], corner)

    def test_interlacing_identity_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(0, 9))
            m = rng.integers(-9, 10, size=(n, n))
            m = m + m.T
            z = rng.integers(-9, 10, size=n)
            lam = int(rng.integers(-9, 10))
            ds, de = bordered_delta(m, z, lam)
            assert abs(ds) + abs(de) == 1

    def test_interlacing_identity_floating(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = m + m.conj().T
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lam = float(rng.standard_normal())
            ds, de = bordered_delta(m, z, lam)
            assert abs(ds) + abs(de) == 1


@st.composite
def integer_symmetric(draw, max_dim=5, bound=6):
    n = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    m = np.array(entries)
    return m + m.T


@settings(deadline=None, max_examples=60)
@given(integer_symmetric(), st.integers(1, 7))
def test_positive_scaling_invariance(m, scale):
    assert hermitian_signature(m.astype(float)) == hermitian_signature(scale * m.astype(float))
    assert integer_symmetric_signature(m) == integer_symmetric_signature(scale * m)


@settings(deadline=None, max_examples=60)
@given(integer_symmetric())
def test_negation_swaps_inertia(m):
    plus = integer_symmetric_signature(m)
    minus = integer_symmetric_signature(-m)
    assert minus.signature == -plus.signature
    assert (minus.positives, minus.negatives) == (plus.negatives, plus.positives)
    assert minus.nullity == plus.nullity


@st.composite
def exact_forms(draw):
    """Integer symmetric matrices for the oracle: sparse, with zero diagonal
    (the hyperbolic 2 x 2 step), bipartite [[0, M], [M^T, 0]] (2 x 2 steps
    on rows that earlier steps have rescaled), or rank-deficient products
    B D B^T, with entries small or up to 2**70 (beyond int64)."""
    n = draw(st.integers(0, 10))
    bound = draw(st.sampled_from([3, 2**70]))
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    kind = draw(st.sampled_from(["sparse", "zero_diagonal", "bipartite", "product"]))
    if kind == "bipartite":
        half = n // 2
        m = [[0] * n for _ in range(n)]
        for i in range(half):
            for j in range(half, n):
                m[i][j] = m[j][i] = draw(entry)
    elif kind == "product":
        r = draw(st.integers(0, n))
        b = [[draw(entry) for _ in range(r)] for _ in range(n)]
        d = [draw(entry) for _ in range(r)]
        m = [[sum(b[i][t] * d[t] * b[j][t] for t in range(r)) for j in range(n)] for i in range(n)]
    else:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i < j or kind == "sparse":
                    m[i][j] = m[j][i] = draw(entry)
    return np.array(m, dtype=object).reshape(n, n)


@settings(deadline=None, max_examples=300)
@given(exact_forms())
def test_matches_rational_oracle(m):
    assert integer_symmetric_signature(m) == rational_inertia(m)


def counted(name):
    """Patch ``np.linalg.<name>`` with a mock that records its calls and passes them on."""
    return mock.patch.object(np.linalg, name, wraps=getattr(np.linalg, name))


def certified(matrix):
    """The inertia that integer_inertia's certificate decides, or None where it
    would fall back to elimination."""
    with mock.patch.object(hermitian, "_eliminate", lambda rows: None):
        return integer_inertia(np.asarray(matrix))[0]


def eliminated(matrix) -> SignatureResult:
    return hermitian._eliminate(exact_int_rows(matrix))


def routes(matrix):
    """The result of integer_symmetric_signature and its calls of cholesky, eigh and _eliminate."""
    wrapped = mock.patch.object(hermitian, "_eliminate", wraps=hermitian._eliminate)
    with counted("cholesky") as cholesky, counted("eigh") as eigh, wrapped as eliminate:
        result = integer_symmetric_signature(matrix)
    return result, (cholesky.call_count, eigh.call_count, eliminate.call_count)


def handed_off(matrix):
    """:func:`routes` of ``matrix``, and the shape of what the int64 steps of
    each _eliminate call left to the loop on Python integers."""
    steps, rests = hermitian._int64_steps, []

    def recorded(a):
        positives, negatives, rest = steps(a)
        rests.append(rest.shape)
        return positives, negatives, rest

    with mock.patch.object(hermitian, "_int64_steps", recorded):
        return (*routes(matrix), rests)


@st.composite
def int64_step_inputs(draw):
    """Integer symmetric arrays for the int64 steps of _eliminate: known forms
    ``P (L D L^T (+) [[0, M], [M^T, 0]]) P^T`` of rank 10 to 60 with eta > 0,
    whose rows stay in int64; generic G D G^T, whose rows outgrow it partway;
    entries up to 2^53, which hand off before the first step; forms with zero
    diagonal and entries up to 2^24, whose first hyperbolic step comes near
    2^63 and at times beyond; and unsigned forms with entries up to 2^64 - 1.
    Signed forms come as int64, int32 or int8 wherever their entries fit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["known", "generic", "large", "hyperbolic", "unsigned"]))
    if kind == "unsigned":
        n = draw(st.integers(1, 12))
        entries = st.sampled_from([0, 1, 3, 2**31, 2**62, 2**63 - 1, 2**63, 2**64 - 1])
        m = np.array([[draw(entries) for _ in range(n)] for _ in range(n)], dtype=np.uint64)
        return np.triu(m) + np.triu(m, 1).T
    if kind == "known":
        n = draw(st.integers(10, 60))
        m = known_form(rng, n, 2 * draw(st.integers(0, n // 4)))[0]
    elif kind == "generic":
        n = draw(st.integers(12, 30))
        g = rng.integers(-3, 4, size=(n, n))
        m = g @ np.diag(rng.choice([-3, -1, 0, 1, 2], size=n)) @ g.T
    else:
        n = draw(st.integers(2, 12))
        bound = 2 ** (53 if kind == "large" else draw(st.integers(1, 24)))
        m = np.triu(rng.integers(-bound, bound + 1, size=(n, n)), 1 if kind == "hyperbolic" else 0)
        m = m + np.triu(m, 1).T
    dtype = draw(st.sampled_from([np.int64, np.int32, np.int8]))
    info = np.iinfo(dtype)
    return m.astype(dtype) if info.min <= m.min(initial=0) <= m.max(initial=0) <= info.max else m


def unsigned_beyond_int64() -> np.ndarray:
    """Signature 11 and nullity 1; read as int64, each 2^63 would wrap to -2^63."""
    m = np.diag([2**63] * 11 + [0]).astype(np.uint64)
    m[0, 1] = m[1, 0] = 1
    return m


@settings(deadline=None, max_examples=150)
@given(int64_step_inputs())
@example(unsigned_beyond_int64())
def test_int64_steps_agree_with_the_python_loop(m):
    # An overflow warning would fail this test too: pytest turns warnings into errors.
    assert hermitian._eliminate(m) == hermitian._eliminate(m.tolist())


@pytest.mark.parametrize(
    "form, first",
    [
        # Pivot x: entry (1, 2) becomes x x - (-x) x = 2x^2, which is 2^63 at x = 2^31.
        (lambda x: [[x, -x, x], [-x, 0, x], [x, x, 0]], 2**31),
        # Pair (0, 1), h = x^2: entry (2, 3) becomes 3x^3, which first reaches 2^63 at x = 1454084.
        (lambda x: [[0, x, x, -x], [x, 0, x, -x], [x, x, 0, x], [-x, -x, x, 0]], 1454084),
    ],
    ids=["pivot", "hyperbolic"],
)
def test_int64_steps_stop_where_an_entry_would_reach_2_63(form, first):
    # One entry meets every term of the bound at once, so the bound is exact here.
    for x, steps in [(first - 1, True), (first, False)]:
        m = np.array(form(x))
        positives, negatives, _ = hermitian._int64_steps(m)
        assert (positives + negatives > 0) == steps
        assert hermitian._eliminate(m) == hermitian._eliminate(m.tolist())


def near_singular(n: int) -> np.ndarray:
    """[[n, n - 1], [n - 1, n - 2]]: determinant -1, eigenvalues about 2n and -1/(2n)."""
    return np.array([[n, n - 1], [n - 1, n - 2]], dtype=np.int64)


@st.composite
def certificate_inputs(draw):
    """Integer symmetric arrays for the certificate: dense, rank-deficient
    products B D B^T, and blocks [[N, N - 1], [N - 1, N - 2]] with an
    eigenvalue near -1/(2N), bordered by random entries; magnitudes up to
    2^53 + 2, just past the exact float range."""
    n = draw(st.integers(0, 10))
    bound = draw(st.sampled_from([3, 2**20, 2**53 + 2]))
    entry = st.integers(-bound, bound)
    kind = draw(st.sampled_from(["dense", "product", "near_singular"]))
    if kind == "product":
        r = draw(st.integers(0, n))
        b = np.array([[draw(st.integers(-3, 3)) for _ in range(r)] for _ in range(n)], dtype=object)
        d = [draw(entry) for _ in range(r)]
        m = b.reshape(n, r) @ np.diag(d).reshape(r, r).astype(object) @ b.reshape(n, r).T
    else:
        m = np.array([[draw(entry) for _ in range(n)] for _ in range(n)], dtype=object)
        m = np.triu(m.reshape(n, n)) + np.triu(m.reshape(n, n), 1).T
        if kind == "near_singular" and n >= 2:
            m[:2, :2] = near_singular(draw(st.integers(2, 2**52)))
    if max((abs(x) for x in m.flat), default=0) < 2**62:
        m = m.astype(np.int64)
    return m


@settings(deadline=None, max_examples=400)
@given(certificate_inputs())
def test_certificate_agrees_with_elimination(m):
    decided = certified(m)
    assert decided is None or decided == eliminated(m)
    assert integer_inertia(m)[0] == integer_symmetric_signature(m) == eliminated(m)


class TestIntegerInertia:
    def test_rank_zero(self):
        empty = np.zeros((0, 0), dtype=np.int64)
        assert integer_inertia(empty) == (SignatureResult(0, 0, 0, 0), 1.0)
        assert certified(empty) == SignatureResult(0, 0, 0, 0)

    def test_abs_det_is_the_eigenvalue_product(self):
        m = np.array([[2, 1, 0], [1, -3, 1], [0, 1, 5]])
        result, abs_det = integer_inertia(m)
        assert result == SignatureResult(1, 0, 2, 1)
        assert abs_det == pytest.approx(abs(round(np.linalg.det(m))), rel=1e-12)

    def test_relative_eigenvalue_near_1e_12_is_decided(self):
        # 1e6 and -1e-6: the radius, about 1.3e-9, still separates -1e-6 from zero.
        m = near_singular(500_000)
        assert certified(m) == eliminated(m) == SignatureResult(0, 0, 1, 1)

    @pytest.mark.parametrize("n", [2**26, 2**52, 2**53])
    def test_eigenvalue_below_the_radius_falls_back(self, n):
        # -1/(2n) is lost in the rounding of eigh: elimination decides.
        m = near_singular(n)
        assert certified(m) is None
        assert integer_inertia(m)[0] == SignatureResult(0, 0, 1, 1)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_entries_beyond_2_53_go_to_elimination(self, sign):
        # Equally well separated; only the exactness of the float copy differs.
        edge = np.diag([sign * 2**53, 2**53, 2**53])
        assert certified(edge) == eliminated(edge)
        beyond = np.diag([sign * (2**53 + 1), 2**53, 2**53])
        assert certified(beyond) is None
        assert integer_inertia(beyond)[0] == eliminated(beyond)
        # 2^53 + 1 has no float64: its copy would read 2^53.
        assert float(2**53 + 1) == 2**53

    def test_integral_float_entries_are_read_exactly(self):
        # 2 (2^27 + 1)^2 has no float64: a float copy would read a nonsingular matrix.
        m = [[2.0, 268435458], [268435458, 36028797555834882]]
        assert integer_inertia(m)[0] == integer_symmetric_signature(m) == SignatureResult(1, 1, 1, 0)

    def test_object_arrays_go_to_elimination(self):
        m = np.array([[2**70, 0], [0, -1]], dtype=object)
        assert certified(m) is None
        assert integer_inertia(m)[0] == SignatureResult(0, 0, 1, 1)

    def test_entries_beyond_float_range(self):
        with pytest.raises(ValueError, match="beyond floating-point range"):
            integer_inertia(np.array([[10**400]], dtype=object))

    def test_singular_forms_are_never_certified(self):
        # Every B D B^T with fewer columns than rows is singular, so the
        # certificate, which only ever reports nullity 0, must decline each.
        rng = np.random.default_rng(2010)
        for _ in range(3000):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(0, n))
            scale = int(rng.choice([1, 2**10, 2**20]))
            b = rng.integers(-3, 4, size=(n, r))
            m = b @ np.diag(rng.integers(-3, 4, size=r) * scale) @ b.T
            assert certified(m) is None

    def test_any_eigh_output_is_checked(self):
        # The certificate trusts nothing of eigh.  A = [[N, N-1], [N-1, N-2]]
        # has eigenvalues 2N and -1/(2N).  With v_0 = t(1, -1), A v_0 = t(1, 1)
        # exactly, but fl(A v_0) rounds products near N t, so M^_00 comes out
        # near +-t^2 where M_00 = 0.  Fed lam = diag(M^), the residual alone
        # is below |lam|, and half the time M^_00 > 0 would pass for a second
        # positive eigenvalue: only the rounding bound E of M^ stops that.
        n = 2**52 + 12345
        a = near_singular(n)
        for t in np.random.default_rng(53).uniform(0.5, 2.0, 100):
            v = np.array([[t, 2.0**-27], [-t, 2.0**-27]])
            lam = np.diag(v.T @ (a.astype(float) @ v)).copy()
            with mock.patch.object(np.linalg, "eigh", lambda f: (lam, v)):
                assert certified(a) in (None, SignatureResult(0, 0, 1, 1))
        # A singular V makes M singular, which the radius catches by itself.
        v = np.ones((2, 2))
        lam = np.diag(v.T @ (a.astype(float) @ v)).copy()
        with mock.patch.object(np.linalg, "eigh", lambda f: (lam, v)):
            assert certified(a) is None

    @pytest.mark.parametrize("seed", [7, 31])
    def test_known_forms(self, seed):
        # The benchmark's form sizes.  Each has eta > 0, so the certificate
        # must decline, and elimination gives the known inertia.
        rng = np.random.default_rng(seed)
        for n, hyperbolic in [(56, 0), (48, 0), (40, 0), (56, 28), (48, 24)]:
            form, sigma, eta = known_form(rng, n, hyperbolic)
            assert certified(form) is None
            with counted("cholesky") as cholesky:
                result = integer_symmetric_signature(form)
            assert (result.signature, result.nullity) == (sigma, eta)
            assert cholesky.call_count == 0

    def test_known_forms_without_nullity_are_certified(self):
        # The same construction with D in {2, -2}: the smallest |eigenvalue|
        # of these three is 0.22, 1.5e-3 and 1.3e-6.
        rng = np.random.default_rng(2016)
        for n in (8, 24, 56):
            lower = unit_lower(rng, n, 0.5)
            d = rng.choice([2, -2], size=n)
            form = lower @ np.diag(d) @ lower.T
            p = int((d > 0).sum())
            assert certified(form) == SignatureResult(2 * p - n, 0, p, n - p)

    def test_rejects_non_symmetric_at_the_certified_rank(self):
        # eigh reads one triangle only, and an entry of 1 off it is well
        # inside the eigenvalues' margin: only the symmetry check catches it.
        for sign in (1, -1):
            m = sign * np.diag(np.arange(CERTIFIED_MIN_RANK) + 100)
            m[0, -1] = 1
            message = f"not symmetric at \\(0, {CERTIFIED_MIN_RANK - 1}\\)"
            with counted("cholesky") as cholesky, pytest.raises(ValueError, match=message):
                integer_symmetric_signature(m)
            assert cholesky.call_count == 0
            with pytest.raises(ValueError, match="not symmetric"):
                integer_inertia(m)

    def test_route_switches_at_the_crossover_rank(self):
        calls = []
        route = mock.patch.object(
            hermitian, "integer_inertia", lambda a: calls.append(len(a)) or integer_inertia(a)
        )
        with route, counted("cholesky") as cholesky:
            for n in (CERTIFIED_MIN_RANK - 1, CERTIFIED_MIN_RANK):
                # A singular indefinite and a definite form, not tridiagonal.
                for m in (cornered(np.diag(np.arange(n) - 2)), cornered(np.diag(np.arange(n) + 1))):
                    assert integer_symmetric_signature(m) == eliminated(m)
                    # Integral floats, object arrays of small ints and lists take the same route.
                    assert integer_symmetric_signature(m.astype(float)) == eliminated(m)
                    assert integer_symmetric_signature(m.astype(object)) == eliminated(m)
                    assert integer_symmetric_signature(m.tolist()) == eliminated(m)
        # Both forms go to eigh, once per container.
        assert calls == [CERTIFIED_MIN_RANK] * 8
        assert cholesky.call_count == 0


#: An integer array as itself, a nested list, an integral float array and an object array.
CONTAINERS = (lambda m: m, np.ndarray.tolist, lambda m: m.astype(float), lambda m: m.astype(object))


def cornered(m: np.ndarray) -> np.ndarray:
    """``m`` with 1 at its corners (0, n - 1) and (n - 1, 0): not tridiagonal for n > 2."""
    m = m.copy()
    m[0, -1] = m[-1, 0] = 1
    return m


def alternating(n: int) -> np.ndarray:
    """Tridiagonal, diagonal 3, -3, 3, ... and off-diagonal 1: A^2 = 9I + B^2 for
    the off-diagonal part B, so every |eigenvalue| is at least 3."""
    off = np.ones(n - 1, dtype=np.int64)
    return np.diag(np.resize([3, -3], n)) + np.diag(off, 1) + np.diag(off, -1)


class TestExactForm:
    """Both exact entry points read a form by one rule, whatever container holds it."""

    # (form, calls of cholesky, eigh and _eliminate)
    ROUTES = {
        "definite-12": (lambda: cornered(tridiagonal(12, np.random.default_rng(12))), (0, 1, 0)),
        "indefinite-12": (lambda: cornered(alternating(12)), (0, 1, 0)),
        "singular-12": (lambda: cornered(np.diag(np.arange(12) - 2)), (0, 1, 1)),
        "rank-9": (lambda: cornered(np.diag(np.arange(9) - 2)), (0, 0, 1)),
        "tridiagonal-9": (lambda: np.diag(np.arange(9) - 2), (0, 0, 0)),
        "tridiagonal-12": (lambda: tridiagonal(12, np.random.default_rng(12)), (0, 0, 0)),
    }

    @pytest.mark.parametrize("form", ROUTES)
    def test_route_depends_on_the_form_not_the_container(self, form):
        make, expected = self.ROUTES[form]
        m = make()
        for container in CONTAINERS:
            assert routes(container(m)) == (eliminated(m), expected)

    @pytest.mark.parametrize("matrix", [[], [[]], [[], []], [[1, 2], [3]]], ids=repr)
    def test_non_square_input_is_rejected(self, matrix):
        for entry in (integer_symmetric_signature, integer_inertia):
            with pytest.raises(ValueError, match="expected a square matrix"):
                entry(matrix)

    @pytest.mark.parametrize("n", [CERTIFIED_MIN_RANK - 1, CERTIFIED_MIN_RANK + 2])
    def test_asymmetric_entry_is_named_before_any_factorization(self, n):
        # (1, 4) is the first asymmetric pair in row-major order.
        m = np.diag(np.arange(n) + 1)
        m[4, 1], m[2, n - 1] = 5, -1
        for container in CONTAINERS:
            for entry in (integer_symmetric_signature, integer_inertia):
                with counted("cholesky") as cholesky, counted("eigh") as eigh:
                    with pytest.raises(ValueError, match=r"^matrix is not symmetric at \(1, 4\)$"):
                        entry(container(m))
                assert cholesky.call_count == eigh.call_count == 0


def tridiagonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """4T as for a two-bridge form: T has diagonal -2 d_k, d_k >= 1, and off-diagonal 1."""
    t = np.diag(-2 * rng.integers(1, 4, size=n))
    t += np.diag(np.ones(n - 1, dtype=np.int64), 1) + np.diag(np.ones(n - 1, dtype=np.int64), -1)
    return 4 * t


@st.composite
def definite_inputs(draw):
    """Dense integer forms of rank CERTIFIED_MIN_RANK to 40 with a one-signed
    diagonal, times a random sign: B^T D B with D >= 1 (definite for a
    unimodular B, at worst singular for a random one), and G + mI with G a
    singular sum of outer products vv^T, |v_i| <= 2^26, so that the least
    eigenvalue m sits near the certificate's radius (entries up to 2^53 + m)."""
    n = draw(st.integers(CERTIFIED_MIN_RANK, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["product", "unimodular", "near_singular"]))
    if kind == "near_singular":
        v = rng.integers(-(2**26), 2**26 + 1, size=(draw(st.integers(1, 2)), n))
        m = v.T @ v + draw(st.integers(0, 2**14)) * np.eye(n, dtype=np.int64)
    else:
        b = unit_lower(rng, n, 0.5) if kind == "unimodular" else rng.integers(-3, 4, size=(n, n))
        d = rng.integers(1, 2 ** draw(st.sampled_from([1, 20, 40])), size=n)
        m = b.T @ np.diag(d) @ b
    return draw(st.sampled_from([1, -1])) * m


@settings(deadline=None, max_examples=150)
@given(definite_inputs())
def test_definite_certificate_agrees_with_elimination(m):
    decided = certified(m)
    assert decided is None or decided == eliminated(m)
    assert integer_symmetric_signature(m) == eliminated(m)


@st.composite
def tridiagonal_inputs(draw):
    """(d, e, form): a symmetric tridiagonal form of rank 0 to 12 with diagonal
    d and couplings e, zero pivots and zero couplings frequent, at times ending
    in a hyperbolic block [[0, e], [e, x]]; scaled beyond 2^63, in an object array."""
    n = draw(st.integers(0, 12))
    d = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3]), min_size=n, max_size=n))
    e = draw(st.lists(st.sampled_from([0, 1, -1, 2]), min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    if n >= 2 and draw(st.booleans()):
        d[-2], e[-1] = 0, draw(st.sampled_from([1, -1, 2]))
        if n > 2:
            e[-2] = 0
    d_scale, e_scale = draw(st.sampled_from([(1, 1), (2**64, 1), (2**64, 2**32), (1, 2**64)]))
    d, e = [x * d_scale for x in d], [x * e_scale for x in e]
    form = np.zeros((n, n), dtype=object)
    form[np.diag_indices(n)] = d
    form[np.arange(n - 1), np.arange(1, n)] = form[np.arange(1, n), np.arange(n - 1)] = e
    return d, e, form if max(d_scale, e_scale) > 1 else form.astype(np.int64)


@settings(deadline=None, max_examples=400)
@given(tridiagonal_inputs())
def test_tridiagonal_recurrence_agrees_with_elimination(inputs):
    d, e, form = inputs
    assert hermitian._tridiagonal(d, e) == eliminated(form) == integer_symmetric_signature(form)


class TestTridiagonal:
    @pytest.mark.parametrize("form", TWOBRIDGE_FORMS)
    def test_two_bridge_forms_take_the_recurrence_only(self, form):
        h = h_at_minus_ones(build_gss(ConwayForm.parse(form)))
        assert routes(h) == (SignatureResult(-80, 0, 0, 80), (0, 0, 0))
        assert eliminated(h) == SignatureResult(-80, 0, 0, 80)

    @pytest.mark.parametrize("n, expected", [(CERTIFIED_MIN_RANK - 1, (0, 0, 1)), (12, (0, 1, 0))])
    def test_permuted_tridiagonal_form_keeps_the_dense_route(self, n, expected):
        # Congruent to a tridiagonal form, but its nonzeros leave the band.
        form = tridiagonal(n, np.random.default_rng(n))
        perm = np.r_[n - 1, 1 : n - 1, 0]
        permuted = form[np.ix_(perm, perm)]
        assert np.count_nonzero(np.triu(permuted, 2))
        assert routes(form) == (SignatureResult(-n, 0, 0, n), (0, 0, 0))
        assert routes(permuted) == (SignatureResult(-n, 0, 0, n), expected)
