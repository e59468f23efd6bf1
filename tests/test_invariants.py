import cmath
import contextlib
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linksig import catalog, hermitian, invariants
from linksig.ccomplex import (
    GeneralizedSeifertSystem,
    TorusPoint,
    assemble_h,
    assemble_stack,
    h_at_minus_ones,
    torus_coordinate,
)
from linksig.hermitian import hermitian_signature, integer_inertia, integer_symmetric_signature
from linksig.invariants import (
    ScanGrid,
    lt_signature_from_multivariable,
    scan_to_csv,
    signature_nullity,
    torus_scan,
    undetected_sigma_jumps,
    write_scan_csv,
)
from linksig.twobridge import ConwayForm, build_gss

from conftest import full_family, grid_points, random_system, random_torus_fractions


def scan_rows(grid):
    """(point, sigma, eta, |det|, det sign) per sample, read from the grid's arrays."""
    columns = (grid.sigma, grid.eta, grid.abs_det, grid.det_sign)
    return zip(grid_points(grid), *(c.tolist() for c in columns))


def zero_system(mu=2, rank=3):
    zeros = np.zeros((rank, rank), dtype=int)
    from linksig.ccomplex import canonical_patterns

    return GeneralizedSeifertSystem(
        mu=mu, rank=rank, matrices={p: zeros for p in canonical_patterns(mu)}
    )


@contextlib.contextmanager
def count_factorizations(monkeypatch):
    """Record the number of matrices of every eigvalsh, eigh, det and cholesky call, and
    the number of samples of every pencil evaluation (``_pencil_det``), per function."""
    matrices = {}

    def record(owner, name, size):
        calls, original = matrices.setdefault(name, []), getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.append(size(a)) or original(*a))

    for name in ("eigvalsh", "eigh", "det", "cholesky"):
        # A stack of N matrices counts N; one matrix counts 1.
        record(np.linalg, name, lambda a: math.prod(a[0].shape[:-2]))
    record(invariants, "_pencil_det", lambda a: len(a[-1]))  # its points w
    try:
        yield matrices
    finally:
        monkeypatch.undo()


def patch_near_roots(monkeypatch, near=lambda near: near, nu=lambda nu: nu):
    """Pass the mask and the nu that ``_near_roots`` returns through ``near`` and
    ``nu``; det M is kept."""
    near_roots = invariants._near_roots

    def patched(gss, axis, lines):
        mask, pencil, *det_m = near_roots(gss, axis, lines)
        return (near(mask), nu(pencil), *det_m)

    monkeypatch.setattr(invariants, "_near_roots", patched)


TREFOIL = np.array([[-1, 1], [0, -1]])


def block_diag(*blocks):
    blocks = [np.asarray(b) for b in blocks]
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=int)
    start = 0
    for b in blocks:
        out[start : start + len(b), start : start + len(b)] = b
        start += len(b)
    return out


#: The trefoil's Seifert matrix and the 4 x 4 upper-bidiagonal -1/1 one of the
#: (2, 5) torus knot, each also as -V^T.
V5 = np.eye(4, k=1, dtype=int) - np.eye(4, dtype=int)
KNOT_BLOCKS = (TREFOIL, -TREFOIL.T, V5, -V5.T)


def scaled_blocks(k, x, y, t):
    """mu = 1 and A = block_diag(k X, k Y, [[t]]).  Scaled by k, the eigenvalues of
    H move fast and pass each other near the roots of det H, so the least one
    beside a root need not be the one that changes sign there."""
    return GeneralizedSeifertSystem(1, len(x) + len(y) + 1, {"+": block_diag(k * x, k * y, [[t]])})


def pointwise(system, resolution):
    """(sigma, eta) of :func:`signature_nullity` at every sample of a mu = 1 scan:
    its float route on one stack, and its exact route at 1/2."""
    axis = [torus_coordinate(Fraction(k, resolution + 1)) for k in range(1, resolution + 1)]
    positives, negatives, _ = hermitian.inertia_stack(assemble_stack(system, np.c_[axis]))
    sigma, eta = positives - negatives, system.rank - positives - negatives
    if resolution % 2:
        sigma[resolution // 2], eta[resolution // 2] = signature_nullity(
            system, TorusPoint.minus_ones(1)
        )
    return sigma.tolist(), eta.tolist()


def assert_matches_pointwise_and_oracle(system, grid):
    """Every sample of a scan against ``signature_nullity`` and the oracle."""
    for point, sigma, eta, abs_det, det_sign in scan_rows(grid):
        oracle = oracle_sample(system, point.fractions)
        assert (sigma, eta) == signature_nullity(system, point) == oracle[:2], point
        # |det| of a singular H is rounding noise; compare it where eta = 0,
        # to within what each side's eigenvalues may lose: n^2 u kappa_2.
        if eta == 0:
            rel = max(1e-9, system.rank**2 * 2**-53 * oracle[4])
            assert abs_det == pytest.approx(oracle[2], rel=rel)
            assert det_sign == oracle[3]
        else:
            assert det_sign == 0


def oracle_sample(system, fractions, tol=1e-9):
    """Independent re-evaluation: fresh assembly, a full eigendecomposition
    and an LU determinant.  Returns (sigma, eta, |det|, sign of det, kappa_2),
    where kappa_2 = max |eigenvalue| / min |eigenvalue| is H's condition
    number where eta = 0 (1 at rank 0), else inf."""
    n = system.rank
    h = np.zeros((n, n), dtype=complex)
    for pattern, a in full_family(system):
        coefficient = 1 + 0j
        for q, sign in zip(fractions, pattern):
            w = cmath.exp(2j * cmath.pi * float(q))
            coefficient *= (1 - w.conjugate()) if sign > 0 else (1 - w)
        h = h + coefficient * a.astype(complex)
    eigenvalues, _ = np.linalg.eigh((h + h.conj().T) / 2)
    threshold = tol * max(1.0, float(np.abs(h).max()) if n else 1.0)
    pos = int(np.sum(eigenvalues > threshold))
    neg = int(np.sum(eigenvalues < -threshold))
    magnitudes = np.abs(eigenvalues)
    absdet = float(np.prod(magnitudes)) if n else 1.0
    kappa2 = math.inf if pos + neg < n else float(magnitudes.max() / magnitudes.min()) if n else 1.0
    det_sign = int(np.sign(np.linalg.det(h).real)) if n else 1
    return pos - neg, n - pos - neg, absdet, det_sign, kappa2


class TestSignatureNullity:
    def test_example_at_minus_ones(self, example_system):
        assert signature_nullity(example_system, TorusPoint.minus_ones(2)) == (-2, 0)

    def test_empty_system(self):
        empty = zero_system(mu=2, rank=0)
        assert signature_nullity(empty, TorusPoint.from_strings(["1/3", "1/7"])) == (0, 0)

    def test_zero_system_full_nullity(self):
        assert signature_nullity(zero_system(2, 3), TorusPoint.minus_ones(2)) == (0, 3)

    def test_exact_path_at_half_fractions(self, example_system):
        exact = integer_symmetric_signature(h_at_minus_ones(example_system))
        assert signature_nullity(example_system, TorusPoint.minus_ones(2)) == (
            exact.signature,
            exact.nullity,
        )

    def test_bound_by_rank(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            mu = int(rng.integers(1, 4))
            rank = int(rng.integers(0, 7))
            system = random_system(rng, mu, rank)
            omega = TorusPoint(random_torus_fractions(rng, mu))
            sigma, eta = signature_nullity(system, omega)
            assert eta >= 0
            assert abs(sigma) + eta <= rank


class TestLevineTristramRecovery:
    def test_example_with_linking(self, example_system):
        for lam in (-1, 0, 2):
            with_linking = GeneralizedSeifertSystem(
                mu=2,
                rank=2,
                matrices=example_system.matrices,
                linking=[[0, lam], [lam, 0]],
            )
            sigma_lt, eta_lt = lt_signature_from_multivariable(with_linking, Fraction(1, 2))
            assert (sigma_lt, eta_lt) == (-2 - lam, 0)

    def test_missing_linking_data(self, example_system):
        with pytest.raises(ValueError, match="linking"):
            lt_signature_from_multivariable(example_system, Fraction(1, 2))

    def test_single_color_passthrough(self):
        a = np.array([[-1, 1], [0, -1]])
        single = GeneralizedSeifertSystem(mu=1, rank=2, matrices={"+": a})
        q = Fraction(1, 3)
        assert lt_signature_from_multivariable(single, q) == signature_nullity(
            single, TorusPoint.of(q)
        )


class TestTorusScan:
    def test_single_point_grid(self, example_system):
        grid = torus_scan(example_system, 1)
        assert grid.sigma.size == 1
        assert grid_points(grid) == [TorusPoint.minus_ones(2)]
        assert (grid.sigma.tolist(), grid.eta.tolist()) == ([-2], [0])

    def test_axis_matches_the_fraction_route(self):
        # Each k / (R + 1) is the correctly rounded float(Fraction(k, R + 1)),
        # so the coordinates are bitwise those of the exact fractions.
        for resolution in range(1, 401):
            fractions = [Fraction(k, resolution + 1) for k in range(1, resolution + 1)]
            axis = invariants._axis(resolution)
            assert axis == [float(q) for q in fractions]
            exact = np.array([torus_coordinate(q) for q in fractions])
            assert np.array([torus_coordinate(t) for t in axis]).tobytes() == exact.tobytes()

    def test_zero_system_grid(self):
        grid = torus_scan(zero_system(2, 2), 3)
        assert grid.sigma.size == 9
        assert (grid.sigma.tolist(), grid.eta.tolist()) == ([0] * 9, [2] * 9)
        assert grid.min_eta == 2

    def test_row_major_order(self):
        system = random_system(np.random.default_rng(3), 3, 4)
        grid = torus_scan(system, 3)
        sigma = grid.sigma.reshape(3, 3, 3)
        # No permutation of the axes maps this grid to itself, so the
        # pointwise comparison below pins the order of the axes.
        for axes in itertools.permutations(range(3)):
            if axes != (0, 1, 2):
                assert not np.array_equal(sigma, sigma.transpose(axes))
        for point, sigma, eta, _, _ in scan_rows(grid):
            assert (sigma, eta) == signature_nullity(system, point)

    def test_bad_resolution(self, example_system):
        with pytest.raises(ValueError, match="resolution"):
            torus_scan(example_system, 0)

    def test_against_independent_oracle(self, example_system):
        grid = torus_scan(example_system, 7)
        assert grid.sigma.size == 49
        for point, sigma, eta, abs_det, _ in scan_rows(grid):
            expected_sigma, expected_eta, absdet, *_ = oracle_sample(example_system, point.fractions)
            assert (sigma, eta) == (expected_sigma, expected_eta)
            assert abs_det == pytest.approx(absdet, rel=1e-9, abs=1e-12)

    def test_sigma_changes_only_at_det_zero_crossings(self, example_system):
        grid = torus_scan(example_system, 31)
        assert undetected_sigma_jumps(grid) == []
        assert grid.min_eta == 0
        # the signature genuinely varies on this grid, so the check bites
        assert len(set(grid.sigma.tolist())) > 1

    def test_flagged_samples_have_small_det(self, example_system):
        grid = torus_scan(example_system, 31)
        assert (grid.det_sign[grid.eta > 0] == 0).all()

    @pytest.mark.parametrize(
        "resolution, mu, sigma, det_sign, expected",
        [
            (3, 2, [0, 0, 2, 0, 0, 2, 2, 0, 0], [1, 1, 1, 1, 1, 0, 1, 1, 1],
             [(3, 6), (1, 2), (6, 7)]),
            (3, 2, [0, 0, 2, 0, 0, 2, 2, 0, 0], [1, 1, -1, 1, 1, 0, 1, 1, 1],
             [(3, 6), (6, 7)]),
            (4, 1, [0, 2, 2, 0], [1, 1, -1, -1], [(0, 1), (2, 3)]),
        ],
        ids=["columns-then-rows", "sign-change-excuses", "one-color"],
    )
    def test_undetected_jumps_on_hand_built_grids(self, resolution, mu, sigma, det_sign, expected):
        # eta only marks the flagged sample; the check reads sigma and det_sign.
        eta = [int(s == 0) for s in det_sign]
        grid = ScanGrid(resolution, mu, np.array(sigma), np.array(eta),
                        np.ones(len(sigma)), np.array(det_sign))
        assert undetected_sigma_jumps(grid) == expected

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(1, 3),
        st.integers(0, 8),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_kernel_matches_pointwise_and_oracle(self, mu, rank, resolution, seed):
        system = random_system(np.random.default_rng(seed), mu, rank)
        assert_matches_pointwise_and_oracle(system, torus_scan(system, resolution))

    def test_long_arcs_match_pointwise_and_oracle(self, monkeypatch):
        pencil_samples = []

        @settings(deadline=None, max_examples=20)
        @given(
            st.integers(1, 2),
            st.integers(1, 10),
            st.integers(15, 41),
            st.integers(0, 2**32 - 1),
        )
        # kappa_2 = 4.1e6 at (5/17, 4/17): the scan's and the oracle's |det|
        # differ by 1.1e-9 relative, both within rounding of a 50-digit value.
        @example(mu=2, rank=6, resolution=16, seed=752843613)
        def check(mu, rank, resolution, seed):
            system = random_system(np.random.default_rng(seed), mu, rank)
            with count_factorizations(monkeypatch) as calls:
                grid = torus_scan(system, resolution)
            assert calls["det"] == []
            pencil_samples.append(sum(calls["_pencil_det"]))
            assert_matches_pointwise_and_oracle(system, grid)

        check()
        # The arc interiors really took the pencil route, not only the fallback.
        assert sum(n > 0 for n in pencil_samples) >= len(pencil_samples) // 2

    @pytest.mark.parametrize(
        "system, resolutions",
        [
            # det H = (w^2 - w + 1)^2: a double root at 1/6 and 5/6, on grid angles.
            (GeneralizedSeifertSystem(1, 4, {"+": block_diag(TREFOIL, TREFOIL)}), (5, 11)),
            # A touching double root: sigma does not change across it, eta does.
            (GeneralizedSeifertSystem(1, 4, {"+": block_diag(TREFOIL, -TREFOIL)}), (5, 11)),
            # B* = [[0, 0], [1, 0]] on the second block: nu = 0, a root at infinity.
            (GeneralizedSeifertSystem(1, 4, {"+": block_diag(TREFOIL, [[0, 1], [0, 0]])}),
             (5, 11, 40)),
            # On the line omega_1 = -1 the first block vanishes, so M is singular.
            (GeneralizedSeifertSystem(
                2, 3, {"++": block_diag([[1]], [[0, 0], [0, -2]]),
                       "+-": block_diag([[-1]], [[-1, 1], [0, -1]])}), (5, 11, 21)),
            (zero_system(2, 0), (5, 6)),
            (zero_system(1, 0), (7,)),
            (zero_system(2, 3), (5, 6)),
            (zero_system(1, 2), (7,)),
        ],
        ids=["double-root-on-grid", "touching-root", "b-star-singular", "m-singular",
             "rank-0", "rank-0-mu-1", "zero-system", "zero-system-mu-1"],
    )
    def test_adversarial_pencils(self, system, resolutions):
        for resolution in resolutions:
            assert_matches_pointwise_and_oracle(system, torus_scan(system, resolution))

    @pytest.mark.parametrize(
        "system, resolution",
        [
            # H = (2 - 2 cos theta_1) H_{T+T}(omega_2): every line starts and ends on a root.
            (GeneralizedSeifertSystem(2, 4, {"++": block_diag(TREFOIL, TREFOIL),
                                             "+-": block_diag(TREFOIL, TREFOIL).T}), 5),
            (GeneralizedSeifertSystem(1, 2, {"+": TREFOIL}), 10),
            (random_system(np.random.default_rng(5), 2, 4), 13),
            # The line's ends agree, and only the pencil's sign shows the roots between.
            (random_system(np.random.default_rng(6), 1, 4), 10),
        ],
        ids=["root-at-arc-ends", "sign-flips-inside", "random", "ends-agree-across-roots"],
    )
    def test_arc_checks_hold_when_every_root_is_missed(self, monkeypatch, system, resolution):
        # Only the arc-end agreement and the pencil's sign check are left to
        # catch what the missing roots would have split off; nu is kept.
        patch_near_roots(monkeypatch, near=np.zeros_like)
        assert_matches_pointwise_and_oracle(system, torus_scan(system, resolution))

    @pytest.mark.parametrize(
        "nu",
        # Scaled, nu puts the roots w0 + 1/nu off the circle: the product is not real.
        [lambda nu: 1.1 * nu, lambda nu: np.full_like(nu, np.inf)],
        ids=["off-circle", "non-finite"],
    )
    def test_wrong_nu_sends_its_samples_to_eigvalsh(self, monkeypatch, nu):
        system = random_system(np.random.default_rng(5), 2, 4)
        patch_near_roots(monkeypatch, nu=nu)
        with count_factorizations(monkeypatch) as calls:
            grid = torus_scan(system, 13)
        # Every sample the pencil evaluated is classified again by eigvalsh.
        assert sum(calls["_pencil_det"]) > 0 and calls["det"] == []
        assert sum(calls["eigvalsh"]) + sum(calls["eigh"]) == -(-(13**2) // 2)
        assert_matches_pointwise_and_oracle(system, grid)

    def test_adversarial_pencils_take_the_intended_routes(self):
        axis = np.exp(2j * np.pi * np.arange(1, 12) / 12)
        double = GeneralizedSeifertSystem(1, 4, {"+": block_diag(TREFOIL, TREFOIL)})
        # Roots at 1/6 = 2/12 and 5/6 = 10/12: samples 2 and 10, from 1.
        near, nu, *_ = invariants._near_roots(double, axis, 1)
        assert np.flatnonzero(near[0]).tolist() == [1, 9]
        # A double root twice: each is w0 + 1/nu for two eigenvalues nu.
        turns = np.sort(np.angle(invariants._SHIFT + 1 / nu[0]) / (2 * np.pi) % 1)
        assert turns == pytest.approx([1 / 6, 1 / 6, 5 / 6, 5 / 6], abs=1e-6)
        at_infinity = GeneralizedSeifertSystem(
            1, 4, {"+": block_diag(TREFOIL, [[0, 1], [0, 0]])}
        )
        near, nu, *_ = invariants._near_roots(at_infinity, axis, 1)
        assert np.flatnonzero(near[0]).tolist() == [1, 9]
        # The root at infinity is nu = 0, a factor 1 of the pencil product.
        assert np.isfinite(nu).all() and (np.abs(nu[0]) < 1e-12).sum() == 1
        singular = GeneralizedSeifertSystem(
            2, 3, {"++": block_diag([[1]], [[0, 0], [0, -2]]),
                   "+-": block_diag([[-1]], [[-1, 1], [0, -1]])}
        )
        # Line 5 fixes omega_1 = 6/12, that is -1, where M has a zero row.
        near, nu, sign_m, log_m, *_ = invariants._near_roots(singular, axis, 11)
        assert near[5].all() and not near[4].all() and not near[6].all()
        # The guard leaves that line's nu and det M at NaN, and only that line's.
        for values in (nu, sign_m, log_m):
            assert np.flatnonzero(np.isnan(values).reshape(11, -1).any(1)).tolist() == [5]

    def test_ill_conditioned_shift_sends_its_line_to_eigvalsh(self, monkeypatch):
        # S is symmetric with det -1, so M is nonsingular, but its 1-norm
        # condition number is (2k + 3)^2, past the 1e8 that roots are trusted to.
        k = 6000
        s = [[k, k + 1], [k + 1, k + 2]]
        system = GeneralizedSeifertSystem(1, 4, {"+": block_diag(TREFOIL, s)})
        m = assemble_stack(system, [[invariants._SHIFT]])[0] / (1 - np.conj(invariants._SHIFT))
        assert 1e8 < np.linalg.cond(m, 1) < 1e15
        axis = np.exp(2j * np.pi * np.arange(1, 12) / 12)
        near, *pencil, _, _, _ = invariants._near_roots(system, axis, 1)
        assert near.all() and all(np.isnan(values).all() for values in pencil)
        with count_factorizations(monkeypatch) as matrices:
            grid = torus_scan(system, 11)
        # No sample is left to an arc's pencil, and none gets an LU.
        assert matrices["_pencil_det"] == matrices["det"] == []
        assert sum(matrices["eigvalsh"]) + sum(matrices["eigh"]) == 6
        # |det| of so ill-conditioned an H is good to about 1e-8 relative only.
        for point, sigma, eta, _, _ in scan_rows(grid):
            assert (sigma, eta) == signature_nullity(system, point), point

    @pytest.mark.parametrize("k, t", [(30, 1), (30, -1), (300, 1), (300, -1)])
    def test_arc_ends_derived_across_roots_match_pointwise(self, k, t):
        # An arc end beside a near sample takes that sample's inertia, with the
        # least eigenvalue flipped when the root lies between them; only Weyl's
        # inequality tells that the least eigenvalue is the one the root flips.
        for x, y in itertools.permutations(KNOT_BLOCKS, 2):
            system = scaled_blocks(k, x, y, t)
            for resolution in range(6, 80):
                grid = torus_scan(system, resolution)
                expected = pointwise(system, resolution)
                assert (grid.sigma.tolist(), grid.eta.tolist()) == expected, resolution
            # The stacked reference is signature_nullity's.
            for point, sigma, eta, _, _ in scan_rows(grid):
                assert (sigma, eta) == signature_nullity(system, point)

    def test_the_guard_refuses_a_flip_that_weyl_cannot_prove(self, monkeypatch):
        system = scaled_blocks(300, -V5.T, TREFOIL, 1)
        axis = np.exp(2j * np.pi * np.arange(1, 22) / 22)
        near, *_, rooted, offset, radius = invariants._near_roots(system, axis, 1)
        # Sample 2, at 3/22, is an arc of its own between near samples 1 and 3,
        # and each of their roots lies between it and them.
        assert np.flatnonzero(near[0][:11]).tolist() == [1, 3, 6]
        assert rooted[:3].tolist() == [1, 3, 6] and offset[0] > 0 > offset[1]
        eigenvalues = np.linalg.eigvalsh(assemble_stack(system, axis[1:4, None]))
        # At sample 1 the least eigenvalue is 0.32, but -9.2 also lies within
        # the root's Weyl radius: it is the one that changes sign.  Flipping
        # 0.32 would give sigma -1 at 3/22, where sigma is 3.
        least, second = sorted(eigenvalues[0], key=abs)[:2]
        assert least > 0 > second and abs(second) < radius[0]
        assert (np.sign(eigenvalues[0]).sum() - 2, np.sign(eigenvalues[1]).sum()) == (-1, 3)
        assert eigenvalues[1] == pytest.approx([-456.3, -196.2, 0.69, 42.2, 53.0, 361.1, 610.4],
                                               abs=0.05)
        with count_factorizations(monkeypatch) as matrices:
            grid = torus_scan(system, 21)
        # eigvalsh takes the near samples 1, 3 and 6 first, then the ends 2 and
        # 5, whose flips the guard refuses; the ends 0, 4 and 7 are derived on
        # the root's side, and 10 is the exact middle sample.
        assert matrices["eigvalsh"] == [3, 2] and matrices["eigh"] == [1]
        assert (grid.sigma[2], grid.eta[2]) == (3, 0)
        assert_matches_pointwise_and_oracle(system, grid)

    def test_derived_arc_ends_halve_the_eigvalsh_samples(self, monkeypatch):
        system = catalog.resolve_system("C(4,3,2)")
        with count_factorizations(monkeypatch) as matrices:
            grid = torus_scan(system, 101)
        # 356 matrices when eigvalsh classified both ends of every arc.
        assert sum(matrices["eigvalsh"]) == 186 and matrices["det"] == []
        cells = "".join(f"{s},{e}\n" for s, e in zip(grid.sigma.tolist(), grid.eta.tolist()))
        digest = hashlib.sha256(f"sigma,eta\n{cells}".encode()).hexdigest()
        # The sigma and eta columns of the CSV, as `cut -d, -f3,4` prints them.
        assert digest == "c981389ab77bb8807e60795bf8585dd192b4578164c9a3d076300086818d2603"

    def test_multi_chunk_scan_matches_pointwise(self, monkeypatch):
        system = random_system(np.random.default_rng(40), 2, 40)
        per_chunk = invariants.CHUNK_BYTES // (16 * 40 * 40)
        assert 1 < per_chunk < 15**2 // 2
        with count_factorizations(monkeypatch) as matrices:
            grid = torus_scan(system, 15)
        # eigvalsh spans several chunks, each at most CHUNK_BYTES of matrices.
        assert len(matrices["eigvalsh"]) > 1 and max(matrices["eigvalsh"]) == per_chunk
        # The middle sample, the all-1/2 point, takes one eigh of its own, and
        # the arc interiors take the pencil.
        assert matrices["eigh"] == [1] and matrices["det"] == [] and matrices["_pencil_det"]
        assert sum(sum(calls) for calls in matrices.values()) == -(-(15**2) // 2)
        for point, sigma, eta, abs_det, _ in scan_rows(grid):
            assert (sigma, eta) == signature_nullity(system, point)
            eigenvalues = np.linalg.eigvalsh(assemble_h(system, point))
            assert abs_det == pytest.approx(np.prod(np.abs(eigenvalues)), rel=1e-9)

    def test_pencil_temporaries_stay_within_chunk_bytes(self, monkeypatch):
        system = random_system(np.random.default_rng(40), 1, 40)
        pencil_det, peaks = invariants._pencil_det, []

        def measured(nu, sign_m, log_m, axis, samples):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = pencil_det(nu, sign_m, log_m, axis, samples)
            # The chunk of samples counts too.
            peaks.append(tracemalloc.get_traced_memory()[1] - start + samples.nbytes)
            return result

        monkeypatch.setattr(invariants, "_pencil_det", measured)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            grid = torus_scan(system, 601)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(peaks) > 1 and max(peaks) <= invariants.CHUNK_BYTES
        assert_matches_pointwise_and_oracle(system, grid)

    def test_one_sample_per_chunk_when_a_sample_exceeds_chunk_bytes(self, monkeypatch):
        # As at a rank whose one matrix, or one sample's pencil terms, exceed CHUNK_BYTES.
        monkeypatch.setattr(invariants, "CHUNK_BYTES", 1)
        system = random_system(np.random.default_rng(5), 2, 4)
        with count_factorizations(monkeypatch) as calls:
            grid = torus_scan(system, 7)
        assert set(calls["eigvalsh"]) == set(calls["_pencil_det"]) == {1}
        assert_matches_pointwise_and_oracle(system, grid)

    def test_scan_classifies_one_point_per_conjugate_pair(self, monkeypatch, example_system):
        for mu, resolution in itertools.product((1, 2, 3), (1, 2, 5, 6)):
            system = random_system(np.random.default_rng(mu), mu, 3)
            with count_factorizations(monkeypatch) as matrices:
                torus_scan(system, resolution)
            # One evaluation per sample: eigvalsh, the pencil inside an arc, or
            # one eigh at the middle sample of an odd resolution; no LU.
            assert matrices["eigh"] == [1] * (resolution % 2) and matrices["det"] == []
            assert sum(sum(calls) for calls in matrices.values()) == -(-(resolution**mu) // 2)
        sigma = torus_scan(example_system, 5).sigma.reshape(5, 5)
        assert np.array_equal(sigma, sigma[::-1, ::-1])
        # conjugating one coordinate reverses that color: no symmetry
        assert not np.array_equal(sigma, sigma[::-1, :])
        assert not np.array_equal(sigma, sigma[:, ::-1])

    @pytest.mark.parametrize(
        "mu, matrices",
        [(1, {"+": [[2**62]]}), (2, {"++": [[2**61]], "+-": [[0]]})],
    )
    def test_exact_point_beyond_int64(self, mu, matrices):
        # 2^mu * (A + A^T) summed over the patterns is 2^64: int64 wraps it to 0.
        system = GeneralizedSeifertSystem(mu=mu, rank=1, matrices=matrices)
        assert h_at_minus_ones(system).tolist() == [[2**64]]
        assert signature_nullity(system, TorusPoint.minus_ones(mu)) == (1, 0)
        grid = torus_scan(system, 3)
        middle = (3**mu) // 2
        assert grid_points(grid)[middle].is_minus_ones()
        assert (grid.sigma[middle], grid.eta[middle], grid.det_sign[middle]) == (1, 0, 1)

    def test_exact_route_where_the_float_zero_test_is_wrong(self):
        # H(-1) = [[4, 802], [802, 160800]] has det -4: one eigenvalue is about
        # -2.5e-5, inside the float zero band of 1e-9 * 160800.
        system = GeneralizedSeifertSystem(mu=1, rank=2, matrices={"+": [[1, 401], [0, 40200]]})
        assert h_at_minus_ones(system).tolist() == [[4, 802], [802, 160800]]
        floating = hermitian_signature(assemble_h(system, TorusPoint.minus_ones(1)))
        assert (floating.signature, floating.nullity) == (1, 1)
        assert signature_nullity(system, TorusPoint.minus_ones(1)) == (0, 0)
        grid = torus_scan(system, 3)
        assert grid_points(grid)[1].is_minus_ones()
        assert (grid.sigma[1], grid.eta[1], grid.det_sign[1]) == (0, 0, -1)

    def test_singular_middle_sample_falls_back_to_elimination(self, monkeypatch):
        # The last row and column of A vanish, so H(-1) is singular: the eigh
        # certificate, which reports nullity 0 only, must leave the rank-12
        # middle sample to elimination without a second factorization.
        a = np.random.default_rng(12).integers(-5, 6, size=(12, 12))
        a[-1], a[:, -1] = 0, 0
        system = GeneralizedSeifertSystem(mu=1, rank=12, matrices={"+": a})
        eliminate = mock.patch.object(hermitian, "_eliminate", wraps=hermitian._eliminate)
        with count_factorizations(monkeypatch) as matrices, eliminate as eliminated:
            grid = torus_scan(system, 7)
        assert matrices["eigh"] == [1] and eliminated.call_count == 1
        assert grid_points(grid)[3].is_minus_ones()
        sigma, eta = signature_nullity(system, TorusPoint.minus_ones(1))
        assert eta > 0
        assert (grid.sigma[3], grid.eta[3], grid.det_sign[3]) == (sigma, eta, 0)


    def test_definite_middle_sample_keeps_its_eigh(self, monkeypatch):
        # H(-1,-1) = 4T of this two-bridge form is negative definite at rank 10,
        # which integer_symmetric_signature would certify by Cholesky; a scan's
        # middle sample takes its inertia and |det| from integer_inertia's eigh.
        system = build_gss(ConwayForm.parse("4,3,4,3,4,3,4,3,4,3,2"))
        h = h_at_minus_ones(system)
        assert system.rank == 10 and hermitian._definite(h) == (-10, 0, 0, 10)
        with count_factorizations(monkeypatch) as matrices:
            grid = torus_scan(system, 3)
        assert matrices["eigh"] == [1] and matrices["cholesky"] == []
        assert grid_points(grid)[4].is_minus_ones()
        assert (grid.sigma[4], grid.eta[4]) == (-10, 0)
        assert grid.abs_det[4] == integer_inertia(h)[1]


def least_pick(system, axis, indices, leading):
    """``invariants._inertia``'s (least eigenvalue, second-least magnitude) for the
    first ``leading`` samples at ``indices``, and its inertia for all of them."""
    size = len(axis) ** system.mu
    positives, negatives, abs_det = np.empty(size, int), np.empty(size, int), np.empty(size)
    least = invariants._inertia(system, axis, indices, positives, negatives, abs_det, leading)
    return least, (positives[indices], negatives[indices], abs_det[indices])


class TestLeastEigenvalue:
    def test_tie_takes_the_nonnegative_eigenvalue(self):
        # mu = 1 and A = diag(-1, 1): H = diag(-4, 4) at 1/2.
        system = GeneralizedSeifertSystem(1, 2, {"+": [[-1, 0], [0, 1]]})
        least, _ = least_pick(system, np.array([-1.0 + 0j]), np.arange(1), 1)
        assert least.tolist() == [[4.0, 4.0]]

    def test_rank_1_has_no_second_magnitude(self):
        system = GeneralizedSeifertSystem(1, 1, {"+": [[-3]]})
        least, _ = least_pick(system, np.array([-1.0 + 0j]), np.arange(1), 1)
        assert least.tolist() == [[-12.0, math.inf]]

    @pytest.mark.parametrize("mu, rank, resolution", [(1, 2, 7), (2, 5, 4), (2, 40, 5), (3, 3, 3)])
    def test_matches_the_pointwise_oracle(self, mu, rank, resolution):
        system = random_system(np.random.default_rng(rank), mu, rank)
        axis = np.array([torus_coordinate(t) for t in invariants._axis(resolution)])
        indices = np.random.default_rng(mu).permutation(resolution**mu)
        leading = 2 * len(indices) // 3  # rank 40 has 10 samples per chunk: crosses chunks
        least, inertia = least_pick(system, axis, indices, leading)
        digits = resolution ** np.arange(mu - 1, -1, -1)
        coordinates = axis[indices[:, None] // digits % resolution]
        stack = assemble_stack(system, coordinates)
        assert [a.tolist() for a in inertia] == [a.tolist() for a in hermitian.inertia_stack(stack)]
        for eigenvalues, (value, second) in zip(np.linalg.eigvalsh(stack), least):
            assert value == min(eigenvalues, key=lambda x: (abs(x), -x))
            assert second == sorted(np.abs(eigenvalues))[1]


def reference_csv(grid):
    """The scan CSV rendered row by row, every cell formatted on its own."""
    axis = [f"{k / (grid.resolution + 1):.12g}" for k in range(1, grid.resolution + 1)]
    lines = [",".join(f"theta_{i + 1}" for i in range(grid.mu)) + ",sigma,eta,absdet"]
    columns = (grid.sigma.tolist(), grid.eta.tolist(), grid.abs_det.tolist())
    for labels, sigma, eta, abs_det in zip(itertools.product(axis, repeat=grid.mu), *columns):
        lines.append(",".join(labels) + f",{sigma},{eta},{abs_det:.10g}")
    return "\n".join(lines) + "\n"


class TestCsvOutput:
    @pytest.mark.parametrize("mu", [1, 2, 3])
    @pytest.mark.parametrize("resolution", [1, 2, 5, 6])
    def test_matches_the_row_by_row_renderer(self, mu, resolution):
        grid = torus_scan(random_system(np.random.default_rng(mu), mu, 3), resolution)
        assert scan_to_csv(grid) == reference_csv(grid)
        # A grid that is not mirrored, built by hand, is formatted row by row.
        abs_det = grid.abs_det.copy()
        abs_det[0] += 1.0
        unmirrored = ScanGrid(resolution, mu, grid.sigma, grid.eta, abs_det, grid.det_sign)
        assert scan_to_csv(unmirrored) == reference_csv(unmirrored)

    def test_header_and_shape(self, example_system):
        grid = torus_scan(example_system, 2)
        text = scan_to_csv(grid)
        lines = text.strip().split("\n")
        assert lines[0] == "theta_1,theta_2,sigma,eta,absdet"
        assert len(lines) == 5

    def test_twelve_significant_digits(self, example_system):
        grid = torus_scan(example_system, 2)
        first = scan_to_csv(grid).strip().split("\n")[1]
        assert first.startswith("0.333333333333,0.333333333333,")

    def test_deterministic_output(self, example_system, tmp_path):
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_scan_csv(torus_scan(example_system, 5), path_a)
        write_scan_csv(torus_scan(example_system, 5), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
