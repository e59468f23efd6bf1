import cmath
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksig import invariants
from linksig.ccomplex import (
    GeneralizedSeifertSystem,
    TorusPoint,
    all_patterns,
    assemble_h,
    h_at_minus_ones,
)
from linksig.hermitian import hermitian_signature, integer_symmetric_signature
from linksig.invariants import (
    ScanGrid,
    estimate_beta,
    lt_signature_from_multivariable,
    scan_to_csv,
    signature_nullity,
    torus_scan,
    undetected_sigma_jumps,
    write_scan_csv,
)

from conftest import random_system, random_torus_fractions


def zero_system(mu=2, rank=3):
    zeros = np.zeros((rank, rank), dtype=int)
    from linksig.ccomplex import canonical_patterns

    return GeneralizedSeifertSystem(
        mu=mu, rank=rank, matrices={p: zeros for p in canonical_patterns(mu)}
    )


def oracle_sample(system, fractions, tol=1e-9):
    """Independent re-evaluation: fresh assembly, a full eigendecomposition
    and an LU determinant.  Returns (sigma, eta, |det|, sign of det)."""
    n = system.rank
    h = np.zeros((n, n), dtype=complex)
    for pattern in all_patterns(system.mu):
        coefficient = 1 + 0j
        for q, sign in zip(fractions, pattern):
            w = cmath.exp(2j * cmath.pi * float(q))
            coefficient *= (1 - w.conjugate()) if sign > 0 else (1 - w)
        h = h + coefficient * np.asarray(system.matrix(pattern), dtype=complex)
    eigenvalues, _ = np.linalg.eigh((h + h.conj().T) / 2)
    threshold = tol * max(1.0, float(np.abs(h).max()) if n else 1.0)
    pos = int(np.sum(eigenvalues > threshold))
    neg = int(np.sum(eigenvalues < -threshold))
    absdet = float(np.prod(np.abs(eigenvalues))) if n else 1.0
    return pos - neg, n - pos - neg, absdet, int(np.sign(np.linalg.det(h).real)) if n else 1


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
        assert len(grid.samples) == 1
        sample = grid.samples[0]
        assert sample.omega.fractions == (Fraction(1, 2), Fraction(1, 2))
        assert (sample.sigma, sample.eta) == (-2, 0)

    def test_zero_system_grid(self):
        grid = torus_scan(zero_system(2, 2), 3)
        assert len(grid.samples) == 9
        assert all((s.sigma, s.eta) == (0, 2) for s in grid.samples)
        assert grid.min_eta == 2

    def test_row_major_order(self, example_system):
        grid = torus_scan(example_system, 2)
        fractions = [s.omega.fractions for s in grid.samples]
        third = Fraction(1, 3)
        expected = list(itertools.product([third, 2 * third], repeat=2))
        assert fractions == expected

    def test_bad_resolution(self, example_system):
        with pytest.raises(ValueError, match="resolution"):
            torus_scan(example_system, 0)

    def test_against_independent_oracle(self, example_system):
        grid = torus_scan(example_system, 7)
        assert len(grid.samples) == 49
        for sample in grid.samples:
            sigma, eta, absdet, _ = oracle_sample(example_system, sample.omega.fractions)
            assert (sample.sigma, sample.eta) == (sigma, eta)
            assert sample.abs_det == pytest.approx(absdet, rel=1e-9, abs=1e-12)

    def test_sigma_changes_only_at_det_zero_crossings(self, example_system):
        grid = torus_scan(example_system, 31)
        assert undetected_sigma_jumps(grid) == []
        assert grid.min_eta == 0
        # the signature genuinely varies on this grid, so the check bites
        assert len({s.sigma for s in grid.samples}) > 1

    def test_flagged_samples_have_small_det(self, example_system):
        grid = torus_scan(example_system, 31)
        for sample in grid.samples:
            if sample.eta > 0:
                assert sample.near_zero

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
        grid = torus_scan(system, resolution)
        for sample in grid.samples:
            sigma, eta, absdet, sign = oracle_sample(system, sample.omega.fractions)
            assert (sample.sigma, sample.eta) == signature_nullity(system, sample.omega)
            assert (sample.sigma, sample.eta) == (sigma, eta)
            # |det| of a singular H is rounding noise; compare it where eta = 0.
            if sample.eta == 0:
                assert sample.abs_det == pytest.approx(absdet, rel=1e-9)
                assert sample.det_sign == sign
            else:
                assert sample.det_sign == 0

    def test_multi_chunk_scan_matches_pointwise(self, monkeypatch):
        system = random_system(np.random.default_rng(40), 2, 40)
        per_chunk = invariants.CHUNK_BYTES // (16 * 40 * 40)
        assert 1 < per_chunk < 7**2  # the scan really spans several chunks
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        grid = torus_scan(system, 7)
        monkeypatch.undo()
        assert len(calls) == -(-25 // per_chunk)  # ceil(7^2 / 2) points classified
        for sample in grid.samples:
            assert (sample.sigma, sample.eta) == signature_nullity(system, sample.omega)
            eigenvalues = np.linalg.eigvalsh(assemble_h(system, sample.omega))
            assert sample.abs_det == pytest.approx(np.prod(np.abs(eigenvalues)), rel=1e-9)

    def test_scan_classifies_one_point_per_conjugate_pair(self, monkeypatch, example_system):
        eigvalsh = np.linalg.eigvalsh
        for mu, resolution in itertools.product((1, 2, 3), (1, 2, 5, 6)):
            system = random_system(np.random.default_rng(mu), mu, 3)
            matrices = []
            monkeypatch.setattr(
                np.linalg, "eigvalsh", lambda a: matrices.append(len(a)) or eigvalsh(a)
            )
            torus_scan(system, resolution)
            monkeypatch.undo()
            assert sum(matrices) == -(-(resolution**mu) // 2)
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
        middle = grid.samples[(3**mu) // 2]
        assert middle.omega.is_minus_ones()
        assert (middle.sigma, middle.eta, middle.det_sign) == (1, 0, 1)

    def test_exact_route_where_the_float_zero_test_is_wrong(self):
        # H(-1) = [[4, 802], [802, 160800]] has det -4: one eigenvalue is about
        # -2.5e-5, inside the float zero band of 1e-9 * 160800.
        system = GeneralizedSeifertSystem(mu=1, rank=2, matrices={"+": [[1, 401], [0, 40200]]})
        assert h_at_minus_ones(system).tolist() == [[4, 802], [802, 160800]]
        floating = hermitian_signature(assemble_h(system, TorusPoint.minus_ones(1)))
        assert (floating.signature, floating.nullity) == (1, 1)
        assert signature_nullity(system, TorusPoint.minus_ones(1)) == (0, 0)
        middle = torus_scan(system, 3).samples[1]
        assert middle.omega.is_minus_ones()
        assert (middle.sigma, middle.eta, middle.det_sign) == (0, 0, -1)


class TestEstimateBeta:
    def test_example_minimum_zero(self, example_system):
        assert estimate_beta(example_system, [TorusPoint.minus_ones(2)]) == 0

    def test_zero_system(self):
        points = [TorusPoint.from_strings(["1/3", "1/5"]), TorusPoint.minus_ones(2)]
        assert estimate_beta(zero_system(2, 2), points) == 2

    def test_empty_system(self):
        assert estimate_beta(zero_system(2, 0), [TorusPoint.minus_ones(2)]) == 0

    def test_empty_sample_list(self, example_system):
        with pytest.raises(ValueError, match="sample"):
            estimate_beta(example_system, [])


class TestCsvOutput:
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
