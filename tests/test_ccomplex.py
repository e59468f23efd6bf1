import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from linksig.ccomplex import (
    GeneralizedSeifertSystem,
    TorusPoint,
    assemble_h,
    assemble_stack,
    canonical_patterns,
    h_at_minus_ones,
    load_system,
    pattern_from_string,
    pattern_to_string,
    system_from_dict,
    torus_coordinate,
    validate,
)
from linksig.hermitian import hermitian_signature

from conftest import (
    full_family,
    random_system,
    random_torus_fractions,
    system_document,
    write_mixed_system,
)


class TestSignPatterns:
    def test_canonical_family_size(self):
        for mu in range(1, 5):
            patterns = canonical_patterns(mu)
            assert len(patterns) == 2 ** (mu - 1)
            assert all(p[0] == 1 for p in patterns)
        with pytest.raises(ValueError, match="^mu must be at least 1$"):
            canonical_patterns(0)

    def test_string_round_trip(self):
        assert pattern_from_string("+-") == (1, -1)
        assert pattern_to_string((1, -1, 1)) == "+-+"
        with pytest.raises(ValueError):
            pattern_from_string("+x")


class TestTorusPoint:
    def test_rejects_boundary_fractions(self):
        with pytest.raises(ValueError):
            TorusPoint.of(0, Fraction(1, 2))
        with pytest.raises(ValueError):
            TorusPoint.of(1)
        with pytest.raises(ValueError):
            TorusPoint.of(Fraction(5, 4))
        with pytest.raises(ValueError, match="^torus point needs at least one coordinate$"):
            TorusPoint(())
        with pytest.raises(ValueError, match="^coordinate 0.5 is not an exact fraction$"):
            TorusPoint((0.5,))

    def test_rejects_decimal_strings(self):
        with pytest.raises(ValueError, match="decimal"):
            TorusPoint.from_strings(["0.5"])
        for item in ["1e-3", "2E-1", "+1E+2"]:
            with pytest.raises(ValueError, match=f"^decimal angle '{re.escape(item)}' rejected"):
                TorusPoint.from_strings([item])
        # Fraction() reads these too; an angle is ASCII digits with at most one '/'.
        for item in ["1_0/30", "\u0663/7", "1/2/3", "1 /2"]:
            with pytest.raises(ValueError, match=f"^invalid fraction '{item}'$"):
                TorusPoint.from_strings([item])

    def test_minus_one_is_exact(self):
        point = TorusPoint.minus_ones(2)
        assert point.values() == (-1 + 0j, -1 + 0j)
        assert point.is_minus_ones()

    def test_quarter_turns_exact(self):
        assert TorusPoint.of(Fraction(1, 4)).values() == (1j,)
        assert TorusPoint.of(Fraction(3, 4)).values() == (-1j,)
        # Every zero part is +0.0; the real part of -1j would be -0.0.
        for q, expected in [("1/4", (0.0, 1.0)), ("1/2", (-1.0, 0.0)), ("3/4", (0.0, -1.0))]:
            w = torus_coordinate(Fraction(q))
            assert [(x, math.copysign(1.0, x)) for x in (w.real, w.imag)] == [
                (x, math.copysign(1.0, x)) for x in expected
            ]

    def test_generic_value_on_unit_circle(self):
        (w,) = TorusPoint.from_strings(["1/6"]).values()
        assert abs(abs(w) - 1) < 1e-15
        assert abs(w - complex(0.5, np.sqrt(3) / 2)) < 1e-15


class TestValidate:
    def test_example_system_is_clean(self, example_system):
        assert validate(example_system) == []

    def test_dimension_violation(self):
        bad = GeneralizedSeifertSystem(
            mu=2,
            rank=2,
            matrices={"++": [[0, 0, 1], [0, -2, 1]], "+-": [[-1, 1], [0, -1]]},
        )
        problems = validate(bad)
        assert len(problems) == 1
        assert "shape" in problems[0]

    def test_missing_pattern(self):
        bad = GeneralizedSeifertSystem(mu=2, rank=1, matrices={"++": [[0]]})
        problems = validate(bad)
        assert len(problems) == 1
        assert "missing" in problems[0] and "+-" in problems[0]

    def test_non_canonical_key(self):
        bad = GeneralizedSeifertSystem(mu=1, rank=1, matrices={"-": [[1]]})
        problems = validate(bad)
        assert any("canonical" in p for p in problems)
        assert any("missing" in p for p in problems)

    @pytest.mark.parametrize(
        "key", [(1, 2), (2, -1), (1, "x")], ids=["second-sign-2", "first-sign-2", "text"]
    )
    def test_tuple_key_with_a_sign_other_than_1(self, key):
        bad = GeneralizedSeifertSystem(mu=2, rank=1, matrices={(1, 1): [[0]], key: [[1]]})
        assert validate(bad) == [
            "missing matrix for canonical pattern '+-'",
            f"pattern {key} has a sign other than +1 or -1",
        ]

    def test_keys_whose_entries_do_not_compare(self):
        matrices = {(1, 1): [[0]], (1, -1): [[0]], (1, "a"): [[0]], (1, None): [[0]]}
        assert validate(GeneralizedSeifertSystem(2, 1, matrices)) == [
            "pattern (1, 'a') has a sign other than +1 or -1",
            "pattern (1, None) has a sign other than +1 or -1",
        ]

    def test_repr(self, example_system):
        assert repr(example_system) == "<GeneralizedSeifertSystem 'C(4,3,2)' mu=2 rank=2>"
        example_system.name = None
        assert repr(example_system) == "<GeneralizedSeifertSystem mu=2 rank=2>"

    def test_total_linking_does_not_wrap(self):
        big = 2**62
        system = GeneralizedSeifertSystem(
            mu=3,
            rank=0,
            matrices={p: [] for p in canonical_patterns(3)},
            linking=[[0, big, big], [big, 0, big], [big, big, 0]],
        )
        assert validate(system) == []
        assert system.total_linking() == 3 * big

    def test_asymmetric_linking_flagged(self):
        bad = GeneralizedSeifertSystem(
            mu=2,
            rank=0,
            matrices={"++": [], "+-": []},
            linking=[[0, 1], [2, 0]],
        )
        assert any("symmetric" in p for p in validate(bad))


class TestAssembly:
    def test_example_value_at_minus_ones(self, example_system):
        h = assemble_h(example_system, TorusPoint.minus_ones(2))
        expected = 4 * np.array([[-2, 1], [1, -6]])
        assert np.allclose(h, expected)
        assert np.allclose(h, h.conj().T)

    def test_exact_specialization_matches(self, example_system):
        assert np.array_equal(
            h_at_minus_ones(example_system), 4 * np.array([[-2, 1], [1, -6]])
        )

    def test_all_zero_system(self):
        zero = GeneralizedSeifertSystem(
            mu=2, rank=3, matrices={"++": np.zeros((3, 3), int), "+-": np.zeros((3, 3), int)}
        )
        h = assemble_h(zero, TorusPoint.from_strings(["1/3", "1/4"]))
        assert np.count_nonzero(h) == 0

    def test_single_color_formula(self):
        a = np.array([[-1, 1], [0, -1]])
        single = GeneralizedSeifertSystem(mu=1, rank=2, matrices={"+": a})
        assert np.array_equal(h_at_minus_ones(single), np.array([[-4, 2], [2, -4]]))
        for q in (Fraction(1, 3), Fraction(2, 7), Fraction(1, 2)):
            omega = TorusPoint.of(q)
            (w,) = omega.values()
            h = assemble_h(single, omega)
            assert np.allclose(h, (1 - w.conjugate()) * a + (1 - w) * a.T)
            # the opposite convention is the entrywise conjugate: same inertia
            conjugate = (1 - w) * a + (1 - w.conjugate()) * a.T
            assert hermitian_signature(h) == hermitian_signature(conjugate)

    def test_minus_one_contribution_per_pattern(self):
        # every coefficient equals 2^mu at (-1, ..., -1), over the full family
        rng = np.random.default_rng(3)
        system = random_system(rng, mu=3, rank=4)
        family = list(full_family(system))
        assert len(family) == 2**3
        family_sum = sum(a for _, a in family)
        assert np.array_equal(h_at_minus_ones(system), 2**3 * family_sum)

    def test_color_count_mismatch(self, example_system):
        with pytest.raises(ValueError, match="colors"):
            assemble_h(example_system, TorusPoint.minus_ones(3))

    def test_hermitian_for_random_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            mu = int(rng.integers(1, 4))
            rank = int(rng.integers(0, 7))
            system = random_system(rng, mu, rank)
            omega = TorusPoint(random_torus_fractions(rng, mu))
            h = assemble_h(system, omega)
            assert np.array_equal(h, h.conj().T)

    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_stack_is_exactly_hermitian_and_matches_the_full_family(self, mu):
        rng = np.random.default_rng(100 + mu)
        generic = [random_torus_fractions(rng, mu) for _ in range(40)]
        quarters = [tuple(Fraction(int(k), 4) for k in rng.integers(1, 4, mu)) for _ in range(6)]
        points = generic + quarters + [(Fraction(1, 2),) * mu]
        values = np.array([TorusPoint(p).values() for p in points])
        for rank in (0, 1, 2, 5, 9, 24):
            system = random_system(rng, mu, rank)
            h = assemble_stack(system, values)
            assert h.shape == (len(points), rank, rank)
            assert np.array_equal(h, h.conj().swapaxes(1, 2))
            # A naive contraction over all 2^mu patterns of the full family.
            naive = np.zeros_like(h)
            for pattern, a in full_family(system):
                factors = np.where(np.array(pattern) > 0, 1 - values.conj(), 1 - values)
                naive += factors.prod(axis=1)[:, None, None] * a
            scale = np.abs(naive).max(initial=1.0)
            assert np.abs(h - naive).max(initial=0.0) <= 1e-12 * scale

    def test_exact_agrees_with_floating_at_half(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            mu = int(rng.integers(1, 4))
            rank = int(rng.integers(0, 7))
            system = random_system(rng, mu, rank)
            h_float = assemble_h(system, TorusPoint.minus_ones(mu))
            assert np.abs(h_float - h_at_minus_ones(system)).max(initial=0.0) < 1e-9


class TestJsonFormat:
    def test_spec_document_round_trip(self, tmp_path):
        doc = {
            "mu": 2,
            "rank": 2,
            "matrices": {"++": [[0, 0], [0, -2]], "+-": [[-1, 1], [0, -1]]},
            "linking": [[0, 1], [1, 0]],
            "name": "C(4,3,2)",
        }
        system = system_from_dict(doc)
        assert validate(system) == []
        assert system.total_linking() == 1

        path = tmp_path / "example.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(system_document(system), handle)
        reloaded = load_system(path)
        assert system_document(reloaded) == system_document(system) == doc

    def test_empty_rank_zero_matrices(self):
        system = system_from_dict({"mu": 2, "rank": 0, "matrices": {"++": [], "+-": []}})
        assert validate(system) == []
        assert h_at_minus_ones(system).shape == (0, 0)

    def test_integral_floats_sum_exactly_at_minus_ones(self, tmp_path):
        path = write_mixed_system(tmp_path / "mixed.json")
        a = [[int(x) for x in row] for row in json.loads(path.read_text())["matrices"]["+"]]
        exact = [[2 * (a[i][j] + a[j][i]) for j in range(2)] for i in range(2)]
        assert h_at_minus_ones(load_system(path)).tolist() == exact

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="malformed"):
            system_from_dict({"mu": 2})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON"):
            load_system(path)

    def test_loadable_but_invalid_system(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"mu": 2, "rank": 2, "matrices": {"++": [[0, 0], [0, -2]]}}),
            encoding="utf-8",
        )
        system = load_system(path)
        assert any("missing" in p for p in validate(system))
