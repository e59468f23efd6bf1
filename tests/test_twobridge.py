import itertools

import numpy as np
import pytest

from linksig import hermitian
from linksig.bounds import ComponentInvariants, splitting_bound_multivariable
from linksig.ccomplex import TorusPoint, h_at_minus_ones, validate
from linksig.cli import main
from linksig.hermitian import integer_symmetric_signature
from linksig.invariants import signature_nullity
from linksig.twobridge import (
    ConwayForm,
    build_gss,
    h_minus_one_closed_form,
    predicted_splitting,
)

# A twist coefficient whose -floor(b/2) lies below the int64 range.
OVERSIZE_B = "100000000000000000000000"

# Rank-80 forms C(2a_1, b_1, ..., 2a_n), a_1 + ... + a_n = 81: the median
# command of the benchmark's exact-inertia workload.
RANK_80_FORMS = [
    ",".join(map(str, pair * count + tail))
    for pair, count, tail in [
        ([4, 3], 40, [2]), ([2, 1], 80, [2]), ([6, 2], 26, [6]),
        ([4, 1], 40, [2]), ([2, 3], 80, [2]), ([8, 2], 20, [2]),
    ]
]


def all_forms(n_groups, values=(1, 2, 3, 4)):
    """Every valid form with the given group count and coefficients in values."""
    for a_tuple in itertools.product(values, repeat=n_groups):
        for b_tuple in itertools.product(values, repeat=n_groups - 1):
            coefficients = [2 * a_tuple[0]]
            for b, a in zip(b_tuple, a_tuple[1:]):
                coefficients.extend([b, 2 * a])
            yield ConwayForm(tuple(coefficients))


class TestConwayForm:
    def test_parse(self):
        form = ConwayForm.parse("4,3,2")
        assert form.coefficients == (4, 3, 2)
        assert form.a_values == (2, 1)
        assert form.b_values == (3,)
        assert form.clasp_count == 3
        assert form.name == "C(4,3,2)"

    def test_single_region(self):
        form = ConwayForm.parse("6")
        assert form.a_values == (3,) and form.b_values == ()

    def test_rejects_even_length(self):
        with pytest.raises(ValueError, match="odd number"):
            ConwayForm.parse("4,3")
        with pytest.raises(ValueError, match="odd number"):
            ConwayForm.parse("4,3,1,3")

    def test_rejects_odd_coefficient_at_odd_position(self):
        with pytest.raises(ValueError, match="not supported"):
            ConwayForm.parse("4,3,1")  # the trailing 1 sits in an even-coefficient slot

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            ConwayForm.parse("4,0,2")
        with pytest.raises(ValueError, match="positive"):
            ConwayForm.parse("-2")

    @pytest.mark.parametrize(
        "coefficients, message",
        [
            ((4, 0, 2), "C(4,0,2): coefficient 0 at position 2 must be positive"),
            ((3, -1, 2), "C(3,-1,2): coefficient 3 at odd position 1 must be even; "),
            ((2, -1, 3), "C(2,-1,3): coefficient -1 at position 2 must be positive"),
            ((2, 1, 2, 2, 5), "C(2,1,2,2,5): coefficient 5 at odd position 5 must be even; "),
            ((2, True, 2), "non-integer value True"),
        ],
    )
    def test_names_the_first_offending_coefficient(self, coefficients, message):
        with pytest.raises(ValueError) as exc:
            ConwayForm(coefficients)
        assert str(exc.value).startswith(message)

    def test_reads_exact_integers_as_python_ints(self):
        coefficients = ConwayForm((2.0, 1 + 0j, np.int64(2))).coefficients
        assert coefficients == (2, 1, 2) and {type(c) for c in coefficients} == {int}

    def test_rejects_garbage(self):
        for text in ["4,x,2", "4,,3,2", "4,3,2,", "4_0,3,2", "\u0664,3,2"]:
            with pytest.raises(ValueError, match=f"invalid Conway form '{text}'"):
                ConwayForm.parse(text)


class TestPredictedSplitting:
    def test_worked_example(self):
        assert predicted_splitting(ConwayForm.parse("4,3,2")) == 3

    def test_vanishing_linking_family(self):
        for a in range(1, 5):
            form = ConwayForm((2 * a, 1, 2 * a))
            assert predicted_splitting(form) == 2 * a

    def test_hopf(self):
        assert predicted_splitting(ConwayForm.parse("2")) == 1


class TestBuildGss:
    def test_reproduces_worked_matrices_exactly(self):
        system = build_gss(ConwayForm.parse("4,3,2"))
        assert system.matrices[(1, 1)].tolist() == [[0, 0], [0, -2]]
        assert system.matrices[(1, -1)].tolist() == [[-1, 1], [0, -1]]
        assert validate(system) == []

    # (A^{++}, A^{+-}) for each loop case, pinned entry by entry.
    @pytest.mark.parametrize(
        "text, a_pp, a_pm",
        [
            ("6", [[0, 0], [0, 0]], [[-1, 1], [0, -1]]),  # within a group of sign -1
            ("2,2,4", [[-1, 0], [0, 0]], [[-1, 1], [0, -1]]),  # even junction at sign -1
            ("2,1,4", [[-1, 0], [0, -1]], [[-1, 0], [1, 0]]),  # odd junction, then sign +1
            ("2,1,2,2,2", [[-1, 0], [0, -2]], [[-1, 0], [1, 0]]),  # even junction at sign +1
            ("2,1,2,1,2", [[-1, 0], [0, -1]], [[-1, 0], [1, -1]]),  # odd junction at sign +1
        ],
    )
    def test_pins_both_matrices(self, text, a_pp, a_pm):
        system = build_gss(ConwayForm.parse(text))
        assert system.matrices[(1, 1)].tolist() == a_pp
        assert system.matrices[(1, -1)].tolist() == a_pm
        assert validate(system) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["twobridge", "1000000000000000000000,1,2"],
            ["sig", "C(1000000000000000000000,1,2)", "--omega", "1/3,1/3"],
            ["twobridge", f"2,{OVERSIZE_B},2"],
            ["sig", f"C(2,{OVERSIZE_B},2)", "--omega", "1/3,1/3"],
        ],
    )
    def test_impossible_rank_exits_2(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        if OVERSIZE_B in argv[1]:  # -floor(b/2) does not fit the int64 matrix
            assert f"C(2,{OVERSIZE_B},2): coefficient {OVERSIZE_B} " in err

    def test_hopf_is_rank_zero(self):
        system = build_gss(ConwayForm.parse("2"))
        assert system.rank == 0
        assert h_at_minus_ones(system).shape == (0, 0)
        assert signature_nullity(system, TorusPoint.minus_ones(2)) == (0, 0)

    def test_whitehead_shape(self):
        form = ConwayForm.parse("2,1,2")
        system = build_gss(form)
        assert system.rank == 1
        h = h_at_minus_ones(system)
        assert h.shape == (1, 1)
        assert h[0, 0] % 8 == 0 and h[0, 0] <= -8  # 4 * (-2 d), d >= 1
        assert signature_nullity(system, TorusPoint.minus_ones(2)) == (-1, 0)


class TestClosedForm:
    def test_worked_example(self):
        h = h_minus_one_closed_form(ConwayForm.parse("4,3,2"))
        assert h.tolist() == [[-8, 4], [4, -24]]

    def test_empty_for_single_clasp(self):
        assert h_minus_one_closed_form(ConwayForm.parse("2")).shape == (0, 0)

    def test_double_junction_form(self):
        h = h_minus_one_closed_form(ConwayForm.parse("2,1,2,1,2"))
        assert h.shape == (2, 2)
        assert h[0, 1] == 4 and h[1, 0] == 4
        assert h[0, 0] <= -8 and h[1, 1] <= -8
        assert h[0, 0] % 8 == 0

    def test_matches_system_for_sampled_forms(self):
        for n_groups in (1, 2, 3):
            for form in itertools.islice(all_forms(n_groups, values=(1, 2, 3)), 60):
                assert np.array_equal(
                    h_minus_one_closed_form(form), h_at_minus_ones(build_gss(form))
                )

    def test_tridiagonal_shape(self):
        form = ConwayForm.parse("8,2,4,3,6")
        h = h_minus_one_closed_form(form)
        rank = form.clasp_count - 1
        for i in range(rank):
            for j in range(rank):
                if i == j:
                    assert h[i, j] <= -8 and h[i, j] % 8 == 0
                elif abs(i - j) == 1:
                    assert h[i, j] == 4
                else:
                    assert h[i, j] == 0


class TestTheoremRoundTrip:
    def test_negative_definite_and_bound_equals_splitting(self):
        checked = 0
        for n_groups in (1, 2):
            for form in all_forms(n_groups, values=(1, 2, 3)):
                s = predicted_splitting(form)
                system = build_gss(form)
                if system.rank:
                    result = integer_symmetric_signature(h_at_minus_ones(system))
                    assert result.negatives == system.rank  # negative definite
                    sigma, eta = result.signature, result.nullity
                else:
                    sigma, eta = 0, 0
                assert (sigma, eta) == (1 - s, 0)
                bound = splitting_bound_multivariable(
                    2, sigma, eta, ComponentInvariants.unknots(2)
                )
                assert bound.value == s
                checked += 1
        assert checked == 3 + 3 * 3 * 3

    def test_rank_80_forms_take_the_certified_route(self, capsys, monkeypatch):
        def no_elimination(rows):
            raise AssertionError("elimination reached")

        monkeypatch.setattr(hermitian, "_eliminate", no_elimination)
        for text in RANK_80_FORMS:
            form = ConwayForm.parse(text)
            assert build_gss(form).rank == 80
            s = predicted_splitting(form)
            assert main(["twobridge", text]) == 0
            out, err = capsys.readouterr()
            assert (out, err) == (f"s={s} sigma={1 - s} eta=0 bound={s} sp={s} agree=yes\n", "")

    def test_vanishing_linking_family_bound(self):
        for a in (1, 2, 3, 4):
            form = ConwayForm((2 * a, 1, 2 * a))
            system = build_gss(form)
            sigma, eta = signature_nullity(system, TorusPoint.minus_ones(2))
            bound = splitting_bound_multivariable(2, sigma, eta, ComponentInvariants.unknots(2))
            assert bound.value == 2 * a == predicted_splitting(form)
