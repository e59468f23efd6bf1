import itertools
from fractions import Fraction

import numpy as np
import pytest

from linksig.bounds import (
    BoundReport,
    ComponentInvariants,
    evaluate_fixture,
    linking_number_bound,
    rank_obstruction,
    splitting_bound_lt,
    splitting_bound_multivariable,
    unlinking_bound,
)
from linksig.ccomplex import TorusPoint, assemble_h
from linksig.hermitian import hermitian_signature
from linksig.twobridge import ConwayForm

UNKNOTS_2 = ComponentInvariants.unknots(2)


class TestComponentInvariants:
    def test_unknots(self):
        comps = ComponentInvariants.unknots(3)
        assert comps.sigma_total == 0 and comps.eta_total == 0 and comps.mu == 3

    def test_rejects_negative_nullity(self):
        with pytest.raises(ValueError):
            ComponentInvariants.of((1, 0), (0, -1))

    def test_from_records(self):
        comps = ComponentInvariants.from_records(
            [{"sigma": 2, "eta": 0}, {"sigma": -1, "eta": 1}]
        )
        assert comps.sigmas == (2, -1) and comps.etas == (0, 1)


class TestSplittingBoundMultivariable:
    def test_worked_two_bridge_example(self):
        report = splitting_bound_multivariable(2, -2, 0, UNKNOTS_2)
        assert report.value == 3

    def test_all_zero_three_colors(self):
        assert splitting_bound_multivariable(3, 0, 0, ComponentInvariants.unknots(3)).value == 2

    def test_hopf_from_empty_matrices(self):
        # rank-0 system: sigma = eta = 0, and the bound already gives 1
        assert splitting_bound_multivariable(2, 0, 0, UNKNOTS_2).value == 1

    def test_component_data_enters(self):
        comps = ComponentInvariants.of((2, 0), (0, 1))
        report = splitting_bound_multivariable(2, 5, 0, comps)
        assert report.value == abs(5 - 2) + abs(1 - 0 + 1)

    def test_color_permutation_invariance(self):
        sigmas, etas = (2, -1, 0), (0, 1, 2)
        # |-1 - 1| + |3 - 1 - 1 + 3| = 6, independent of the color order
        for perm in itertools.permutations(range(3)):
            comps = ComponentInvariants(
                tuple(sigmas[i] for i in perm), tuple(etas[i] for i in perm)
            )
            assert splitting_bound_multivariable(3, -1, 1, comps).value == 6

    def test_orientation_reversal_invariance(self, example_system):
        # evaluating at the coordinate-inverted point gives the conjugate
        # matrix, so the bound built from those invariants cannot change
        for fractions in [(Fraction(1, 3), Fraction(1, 5)), (Fraction(2, 7), Fraction(5, 8))]:
            direct = TorusPoint(fractions)
            inverted = TorusPoint(tuple(1 - q for q in fractions))
            r_direct = hermitian_signature(assemble_h(example_system, direct))
            r_inverted = hermitian_signature(assemble_h(example_system, inverted))
            bound_direct = splitting_bound_multivariable(
                2, r_direct.signature, r_direct.nullity, UNKNOTS_2
            )
            bound_inverted = splitting_bound_multivariable(
                2, r_inverted.signature, r_inverted.nullity, UNKNOTS_2
            )
            assert bound_direct.value == bound_inverted.value

    def test_mismatched_component_count(self):
        with pytest.raises(ValueError, match="colors"):
            splitting_bound_multivariable(3, 0, 0, UNKNOTS_2)


class TestSplittingBoundLt:
    def test_l9a29(self):
        report = splitting_bound_lt(2, 5, 0, -1, ComponentInvariants.of((2, 0), (0, 0)))
        assert report.value == 3
        assert report.parity_of_total_linking == 1

    def test_l12n1367(self):
        comps = ComponentInvariants.of((1, 1), (-1, 1))
        assert splitting_bound_lt(2, 0, 1, 1, comps).value == 3

    def test_l12a1622(self):
        report = splitting_bound_lt(3, -4, 0, 1, ComponentInvariants.unknots(3))
        assert report.value == 5

    def test_l11a372(self):
        assert splitting_bound_lt(2, 5, 0, -1, UNKNOTS_2).value == 5

    def test_l12n1326(self):
        assert splitting_bound_lt(2, 1, 0, 1, UNKNOTS_2).value == 3

    def test_parity_matches_total_linking(self):
        # every one-variable fixture bound has the parity of the linking sum
        cases = [
            (2, 5, 0, -1, ComponentInvariants.of((2, 0), (0, 0))),
            (2, 0, 1, 1, ComponentInvariants.of((1, 1), (-1, 1))),
            (3, -4, 0, 1, ComponentInvariants.unknots(3)),
            (2, 5, 0, -1, UNKNOTS_2),
            (2, 1, 0, 1, UNKNOTS_2),
        ]
        for mu, sigma, eta, lk, comps in cases:
            report = splitting_bound_lt(mu, sigma, eta, lk, comps)
            assert report.value % 2 == lk % 2


class TestLinkingNumberBound:
    def test_hopf(self):
        report = linking_number_bound([[0, 1], [1, 0]])
        assert report.value == 1
        assert report.parity_of_total_linking == 1

    def test_nonsplit_with_vanishing_linking(self):
        report = linking_number_bound([[0, 0], [0, 0]], {(0, 1): True})
        assert report.value == 2
        assert report.parity_of_total_linking == 0

    def test_split_pair(self):
        assert linking_number_bound([[0, 0], [0, 0]], {(0, 1): False}).value == 0

    def test_missing_flag(self):
        with pytest.raises(ValueError, match=r"pair \(1, 2\) has linking number 0: .*flag"):
            linking_number_bound([[0, 0], [0, 0]])

    def test_linked_pair_cannot_be_split(self):
        with pytest.raises(ValueError, match=r"pair \(1, 3\) has linking number -2: .*split"):
            linking_number_bound([0, -2, 0], {(1, 0): True, (2, 0): False})
        flags = {(0, 1): False, (0, 2): True, (1, 2): True}  # linked pairs may be flagged non-split
        assert linking_number_bound([0, -2, 0], flags).value == 2 + 2

    def test_three_colors_mixed(self):
        lk = [[0, 2, 0], [2, 0, -3], [0, -3, 0]]
        report = linking_number_bound(lk, {(0, 2): True})
        assert report.value == 2 + 3 + 2
        assert report.parity_of_total_linking == (2 - 3) % 2

    def test_flat_upper_triangle(self):
        # lk_12, lk_13, lk_23 of the matrix above; mu follows from the count
        matrix = linking_number_bound([[0, 2, 0], [2, 0, -3], [0, -3, 0]], {(0, 2): True})
        assert linking_number_bound([2, 0, -3], {(0, 2): True}) == matrix
        assert linking_number_bound([2, 0, -3], {(0, 2): True}, mu=3) == matrix

    @pytest.mark.parametrize(
        "linking, mu, message",
        [
            ([1], 3, "needs 3 values for mu=3, got 1"),
            ([[0, 1], [1, 0]], 3, "needs 3 values for mu=3, got 1"),
            ([1, 2], None, "2 linking values do not fill an upper triangle"),
            ([[0, 1], [2, 0]], None, "symmetric"),
            ([], 0, "mu must be at least 1"),
            ([1], -3, "mu must be at least 1"),
        ],
        ids=["flat-short", "matrix-too-small", "flat-not-triangular", "asymmetric", "mu-0",
             "mu-negative"],
    )
    def test_malformed_linking_data(self, linking, mu, message):
        with pytest.raises(ValueError, match=message):
            linking_number_bound(linking, {}, mu)


    @pytest.mark.parametrize(
        "flags, message",
        [
            ({(0, 2): True}, r"pair flag \(1, 3\) names a component outside 1..2"),
            ({(-1, 1): False}, r"pair flag \(0, 2\) names a component outside 1..2"),
            ({(1, 1): True}, r"pair flag \(2, 2\) names component 2 twice"),
            ({(0, 1): True, (1, 0): False}, "flagged both split and non-split"),
            ([((0, 1), True), ((0, 1), False)], "flagged both split and non-split"),
        ],
        ids=["beyond-mu", "negative", "same-component", "conflict", "conflict-items"],
    )
    def test_bad_pair_flag(self, flags, message):
        with pytest.raises(ValueError, match=message):
            linking_number_bound([[0, 0], [0, 0]], flags)

    def test_pair_flag_items_in_either_order(self):
        items = [((1, 0), True), ((0, 1), True)]
        assert linking_number_bound([0], items).value == 2


class TestRankObstruction:
    def test_base_bound(self):
        assert rank_obstruction(2, 0, []).value == 1

    def test_exhausted_bound(self):
        assert rank_obstruction(3, 2, []).value == 0

    def test_integral_float_is_read_as_int(self):
        report = rank_obstruction(2, 0.0, [])
        assert report.render() == "formula=rank value=1 additivity_violated=no base=1"

    def test_additivity_violation_with_parity(self):
        sample = (TorusPoint.from_strings(["1/3", "2/3"]), 2, 0, UNKNOTS_2)
        report = rank_obstruction(2, 0, [sample], total_linking=1)
        assert report.value == 3
        assert report.details["additivity_violated"] == "yes"
        assert report.details["parity_upgraded"] == "yes"

    def test_violation_without_parity_data(self):
        sample = (TorusPoint.from_strings(["1/3", "2/3"]), 2, 0, UNKNOTS_2)
        assert rank_obstruction(2, 0, [sample]).value == 2

    def test_component_nullity_counts_as_violation(self):
        comps = ComponentInvariants.of((0, 0), (0, 1))
        sample = (TorusPoint.minus_ones(2), 0, 0, comps)
        assert rank_obstruction(2, 0, [sample]).value == 2

    def test_additive_samples_leave_base(self):
        sample = (TorusPoint.minus_ones(2), 0, 0, UNKNOTS_2)
        assert rank_obstruction(2, 0, [sample], total_linking=1).value == 1

    def test_rejects_wrong_nullity_sample(self):
        sample = (TorusPoint.minus_ones(2), 0, 1, UNKNOTS_2)
        with pytest.raises(ValueError, match="beta_est"):
            rank_obstruction(2, 0, [sample])


class TestUnlinkingBound:
    def test_hopf(self):
        report = unlinking_bound(2, 0, 0, [[0, 1], [1, 0]])
        assert report.details["raw"] == 2
        assert report.value == 1

    def test_degenerate_zero(self):
        report = unlinking_bound(3, 0, 2, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert report.details["raw"] == 0
        assert report.value == 0

    def test_symbolic_linking_slot(self):
        # worked 2-bridge example at (-1, -1): raw = 2 + 1 + |lk|
        for lam in range(4):
            report = unlinking_bound(2, -2, 0, [lam])
            assert report.details["raw"] == 3 + lam

    def test_odd_raw_rounds_up(self):
        assert unlinking_bound(2, -2, 0, [0]).value == 2  # raw 3

    def test_linking_count_must_match_mu(self):
        # mu = 3 has three pairs; a single value used to be summed as if complete
        with pytest.raises(ValueError, match="needs 3 values for mu=3, got 1"):
            unlinking_bound(3, 0, 0, [1])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: ComponentInvariants.of((1.7, 0), (0, 0)), id="component-sigma"),
        pytest.param(lambda: linking_number_bound([[0, 1.5], [1.5, 0]]), id="linking-matrix"),
        pytest.param(lambda: unlinking_bound(2, 0, 0, [2.5]), id="unlink-flat-list"),
        pytest.param(
            lambda: splitting_bound_multivariable(2, 5.5, 0, UNKNOTS_2), id="split-multi-sigma"
        ),
        pytest.param(lambda: unlinking_bound(2, 0.5, 0, [1]), id="unlink-sigma"),
        pytest.param(lambda: rank_obstruction(2, 0.5, []), id="rank-beta"),
        pytest.param(lambda: ConwayForm((4.7, 3, 2.9)), id="conway-float"),
        pytest.param(lambda: ConwayForm((4, True, 2)), id="conway-bool"),
    ],
)
def test_non_integer_input_is_rejected_not_truncated(call):
    with pytest.raises(ValueError, match="non-integer value"):
        call()


class TestBoundReport:
    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            BoundReport(bound_name="x", value=-1)

    def test_render_is_deterministic(self):
        report = splitting_bound_lt(2, 5, 0, -1, UNKNOTS_2, omega=TorusPoint.minus_ones(2))
        assert report.render() == "formula=split-lt value=5 omega=1/2,1/2 total_lk=-1 lk_parity=odd"


class TestFixtureRecords:
    def test_lt_record(self):
        record = {
            "kind": "lt",
            "mu": 2,
            "omega": ["1/2", "1/2"],
            "sigma_L": 5,
            "eta_L": 0,
            "total_lk": -1,
            "components": [{"sigma": 2, "eta": 0}, {"sigma": 0, "eta": 0}],
        }
        assert evaluate_fixture(record).value == 3

    def test_multi_record(self):
        record = {
            "kind": "multi",
            "mu": 2,
            "sigma_L": -2,
            "eta_L": 0,
            "components": [{"sigma": 0, "eta": 0}, {"sigma": 0, "eta": 0}],
        }
        assert evaluate_fixture(record).value == 3

    def test_rank_record(self):
        record = {
            "kind": "rank",
            "mu": 2,
            "beta_est": 0,
            "total_lk": 1,
            "samples": [
                {
                    "omega": ["1/3", "2/3"],
                    "sigma_L": 2,
                    "eta_L": 0,
                    "components": [{"sigma": 0, "eta": 0}, {"sigma": 0, "eta": 0}],
                }
            ],
        }
        assert evaluate_fixture(record).value == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            evaluate_fixture({"kind": "mystery", "mu": 2})
