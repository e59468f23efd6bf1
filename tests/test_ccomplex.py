import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linksig import bounds, ccomplex, hermitian
from linksig.bounds import _linking_pairs
from linksig.ccomplex import (
    GeneralizedSeifertSystem,
    TorusPoint,
    assemble_h,
    assemble_stack,
    canonical_patterns,
    exact_int,
    exact_int_rows,
    h_at_minus_ones,
    int_array,
    load_system,
    pattern_from_string,
    pattern_to_string,
    shape_of,
    system_from_dict,
    torus_coordinate,
    validate,
)
from linksig.hermitian import (
    bordered_delta,
    hermitian_signature,
    integer_inertia,
    integer_symmetric_signature,
)
from linksig.twobridge import ConwayForm, build_gss

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
        # Every zero part is +0.0; the real part of -1j would be -0.0.  A float
        # number of turns, as a scan's axis passes it, is read the same way.
        for q, expected in [("1/4", (0.0, 1.0)), ("1/2", (-1.0, 0.0)), ("3/4", (0.0, -1.0))]:
            for turns in (Fraction(q), float(Fraction(q))):
                w = torus_coordinate(turns)
                assert [(x, math.copysign(1.0, x)) for x in (w.real, w.imag)] == [
                    (x, math.copysign(1.0, x)) for x in expected
                ]

    @pytest.mark.parametrize("turns", [Fraction(10**20 - 1, 10**20), 1.0, 0.0])
    def test_coordinate_rounding_to_1_is_rejected(self, turns):
        with pytest.raises(ValueError, match="rounds to the excluded coordinate 1"):
            torus_coordinate(turns)

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


def parent_rows(matrix):
    """The reader before the one walk, kept as the oracle: the shape of the whole
    input by shape_of first, then every entry by exact_int."""
    shape = shape_of(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    if hasattr(matrix, "tolist"):
        if matrix.dtype.kind in "iu":
            return matrix.tolist()
        matrix = matrix.tolist()
    return [list(map(exact_int, row)) for row in matrix]


def parent_int_array(matrix):
    """int_array by the oracle: a matrix without entries is 0 x 0."""
    if hasattr(matrix, "dtype") and matrix.dtype.kind in "iu":
        return matrix
    rows = [] if 0 in shape_of(matrix) else parent_rows(matrix)
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), len(rows))
    except OverflowError:
        return np.array(rows, dtype=object)


def parent_form(matrix):
    """What the exact entry points factor, by the oracle: square as given, then parent_int_array."""
    if len(shape := shape_of(matrix)) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    return parent_int_array(matrix)


def parent_problems(matrix, rank: int, linking: bool) -> list[str]:
    """validate's messages on ``matrix`` as the "+" matrix of a mu = 1 system of
    ``rank``, or as the linking matrix of a rank-0 system of mu = ``rank``, by the oracle."""
    shape, rows = shape_of(matrix), outcome(parent_rows, matrix)
    name = "linking matrix" if linking else "matrix for pattern '+'"
    if 0 in shape and not linking:
        shape = (0, 0)
    if shape != (rank, rank):
        return [f"{name} has shape {shape}, expected ({rank}, {rank})"]
    if rank and rows[0] != "value":
        return [f"{name} has non-integer entries"]
    if linking and rows[1] != [list(column) for column in zip(*rows[1])]:
        return ["linking matrix is not symmetric"]
    return []


def parent_pairs(linking):
    """_linking_pairs by the oracle: a matrix by parent_rows, a flat row entry by entry."""
    shape = shape_of(linking)
    if len(shape) == 2:
        return _linking_pairs(parent_rows(linking))
    if len(shape) == 1 and not any(map(shape_of, linking)):
        return _linking_pairs([exact_int(v) for v in linking])
    raise ValueError("linking data must be a square matrix or its upper triangle")


def outcome(read, *args):
    """``read(*args)`` in comparable form, an array as its dtype kind, shape and
    entries; or the type and message of what it raised."""
    try:
        value = read(*args)
    except Exception as exc:  # the oracle must raise the same
        return type(exc).__name__, str(exc)
    if isinstance(value, np.ndarray):
        return "array", value.dtype.kind, value.shape, value.tolist()
    return "value", value


def assert_parent_parity(matrix):
    """Every exact reader gives on ``matrix`` the rows, results and messages that
    the parent's reader implies."""
    assert outcome(exact_int_rows, matrix) == outcome(parent_rows, matrix)
    assert outcome(int_array, matrix) == outcome(parent_int_array, matrix)
    for entry in (integer_symmetric_signature, integer_inertia):
        assert outcome(entry, matrix) == outcome(lambda m: entry(parent_form(m)), matrix)
    for rank in (0, 1, 2):
        system = GeneralizedSeifertSystem(1, rank, {"+": matrix})
        assert validate(system) == parent_problems(matrix, rank, linking=False)
    for mu in (1, 2) if matrix is not None else ():  # linking=None is no linking data
        system = GeneralizedSeifertSystem(mu, 0, {p: [] for p in canonical_patterns(mu)}, matrix)
        assert validate(system) == parent_problems(matrix, mu, linking=True)
    assert outcome(_linking_pairs, matrix) == outcome(parent_pairs, matrix)

    def parent_bordered(border):
        try:
            form = parent_form(matrix)
            [exact_int(v) for v in np.asarray(border).tolist()]
        except ValueError:  # not read exactly: the floating route, after the shape checks
            a, z = hermitian._square(matrix), np.asarray(border, dtype=complex)
            if z.shape != (len(a),):
                raise ValueError(f"border has shape {z.shape}, expected ({len(a)},)") from None
            before = hermitian_signature(a)
            after = hermitian_signature(np.block([[a, z[:, None]], [z.conj(), 2]]))
            return after.signature - before.signature, after.nullity - before.nullity
        return bordered_delta(form, border, 2)

    borders = ([1, 0], [0.5, 0], np.array([1, 0]), np.array([True, False]), [1 + 0j, np.int64(0)])
    for border in borders:
        assert outcome(bordered_delta, matrix, border, 2) == outcome(parent_bordered, border)


def object_array_holding_a_list():
    a = np.array([[2, 1], [1, 2]], dtype=object)
    a[0, 1] = [1]
    return a


#: Inputs of every container and malformation, built afresh for each test.
READER_CASES = {
    "list": lambda: [[2, 1], [1, 2]],
    "asymmetric": lambda: [[2, 1], [3, 2]],
    "tuple": lambda: ((2, 1), (1, 2)),
    "int64": lambda: np.array([[2, 1], [1, 2]]),
    "int32": lambda: np.array([[2, 1], [1, 2]], dtype=np.int32),
    "uint8": lambda: np.array([[2, 1], [1, 2]], dtype=np.uint8),
    "integral-float-array": lambda: np.array([[2.0, 1.0], [1.0, 2.0]]),
    "fractional-float-array": lambda: np.array([[2.5, 1.0], [1.0, 2.0]]),
    "float32-array": lambda: np.array([[2, 1], [1, 2]], dtype=np.float32),
    "integral-complex-array": lambda: np.array([[2, 1], [1, 2]], dtype=complex),
    "complex-array": lambda: np.array([[2, 1j], [-1j, 2]]),
    "complex-array-nan-imaginary": lambda: np.array([[2, complex(0, math.nan)], [0, 2]]),
    "float-array-nan": lambda: np.array([[math.nan, 0], [0, 1]]),
    "float-array-inf": lambda: np.array([[1, 0], [0, -math.inf]]),
    "float-array-at-int64-bounds": lambda: np.array([[-(2.0**63), 1], [1, 2.0**62]]),
    "float-array-beyond-int64": lambda: np.array([[2.0**63, 1], [1, 2]]),
    "float-array-beyond-float-range": lambda: np.array([[1e308, 0], [0, 1]]),
    "bool-array": lambda: np.array([[True, False], [False, True]]),
    "object-array": lambda: np.array([[2, 1], [1, 2**70]], dtype=object),
    "object-array-holding-a-list": object_array_holding_a_list,
    "numpy-ints-in-lists": lambda: [[np.int64(2), np.int32(1)], [np.uint8(1), np.int16(2)]],
    "array-rows": lambda: [np.array([2, 1]), np.array([1, 2])],
    "complex-zero-imaginary": lambda: [[complex(2, 0), 1], [1, 2]],
    "complex": lambda: [[complex(2, 1), 1], [1, 2]],
    "empty": lambda: [],
    "empty-row": lambda: [[]],
    "empty-rows": lambda: [[], []],
    "empty-float-array": lambda: np.zeros((0, 0)),
    "empty-int-array": lambda: np.zeros((0, 0), dtype=int),
    "zero-by-three-array": lambda: np.zeros((0, 3)),
    "ragged": lambda: [[1, 2], [3]],
    "ragged-fraction-first": lambda: [[0.5, 1], [1]],
    "nested": lambda: [[[1]]],
    "nested-entry": lambda: [[1, [2]], [3, 4]],
    "wide": lambda: [[1, 2, 3], [4, 5, 6]],
    "flat": lambda: [1, 2, 3],
    "true": lambda: [[True, 0], [0, 1]],
    "text": lambda: [["1", 0], [0, 1]],
    "text-rows": lambda: ["ab", "cd"],
    "none": lambda: [[None, 0], [0, 1]],
    "none-matrix": lambda: None,
    "dict-rows": lambda: [{0: 1, 1: 2}, {0: 3, 1: 4}],
    "inf": lambda: [[math.inf, 0], [0, 1]],
    "nan": lambda: [[math.nan, 0], [0, 1]],
    "beyond-int64": lambda: [[2**70, 1], [1, -(2**63) - 1]],
    "beyond-float-range": lambda: [[1e308, 0], [0, 1]],
}


class TestOneWalkReader:
    @pytest.mark.parametrize("case", READER_CASES)
    def test_readers_agree_with_the_parent_reader(self, case):
        assert_parent_parity(READER_CASES[case]())

    def test_well_formed_lists_are_read_without_shape_of(self, monkeypatch):
        calls, nested = [], []

        def counted(value):  # counts the outermost calls, not shape_of's recursion
            calls.extend([] if nested else [type(value).__name__])
            nested.append(value)
            try:
                return shape_of(value)
            finally:
                nested.pop()

        for module in (ccomplex, hermitian, bounds):
            monkeypatch.setattr(module, "shape_of", counted)
        h = h_at_minus_ones(build_gss(ConwayForm.parse("4,3," * 40 + "2"))).tolist()
        assert integer_symmetric_signature(h) == (-80, 0, 0, 80)
        assert integer_inertia(h)[0] == (-80, 0, 0, 80)
        assert int_array(h).tolist() == exact_int_rows(h) == h
        system = GeneralizedSeifertSystem(2, 80, {(1, 1): h, (1, -1): h}, [[0, 1], [1, 0]])
        assert validate(system) == [] and system.total_linking() == 1
        assert _linking_pairs([[0, 1], [1, 0]]) == (2, [(0, 1, 1)])
        assert bordered_delta([[1, 0], [0, 1]], [0, 0], 1) == (1, 0)
        assert calls == []

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_integral_float_and_complex_arrays_read_exactly(self, dtype):
        h = h_at_minus_ones(build_gss(ConwayForm.parse("4,3," * 40 + "2")))
        assert exact_int_rows(h.astype(dtype)) == h.tolist()
        assert integer_symmetric_signature(h.astype(dtype)) == (-80, 0, 0, 80)


ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2.0, -1.0, 0.5, 1e308, math.inf, math.nan, True, None, "1", complex(1, 0),
                     complex(1, 1), Fraction(1, 2), np.int64(-2), np.float64(3.0), [1], []]),
)


@st.composite
def reader_inputs(draw):
    """Square, ragged, deeper and flat inputs of mostly small integers, sometimes
    symmetric, in a list, tuples or an array of any dtype that holds them."""
    n = draw(st.integers(0, 3))
    entry = st.one_of(st.integers(-3, 3), ENTRIES) if draw(st.booleans()) else st.integers(-3, 3)
    kind = draw(st.sampled_from(["square", "square", "ragged", "deeper", "flat"]))
    if kind == "flat":
        matrix = draw(st.lists(entry, max_size=4))
    elif kind == "deeper":
        matrix = [[[draw(entry)] * draw(st.integers(0, 2)) for _ in range(n)] for _ in range(n)]
    else:
        lengths = st.integers(0, 3) if kind == "ragged" else st.just(n)
        matrix = [[draw(entry) for _ in range(draw(lengths))] for _ in range(n)]
        if kind == "square" and draw(st.booleans()):
            matrix = [[matrix[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    container = draw(
        st.sampled_from(["list", "tuple", "int64", "uint8", "float", "complex", "object"])
    )
    if container == "tuple":
        return tuple(tuple(row) if isinstance(row, list) else row for row in matrix)
    if container != "list":
        try:
            return np.array(matrix, dtype=None if container == "int64" else container)
        except (TypeError, ValueError, OverflowError):
            pass
    return matrix


@settings(deadline=None, max_examples=300)
@given(reader_inputs())
def test_one_walk_reader_agrees_with_the_parent_reader(matrix):
    assert_parent_parity(matrix)
