import argparse
import contextlib
import io
import itertools
import json
import shlex
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from linksig import catalog, invariants
from linksig.cli import _BOUND_FLAGS, _FORMULAS, _flag, _negative_values, build_parser, main

from conftest import known_form, unit_lower, write_mixed_system


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Angles whose float is 0 or 1 turn: the coordinate would be 1 or within 2.5e-16 of it.
NEAR_0_OR_1 = [f"1/{10**400}", f"{10**17 - 1}/{10**17}", f"{10**400 - 1}/{10**400}"]


def write_zero_system(tmp_path, mu=2, rank=3):
    from linksig.ccomplex import canonical_patterns, pattern_to_string

    doc = {
        "mu": mu,
        "rank": rank,
        "matrices": {
            pattern_to_string(p): [[0] * rank for _ in range(rank)]
            for p in canonical_patterns(mu)
        },
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_large_entry_system(tmp_path):
    """A mu = 1 system whose H is positive definite at every point, with entries
    so large that H + H^H overflows although H is finite."""
    v = int(4e307)
    path = tmp_path / "large.json"
    doc = {"mu": 1, "rank": 2, "matrices": {"+": [[v, v], [0, v]]}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# The values of a mu = 2 link at a point with one coordinate too many.
THREE_COORDINATE_POINT = {
    "omega": ["1/2"] * 3,
    "sigma_L": 0,
    "eta_L": 0,
    "components": [{"sigma": 0, "eta": 0}] * 2,
}


class TestSig:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "sig", "C(4,3,2)", "--omega", "1/2,1/2")
        assert code == 0
        assert out == "sigma=-2 eta=0\n"

    def test_zero_system_file(self, capsys, tmp_path):
        path = write_zero_system(tmp_path, rank=3)
        code, out, _ = run(capsys, "sig", str(path), "--omega", "1/3,1/4")
        assert code == 0
        assert out == "sigma=0 eta=3\n"

    def test_boundary_coordinate_rejected(self, capsys):
        code, _, err = run(capsys, "sig", "C(4,3,2)", "--omega", "0,1/2")
        assert code == 2
        assert "outside (0, 1)" in err

    def test_decimal_omega_rejected(self, capsys):
        code, _, err = run(capsys, "sig", "C(4,3,2)", "--omega", "0.5,0.5")
        assert code == 2
        assert "decimal" in err
        # Fraction() reads exponent forms too; they are decimals all the same.
        for item in ["1e-3", "2E-1", "0.001"]:
            code, out, err = run(capsys, "sig", "C(4,3,2)", "--omega", f"{item},1/2")
            assert (code, out) == (2, "")
            assert err == f"error: decimal angle {item!r} rejected, use an exact fraction p/q\n"

    @pytest.mark.parametrize("item", ["1_0/30", "\u0663/7", "1/0", "nan", "1/-2"])
    def test_invalid_fraction_exits_2(self, capsys, item):
        code, out, err = run(capsys, "sig", "C(4,3,2)", "--omega", f"{item},1/2")
        assert (code, out, err) == (2, "", f"error: invalid fraction {item!r}\n")

    def test_angle_that_rounds_to_coordinate_1_exits_2(self, capsys):
        # float() of each angle is 0 or 1 turn, so H would vanish or fall below
        # the zero test's floor and give eta = rank.
        for angle in NEAR_0_OR_1:
            assert run(capsys, "sig", "C(4,3,2)", "--omega", f"{angle},1/2") == (
                2, "", f"error: angle {angle} rounds to the excluded coordinate 1\n"
            )

    def test_signed_conway_coefficient(self, capsys):
        # A C(...) token reads its coefficients as twobridge does.
        assert run(capsys, "sig", "C(+4,3,2)", "--omega", "1/2,1/2") == (0, "sigma=-2 eta=0\n", "")

    @pytest.mark.parametrize("form, token", [("4_0,3,2", "4_0"), ("abc", "abc"), ("", "")],
                             ids=["underscore", "letters", "empty"])
    def test_malformed_conway_form_exits_2(self, capsys, form, token):
        error = f"error: invalid Conway form {form!r}: invalid literal for int() with base 10: "
        code, out, err = run(capsys, "sig", f"C({form})", "--omega", "1/2,1/2")
        assert (code, out, err) == (2, "", f"{error}{token!r}\n")

    @pytest.mark.parametrize(
        "change, code, errors",
        [
            ({"rank": -1, "matrices": {"+": []}}, 3,
             ["invariant violation: rank must be non-negative, got -1",
              "invariant violation: matrix for pattern '+' has shape (0, 0), expected (-1, -1)"]),
            ({"matrices": [[1]]}, 2, ["error: 'matrices' must be an object keyed by sign patterns"]),
        ],
        ids=["rank-negative", "matrices-not-object"],
    )
    def test_malformed_system_names_each_problem(self, capsys, tmp_path, change, code, errors):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"mu": 1, "rank": 1, "matrices": {"+": [[1]]}, **change}),
                        encoding="utf-8")
        assert run(capsys, "sig", str(path), "--omega", "1/3") == (
            code, "", "".join(f"{line}\n" for line in errors)
        )

    def test_invalid_system_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"mu": 2, "rank": 2, "matrices": {"++": [[0, 0], [0, -2]]}}),
            encoding="utf-8",
        )
        code, _, err = run(capsys, "sig", str(path), "--omega", "1/2,1/2")
        assert code == 3
        assert "missing" in err

    @pytest.mark.parametrize("mu", [18, 40, 10**23])
    def test_huge_mu_exits_3_with_one_message(self, capsys, tmp_path, mu):
        path = tmp_path / "huge.json"
        path.write_text(
            json.dumps({"mu": mu, "rank": 1, "matrices": {"+": [[1]]}}), encoding="utf-8"
        )
        code, out, err = run(capsys, "sig", str(path), "--omega", "1/2")
        assert code == 3 and out == ""
        assert len(err.splitlines()) <= 3
        assert f"mu={mu} needs 2^{mu - 1} canonical matrices, the system has 1" in err

    # true among numbers: np.asarray would otherwise read it as 1
    @pytest.mark.parametrize("entry", ["Infinity", "NaN", "null", "0.5", '"1"', "true"])
    def test_non_finite_entry_exits_3(self, capsys, tmp_path, entry):
        path = tmp_path / "nonfinite.json"
        path.write_text(
            f'{{"mu": 1, "rank": 2, "matrices": {{"+": [[{entry}, 0], [0, 1]]}}}}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "sig", str(path), "--omega", "1/2")
        assert code == 3
        assert out == ""
        assert "non-integer entries" in err

    @pytest.mark.parametrize("field, value", [("rank", 1.9), ("mu", True)])
    def test_non_integer_system_field_exits_2(self, capsys, tmp_path, field, value):
        doc = {"mu": 1, "rank": 1, "matrices": {"+": [[1]]}, field: value}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "sig", str(path), "--omega", "1/2")
        assert code == 2
        assert out == ""
        assert f"field {field!r}" in err

    def test_non_integer_linking_exits_3(self, capsys, tmp_path):
        for entry in [0.5, True]:
            doc = {
                "mu": 2,
                "rank": 0,
                "matrices": {"++": [], "+-": []},
                "linking": [[0, entry], [entry, 0]],
            }
            path = tmp_path / "linking.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            code, out, err = run(capsys, "sig", str(path), "--omega", "1/2,1/2")
            assert code == 3
            assert out == ""
            assert "linking matrix has non-integer entries" in err

    @pytest.mark.parametrize(
        "field, value, problem",
        [("matrices", {"+": [[1, 0], [0]]}, "matrix for pattern '+' has shape (2,), expected (2, 2)"),
         ("linking", [[0], [0, 0]], "linking matrix has shape (2,), expected (1, 1)"),
         ("mu", 0, "mu must be at least 1, got 0"),
         ("matrices", {"+": [[1, 0], [0, 1]], "+-": [[1, 0], [0, 1]]},
          "pattern '+-' has length 2, expected 1")],
        ids=["matrices", "linking", "mu-0", "pattern-length"],
    )
    def test_ragged_rows_exit_3_naming_the_shape(self, capsys, tmp_path, field, value, problem):
        doc = {"mu": 1, "rank": 2, "matrices": {"+": [[1, 0], [0, 1]]}, field: value}
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "sig", str(path), "--omega", "1/2")
        assert (code, out, err) == (3, "", f"invariant violation: {problem}\n")

    def test_unparseable_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        cases = [(b"{", "invalid JSON"), (b"\xff{}", "invalid JSON"),
                 (b"[1, 2]", "record must be a JSON object")]
        for data, error in cases:
            path.write_bytes(data)
            code, out, err = run(capsys, "sig", str(path), "--omega", "1/2,1/2")
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {path}: {error}")

    @pytest.mark.parametrize("command", ["sig", "twobridge"])
    def test_omega_count_mismatch_exits_2(self, capsys, command):
        system = "C(4,3,2)" if command == "sig" else "4,3,2"
        code, out, err = run(capsys, command, system, "--omega", "1/2,1/2,1/2")
        assert code == 2
        assert out == ""  # twobridge prints its first line only once --omega is evaluated
        assert err == "error: torus point has 3 coordinates, system has 2 colors\n"

    def test_entries_beyond_float_range(self, capsys, tmp_path):
        # Exact at the all-1/2 point; a clean input error wherever floats are needed.
        path = tmp_path / "huge.json"
        doc = {"mu": 1, "rank": 1, "matrices": {"+": [[10**400]]}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "sig", str(path), "--omega", "1/2")
        assert (code, out) == (0, "sigma=1 eta=0\n")
        for argv in [["sig", str(path), "--omega", "1/3"],
                     ["scan", str(path), "--res", "3", "--out", str(tmp_path / "s.csv")]]:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: matrix entries beyond floating-point range")

    @pytest.mark.parametrize(
        "command, options, error",
        [
            ("sig", ["--omega", "1/3"], "matrix has non-finite entries"),
            ("scan", ["--res", "3", "--out", "s.csv"], "matrix entries beyond floating-point range"),
        ],
        ids=["sig", "scan"],
    )
    def test_overflow_at_assembly_is_one_error_line(
        self, capsys, tmp_path, monkeypatch, command, options, error
    ):
        # H at a float point adds 1e308 to its transpose, past the float maximum: the
        # finite checks report it in one error line, with no numpy warning before it.
        monkeypatch.chdir(tmp_path)
        doc = '{"mu": 1, "rank": 1, "matrices": {"+": [[1e308]]}}'
        Path("big.json").write_text(doc, encoding="utf-8")
        assert run(capsys, command, "big.json", *options) == (2, "", f"error: {error}\n")
        assert not Path("s.csv").exists()

    def test_large_finite_entries_keep_their_inertia(self, capsys, tmp_path):
        path = write_large_entry_system(tmp_path)
        assert run(capsys, "sig", str(path), "--omega", "1/3") == (0, "sigma=2 eta=0\n", "")

    @pytest.mark.parametrize("one", ["1.0", "1"])
    def test_integral_float_next_to_an_entry_beyond_2_53(self, capsys, tmp_path, one):
        path = write_mixed_system(tmp_path / "mixed.json", one)
        assert run(capsys, "sig", str(path), "--omega", "1/2") == (0, "sigma=1 eta=1\n", "")

    @pytest.mark.parametrize("singular, eigh_calls", [(True, 0), (False, 1)],
                             ids=["singular", "nonsingular"])
    def test_dense_rank_40_form_takes_eigh_only_when_nonsingular(
        self, capsys, tmp_path, singular, eigh_calls
    ):
        # H(-1,-1) = 4 (S + S^T) for the one nonzero canonical matrix S.  The
        # singular form's float |det| is below 1/2, so it goes to elimination
        # without the eigh certificate; the nonsingular one has |det| 2^40.
        rng = np.random.default_rng(1)
        if singular:
            form, sigma, eta = known_form(rng, 40, 0)
        else:
            lower, d = unit_lower(rng, 40, 0.5), rng.choice([2, -2], size=40)
            form, sigma, eta = lower @ np.diag(d) @ lower.T, int(d.sum()) // 2, 0
        upper = np.triu(form, 1) + np.diag(np.diag(form) // 2)
        doc = {"mu": 2, "rank": 40, "matrices": {"++": upper.tolist(), "+-": [[0] * 40] * 40}}
        path = tmp_path / "form.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            result = run(capsys, "sig", str(path), "--omega", "1/2,1/2")
        assert result == (0, f"sigma={sigma} eta={eta}\n", "")
        assert (eta > 0) == singular
        assert eigh.call_count == eigh_calls

    def test_nan_eigenvalue_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
        code, out, err = run(capsys, "sig", "C(4,3,2)", "--omega", "1/3,1/3")
        assert (code, out, err) == (2, "", "error: eigenvalue computation returned NaN\n")


class TestScan:
    def test_worked_example_grid(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "scan", "C(4,3,2)", "--res", "31", "--out", str(out_path))
        assert code == 0
        assert "rows=961" in out and "min_eta=0" in out
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 962
        assert lines[0] == "theta_1,theta_2,sigma,eta,absdet"

    def test_worked_example_golden(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run(capsys, "scan", "C(4,3,2)", "--res", "5", "--out", str(out_path))
        assert code == 0
        assert out == "rows=25 min_eta=0 near_zero_det=0\n"
        labels = ["0.166666666667", "0.333333333333", "0.5", "0.666666666667", "0.833333333333"]
        sigma = [
            [0, -2, -2, 0, 0],
            [-2, -2, -2, -2, 0],
            [-2, -2, -2, -2, -2],
            [0, -2, -2, -2, -2],
            [0, 0, -2, -2, 0],
        ]
        expected = [
            [labels[i], labels[j], str(sigma[i][j]), "0"] for i in range(5) for j in range(5)
        ]
        rows = [line.split(",") for line in out_path.read_text().strip().split("\n")[1:]]
        assert [row[:4] for row in rows] == expected

    def test_signed_conway_coefficient(self, capsys, tmp_path):
        signed, plain = tmp_path / "signed.csv", tmp_path / "plain.csv"
        code, out, err = run(capsys, "scan", "C(+4,3,2)", "--res", "5", "--out", str(signed))
        assert (code, out, err) == (0, "rows=25 min_eta=0 near_zero_det=0\n", "")
        run(capsys, "scan", "C(4,3,2)", "--res", "5", "--out", str(plain))
        assert signed.read_bytes() == plain.read_bytes()

    def test_zero_system(self, capsys, tmp_path):
        path = write_zero_system(tmp_path, rank=2)
        out_path = tmp_path / "zero.csv"
        code, out, _ = run(capsys, "scan", str(path), "--res", "2", "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().split("\n")[1:]
        assert len(rows) == 4
        assert all(row.split(",")[3] == "2" for row in rows)

    def test_large_finite_entries_keep_their_inertia(self, capsys, tmp_path):
        path = write_large_entry_system(tmp_path)
        out_path = tmp_path / "large.csv"
        code, out, _ = run(capsys, "scan", str(path), "--res", "4", "--out", str(out_path))
        assert (code, out) == (0, "rows=4 min_eta=0 near_zero_det=0\n")
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert [row[1:3] for row in rows] == [["2", "0"]] * 4

    @pytest.mark.parametrize("one", ["1.0", "1"])
    def test_integral_float_next_to_an_entry_beyond_2_53(self, capsys, tmp_path, one):
        path = write_mixed_system(tmp_path / "mixed.json", one)
        out_path = tmp_path / "mixed.csv"
        code, out, _ = run(capsys, "scan", str(path), "--res", "3", "--out", str(out_path))
        assert (code, out) == (0, "rows=3 min_eta=1 near_zero_det=3\n")
        assert out_path.read_text().splitlines()[2] == "0.5,1,1,0"

    def test_four_colors_rejected(self, capsys, tmp_path):
        path = write_zero_system(tmp_path, mu=4, rank=1)
        code, _, err = run(capsys, "scan", str(path), "--res", "2", "--out", "/dev/null")
        assert code == 2
        assert "3 colors" in err

    def test_bad_resolution(self, capsys, tmp_path):
        code, _, err = run(capsys, "scan", "C(4,3,2)", "--res", "0", "--out", "/dev/null")
        assert code == 2

    def test_deterministic_stdout(self, capsys, tmp_path):
        args = ("scan", "C(4,3,2)", "--res", "5", "--out", str(tmp_path / "s.csv"))
        _, out_a, _ = run(capsys, *args)
        _, out_b, _ = run(capsys, *args)
        assert out_a == out_b

    # numpy raises MemoryError, naming the size, before it allocates anything;
    # the stand-in raises it without allocating either.
    NUMPY_MESSAGE = ("Unable to allocate 149. GiB for an array with shape (100000, 100000) "
                     "and data type complex128")

    @pytest.mark.parametrize(
        "message, error",
        [("", "out of memory"), (NUMPY_MESSAGE, NUMPY_MESSAGE)],
        ids=["bare", "numpy-message"],
    )
    def test_allocation_failure_exits_2(self, capsys, tmp_path, monkeypatch, message, error):
        def torus_scan(system, resolution):
            raise MemoryError(message)

        monkeypatch.setattr(invariants, "torus_scan", torus_scan)
        out_path = tmp_path / "scan.csv"
        code, out, err = run(capsys, "scan", "C(4,3,2)", "--res", "100000", "--out", str(out_path))
        assert (code, out, err) == (2, "", f"error: {error}\n")
        assert not out_path.exists()

    def test_impossible_resolution_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, err = run(
            capsys, "scan", "C(4,3,2)", "--res", "100000000000000000000", "--out", str(out_path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out_path.exists()


class TestBound:
    def test_fixture_by_name(self, capsys):
        code, out, _ = run(capsys, "bound", "split-lt", "L9a29")
        assert code == 0
        assert "value=3" in out and "name=L9a29" in out

    def test_fixture_by_path(self, capsys, tmp_path):
        record = {
            "name": "L12a1622",
            "kind": "lt",
            "mu": 3,
            "omega": ["3/8", "3/8", "3/8"],
            "sigma_L": -4,
            "eta_L": 0,
            "total_lk": 1,
            "components": [{"sigma": 0, "eta": 0}] * 3,
        }
        path = tmp_path / "fix.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        code, out, _ = run(capsys, "bound", "split-lt", str(path))
        assert code == 0
        assert "value=5" in out

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("sigma_L", None, id="sigma_L"),
            pytest.param("eta", None, id="eta"),
            pytest.param("sigma_L", 5.7, id="sigma_L=5.7"),
            pytest.param("sigma_L", True, id="sigma_L=true"),
            pytest.param("eta", 0.5, id="eta=0.5"),
        ],
    )
    def test_fixture_missing_field_exits_2(self, capsys, tmp_path, field, value):
        record = {
            "kind": "lt",
            "mu": 2,
            "sigma_L": 5,
            "eta_L": 0,
            "total_lk": -1,
            "components": [{"sigma": 2, "eta": 0}, {"sigma": 0, "eta": 0}],
        }
        # sigma_L is read by evaluate_fixture, eta by ComponentInvariants.from_records.
        # A value of None deletes the field; any other value replaces it.
        target = record if field in record else record["components"][1]
        if value is None:
            del target[field]
        else:
            target[field] = value
        path = tmp_path / "fix.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        code, out, err = run(capsys, "bound", "split-lt", str(path))
        assert code == 2
        assert out == ""
        assert (f"missing field {field!r}" if value is None else f"field {field!r}") in err

    def test_kind_mismatch(self, capsys):
        code, _, err = run(capsys, "bound", "split-multi", "L9a29")
        assert code == 2
        assert "kind" in err

    def test_inline_lt(self, capsys):
        code, out, _ = run(
            capsys,
            "bound", "split-lt",
            "--mu", "2", "--sigma-l", "5", "--eta-l", "0", "--total-lk", "-1",
            "--component", "2,0", "--component", "0,0",
        )
        assert code == 0
        assert "value=3" in out

    def test_inline_missing_fields(self, capsys):
        code, _, err = run(capsys, "bound", "split-lt", "--mu", "2")
        assert code == 2
        assert "missing required" in err

    @pytest.mark.parametrize(
        "argv, record, error",
        [
            (["split-multi", "--mu", "2", "--sigma-l", "0", "--eta-l", "0",
              "--omega", "1/2,1/2,1/2"], None, "omega has 3 coordinates, expected 2"),
            (["split-lt"], {"kind": "lt", "mu": 2, "total_lk": 1, **THREE_COORDINATE_POINT},
             "omega has 3 coordinates, expected 2"),
            (["rank"], {"kind": "rank", "mu": 2, "beta_est": 0,
                        "samples": [THREE_COORDINATE_POINT]},
             "omega has 3 coordinates, expected 2"),
            (["rank"], {"kind": "rank", "mu": 2, "beta_est": 0,
                        "samples": [{"sigma_L": 0, "eta_L": 0,
                                     "components": [{"sigma": 0, "eta": 0}] * 3}]},
             "component data for 3 colors, expected 2"),
            (["rank"], {"kind": "rank", "mu": 2, "beta_est": 0, "samples": [5]},
             "malformed record: 5 is not an object"),
            (["split-lt"], {"kind": "lt", "mu": 2, "sigma_L": 0, "eta_L": 0, "total_lk": 1,
                            "omega": {"1/2": 0, "1/3": 0}},
             "malformed record: field 'omega': expected a list, got dict"),
            (["split-lt"], {"kind": "lt", "mu": 2, "sigma_L": 0, "eta_L": 0, "total_lk": 1,
                            "omega": "1/2,1/2"},
             "malformed record: field 'omega': expected a list, got str"),
            (["rank"], {"kind": "rank", "mu": 2, "beta_est": 0, "samples": ""},
             "malformed record: field 'samples': expected a list, got str"),
            (["split-multi"], {"kind": "multi", "mu": 2, "sigma_L": 0, "eta_L": 0,
                               "components": {"sigma": 0, "eta": 0}},
             "malformed record: field 'components': expected a list, got dict"),
            (["rank"], {"kind": "rank", "mu": 2, "beta_est": -1, "samples": []},
             "beta_est must be non-negative"),
            (["split-multi", "--mu", "2", "--sigma-l", "0", "--eta-l", "-1"], None,
             "eta_l must be non-negative"),
            (["unlink", "--mu", "2", "--sigma-l", "0", "--eta-l", "-1", "--lk", "1"], None,
             "eta_l must be non-negative"),
            (["linking", "L9a29"], None,
             "formula 'linking' takes inline flags, not a fixture file"),
        ],
        ids=["inline", "fixture", "rank-sample", "rank-sample-components",
             "rank-sample-not-object", "omega-object", "omega-string", "samples-string",
             "components-object", "beta-negative", "split-multi-eta-negative",
             "unlink-eta-negative", "linking-fixture"],
    )
    def test_omega_count_mismatch_exits_2(self, capsys, tmp_path, argv, record, error):
        if record is not None:
            path = tmp_path / "fix.json"
            path.write_text(json.dumps(record), encoding="utf-8")
            argv = argv + [str(path)]
        code, out, err = run(capsys, "bound", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {error}\n"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["linking", "--lk", "1", "--mu", "3"],
             "linking data needs 3 values for mu=3, got 1"),
            (["unlink", "--mu", "3", "--sigma-l", "0", "--eta-l", "0", "--lk", "1"],
             "linking data needs 3 values for mu=3, got 1"),
            # the count is compared before any of the 5e9 pairs is listed
            (["linking", "--lk", "1", "--mu", "100000"],
             "linking data needs 4999950000 values for mu=100000, got 1"),
            (["unlink", "--mu", "100000", "--sigma-l", "0", "--eta-l", "0", "--lk", "1"],
             "linking data needs 4999950000 values for mu=100000, got 1"),
            (["linking", "--lk", "1", "--mu", "-3"], "mu must be at least 1"),
            (["linking", "--lk", "", "--mu", "2"], "linking data needs 1 values for mu=2, got 0"),
        ],
        ids=["linking", "unlink", "linking-mu-100000", "unlink-mu-100000", "linking-mu-negative",
             "linking-empty-mu-2"],
    )
    def test_lk_count_mismatch_exits_2(self, capsys, argv, error):
        code, out, err = run(capsys, "bound", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {error}\n"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["split-lt", "L9a29", "--sigma-l", "99", "--mu", "5"],
             "formula 'split-lt' with a fixture does not read --mu, --sigma-l"),
            (["split-multi", "--mu", "2", "--sigma-l", "-2", "--eta-l", "0", "--lk", "5",
              "--split", "1,2"],
             "formula 'split-multi' does not read --lk, --split"),
            (["linking", "--lk", "1", "--sigma-l", "3", "--component", "1,0"],
             "formula 'linking' does not read --sigma-l, --component"),
            (["unlink", "--mu", "2", "--sigma-l", "-2", "--eta-l", "0", "--lk", "1",
              "--nonsplit", "1,2"],
             "formula 'unlink' does not read --nonsplit"),
        ],
        ids=["split-lt-fixture", "split-multi", "linking", "unlink"],
    )
    def test_unread_flag_exits_2(self, capsys, argv, error):
        code, out, err = run(capsys, "bound", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {error}\n"

    def test_linking_hopf(self, capsys):
        code, out, _ = run(capsys, "bound", "linking", "--lk", "1")
        assert code == 0
        assert "value=1" in out and "lk_parity=odd" in out

    def test_linking_needs_flag_for_zero_pair(self, capsys):
        # the message numbers components from 1, like the pair flags
        for flags, pair in [(["--lk", "0"], "(1, 2)"),
                            (["--lk", "1,0,0", "--nonsplit", "1,2"], "(1, 3)")]:
            code, out, err = run(capsys, "bound", "linking", *flags)
            assert (code, out) == (2, "")
            assert err == (
                f"error: pair {pair} has linking number 0: a split/non-split flag is required\n"
            )

    def test_linking_linked_pair_flagged_split_exits_2(self, capsys):
        code, out, err = run(capsys, "bound", "linking", "--lk", "1", "--split", "1,2")
        assert (code, out) == (2, "")
        assert err == "error: pair (1, 2) has linking number 1: a linked pair cannot be split\n"
        code, out, _ = run(capsys, "bound", "linking", "--lk", "1", "--nonsplit", "1,2")
        assert (code, out) == (0, "formula=linking value=1 total_lk=1 lk_parity=odd\n")

    def test_linking_nonsplit_zero_pair(self, capsys):
        code, out, _ = run(capsys, "bound", "linking", "--lk", "0", "--nonsplit", "1,2")
        assert code == 0
        assert "value=2" in out

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--nonsplit", "1,2", "--split", "2,1"],
             "pair flag (2, 1) is flagged both split and non-split"),
            (["--nonsplit", "2,1", "--split", "1,2"],
             "pair flag (1, 2) is flagged both split and non-split"),
            (["--nonsplit", "1,2", "--split", "1,2"],
             "pair flag (1, 2) is flagged both split and non-split"),
            (["--split", "0,2"], "pair flag (0, 2) names a component outside 1..2"),
            (["--split", "7,9"], "pair flag (7, 9) names a component outside 1..2"),
            (["--nonsplit", "2,2"], "pair flag (2, 2) names component 2 twice"),
            (["--nonsplit", "1"], "pair flags expect 'i,j', got '1'"),
        ],
        ids=["conflict", "conflict-reversed", "conflict-same-order", "component-0",
             "beyond-mu", "same-component", "one-index"],
    )
    def test_linking_bad_pair_flag_exits_2(self, capsys, flags, error):
        code, out, err = run(capsys, "bound", "linking", "--lk", "0", *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: {error}\n"

    def test_rank_fixture(self, capsys):
        code, out, _ = run(capsys, "bound", "rank", "L9a24")
        assert code == 0
        assert "value=3" in out and "additivity_violated=yes" in out

    def test_rank_requires_fixture(self, capsys):
        code, _, err = run(capsys, "bound", "rank")
        assert code == 2

    @pytest.mark.parametrize(
        "formula, value",
        [("split-lt", "100000000000000000000000 total_lk=1"),
         ("split-multi", "99999999999999999999999")],
        ids=["split-lt", "split-multi"],
    )
    def test_oversize_inline_mu_gives_its_bound(self, capsys, formula, value):
        # The unknot default holds mu and zero totals, so no --mu is too large
        # to evaluate and none costs memory in proportion to its size.
        values = ["--sigma-l", "0", "--eta-l", "0", "--total-lk", "1"]
        code, out, err = run(capsys, "bound", formula, "--mu", str(10**23), *values)
        assert (code, out, err) == (0, f"formula={formula} value={value} lk_parity=odd\n", "")
        tracemalloc.start()
        try:
            code = main(["bound", formula, "--mu", str(10**9), *values])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 2**20
        assert capsys.readouterr().out.startswith(f"formula={formula} value=")

    @pytest.mark.parametrize("name", ["L9a29", "L9a24"])
    def test_fixture_without_components_means_unknots(self, capsys, tmp_path, name):
        record = catalog.load_fixture(name)
        points = record["samples"] if "samples" in record else [record]
        for point in points:
            point["components"] = [{"sigma": 0, "eta": 0}] * record["mu"]
        explicit, implicit = tmp_path / "explicit.json", tmp_path / "implicit.json"
        explicit.write_text(json.dumps(record), encoding="utf-8")
        for point in points:
            del point["components"]
        implicit.write_text(json.dumps(record), encoding="utf-8")
        formula = {"lt": "split-lt", "rank": "rank"}[record["kind"]]
        expected = run(capsys, "bound", formula, str(explicit))
        assert expected[0] == 0 and expected[1].startswith(f"name={name} formula={formula} ")
        assert run(capsys, "bound", formula, str(implicit)) == expected

    @pytest.mark.parametrize("mu", ["0", "-3"])
    def test_unknot_default_needs_a_positive_mu(self, capsys, mu):
        code, out, err = run(capsys, "bound", "split-multi", "--mu", mu,
                             "--sigma-l", "0", "--eta-l", "0")
        assert (code, out, err) == (2, "", "error: mu must be at least 1\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["linking", "--lk", "1,x"], "--lk"),
            (["split-lt", "--mu", "2", "--sigma-l", "0", "--eta-l", "0", "--total-lk", "1",
              "--component", "0,0", "--component", "1,x"], "--component"),
            (["linking", "--lk", "1", "--nonsplit", "1,y"], "--nonsplit"),
            # int() reads both as 10.
            (["linking", "--lk", "1_0"], "--lk"),
            (["linking", "--lk", "\u0661\u0660"], "--lk"),
        ],
        ids=["lk", "component", "nonsplit", "lk-underscore", "lk-arabic-indic"],
    )
    def test_malformed_integer_names_its_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, "bound", *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} ")
        assert repr(argv[-1]) in err

    def test_unlink_inline(self, capsys):
        code, out, _ = run(
            capsys, "bound", "unlink", "--mu", "2", "--sigma-l", "0", "--eta-l", "0", "--lk", "1"
        )
        assert code == 0
        assert "raw=2" in out and "value=1" in out

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["unlink", "--mu", "1", "--sigma-l", "2", "--eta-l", "0", "--lk", ""],
             "formula=unlink value=1 raw=2"),
            (["linking", "--lk", ""], "formula=linking value=0 total_lk=0 lk_parity=even"),
        ],
        ids=["unlink-mu-1", "linking"],
    )
    def test_empty_lk_lists_no_pair(self, capsys, argv, expected):
        # mu = 1 has mu(mu-1)/2 = 0 pairwise linking numbers.
        assert run(capsys, "bound", *argv) == (0, f"{expected}\n", "")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["split-lt", "--mu", "2", "--sigma-l", "0", "--eta-l", "0", "--total-lk", "1",
              "--component", ""], "--component expects 'sigma,eta', got ''"),
            (["linking", "--lk", "0", "--nonsplit", ""], "pair flags expect 'i,j', got ''"),
            (["linking", "--lk", "0", "--split", ""], "pair flags expect 'i,j', got ''"),
        ],
        ids=["component", "nonsplit", "split"],
    )
    def test_empty_two_field_value_exits_2(self, capsys, argv, error):
        assert run(capsys, "bound", *argv) == (2, "", f"error: {error}\n")

    def test_negative_first_value_takes_the_equals_form(self, capsys):
        # "--component=-1,1" is one token; main joins "--component -1,1" into it.
        argv = ["split-lt", "--mu", "2", "--sigma-l", "0", "--eta-l", "1", "--total-lk", "1",
                "--component", "1,1", "--component=-1,1", "--omega", "1/6,1/6"]
        expected = "formula=split-lt value=3 omega=1/6,1/6 total_lk=1 lk_parity=odd\n"
        assert run(capsys, "bound", *argv) == (0, expected, "")
        assert run(capsys, "bound", "split-lt", "L12n1367") == (0, f"name=L12n1367 {expected}", "")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["bound", "split-lt", "--mu", "2", "--sigma-l", "0", "--eta-l", "1",
              "--total-lk", "1", "--component", "1,1", "--component", "-1,1",
              "--omega", "1/6,1/6"],
             (0, "formula=split-lt value=3 omega=1/6,1/6 total_lk=1 lk_parity=odd\n", "")),
            (["bound", "linking", "--lk", "-1,0,2", "--nonsplit", "1,3"],
             (0, "formula=linking value=5 total_lk=1 lk_parity=odd\n", "")),
            # The value reaches the angle reader, which names the domain.
            (["sig", "C(4,3,2)", "--omega", "-1/3,1/2"],
             (2, "", "error: angle fraction -1/3 outside (0, 1): "
                     "coordinate would leave the punctured torus\n")),
        ],
        ids=["component", "lk", "omega"],
    )
    def test_negative_first_value_after_a_space(self, capsys, argv, expected):
        # argparse alone reads "-1,1" as an option and exits 2 with "expected one argument".
        assert run(capsys, *argv) == expected


#: Every integer flag that argparse reads: the typed ``bound`` value flags,
#: and ``scan --res``.
INTEGER_FLAGS = [_flag(n) for n, settings in _BOUND_FLAGS.items() if "type" in settings]
INTEGER_FLAGS.append("--res")


def integer_flag_command(flag, tmp_path):
    """A valid command that ends in integer ``flag``, its value still to come.

    A ``bound`` flag goes to the first formula that reads it, with each other
    flag that formula needs set to 1.
    """
    if flag == "--res":
        return ["scan", "C(4,3,2)", "--out", str(tmp_path / "s.csv"), flag]
    name = flag[2:].replace("-", "_")
    formula, needs = next((formula, needs) for formula, (_, needs, optional) in _FORMULAS.items()
                          if name in f"{needs} {optional}".split())
    others = [arg for other in needs.split() if other != name for arg in (_flag(other), "1")]
    return ["bound", formula, *others, flag]


class TestIntegerFlags:
    @pytest.mark.parametrize("token", ["1_0", "\u0663"], ids=["underscore", "arabic-indic"])
    @pytest.mark.parametrize("flag", INTEGER_FLAGS)
    def test_token_that_int_would_read_exits_2(self, capsys, tmp_path, flag, token):
        # int() reads these as 10 and 3.
        with pytest.raises(SystemExit) as exc:
            main(integer_flag_command(flag, tmp_path) + [token])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        error = err.splitlines()[-1]  # the usage line before it names every flag
        assert error.endswith(f"error: argument {flag}: invalid integer value: {token!r}")
        assert "parse_int" not in err  # argparse names the type callable
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("flag", INTEGER_FLAGS)
    def test_sign_and_space_read_as_int_does(self, capsys, tmp_path, flag):
        argv = integer_flag_command(flag, tmp_path)
        expected = run(capsys, *argv, "3")
        assert expected[0] == 0
        for token in ["+3", " 3"]:
            assert run(capsys, *argv, token) == expected
        # "-2" is a value, not an option; flags that take no negative say so.
        assert run(capsys, *argv, "-2") == run(capsys, *argv[:-1], f"{flag}=-2")


class TestTwobridge:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "twobridge", "4,3,2")
        assert code == 0
        assert out.startswith("s=3 sigma=-2 eta=0 bound=3 sp=3")
        assert "agree=yes" in out

    def test_hopf(self, capsys):
        code, out, _ = run(capsys, "twobridge", "2")
        assert code == 0
        assert out.startswith("s=1 sigma=0 eta=0 bound=1 sp=1")

    def test_rank_80_form(self, capsys):
        # H(-1,-1) is negative definite for every form of the family.
        code, out, _ = run(capsys, "twobridge", ",".join(["4,3"] * 40 + ["2"]))
        assert code == 0
        assert out == "s=81 sigma=-80 eta=0 bound=81 sp=81 agree=yes\n"

    def test_unsupported_family(self, capsys):
        code, _, err = run(capsys, "twobridge", "4,3,1,3")
        assert code == 2
        assert "C(2a_1,b_1,...,2a_n)" in err

    def test_empty_coefficient_exits_2(self, capsys):
        for argv in [["twobridge", "4,,3,2"], ["sig", "C(4,3,2,)", "--omega", "1/2,1/2"]]:
            form = argv[1].removeprefix("C(").removesuffix(")")
            error = f"error: invalid Conway form '{form}': invalid literal for int() with base 10: ''"
            assert run(capsys, *argv) == (2, "", error + "\n")

    @pytest.mark.parametrize("form, token", [("4_0,3,2", "4_0"), ("\u0664,3,2", "\u0664")],
                             ids=["underscore", "arabic-indic"])
    def test_coefficient_that_int_would_read_exits_2(self, capsys, form, token):
        # int() reads these as C(40,3,2) and C(4,3,2).
        error = f"error: invalid Conway form {form!r}: invalid literal for int() with base 10: "
        assert run(capsys, "twobridge", form) == (2, "", f"{error}{token!r}\n")

    def test_extra_omega_line(self, capsys):
        code, out, _ = run(capsys, "twobridge", "4,3,2", "--omega", "1/3,1/5")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("omega=1/3,1/5 sigma=")

    def test_angle_that_rounds_to_coordinate_1_exits_2(self, capsys):
        for angle in NEAR_0_OR_1:
            assert run(capsys, "twobridge", "4,3,2", "--omega", f"1/2,{angle}") == (
                2, "", f"error: angle {angle} rounds to the excluded coordinate 1\n"
            )

    def test_deterministic(self, capsys):
        _, out_a, _ = run(capsys, "twobridge", "8,2,4,3,6")
        _, out_b, _ = run(capsys, "twobridge", "8,2,4,3,6")
        assert out_a == out_b


class TestParser:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_formula_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "nonsense"])
        assert exc.value.code == 2

    # The zero test is fixed at DEFAULT_TOL; there is no option to change it.
    @pytest.mark.parametrize(
        "argv",
        [
            ["sig", "C(4,3,2)", "--omega", "1/3,1/3"],
            ["scan", "C(4,3,2)", "--res", "3", "--out", "/dev/null"],
            ["twobridge", "4,3,2"],
        ],
        ids=["sig", "scan", "twobridge"],
    )
    def test_tol_option_is_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: linksig {argv[0]} ")
        assert f"linksig {argv[0]}: error: unrecognized arguments: --tol 1e-3\n" in err


class Parsed(Exception):
    """Raised in place of running a command; carries the namespace that was parsed."""


def parse_outcome(capsys, monkeypatch, call):
    """The namespace that ``call`` parses, with no command run, or, where the
    parse exits, its exit code, stdout and stderr."""
    parse_args = argparse.ArgumentParser.parse_args

    def stop(self, *args, **kwargs):
        raise Parsed(parse_args(self, *args, **kwargs))

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_args", stop)
        try:
            call()
        except Parsed as exc:
            return exc.args[0]
        except SystemExit as exc:
            return (exc.code, *capsys.readouterr())
    raise AssertionError("nothing was parsed")


#: Argument lists that the full parser and ``main`` must read alike: the shapes
#: of the CLI tests' commands (valid, or rejected by the command after the parse),
#: then ``--``, abbreviated and ``=`` flags, a repeated flag, help after a
#: command, a missing or bad value, and what names no command.
PARSE_CORPUS = [
    ["sig", "C(4,3,2)", "--omega", "1/2,1/2"],
    ["sig", "system.json", "--omega", "1/3,1/4"],
    ["sig", "C(4,3,2)", "--omega", "-1/3,1/2"],
    ["sig", "C(4,3,2)", "--omega", "0.5,0.5"],
    ["scan", "C(4,3,2)", "--res", "31", "--out", "scan.csv"],
    ["scan", "system.json", "--out", "/dev/null", "--res", "0"],
    ["bound", "split-lt", "L9a29"],
    ["bound", "split-lt", "fixture.json"],
    ["bound", "split-multi", "L9a29"],
    ["bound", "rank", "L9a24"],
    ["bound", "split-lt", "L9a29", "--sigma-l", "99", "--mu", "5"],
    ["bound", "linking", "--lk", "0", "--nonsplit", "1,2"],
    ["bound", "linking", "--lk", "1,0,0", "--nonsplit", "1,2", "--split", "2,3"],
    ["bound", "linking", "--lk", "-1,0,2", "--nonsplit", "1,3"],
    ["bound", "linking", "--lk", "1", "--mu", "-3"],
    ["bound", "split-lt", "--mu", "2", "--sigma-l", "5", "--eta-l", "0", "--total-lk", "-1",
     "--component", "2,0", "--component", "0,0"],
    ["bound", "split-lt", "--mu", "2", "--sigma-l", "0", "--eta-l", "1", "--total-lk", "1",
     "--component", "1,1", "--component=-1,1", "--omega", "1/6,1/6"],
    ["bound", "split-multi", "--mu", "2", "--sigma-l", "0", "--eta-l", "0",
     "--omega", "1/2,1/2,1/2"],
    ["bound", "unlink", "--mu", "2", "--sigma-l", "0", "--eta-l", "0", "--lk", "1"],
    ["twobridge", "4,3,2"],
    ["twobridge", "2"],
    ["twobridge", "4,3,2", "--omega", "1/3,1/5"],
    ["twobridge", "4,,3,2"],
    ["sig", "--omega", "1/2,1/2", "--", "C(4,3,2)"],
    ["sig", "C(4,3,2)", "--", "--omega", "1/2,1/2"],
    ["bound", "split-lt", "--", "L9a29"],
    ["twobridge", "--", "4,3,2"],
    ["sig", "C(4,3,2)", "--om", "1/2,1/2"],
    ["sig", "C(4,3,2)", "--omega=1/2,1/2"],
    ["sig", "C(4,3,2)", "--om=1/3,1/3"],
    ["twobridge", "4,3,2", "--o", "1/3,1/5"],
    ["bound", "split-lt", "--mu", "2", "--sig", "0", "--eta", "1", "--total", "1",
     "--comp", "-1,1"],
    ["bound", "linking", "--lk", "1", "--s", "1,2"],
    ["sig", "C(4,3,2)", "--omega", "1/3,1/3", "--omega", "1/2,1/2"],
    ["scan", "C(4,3,2)", "--res", "3", "--res", "5", "--out", "scan.csv"],
    ["sig", "-h"],
    ["bound", "split-lt", "-h"],
    ["twobridge", "4,3,2", "--help"],
    ["sig", "C(4,3,2)"],
    ["sig", "C(4,3,2)", "--omega"],
    ["scan", "C(4,3,2)", "--res", "3"],
    ["scan", "C(4,3,2)", "--res", "1_0", "--out", "scan.csv"],
    ["bound"],
    ["bound", "nonsense"],
    [],
    ["-h"],
    ["nonsense"],
    ["--", "sig", "C(4,3,2)", "--omega", "1/2,1/2"],
]

#: Argument lists with an argument that no parser recognizes.
UNRECOGNIZED = [
    ["sig", "C(4,3,2)", "--omega", "1/2,1/2", "extra"],
    ["sig", "C(4,3,2)", "--omega", "1/2,1/2", "--"],
    ["scan", "C(4,3,2)", "--res", "3", "--out", "scan.csv", "--tol", "1e-3"],
    ["bound", "split-lt", "L9a29", "extra"],
    ["twobridge", "4,3,2", "--tol", "1e-3"],
]


class TestOneParse:
    """``main`` hands a command's arguments to that command's parser alone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sig", "C(4,3,2)", "--omega", "1/3,1/3"],
            ["scan", "C(4,3,2)", "--res", "3", "--out", "OUT"],
            ["bound", "split-lt", "L9a29"],
            ["bound", "split-multi", "--mu", "2", "--sigma-l", "-2", "--eta-l", "0"],
            ["twobridge", "4,3,2", "--omega", "1/3,1/5"],
        ],
        ids=["sig", "scan", "bound-fixture", "bound-inline", "twobridge"],
    )
    def test_one_parse_per_command(self, capsys, monkeypatch, tmp_path, argv):
        argv = [str(tmp_path / "s.csv") if token == "OUT" else token for token in argv]
        parses = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def count(self, *args, **kwargs):
            parses.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", count)
        assert main(argv) == 0
        assert parses == [f"linksig {argv[0]}"]

    def test_same_result_as_the_full_parser(self, capsys, monkeypatch):
        corpus = PARSE_CORPUS + [argv for argv, _ in readme_commands()]
        for argv in corpus:
            full = parse_outcome(
                capsys, monkeypatch, lambda: build_parser().parse_args(_negative_values(argv))
            )
            assert parse_outcome(capsys, monkeypatch, lambda: main(argv)) == full, argv

    def test_top_level_cases(self, capsys):
        for argv, code, text in [([], 2, "the following arguments are required: command"),
                                 (["nonsense"], 2, "invalid choice: 'nonsense'"),
                                 (["-h"], 0, "usage: linksig [-h] {sig,scan,bound,twobridge}")]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            assert text in "".join(capsys.readouterr())

    @pytest.mark.parametrize("argv", UNRECOGNIZED, ids=lambda argv: argv[0])
    def test_unrecognized_argument_is_reported_by_the_command(self, capsys, monkeypatch, argv):
        code, out, err = parse_outcome(capsys, monkeypatch, lambda: main(argv))
        full = parse_outcome(
            capsys, monkeypatch, lambda: build_parser().parse_args(_negative_values(argv))
        )
        assert (code, out) == full[:2] == (2, "")
        # Only the usage line and the prog before "error:" differ.
        assert full[2].startswith("usage: linksig [-h] ")
        assert err.startswith(f"usage: linksig {argv[0]} [-h] ")
        message = full[2].split("\nlinksig: error: ", 1)[1]
        assert err.endswith(f"\nlinksig {argv[0]}: error: {message}")


def run_sequence(capsys, commands) -> list[tuple]:
    """(exit code, stdout, stderr) of each command, run one after the other in this process."""
    results = []
    for argv in commands:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        results.append((code, *capsys.readouterr()))
    return results


class TestRepeatedCalls:
    """``main`` reuses one parser per process; no command leaves state for the next."""

    @pytest.mark.parametrize(
        "commands, expected",
        [
            ([["bound", "linking", "--lk", "0", "--nonsplit", "1,2"],
              ["bound", "linking", "--lk", "0"]],
             [(0, "value=2"), (2, "a split/non-split flag is required")]),
            ([["sig", "C(4,3,2)", "--omega"],
              ["sig", "C(4,3,2)", "--omega", "1/3,1/3"]],
             [(2, "expected one argument"), (0, "sigma=-2 eta=0")]),
            ([["bound", "split-lt", "--mu", "2", "--sigma-l", "5", "--eta-l", "0",
               "--total-lk", "-1", "--component", "2,0", "--component", "0,0"],
              ["bound", "split-lt", "--mu", "2", "--sigma-l", "5", "--eta-l", "0",
               "--total-lk", "-1"]],
             [(0, "value=3"), (0, "value=5")]),
        ],
        ids=["append-flags", "argparse-error", "components"],
    )
    def test_sequence_matches_fresh_runs(self, capsys, commands, expected):
        fresh = []
        for argv in commands:
            build_parser.cache_clear()
            fresh += run_sequence(capsys, [argv])
        build_parser.cache_clear()
        parser = build_parser()
        assert run_sequence(capsys, commands) == fresh
        for (code, out, err), (expected_code, text) in zip(fresh, expected):
            assert code == expected_code and text in out + err
        assert build_parser() is parser


#: Entries that a JSON file can hold in place of a small integer: integers past
#: float64, int64 and 2^64, floats at and past the edges, and what is no number.
ODD_ENTRIES = [10**9, 10**12, 2**53 + 1, 2**63, 2**70, 1e308, -1e308, 0.5, float("nan"),
               float("inf"), -float("inf"), True, None, "1", [], [1]]


@st.composite
def system_commands(draw):
    """A system document, sound but for at most two drawn flaws in its fields, its
    pattern keys, its row lengths, its entries, its optional linking matrix or the
    angle count, and the arguments of a ``sig`` (angles) or ``scan`` (a resolution)."""
    flaw = st.sampled_from([None, "fields", "keys", "rows", "entries", "linking", "angles"])
    flaws = {draw(flaw), draw(flaw)}
    mu = draw(st.sampled_from([0, "2", 2.0, True]) if "fields" in flaws else st.integers(1, 4))
    rank = draw(st.sampled_from([-1, "2", 2.5]) if "fields" in flaws else st.integers(0, 4))
    colors = mu if type(mu) is int and mu > 0 else 2
    size = rank if type(rank) is int and rank >= 0 else 2
    entries = st.integers(-3, 3)
    if "entries" in flaws:  # one odd value among the small integers
        entries = st.one_of(entries, st.just(draw(st.sampled_from(ODD_ENTRIES))))
    keys = ["".join(p) for p in itertools.product("+-", repeat=colors) if p[0] == "+"]
    if "keys" in flaws:  # missing, extra and malformed keys
        keys = draw(st.lists(st.sampled_from(keys), unique=True))
        keys += draw(st.lists(st.sampled_from(["-" * colors, "+" * (colors + 1), "", "+x", "1"]),
                              max_size=2))

    def matrix():
        lengths = [draw(st.integers(0, size + 1)) if "rows" in flaws else size
                   for _ in range(size)]
        return [draw(st.lists(entries, min_size=n, max_size=n)) for n in lengths]

    doc = {"mu": mu, "rank": rank, "matrices": {key: matrix() for key in keys}}
    if draw(st.booleans()):
        upper = {(i, j): draw(entries) for i in range(colors) for j in range(i, colors)}
        doc["linking"] = [[upper[min(i, j), max(i, j)] for j in range(colors)]
                          for i in range(colors)]
        if "linking" in flaws:
            doc["linking"][0][-1] = draw(st.sampled_from(ODD_ENTRIES))
    count = draw(st.integers(1, 4)) if "angles" in flaws else colors
    angles = st.sampled_from(["1/3", "1/2", "2/3", "1/6", "5/7", f"1/{10**20}"])
    if draw(st.booleans()):
        return doc, ["scan", "--res", str(draw(st.integers(1, 5)))]
    return doc, ["sig", "--omega", ",".join(draw(st.lists(angles, min_size=count,
                                                           max_size=count)))]


class TestRobustness:
    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(system_commands())
    # Entries at the float range: H(1/3) overflows, where H(1/2) is exact in integers.
    @example(({"mu": 1, "rank": 2, "matrices": {"+": [[1e308, 0], [1, 2]]}},
              ["sig", "--omega", "1/3"]))
    @example(({"mu": 1, "rank": 2, "matrices": {"+": [[1e308, 0], [1, 2]]}},
              ["scan", "--res", "3"]))
    def test_any_system_file_exits_cleanly(self, tmp_path, case):
        """``sig`` and ``scan`` on any system document exit 0, 2 or 3: on 0 with a
        clean stderr, else with nothing on stdout and one message per stderr line."""
        doc, (command, *options) = case
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        if command == "scan":
            options += ["--out", str(tmp_path / "scan.csv")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *options])  # a warning raises: filterwarnings=error
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3)
        assert "Traceback" not in out + err
        if code == 0:
            assert err == ""
        else:
            assert out == "" and err
            assert all(line.startswith(("error: ", "invariant violation: "))
                       for line in err.splitlines())


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README section ``heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"## {heading}", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_commands() -> list[tuple[list[str], str]]:
    """(argv, expected output) of every command in the README "Command line" block.

    A command's expected text follows ``# ->`` on the same line or alone on the next one.
    """
    block = readme_block("Command line", "sh")
    cases = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, expect = line.partition("# ->")
        if command.startswith("linksig "):
            cases.append((shlex.split(command)[1:], expect.strip()))
        elif expect and not command.strip():
            cases[-1] = (cases[-1][0], expect.strip())
    return cases


def test_readme_command_line_examples(capsys, tmp_path):
    cases = readme_commands()
    assert len(cases) >= 10
    for argv, expect in cases:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / "out.csv")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert expect and expect in out, (argv, out)


def test_readme_library_example(capsys):
    block = readme_block("Library example", "python")
    expect = block.rsplit("#", 1)[1].strip()
    assert expect == "-2 0 3"
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == f"{expect}\n"
