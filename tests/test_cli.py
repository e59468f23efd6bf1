import json
import shlex
from pathlib import Path

import pytest

from linksig import cli
from linksig.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_zero_system(self, capsys, tmp_path):
        path = write_zero_system(tmp_path, rank=2)
        out_path = tmp_path / "zero.csv"
        code, out, _ = run(capsys, "scan", str(path), "--res", "2", "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().split("\n")[1:]
        assert len(rows) == 4
        assert all(row.split(",")[3] == "2" for row in rows)

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

        monkeypatch.setattr(cli, "torus_scan", torus_scan)
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
        ],
        ids=["inline", "fixture", "rank-sample", "rank-sample-components",
             "rank-sample-not-object"],
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
        ],
        ids=["linking", "unlink", "linking-mu-100000", "unlink-mu-100000", "linking-mu-negative"],
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
        ],
        ids=["conflict", "conflict-reversed", "conflict-same-order", "component-0",
             "beyond-mu", "same-component"],
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

    @pytest.mark.parametrize("formula", ["split-lt", "split-multi"])
    def test_oversize_inline_mu_exits_2(self, capsys, formula):
        code, out, err = run(
            capsys, "bound", formula, "--mu", "100000000000000000000000",
            "--sigma-l", "0", "--eta-l", "0", "--total-lk", "1",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_unlink_inline(self, capsys):
        code, out, _ = run(
            capsys, "bound", "unlink", "--mu", "2", "--sigma-l", "0", "--eta-l", "0", "--lk", "1"
        )
        assert code == 0
        assert "raw=2" in out and "value=1" in out


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

    def test_extra_omega_line(self, capsys):
        code, out, _ = run(capsys, "twobridge", "4,3,2", "--omega", "1/3,1/5")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("omega=1/3,1/5 sigma=")

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
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


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


def readme_commands() -> list[tuple[list[str], str]]:
    """(argv, expected output) of every command in the README "Command line" block.

    A command's expected text follows ``# ->`` on the same line or alone on the next one.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
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
