import json
import shlex
from pathlib import Path

import pytest

from linksig.cli import main


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
        code, _, err = run(capsys, command, system, "--omega", "1/2,1/2,1/2")
        assert code == 2
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
        "argv",
        [
            ["linking", "--lk", "1", "--mu", "3"],
            ["unlink", "--mu", "3", "--sigma-l", "0", "--eta-l", "0", "--lk", "1"],
        ],
        ids=["linking", "unlink"],
    )
    def test_lk_count_mismatch_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "bound", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: linking data needs 3 values for mu=3, got 1\n"

    def test_linking_hopf(self, capsys):
        code, out, _ = run(capsys, "bound", "linking", "--lk", "1")
        assert code == 0
        assert "value=1" in out and "lk_parity=odd" in out

    def test_linking_needs_flag_for_zero_pair(self, capsys):
        code, _, err = run(capsys, "bound", "linking", "--lk", "0")
        assert code == 2
        assert "flag" in err

    def test_linking_nonsplit_zero_pair(self, capsys):
        code, out, _ = run(capsys, "bound", "linking", "--lk", "0", "--nonsplit", "1,2")
        assert code == 0
        assert "value=2" in out

    def test_rank_fixture(self, capsys):
        code, out, _ = run(capsys, "bound", "rank", "L9a24")
        assert code == 0
        assert "value=3" in out and "additivity_violated=yes" in out

    def test_rank_requires_fixture(self, capsys):
        code, _, err = run(capsys, "bound", "rank")
        assert code == 2

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
