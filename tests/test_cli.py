import json

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

    def test_unparseable_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "sig", str(path), "--omega", "1/2,1/2")
        assert code == 2


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
