import json
from importlib import resources

import numpy as np
import pytest

from linksig import catalog
from linksig.bounds import evaluate_fixture
from linksig.ccomplex import validate
from linksig.twobridge import ConwayForm, build_gss

from conftest import system_document, write_mixed_system

EXPECTED_BOUNDS = {
    "L9a29": 3,
    "L9a24": 3,
    "L11a372": 5,
    "L12n1367": 3,
    "L12a1622": 5,
    "L12n1326": 3,
    "C(4,3,2)": 3,
}


class TestShippedFixtures:
    def test_names(self):
        assert set(catalog.fixture_names()) == set(EXPECTED_BOUNDS)

    def test_every_fixture_evaluates_to_its_recorded_bound(self):
        for name, record in catalog.fixture_records().items():
            report = evaluate_fixture(record)
            assert report.value == record["expected_bound"] == EXPECTED_BOUNDS[name]

    def test_self_check_passes(self):
        catalog.self_check()

    @pytest.mark.parametrize("expected", [None, 3.5])
    def test_self_check_rejects_bad_expected_bound(self, monkeypatch, expected):
        record = dict(catalog.load_fixture("L9a29"))  # evaluates to 3
        del record["expected_bound"]
        if expected is not None:
            record["expected_bound"] = expected
        monkeypatch.setattr(catalog, "fixture_records", lambda: {"L9a29": record})
        with pytest.raises(catalog.CatalogError, match="expected_bound"):
            catalog.self_check()

    def test_returned_records_share_no_state(self, capsys):
        from linksig.cli import main

        on_disk = json.loads(
            (resources.files("linksig") / "data" / "fixtures" / "L9a29.json").read_text("utf-8")
        )
        argv = ["sig", "C(4,3,2)", "--omega", "1/3,1/3"]
        assert main(argv) == 0
        before = capsys.readouterr().out

        del catalog.fixture_records()["L9a29"]["expected_bound"]
        for record in catalog.fixture_records().values():
            record["sigma_L"] = 99
        catalog.load_fixture("L9a29")["components"].clear()
        system = catalog.load_system("C(4,3,2)")
        with pytest.raises(ValueError, match="read-only"):
            system.matrices[(1, 1)][0, 0] = 7
        system.matrices.clear()

        catalog.self_check.cache_clear()  # check the shipped data again, not the cached pass
        catalog.self_check()
        assert catalog.load_fixture("L9a29") == on_disk
        assert main(argv) == 0
        assert capsys.readouterr().out == before

    def test_lookup_parses_only_the_record_it_returns(self, monkeypatch):
        catalog.fixture_names()  # builds the name-to-text map
        parsed = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
        record = catalog.load_fixture("L9a24")
        assert record["name"] == "L9a24"
        assert len(parsed) == 1

    def test_unknown_fixture(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            catalog.load_fixture("L0a0")


class TestCheckShipped:
    """``cli.main`` checks the shipped catalog once per process, and never caches a failure."""

    ARGV = ["sig", "C(4,3,2)", "--omega", "1/3,1/3"]

    def test_fixtures_are_evaluated_once_per_process(self, monkeypatch, capsys):
        from linksig import bounds
        from linksig.cli import main

        calls = []
        evaluate = bounds.evaluate_fixture
        monkeypatch.setattr(bounds, "evaluate_fixture", lambda r: calls.append(1) or evaluate(r))
        assert main(self.ARGV) == 0
        assert len(calls) == len(EXPECTED_BOUNDS)
        assert main(self.ARGV) == 0
        assert len(calls) == len(EXPECTED_BOUNDS)
        assert capsys.readouterr().out == "sigma=-2 eta=0\n" * 2
        catalog.self_check()
        assert len(calls) == len(EXPECTED_BOUNDS)
        catalog.self_check.cache_clear()
        catalog.self_check()
        catalog.self_check()
        assert len(calls) == 2 * len(EXPECTED_BOUNDS)

    def test_failure_is_reported_on_every_command(self, monkeypatch, capsys):
        from linksig.cli import main

        record = dict(catalog.load_fixture("L9a29"), expected_bound=4)  # evaluates to 3
        monkeypatch.setattr(catalog, "fixture_records", lambda: {"L9a29": record})
        for _ in range(2):
            assert main(self.ARGV) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (
                "catalog self-check failed: fixture L9a29: evaluates to 3, expected 4\n"
            )
        assert catalog.self_check.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "change, problem",
        [
            ({"mu": None}, "malformed record: missing field 'mu'"),
            ({"matrices": {"+x": [[0]]}}, "invalid sign character 'x' in pattern '+x'"),
            ({"matrices": {"": [[0]]}}, "empty sign pattern"),
            ({"matrices": {"++": [[0, 0], [0]], "+-": [[-1, 1], [0, -1]]}},
             "matrix for pattern '++' has shape (2,), expected (2, 2)"),
        ],
        ids=["missing-mu", "bad-pattern", "empty-pattern", "ragged"],
    )
    def test_malformed_shipped_system_exits_3(self, monkeypatch, capsys, change, problem):
        from linksig.cli import main

        texts = catalog._texts
        record = {**json.loads(texts("systems")["C(4,3,2)"]), **change}
        record = {key: value for key, value in record.items() if value is not None}
        shipped = {"fixtures": texts("fixtures"), "systems": {"C(4,3,2)": json.dumps(record)}}
        monkeypatch.setattr(catalog, "_texts", shipped.get)
        assert main(self.ARGV) == 3
        assert capsys.readouterr() == (
            "", f"catalog self-check failed: system C(4,3,2): {problem}\n"
        )

    def test_shipped_file_that_is_not_an_object_exits_3(self, monkeypatch, capsys, tmp_path):
        from linksig.cli import main

        for kind in ("fixtures", "systems"):
            (tmp_path / "data" / kind).mkdir(parents=True)
        (tmp_path / "data" / "fixtures" / "L9a29.json").write_text("[1, 2]", encoding="utf-8")
        monkeypatch.setattr(catalog.resources, "files", lambda package: tmp_path)
        catalog._texts.cache_clear()
        try:
            assert main(self.ARGV) == 3
        finally:
            catalog._texts.cache_clear()
        assert capsys.readouterr() == (
            "", "catalog self-check failed: fixtures/L9a29.json: record must be a JSON object\n"
        )


class TestShippedSystems:
    def test_example_system_valid(self):
        system = catalog.load_system("C(4,3,2)")
        assert validate(system) == []
        assert system.rank == 2

    def test_shipped_system_matches_two_bridge_construction(self):
        shipped = catalog.load_system("C(4,3,2)")
        built = build_gss(ConwayForm.parse("4,3,2"))
        for pattern in shipped.matrices:
            assert np.array_equal(shipped.matrices[pattern], built.matrices[pattern])


class TestResolveSystem:
    def test_resolves_shipped_name(self):
        assert catalog.resolve_system("C(4,3,2)").rank == 2

    def test_resolves_dynamic_conway_name(self):
        system = catalog.resolve_system("C(2,1,2)")
        assert system.rank == 1

    def test_resolves_file(self, tmp_path):
        path = tmp_path / "sys.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(system_document(build_gss(ConwayForm.parse("6"))), handle)
        assert catalog.resolve_system(str(path)).rank == 2

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="neither"):
            catalog.resolve_system("definitely-not-a-system")


class TestSystemCache:
    """``resolve_system`` parses and validates a system's text once while it is unchanged."""

    OMEGA = ["--omega", "1/3,1/3"]

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        catalog._validated.cache_clear()
        yield
        catalog._validated.cache_clear()

    @staticmethod
    def write(path, system):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(system_document(system), handle)
        return str(path)

    def test_rewritten_file_gives_the_new_answer(self, tmp_path, capsys):
        from linksig.ccomplex import GeneralizedSeifertSystem
        from linksig.cli import main

        shipped = catalog.load_system("C(4,3,2)")
        mirror = GeneralizedSeifertSystem(
            shipped.mu, shipped.rank, {p: -a for p, a in shipped.matrices.items()}
        )
        path = self.write(tmp_path / "sys.json", shipped)
        assert main(["sig", path, *self.OMEGA]) == 0
        self.write(path, mirror)
        assert main(["sig", path, *self.OMEGA]) == 0
        self.write(path, shipped)
        assert main(["sig", path, *self.OMEGA]) == 0
        assert capsys.readouterr().out == "sigma=-2 eta=0\nsigma=2 eta=0\nsigma=-2 eta=0\n"

    def test_same_text_at_two_paths_gives_equal_results(self, tmp_path):
        system = build_gss(ConwayForm.parse("2,1,4"))
        first = catalog.resolve_system(self.write(tmp_path / "a.json", system))
        second = catalog.resolve_system(self.write(tmp_path / "b.json", system))
        assert system_document(first) == system_document(second) == system_document(system)
        assert catalog._validated.cache_info().currsize == 1

    @pytest.mark.parametrize("file_route", [True, False])
    def test_unchanged_text_is_not_parsed_or_validated_again(
        self, tmp_path, monkeypatch, file_route
    ):
        from linksig import ccomplex

        token = "C(4,3,2)"
        if file_route:
            token = self.write(tmp_path / "sys.json", catalog.load_system(token))
        calls = {"system_from_dict": 0, "validate": 0}
        for name in calls:
            original = getattr(ccomplex, name)

            def counted(arg, name=name, original=original):
                calls[name] += 1
                return original(arg)

            monkeypatch.setattr(ccomplex, name, counted)
        catalog.resolve_system(token)
        assert calls == {"system_from_dict": 1, "validate": 1}
        catalog.resolve_system(token)
        assert calls == {"system_from_dict": 1, "validate": 1}

    def test_gate_caches_no_system(self):
        catalog.self_check.cache_clear()  # run the gate's checks, not its cached pass
        catalog.self_check()
        assert catalog._validated.cache_info().currsize == 0

    def test_invalid_system_exits_3_on_every_call(self, tmp_path, capsys):
        from linksig.cli import main

        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"mu": 2, "rank": 2, "matrices": {"++": [[0, 0], [0, -2]]}}),
            encoding="utf-8",
        )
        errors = []
        for _ in range(3):
            assert main(["sig", str(path), *self.OMEGA]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(err)
        assert errors == ["invariant violation: missing matrix for canonical pattern '+-'\n"] * 3
        # Failures are not cached, and the catalog gate caches nothing.
        assert catalog._validated.cache_info().currsize == 0

    def test_crlf_json_error_matches_read_record(self, tmp_path, capsys):
        from linksig.ccomplex import read_record
        from linksig.cli import main

        path = tmp_path / "crlf.json"
        path.write_bytes(b'{\r\n  "mu": 2,\r\n  "rank": 2,\r\n  "matrices": {,}\r\n}\r\n')
        with pytest.raises(ValueError) as expected:
            read_record(path)
        # Text mode turns each \r\n into \n, which moves the reported offset.
        with pytest.raises(ValueError) as from_bytes:
            json.loads(path.read_bytes())
        assert str(from_bytes.value) not in str(expected.value)
        for _ in range(2):
            assert main(["sig", str(path), *self.OMEGA]) == 2
            assert capsys.readouterr().err == f"error: {expected.value}\n"

    def test_returned_systems_share_no_writable_state(self, tmp_path):
        system = build_gss(ConwayForm.parse("4,3,2"))
        system.linking = np.array([[0, 1], [1, 0]])
        system.name = ["C(4,3,2)", "with linking"]
        path = self.write(tmp_path / "sys.json", system)
        expected = system_document(system)

        resolved = catalog.resolve_system(path)
        for array in [*resolved.matrices.values(), resolved.linking]:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 5
        resolved.name.append("changed")
        resolved.matrices.clear()
        resolved.linking = None
        assert system_document(catalog.resolve_system(path)) == expected
        resolved = catalog.resolve_system(path)
        resolved.name = "renamed"
        resolved.matrices = {}
        assert system_document(catalog.resolve_system(path)) == expected

    def test_integral_floats_freeze_as_integer_arrays(self, tmp_path):
        resolved = catalog.resolve_system(str(write_mixed_system(tmp_path / "mixed.json")))
        (array,) = resolved.matrices.values()
        assert array.dtype.kind == "i" and not array.flags.writeable
        assert array.tolist() == [[1, 268435458], [0, 18014398777917441]]

    def test_no_command_writes_into_a_resolved_system(self, tmp_path, capsys):
        """The arrays are read-only, so any write from ``src/`` would raise and exit 2."""
        from linksig import ccomplex
        from linksig.cli import main
        from linksig.invariants import signature_nullity, torus_scan

        system = build_gss(ConwayForm.parse("4,3,2"))
        system.linking = np.array([[0, -1], [-1, 0]])
        path = self.write(tmp_path / "sys.json", system)
        out = str(tmp_path / "scan.csv")
        for argv in (
            ["sig", path, "--omega", "1/2,1/2"],
            ["sig", path, *self.OMEGA],
            ["scan", path, "--res", "7", "--out", out],
        ):
            assert main(argv) == 0, capsys.readouterr().err
        resolved = catalog.resolve_system(path)
        omega = ccomplex.TorusPoint.of("1/5", "2/7")
        assert signature_nullity(resolved, omega) == signature_nullity(system, omega)
        assert np.array_equal(ccomplex.h_at_minus_ones(resolved), ccomplex.h_at_minus_ones(system))
        assert resolved.total_linking() == -1
        assert np.array_equal(torus_scan(resolved, 5).sigma, torus_scan(system, 5).sigma)
