import json
from importlib import resources

import numpy as np
import pytest

from linksig import catalog
from linksig.bounds import evaluate_fixture
from linksig.ccomplex import validate
from linksig.twobridge import ConwayForm, build_gss

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
        catalog.system_records()["C(4,3,2)"]["matrices"]["++"][0][0] = 7

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
        assert catalog.check_shipped.cache_info().currsize == 0


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
        from linksig.ccomplex import save_system

        path = tmp_path / "sys.json"
        save_system(build_gss(ConwayForm.parse("6")), path)
        assert catalog.resolve_system(str(path)).rank == 2

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="neither"):
            catalog.resolve_system("definitely-not-a-system")
