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

    def test_unknown_fixture(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            catalog.load_fixture("L0a0")


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
