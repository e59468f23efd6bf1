"""Shipped systems and bound fixtures for the worked examples.

The catalog has two kinds of entries: generalized Seifert systems (full
matrix data, re-evaluated on demand) and bound fixtures (published
invariant values of named links together with the bound they certify).
Every fixture carries its expected bound, and :func:`self_check`
re-evaluates all of them; a mismatch means the shipped data is corrupt.
"""

from __future__ import annotations

import json
import os
import re
from importlib import resources

from . import bounds, ccomplex, twobridge

_CONWAY_NAME = re.compile(r"^C\(([-0-9,\s]+)\)$")


class CatalogError(Exception):
    """Shipped catalog data failed its self-check."""


class InvalidSystem(Exception):
    """A system breaks structural invariants; ``problems`` holds one message each."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def _data_dir(kind: str):
    return resources.files("linksig").joinpath("data").joinpath(kind)


def _load_json_resources(kind: str) -> dict[str, dict]:
    out = {}
    for entry in sorted(_data_dir(kind).iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        record = json.loads(entry.read_text(encoding="utf-8"))
        out[record.get("name", entry.name)] = record
    return out


def fixture_records() -> dict[str, dict]:
    """All shipped bound fixtures, keyed by link name."""
    return _load_json_resources("fixtures")


def system_records() -> dict[str, dict]:
    return _load_json_resources("systems")


def fixture_names() -> list[str]:
    return sorted(fixture_records())


def system_names() -> list[str]:
    return sorted(system_records())


def _shipped(records: dict[str, dict], kind: str, name: str) -> dict:
    if name not in records:
        raise ValueError(f"unknown {kind} {name!r}; shipped: {', '.join(sorted(records))}")
    return records[name]


def load_fixture(name: str) -> dict:
    return _shipped(fixture_records(), "fixture", name)


def load_system(name: str) -> ccomplex.GeneralizedSeifertSystem:
    return ccomplex.system_from_dict(_shipped(system_records(), "system", name))


def resolve_system(token: str) -> ccomplex.GeneralizedSeifertSystem:
    """Interpret a CLI token as a system: file path, shipped name, or C(...).

    Conway-form names outside the shipped set are built on the fly through
    the two-bridge construction.  Raises :class:`InvalidSystem` when the
    system fails :func:`ccomplex.validate`.
    """
    if os.path.exists(token):
        system = ccomplex.load_system(token)
    elif token in (records := system_records()):
        system = ccomplex.system_from_dict(records[token])
    elif match := _CONWAY_NAME.match(token.strip()):
        system = twobridge.build_gss(twobridge.ConwayForm.parse(match.group(1)))
    else:
        raise ValueError(
            f"{token!r} is neither a file, a shipped system name, nor a Conway form C(...)"
        )
    problems = ccomplex.validate(system)
    if problems:
        raise InvalidSystem(problems)
    return system


def resolve_fixture(token: str) -> dict:
    if os.path.exists(token):
        return ccomplex.read_record(token)
    return load_fixture(token)


def self_check() -> None:
    """Re-evaluate every shipped entry; raise CatalogError on any mismatch."""
    problems = []
    for name, record in fixture_records().items():
        try:
            report = bounds.evaluate_fixture(record)
            expected = ccomplex.record_field(record, "expected_bound")
        except ValueError as exc:
            problems.append(f"fixture {name}: {exc}")
            continue
        if report.value != expected:
            problems.append(
                f"fixture {name}: evaluates to {report.value}, expected {expected}"
            )
    for name, record in system_records().items():
        system = ccomplex.system_from_dict(record)
        for violation in ccomplex.validate(system):
            problems.append(f"system {name}: {violation}")
    if problems:
        raise CatalogError("; ".join(problems))
