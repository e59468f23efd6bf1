"""Shipped systems and bound fixtures for the worked examples.

The catalog has two kinds of entries: generalized Seifert systems (full
matrix data, re-evaluated on demand) and bound fixtures (published
invariant values of named links together with the bound they certify).
Every fixture carries its expected bound, and :func:`self_check`, the gate
every CLI command passes, re-evaluates all of them once per process; a
mismatch means the shipped data is corrupt.  A failure is not cached, so
every later call raises again.  The shipped files are read once per process,
and a lookup by name parses only the record it returns.  The gate reads and
validates the shipped systems as Python lists, uncached, and imports no numpy.

:func:`resolve_system` reads a file named on the command line on every
call, but parses, validates and freezes a system's text into read-only
integer arrays once while it is unchanged: the one system cache is keyed on
the text alone, never on a path or a time stamp.  Every call returns a fresh
system over those arrays, and a failure is not cached.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import re
from importlib import resources

from . import bounds, ccomplex

_CONWAY_NAME = re.compile(r"^C\((.*)\)$")


class CatalogError(Exception):
    """Shipped catalog data failed its self-check."""


class InvalidSystem(Exception):
    """A system breaks structural invariants; ``problems`` holds one message each."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@functools.cache
def _texts(kind: str) -> dict[str, str]:
    """Record name to JSON text of each shipped file of ``kind``, read once per process."""
    texts = {}
    shipped = resources.files("linksig") / "data" / kind
    for entry in sorted(shipped.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            text = entry.read_text(encoding="utf-8")
            try:
                texts[ccomplex.parse_record(text).get("name", entry.name)] = text
            except ccomplex.RecordError as exc:
                raise CatalogError(f"{kind}/{entry.name}: {exc}") from exc
    return texts


def fixture_records() -> dict[str, dict]:
    """All shipped bound fixtures, keyed by link name, parsed afresh on every call."""
    return {name: json.loads(text) for name, text in _texts("fixtures").items()}


def fixture_names() -> list[str]:
    return sorted(_texts("fixtures"))


def system_names() -> list[str]:
    return sorted(_texts("systems"))


def _shipped(kind: str, name: str) -> str:
    """The JSON text of the one shipped record ``name`` of ``kind``."""
    texts = _texts(kind + "s")
    if name not in texts:
        raise ValueError(f"unknown {kind} {name!r}; shipped: {', '.join(sorted(texts))}")
    return texts[name]


def load_fixture(name: str) -> dict:
    return json.loads(_shipped("fixture", name))


def load_system(name: str) -> ccomplex.GeneralizedSeifertSystem:
    """The shipped system ``name``, validated, over read-only arrays."""
    return _from_text(_shipped("system", name))


def _checked(system: ccomplex.GeneralizedSeifertSystem) -> ccomplex.GeneralizedSeifertSystem:
    problems = ccomplex.validate(system)
    if problems:
        raise InvalidSystem(problems)
    return system


@functools.lru_cache(maxsize=32)
def _validated(text: str) -> ccomplex.GeneralizedSeifertSystem:
    """The system in a record's JSON text, parsed, validated and frozen into
    read-only :func:`ccomplex.int_array` arrays once per text; a failure is not cached."""
    system = _checked(ccomplex.system_from_dict(ccomplex.parse_record(text)))
    system.matrices = {p: ccomplex.int_array(a) for p, a in system.matrices.items()}
    if system.linking is not None:
        system.linking = ccomplex.int_array(system.linking)
    for array in [*system.matrices.values(), system.linking]:
        if array is not None:
            array.setflags(write=False)
    return system


def _from_text(text: str) -> ccomplex.GeneralizedSeifertSystem:
    """A fresh system over the read-only arrays of ``text``'s validated system."""
    cached = _validated(text)
    return ccomplex.GeneralizedSeifertSystem(
        cached.mu, cached.rank, cached.matrices, cached.linking, copy.deepcopy(cached.name)
    )


def resolve_system(token: str) -> ccomplex.GeneralizedSeifertSystem:
    """Interpret a CLI token as a system: file path, shipped name, or C(...).

    A file is read on every call; its text is parsed and validated once
    while it stays the same.  Conway-form names outside the shipped set are
    built on the fly through the two-bridge construction.  Raises
    :class:`InvalidSystem` when the system fails :func:`ccomplex.validate`.
    """
    if os.path.exists(token):
        text = ccomplex.read_text(token)
        try:
            return _from_text(text)
        except ccomplex.RecordError as exc:
            raise ValueError(f"{token}: {exc}") from exc
    if token in _texts("systems"):
        return load_system(token)
    if match := _CONWAY_NAME.match(token.strip()):
        from . import twobridge

        return _checked(twobridge.build_gss(twobridge.ConwayForm.parse(match.group(1))))
    raise ValueError(
        f"{token!r} is neither a file, a shipped system name, nor a Conway form C(...)"
    )


def resolve_fixture(token: str) -> dict:
    if os.path.exists(token):
        return ccomplex.read_record(token)
    return load_fixture(token)


@functools.cache
def self_check() -> None:
    """Re-evaluate every shipped entry, once per process; raise CatalogError on
    any mismatch or on a shipped record that cannot be read, built or validated.
    A failure is not cached, so every call after one raises again.  The
    shipped systems are validated as Python lists, uncached: the gate imports
    no numpy and adds nothing to the cache that :func:`resolve_system` reads."""
    problems = []
    for name, record in fixture_records().items():
        try:
            report = bounds.evaluate_fixture(record)
            expected = ccomplex.record_field(record, "expected_bound")
        except ValueError as exc:
            problems.append(f"fixture {name}: {exc}")
            continue
        if report.value != expected:
            problems.append(f"fixture {name}: evaluates to {report.value}, expected {expected}")
    for name, text in _texts("systems").items():
        try:
            _checked(ccomplex.system_from_dict(ccomplex.parse_record(text)))
        except InvalidSystem as exc:
            problems.extend(f"system {name}: {problem}" for problem in exc.problems)
        except ValueError as exc:
            problems.append(f"system {name}: {exc}")
    if problems:
        raise CatalogError("; ".join(problems))

