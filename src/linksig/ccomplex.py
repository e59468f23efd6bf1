"""Colored links presented by generalized Seifert matrices.

A mu-colored link evaluated through a C-complex is described here purely by
matrix data: for every sign pattern eps in {+1, -1}^mu there is an integer
matrix A^eps of linking numbers between basis cycles and their push-offs,
subject to the structural identity A^(-eps) = (A^eps)^T.  Only the 2^(mu-1)
patterns whose first sign is + are stored; the rest are recovered by
transposition, which makes the identity hold by construction instead of by
bookkeeping.

From this data the Hermitian matrix

    H(omega) = sum_eps  prod_i (1 - conj(omega_i)^eps_i) * A^eps

is assembled at any point omega of the torus with no coordinate equal to 1.
Its signature and nullity are the multivariable link invariants consumed by
the rest of the package.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import cos, pi, sin
from typing import Iterable, Mapping

import numpy as np

from .hermitian import exact_int, exact_int_rows

SignPattern = tuple[int, ...]

_HALF = Fraction(1, 2)
#: The exact coordinates at 1/4, 1/2 and 3/4 turn; each zero part is +0.0, unlike that of -1j.
_EXACT = {Fraction(1, 4): complex(0, 1), _HALF: complex(-1, 0), Fraction(3, 4): complex(0, -1)}
#: Angles are ASCII p/q, q not 0, with an optional sign; an exponent form counts as decimal.
_ANGLE = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")
_EXPONENT = re.compile(r"[+-]?[0-9]+[eE][+-]?[0-9]+")


def canonical_patterns(mu: int) -> tuple[SignPattern, ...]:
    """The 2^(mu-1) sign patterns whose first sign is +1, in fixed order."""
    if mu < 1:
        raise ValueError("mu must be at least 1")
    return tuple((1,) + rest for rest in itertools.product((1, -1), repeat=mu - 1))


def pattern_from_string(text: str) -> SignPattern:
    """Parse a pattern key such as ``"+-"`` into a tuple of signs."""
    signs = []
    for ch in text:
        if ch == "+":
            signs.append(1)
        elif ch == "-":
            signs.append(-1)
        else:
            raise ValueError(f"invalid sign character {ch!r} in pattern {text!r}")
    if not signs:
        raise ValueError("empty sign pattern")
    return tuple(signs)


def pattern_to_string(pattern: SignPattern) -> str:
    return "".join("+" if s > 0 else "-" for s in pattern)


def _parse_fraction(text: str) -> Fraction:
    # Decimal angles are rejected on purpose: reproducibility wants exact
    # fractions of a full turn ("1/2" for -1, "1/6" for exp(i*pi/3), ...).
    # Fraction() alone would also take exponents, underscores and non-ASCII digits.
    item = str(text).strip()
    if "." in item or _EXPONENT.fullmatch(item):
        raise ValueError(f"decimal angle {item!r} rejected, use an exact fraction p/q")
    if not _ANGLE.fullmatch(item):
        raise ValueError(f"invalid fraction {item!r}")
    return Fraction(item)


def torus_coordinate(q: Fraction) -> complex:
    """exp(2*pi*1j*q), exact at 1/4, 1/2 and 3/4; ``ValueError`` where float(q) is 0 or 1."""
    if (value := _EXACT.get(q)) is not None:
        return value
    if not 0.0 < (turns := float(q)) < 1.0:
        raise ValueError(f"angle {q} rounds to the excluded coordinate 1")
    angle = 2.0 * pi * turns
    return complex(cos(angle), sin(angle))


@dataclass(frozen=True)
class TorusPoint:
    """A point omega in the torus, one exact angle fraction per color.

    Coordinate i is ``exp(2*pi*1j*fractions[i])`` with ``0 < q < 1``, so no
    coordinate can equal 1.
    """

    fractions: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.fractions:
            raise ValueError("torus point needs at least one coordinate")
        for q in self.fractions:
            if not isinstance(q, Fraction):
                raise ValueError(f"coordinate {q!r} is not an exact fraction")
            if not 0 < q < 1:
                raise ValueError(
                    f"angle fraction {q} outside (0, 1): coordinate would leave the "
                    "punctured torus"
                )

    @classmethod
    def of(cls, *fractions) -> "TorusPoint":
        return cls(tuple(Fraction(q) for q in fractions))

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "TorusPoint":
        return cls(tuple(_parse_fraction(s) for s in items))

    @classmethod
    def minus_ones(cls, mu: int) -> "TorusPoint":
        return cls((_HALF,) * mu)

    @classmethod
    def diagonal(cls, q, mu: int) -> "TorusPoint":
        return cls((Fraction(q),) * mu)

    @property
    def mu(self) -> int:
        return len(self.fractions)

    def is_minus_ones(self) -> bool:
        return all(q == _HALF for q in self.fractions)

    def values(self) -> tuple[complex, ...]:
        return tuple(torus_coordinate(q) for q in self.fractions)

    def __str__(self):
        return ",".join(str(q) for q in self.fractions)


def _as_array(value) -> np.ndarray:
    """``np.asarray(value)``, kept as Python objects when numpy refuses ragged
    rows, or when a nested list holds a boolean: numpy would turn ``True``
    among numbers into 1.  Either way :func:`validate` sees and reports it.
    """
    try:
        array = np.asarray(value)
    except ValueError:
        return np.array(value, dtype=object)
    if array.ndim == 2 and isinstance(value, list):
        if any(isinstance(x, bool) for row in value for x in row):
            return np.asarray(value, dtype=object)
    return array


class GeneralizedSeifertSystem:
    """A colored link given by its canonical family of Seifert matrices.

    Parameters
    ----------
    mu: number of colors (at least 1).
    rank: dimension n of the matrices (rank of H_1 of the C-complex).
    matrices: mapping from canonical sign patterns (tuples or strings such
        as ``"+-"``) to n x n integer matrices.
    linking: optional symmetric mu x mu integer matrix of pairwise total
        linking numbers between colors; the diagonal is ignored.
    name: optional display name.

    Construction is permissive: structural problems are reported by
    :func:`validate`, not raised here, so that malformed files can be
    loaded and diagnosed.
    """

    def __init__(self, mu, rank, matrices, linking=None, name=None):
        self.mu = exact_int(mu)
        self.rank = exact_int(rank)
        normalized = {}
        for key, value in dict(matrices).items():
            pattern = pattern_from_string(key) if isinstance(key, str) else tuple(key)
            array = _as_array(value)
            if array.size == 0:
                array = array.reshape(0, 0)
            normalized[pattern] = array
        self.matrices = normalized
        self.linking = None if linking is None else _as_array(linking)
        self.name = name

    def total_linking(self) -> int:
        if self.linking is None:
            raise ValueError("no linking data on this system")
        # Python ints: a sum of int64 entries can wrap.
        lk = exact_int_rows(self.linking)
        return sum(lk[i][j] for i in range(self.mu) for j in range(i + 1, self.mu))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<GeneralizedSeifertSystem{label} mu={self.mu} rank={self.rank}>"


def _integral(array: np.ndarray) -> bool:
    try:
        exact_int_rows(array)
    except ValueError:
        return False
    return True


def validate(gss: GeneralizedSeifertSystem) -> list[str]:
    """Check every structural invariant; return one message per violation."""
    problems: list[str] = []
    if gss.mu < 1:
        problems.append(f"mu must be at least 1, got {gss.mu}")
        return problems
    if gss.rank < 0:
        problems.append(f"rank must be non-negative, got {gss.rank}")

    present = set(gss.matrices)
    # 2^(mu-1) > 2 * held, tested before any pattern is listed: more matrices
    # are missing than held, and one message stands for the list.
    if gss.mu - 1 >= (2 * len(present)).bit_length():
        problems.append(
            f"mu={gss.mu} needs 2^{gss.mu - 1} canonical matrices, the system has {len(present)}"
        )
        return problems
    expected = set(canonical_patterns(gss.mu))
    for pattern in sorted(expected - present, reverse=True):
        problems.append(f"missing matrix for canonical pattern '{pattern_to_string(pattern)}'")
    for pattern in sorted(present - expected, reverse=True):
        if not set(pattern) <= {1, -1}:
            problems.append(f"pattern {pattern} has a sign other than +1 or -1")
            continue
        label = pattern_to_string(pattern)
        if len(pattern) != gss.mu:
            problems.append(f"pattern '{label}' has length {len(pattern)}, expected {gss.mu}")
        else:
            problems.append(f"pattern '{label}' is not canonical (first sign must be +)")

    for pattern in sorted(expected & present, reverse=True):
        a = gss.matrices[pattern]
        label = pattern_to_string(pattern)
        if a.ndim != 2 or a.shape != (gss.rank, gss.rank):
            problems.append(
                f"matrix for pattern '{label}' has shape {a.shape}, expected "
                f"({gss.rank}, {gss.rank})"
            )
            continue
        if not _integral(a):
            problems.append(f"matrix for pattern '{label}' has non-integer entries")

    if gss.linking is not None:
        lk = gss.linking
        if lk.shape != (gss.mu, gss.mu):
            problems.append(f"linking matrix has shape {lk.shape}, expected ({gss.mu}, {gss.mu})")
        elif not _integral(lk):
            problems.append("linking matrix has non-integer entries")
        elif not np.array_equal(lk, lk.T):
            problems.append("linking matrix is not symmetric")

    return problems


def assemble_stack(gss: GeneralizedSeifertSystem, values: np.ndarray) -> np.ndarray:
    """H at many torus points at once.

    Row k of ``values`` holds the mu coordinates of point k on the unit
    circle.  Returns the (N, n, n) stack of H: the (N, 2^mu) coefficients,
    multiplied out coordinate by coordinate, contracted with the 2^mu
    matrices A^eps stacked and flattened to shape (2^mu, n*n).  Only the
    canonical half of each is built: -eps runs over the canonical patterns
    backwards, and A^(-eps) = (A^eps)^T has the conjugate coefficient.
    """
    w = np.asarray(values, dtype=complex).T[:, None, :]
    if len(w) != gss.mu:
        raise ValueError(f"torus point has {len(w)} coordinates, system has {gss.mu} colors")
    patterns = canonical_patterns(gss.mu)
    signs = (np.array(patterns) > 0).T[:, :, None]
    # conj(w)^sign on the unit circle: conj(w) for +, w itself for -.
    factors = np.where(signs, 1.0 - w.conj(), 1.0 - w)
    coefficients = factors[0]
    for factor in factors[1:]:
        coefficients = coefficients * factor
    coefficients = np.concatenate([coefficients, coefficients[::-1].conj()])
    try:
        stack = np.array([gss.matrices[p] for p in patterns], dtype=complex)
    except OverflowError as exc:
        raise ValueError(f"matrix entries beyond floating-point range: {exc}") from None
    stack = np.concatenate([stack, stack[::-1].swapaxes(1, 2)])
    flat = stack.reshape(2 * len(patterns), gss.rank * gss.rank)
    return (coefficients.T @ flat).reshape(w.shape[-1], gss.rank, gss.rank)


def assemble_h(gss: GeneralizedSeifertSystem, omega: TorusPoint) -> np.ndarray:
    """The Hermitian matrix H(omega) of the system at a torus point."""
    return assemble_stack(gss, np.array([omega.values()]))[0]


def h_at_minus_ones(gss: GeneralizedSeifertSystem) -> np.ndarray:
    """Exact integer H at omega = (-1, ..., -1).

    Every factor (1 - conj(omega_i)^eps_i) equals 2 there, so the value is
    2^mu times the sum of the full matrix family.  The sum runs in int64
    when the largest entry proves that it cannot wrap, and in Python
    integers (an object array) otherwise.
    """
    n = gss.rank
    matrices = [np.asarray(gss.matrices[p]) for p in canonical_patterns(gss.mu)]
    largest = max(
        (max(-exact_int(a.min()), exact_int(a.max())) for a in matrices if a.size), default=0
    )
    # Every entry of the result is at most 2^mu * 2 * len(matrices) * largest.
    if (largest * 2 * len(matrices)) << gss.mu <= np.iinfo(np.int64).max:
        total = np.zeros((n, n), dtype=np.int64)
        for a in matrices:
            a = a.astype(np.int64)
            total += a + a.T
    else:
        total = np.zeros((n, n), dtype=object)
        for a in matrices:
            a = np.array(exact_int_rows(a), dtype=object)
            total += a + a.T
    return (2**gss.mu) * total


def record_field(record: Mapping, key: str, convert=exact_int):
    """``convert(record[key])``; ``ValueError`` naming the field if missing or malformed."""
    try:
        value = record[key]
    except (KeyError, TypeError):
        raise ValueError(f"malformed record: missing field {key!r}") from None
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed record: field {key!r}: {exc}") from None


def system_from_dict(doc: Mapping) -> GeneralizedSeifertSystem:
    """Build a system from the JSON document format.

    Only syntactic problems raise here; structural ones (wrong shapes,
    missing patterns) are left for :func:`validate` to report.
    """
    mu, rank = record_field(doc, "mu"), record_field(doc, "rank")
    matrices = doc.get("matrices")
    if not isinstance(matrices, Mapping):
        raise ValueError("'matrices' must be an object keyed by sign patterns")
    return GeneralizedSeifertSystem(
        mu=mu,
        rank=rank,
        matrices=matrices,
        linking=doc.get("linking"),
        name=doc.get("name"),
    )


class RecordError(ValueError):
    """Text that is not a JSON object; the message does not name the file."""


def read_text(path) -> str:
    """A file's text, read in text mode: ``\\r\\n`` becomes ``\\n``."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def parse_record(text: str) -> dict:
    """The JSON object in ``text``; :class:`RecordError` for invalid JSON or a non-object."""
    try:
        record = json.loads(text)
    except ValueError as exc:
        raise RecordError(f"invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise RecordError("record must be a JSON object")
    return record


def read_record(path) -> dict:
    """The JSON object in a file; ``ValueError`` for invalid JSON or a non-object."""
    text = read_text(path)
    try:
        return parse_record(text)
    except RecordError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_system(path) -> GeneralizedSeifertSystem:
    return system_from_dict(read_record(path))
