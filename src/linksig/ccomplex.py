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

A system stores its matrices as given, nested lists or arrays alike, and
:func:`validate` reads either as Python rows.  :func:`int_array` is the one
exact reader of matrix data into an array; the float route
(:func:`assemble_stack`) is the other.  Only the functions that build arrays
import numpy, so reading and validating a system loads none.
"""

from __future__ import annotations

import itertools
import json
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from math import cos, pi, sin
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    import numpy as np

SignPattern = tuple[int, ...]

_HALF = Fraction(1, 2)
#: The exact coordinates at 1/4, 1/2 and 3/4 turn, keyed on ``as_integer_ratio()``, which
#: a float gives too and which spares hashing a Fraction (it does not cache its hash);
#: each zero part is +0.0, unlike that of -1j.
_EXACT = {(1, 4): complex(0, 1), (1, 2): complex(-1, 0), (3, 4): complex(0, -1)}
#: Angles are ASCII p/q, q not 0, with an optional sign; an exponent form counts as decimal.
_ANGLE = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")
_EXPONENT = re.compile(r"[+-]?[0-9]+[eE][+-]?[0-9]+")


def exact_int(value) -> int:
    """``value`` as a Python int, provided it is exactly an integer.

    Accepts integers (Python's and numpy's, which numpy registers as
    ``numbers.Integral``), finite integral floats and complex values with
    zero imaginary part.  Raises ``ValueError`` for booleans, fractions,
    decimals, text, ``None``, non-finite and fractional values.
    """
    if type(value) is int:  # the common case, without an ABC check
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    # A Fraction is Real too, and has is_integer from Python 3.12 on.
    if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Rational):
        if value.imag == 0 and value.real.is_integer():
            return int(value.real)
    raise ValueError(f"non-integer value {value!r}")


def shape_of(value) -> tuple[int, ...]:
    """The shape numpy reads in ``value``: an array's own, and nested lists
    and tuples as deep as all their items agree (ragged rows stop one level up)."""
    if hasattr(value, "shape"):
        return tuple(value.shape)
    if not isinstance(value, (list, tuple)):
        return ()
    shapes = set(map(shape_of, value))
    return (len(value), *shapes.pop()) if len(shapes) == 1 else (len(value),)


def exact_int_rows(matrix) -> list[list[int]]:
    """The rows of a square matrix, nested lists or an array, as Python ints,
    each read by :func:`exact_int`."""
    shape = shape_of(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    if hasattr(matrix, "tolist"):
        if matrix.dtype.kind in "iu":  # an integer array lists Python ints
            return matrix.tolist()
        matrix = matrix.tolist()
    return [list(map(exact_int, row)) for row in matrix]


def int_array(matrix) -> np.ndarray:
    """A square integer matrix as an array, read exactly: an integer array as it
    is, anything else by :func:`exact_int_rows` into int64, or into Python ints
    (an object array) beyond int64, never into floats.  A matrix without
    entries reads as 0 x 0, as in :func:`validate`."""
    import numpy as np

    if hasattr(matrix, "dtype") and matrix.dtype.kind in "iu":
        return matrix
    rows = [] if 0 in shape_of(matrix) else exact_int_rows(matrix)
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), len(rows))
    except OverflowError:
        return np.array(rows, dtype=object)


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


def parse_int(text: str) -> int:
    """int(text) in ASCII digits only: int() alone also takes underscores and non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def torus_coordinate(q: Fraction | float) -> complex:
    """exp(2*pi*1j*q) for q turns, a fraction or a float, exact at 1/4, 1/2 and 3/4;
    ``ValueError`` where float(q) is 0 or 1."""
    if (value := _EXACT.get(q.as_integer_ratio())) is not None:
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

    Construction is permissive: matrices and linking are stored as given,
    and structural problems are reported by :func:`validate`, not raised
    here, so that malformed files can be loaded and diagnosed.
    """

    def __init__(self, mu, rank, matrices, linking=None, name=None):
        self.mu = exact_int(mu)
        self.rank = exact_int(rank)
        self.matrices = {
            pattern_from_string(key) if isinstance(key, str) else tuple(key): value
            for key, value in dict(matrices).items()
        }
        self.linking = linking
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


def _int_rows(matrix) -> list[list[int]] | None:
    """:func:`exact_int_rows` of ``matrix``, or None if it is not square and integral."""
    try:
        return exact_int_rows(matrix)
    except ValueError:
        return None


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
    # Keys with another entry come first, in text order: their entries need not compare.
    unsigned = sorted((p for p in present - expected if not set(p) <= {1, -1}), key=repr)
    for pattern in unsigned:
        problems.append(f"pattern {pattern} has a sign other than +1 or -1")
    for pattern in sorted(present - expected - set(unsigned), reverse=True):
        label = pattern_to_string(pattern)
        if len(pattern) != gss.mu:
            problems.append(f"pattern '{label}' has length {len(pattern)}, expected {gss.mu}")
        else:
            problems.append(f"pattern '{label}' is not canonical (first sign must be +)")

    for pattern in sorted(expected & present, reverse=True):
        a = gss.matrices[pattern]
        label = pattern_to_string(pattern)
        shape = shape_of(a)
        if 0 in shape:  # any matrix without entries reads as 0 x 0
            shape = (0, 0)
        if shape != (gss.rank, gss.rank):
            problems.append(
                f"matrix for pattern '{label}' has shape {shape}, expected "
                f"({gss.rank}, {gss.rank})"
            )
        elif gss.rank and _int_rows(a) is None:
            problems.append(f"matrix for pattern '{label}' has non-integer entries")

    if gss.linking is not None:
        if (shape := shape_of(gss.linking)) != (gss.mu, gss.mu):
            problems.append(f"linking matrix has shape {shape}, expected ({gss.mu}, {gss.mu})")
        elif (lk := _int_rows(gss.linking)) is None:
            problems.append("linking matrix has non-integer entries")
        elif lk != [list(column) for column in zip(*lk)]:
            problems.append("linking matrix is not symmetric")

    return problems


def assemble_stack(gss: GeneralizedSeifertSystem, values: np.ndarray) -> np.ndarray:
    """H at many torus points at once, exactly Hermitian.

    Row k of ``values`` holds the mu coordinates of point k on the unit
    circle.  The (N, 2^(mu-1)) coefficients of the canonical patterns,
    multiplied out coordinate by coordinate, are contracted with their
    matrices A^eps flattened to shape (2^(mu-1), n*n) into C.  The other half
    of the sum is C^H, as A^(-eps) = (A^eps)^T has the conjugate coefficient,
    so H = C + C^H: entry (j, i) rounds to the conjugate of entry (i, j), and
    the diagonal is real.
    """
    import numpy as np

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
    try:
        stack = np.array([gss.matrices[p] for p in patterns], dtype=complex)
    except OverflowError as exc:
        raise ValueError(f"matrix entries beyond floating-point range: {exc}") from None
    flat = stack.reshape(len(patterns), gss.rank * gss.rank)
    half = (coefficients.T @ flat).reshape(w.shape[-1], gss.rank, gss.rank)
    # C^H is copied out contiguous first: a sum that reads C transposed is slow.
    h = np.conjugate(half.swapaxes(1, 2), order="C")
    h += half
    return h


def assemble_h(gss: GeneralizedSeifertSystem, omega: TorusPoint) -> np.ndarray:
    """The Hermitian matrix H(omega) of the system at a torus point."""
    return assemble_stack(gss, [omega.values()])[0]


def h_at_minus_ones(gss: GeneralizedSeifertSystem) -> np.ndarray:
    """Exact integer H at omega = (-1, ..., -1).

    Every factor (1 - conj(omega_i)^eps_i) equals 2 there, so the value is
    2^mu times the sum of the full matrix family.  One loop adds each matrix,
    read by :func:`int_array`, and its transpose: in int64 when the largest
    entry proves that the sum cannot wrap, and in Python integers (an object
    array) otherwise.
    """
    import numpy as np

    matrices = [int_array(gss.matrices[p]) for p in canonical_patterns(gss.mu)]
    largest = max((max(-int(a.min()), int(a.max())) for a in matrices if a.size), default=0)
    # Every entry of the result is at most 2^mu * 2 * len(matrices) * largest.
    fits = (largest * 2 * len(matrices)) << gss.mu <= np.iinfo(np.int64).max
    total = np.zeros((gss.rank, gss.rank), dtype=np.int64 if fits else object)
    for a in matrices:
        a = a.astype(total.dtype)
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
