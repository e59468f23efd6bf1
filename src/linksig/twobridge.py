"""Generalized Seifert systems for 2-bridge links C(2a_1, b_1, ..., 2a_n).

Links in this family (odd-position coefficients even, all coefficients
positive) have two unknotted components bounding disjoint disks that meet
in s = a_1 + ... + a_n clasps: the i-th twist region of 2a_i crossings
contributes a group of a_i clasps, and the b_i region between groups i and
i+1 twists the pair of connecting bands b_i half-turns.  A basis of the
first homology of the C-complex is given by the s - 1 loops through
consecutive clasps.

The matrix entries below follow from that picture:

* Clasp signs alternate between groups exactly when the intervening b_i is
  odd (each clasp adds its sign to the linking number of the two
  components, which is how C(2a, 1, 2a) ends up with linking number 0).
  The first group carries sign -1 in the orientation convention used here.
* A loop with both clasps in one group of sign c contributes (0, -1) to
  the diagonal of (A^{++}, A^{+-}) when c = -1 and (-1, 0) when c = +1.
  These values are pinned by the torus links C(2a), whose one-variable
  signatures are classical.
* A loop spanning a junction of b half-turns starts from the values of its
  first clasp's sign and picks up one extra -1 on the A^{++} (and by
  transposition A^{--}) diagonal per full twist of the band pair; a
  leftover half twist (b odd) turns the remaining 0 of the pair into -1.
  The b = 1 case is pinned by the Whitehead link C(2, 1, 2), whose nullity
  vanishes on the whole torus.
* Adjacent loops share one clasp; the shared clasp places a single +1 off
  the diagonal of A^{+-}, above the diagonal for clasp sign -1 and below
  it for clasp sign +1.

At omega = (-1, -1) everything collapses to 4 T with T tridiagonal: the
diagonal of T is -2 on within-group loops and -2 (ceil(b/2) + 1) on
junction loops, the off-diagonal entries are all 1.  Such a matrix is
negative definite, which is what drives the splitting-number computation
for the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ccomplex import GeneralizedSeifertSystem, exact_int, integer


@dataclass(frozen=True)
class ConwayForm:
    """Conway normal form C(c_1, ..., c_m) within the even-odd family.

    Requires an odd number of positive coefficients with every odd-position
    coefficient even, i.e. the shape C(2a_1, b_1, 2a_2, ..., b_{n-1}, 2a_n).
    Every coefficient is read by :func:`exact_int`, so none is truncated, and
    checked in one loop.
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(map(exact_int, self.coefficients))
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs or len(coeffs) % 2 == 0:
            raise ValueError(
                f"{self.name}: expected an odd number of coefficients "
                "(the supported family is C(2a_1,b_1,...,2a_n))"
            )
        for position, c in enumerate(coeffs, start=1):  # name the first offending one
            if c <= 0:
                raise ValueError(
                    f"{self.name}: coefficient {c} at position {position} must be positive"
                )
            if position % 2 == 1 and c % 2 != 0:
                raise ValueError(
                    f"{self.name}: coefficient {c} at odd position {position} must be even; "
                    "forms outside C(2a_1,b_1,...,2a_n) are not supported"
                )

    @classmethod
    def parse(cls, text: str) -> "ConwayForm":
        # int() strips the spaces around a coefficient and rejects an empty one.  Only
        # a text it would misread (4_0, a non-ASCII digit) goes item by item through
        # integer(), which names the first item it rejects.
        read = int if text.isascii() and "_" not in text else integer
        try:
            coeffs = tuple(map(read, text.split(",")))
        except ValueError as exc:
            raise ValueError(f"invalid Conway form {text!r}: {exc}") from exc
        return cls(coeffs)

    @property
    def a_values(self) -> tuple[int, ...]:
        return tuple(c // 2 for c in self.coefficients[0::2])

    @property
    def b_values(self) -> tuple[int, ...]:
        return tuple(self.coefficients[1::2])

    @property
    def clasp_count(self) -> int:
        return sum(self.a_values)

    @property
    def name(self) -> str:
        return f"C({','.join(map(str, self.coefficients))})"


def predicted_splitting(form: ConwayForm) -> int:
    """The splitting number of the family member: a_1 + ... + a_n."""
    return form.clasp_count


def _loops(form: ConwayForm) -> list[tuple[int, int]]:
    """(sign, b) for each basis loop k, which runs through clasps k and k+1.

    sign is that of clasp k's group; b is the half-turns of the twist region
    the loop crosses, 0 when both clasps lie in one group.
    """
    loops, sign = [], -1
    for a, b in zip(form.a_values, form.b_values + (0,)):
        loops += [(sign, 0)] * (a - 1)
        loops.append((sign, b))
        if b % 2:
            sign = -sign
    return loops[:-1]  # the last clasp starts no loop


def build_gss(form: ConwayForm) -> GeneralizedSeifertSystem:
    """The rank s-1 generalized Seifert system of the two-disk C-complex."""
    rank = form.clasp_count - 1
    a_pp = np.zeros((rank, rank), dtype=np.int64)  # before the walk: an impossible rank fails here
    a_pm = np.zeros((rank, rank), dtype=np.int64)
    loops = _loops(form)
    diagonal = [(-1 if b % 2 or sign > 0 else 0) - b // 2 for sign, b in loops]
    if loops and min(diagonal) < -(2**63):  # below the int64 range
        b = next(b for (_, b), d in zip(loops, diagonal) if d < -(2**63))
        raise ValueError(f"{form.name}: coefficient {b} is too large for an int64 matrix")
    a_pp.flat[:: rank + 1] = diagonal
    a_pm.flat[:: rank + 1] = [-1 if b % 2 or sign < 0 else 0 for sign, b in loops]
    # Loops k-1 and k share clasp k: a 1 above the diagonal for its sign -1, below for +1.
    shared = np.array([sign for sign, _ in loops[1:]], dtype=np.int64)
    a_pm.flat[1 :: rank + 1] = shared < 0
    a_pm.flat[rank :: rank + 1] = shared > 0
    return GeneralizedSeifertSystem(
        mu=2,
        rank=rank,
        matrices={(1, 1): a_pp, (1, -1): a_pm},
        name=form.name,
    )


def h_minus_one_closed_form(form: ConwayForm) -> np.ndarray:
    """The tridiagonal value of H at (-1, -1), computed directly.

    Returns 4 T where T has off-diagonal entries 1 and diagonal entries
    -2 d_k with d_k = ceil(b/2) + 1 for a loop crossing a twist region of
    b half-turns, which is 1 for a within-group loop (b = 0).  Must agree
    entrywise with ``h_at_minus_ones(build_gss(form))``.
    """
    rank = form.clasp_count - 1
    t = np.zeros((rank, rank), dtype=np.int64)
    for k, (_, b) in enumerate(_loops(form)):
        t[k, k] = -2 * ((b + 1) // 2 + 1)
        if k:
            t[k - 1, k] = t[k, k - 1] = 1
    return 4 * t
