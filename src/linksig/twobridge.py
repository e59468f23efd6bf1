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
* A loop spanning a junction picks up one extra -1 on the A^{++} (and by
  transposition A^{--}) diagonal per full twist of the band pair; a
  leftover half twist spreads -1/2 over all four push-off directions.
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

from .ccomplex import GeneralizedSeifertSystem


@dataclass(frozen=True)
class ConwayForm:
    """Conway normal form C(c_1, ..., c_m) within the even-odd family.

    Requires an odd number of positive coefficients with every odd-position
    coefficient even, i.e. the shape C(2a_1, b_1, 2a_2, ..., b_{n-1}, 2a_n).
    """

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        label = f"C({','.join(str(c) for c in coeffs)})"
        if not coeffs or len(coeffs) % 2 == 0:
            raise ValueError(
                f"{label}: expected an odd number of coefficients "
                "(the supported family is C(2a_1,b_1,...,2a_n))"
            )
        for position, c in enumerate(coeffs, start=1):
            if c <= 0:
                raise ValueError(f"{label}: coefficient {c} at position {position} must be positive")
            if position % 2 == 1 and c % 2 != 0:
                raise ValueError(
                    f"{label}: coefficient {c} at odd position {position} must be even; "
                    "forms outside C(2a_1,b_1,...,2a_n) are not supported"
                )

    @classmethod
    def parse(cls, text: str) -> "ConwayForm":
        items = [item.strip() for item in text.split(",") if item.strip()]
        try:
            coeffs = tuple(int(item) for item in items)
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
        return f"C({','.join(str(c) for c in self.coefficients)})"


def predicted_splitting(form: ConwayForm) -> int:
    """The splitting number of the family member: a_1 + ... + a_n."""
    return form.clasp_count


def _group_signs(form: ConwayForm) -> list[int]:
    signs = [-1]
    for b in form.b_values:
        signs.append(signs[-1] * (-1 if b % 2 else 1))
    return signs


def _clasp_groups(form: ConwayForm) -> list[int]:
    groups = []
    for index, a in enumerate(form.a_values):
        groups.extend([index] * a)
    return groups


def build_gss(form: ConwayForm) -> GeneralizedSeifertSystem:
    """The rank s-1 generalized Seifert system of the two-disk C-complex."""
    s = form.clasp_count
    rank = s - 1
    group_of = _clasp_groups(form)  # group index per clasp, 0-based
    signs = _group_signs(form)
    b_values = form.b_values

    a_pp = np.zeros((rank, rank), dtype=np.int64)
    a_pm = np.zeros((rank, rank), dtype=np.int64)

    for k in range(rank):  # loop k runs through clasps k and k+1
        left, right = group_of[k], group_of[k + 1]
        if left == right:
            if signs[left] == -1:
                a_pm[k, k] = -1
            else:
                a_pp[k, k] = -1
        else:
            b = b_values[left]
            full_twists = b // 2
            if b % 2:
                a_pp[k, k] = -(full_twists + 1)
                a_pm[k, k] = -1
            elif signs[left] == -1:
                a_pp[k, k] = -full_twists
                a_pm[k, k] = -1
            else:
                a_pp[k, k] = -(full_twists + 1)

    for k in range(rank - 1):  # loops k and k+1 share clasp k+1
        if signs[group_of[k + 1]] == -1:
            a_pm[k, k + 1] = 1
        else:
            a_pm[k + 1, k] = 1

    return GeneralizedSeifertSystem(
        mu=2,
        rank=rank,
        matrices={(1, 1): a_pp, (1, -1): a_pm},
        name=form.name,
    )


def h_minus_one_closed_form(form: ConwayForm) -> np.ndarray:
    """The tridiagonal value of H at (-1, -1), computed directly.

    Returns 4 T where T has off-diagonal entries 1 and diagonal entries
    -2 d_k with d_k = 1 for within-group loops and ceil(b/2) + 1 for loops
    spanning a twist region of b half-turns.  Must agree entrywise with
    ``h_at_minus_ones(build_gss(form))``.
    """
    s = form.clasp_count
    rank = s - 1
    group_of = _clasp_groups(form)
    b_values = form.b_values
    t = np.zeros((rank, rank), dtype=np.int64)
    for k in range(rank):
        left, right = group_of[k], group_of[k + 1]
        if left == right:
            d = 1
        else:
            b = b_values[left]
            d = (b + 1) // 2 + 1
        t[k, k] = -2 * d
        if k + 1 < rank:
            t[k, k + 1] = 1
            t[k + 1, k] = 1
    return 4 * t
