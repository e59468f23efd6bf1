"""Lower bounds on splitting and unlinking numbers.

Every bound here is pure integer arithmetic on invariant values: the
signature and nullity of the colored link at a torus point, the same data
for its individual components, and pairwise linking numbers.  Matrix data
never enters, so published invariant values can be evaluated directly even
when the underlying Seifert matrices are not available.

Parity diagnostics ride along: the splitting number has the parity of the
total linking number, so a reported bound of matching parity cannot be
improved by one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .ccomplex import TorusPoint, record_field


@dataclass(frozen=True)
class ComponentInvariants:
    """Per-color Levine-Tristram values (sigma_i, eta_i) at the chosen points.

    An unknotted component contributes (0, 0) at every point, so
    :meth:`unknots` is safe regardless of where the link is evaluated.
    """

    sigmas: tuple[int, ...]
    etas: tuple[int, ...]

    def __post_init__(self):
        if len(self.sigmas) != len(self.etas):
            raise ValueError("sigma and eta lists must have equal length")
        if any(e < 0 for e in self.etas):
            raise ValueError("component nullities must be non-negative")

    @classmethod
    def unknots(cls, mu: int) -> "ComponentInvariants":
        return cls((0,) * mu, (0,) * mu)

    @classmethod
    def of(cls, *pairs) -> "ComponentInvariants":
        return cls(tuple(int(s) for s, _ in pairs), tuple(int(e) for _, e in pairs))

    @classmethod
    def from_records(cls, records) -> "ComponentInvariants":
        return cls.of(*[(record_field(r, "sigma"), record_field(r, "eta")) for r in records])

    @property
    def mu(self) -> int:
        return len(self.sigmas)

    @property
    def sigma_total(self) -> int:
        return sum(self.sigmas)

    @property
    def eta_total(self) -> int:
        return sum(self.etas)


@dataclass(frozen=True)
class BoundReport:
    """A named non-negative lower bound with the details its rendering prints."""

    bound_name: str
    value: int
    omega: TorusPoint | None = None
    parity_of_total_linking: int | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError(f"bound value must be non-negative, got {self.value}")

    def render(self) -> str:
        parts = [f"formula={self.bound_name}", f"value={self.value}"]
        if self.omega is not None:
            parts.append(f"omega={self.omega}")
        for key in sorted(self.details):
            parts.append(f"{key}={self.details[key]}")
        if self.parity_of_total_linking is not None:
            parity = "odd" if self.parity_of_total_linking else "even"
            parts.append(f"lk_parity={parity}")
        return " ".join(parts)


def splitting_bound_multivariable(
    mu: int,
    sigma_l: int,
    eta_l: int,
    comps: ComponentInvariants,
    omega: TorusPoint | None = None,
    total_linking: int | None = None,
) -> BoundReport:
    """Splitting bound from the multivariable invariants at one point:

        |sigma_L - sum sigma_i| + |mu - 1 - eta_L + sum eta_i|
    """
    if mu < 1:
        raise ValueError("mu must be at least 1")
    if eta_l < 0:
        raise ValueError("eta_l must be non-negative")
    if comps.mu != mu:
        raise ValueError(f"component data for {comps.mu} colors, expected {mu}")
    value = abs(sigma_l - comps.sigma_total) + abs(mu - 1 - eta_l + comps.eta_total)
    return BoundReport(
        bound_name="split-multi",
        value=value,
        omega=omega,
        parity_of_total_linking=None if total_linking is None else total_linking % 2,
    )


def splitting_bound_lt(
    mu: int,
    sigma_lt: int,
    eta_lt: int,
    total_linking: int,
    comps: ComponentInvariants,
    omega: TorusPoint | None = None,
) -> BoundReport:
    """Splitting bound from the one-variable invariants at a common point:

        |sigma_L + sum lk - sum sigma_i| + |mu - 1 - eta_L + sum eta_i|
    """
    if mu < 1:
        raise ValueError("mu must be at least 1")
    if eta_lt < 0:
        raise ValueError("eta_lt must be non-negative")
    if comps.mu != mu:
        raise ValueError(f"component data for {comps.mu} colors, expected {mu}")
    value = abs(sigma_lt + total_linking - comps.sigma_total) + abs(
        mu - 1 - eta_lt + comps.eta_total
    )
    return BoundReport(
        bound_name="split-lt",
        value=value,
        omega=omega,
        parity_of_total_linking=total_linking % 2,
        details={"total_lk": total_linking},
    )


def _linking_pairs(linking) -> tuple[int, list[tuple[int, int, int]]]:
    lk = np.asarray(linking)
    if lk.ndim != 2 or lk.shape[0] != lk.shape[1]:
        raise ValueError("linking data must be a square matrix")
    if not np.array_equal(lk, lk.T):
        raise ValueError("linking matrix must be symmetric")
    mu = lk.shape[0]
    pairs = [(i, j, int(lk[i][j])) for i in range(mu) for j in range(i + 1, mu)]
    return mu, pairs


def linking_number_bound(
    linking, nonsplit: Mapping[tuple[int, int], bool] | None = None
) -> BoundReport:
    """Sum of pairwise linking contributions.

    Each pair contributes 0 when split, 2 when non-split with vanishing
    linking number, |lk| otherwise.  Pairs with lk = 0 must come with an
    explicit non-split flag; linked pairs are non-split automatically.
    """
    flags = dict(nonsplit or {})
    _, pairs = _linking_pairs(linking)
    value = 0
    total = 0
    for i, j, lk in pairs:
        total += lk
        if lk != 0:
            value += abs(lk)
            continue
        key = (i, j) if (i, j) in flags else (j, i)
        if key not in flags:
            raise ValueError(
                f"pair ({i}, {j}) has linking number 0: a split/non-split flag is required"
            )
        if flags[key]:
            value += 2
    return BoundReport(
        bound_name="linking",
        value=value,
        parity_of_total_linking=total % 2,
        details={"total_lk": total},
    )


def rank_obstruction(
    mu: int,
    beta_est: int,
    samples: Sequence[tuple],
    total_linking: int | None = None,
) -> BoundReport:
    """Splitting bound mu - 1 - beta, upgraded by additivity violations.

    ``samples`` holds tuples (omega, sigma_l, eta_l, comps) taken at points
    where the nullity equals ``beta_est``; a sample with a different
    nullity is rejected outright.  When any qualifying sample violates
    signature additivity, or some component has positive nullity there,
    the bound mu - 1 - beta cannot be attained, so the conclusion becomes
    strict; with the total linking parity supplied, it is pushed further
    to the next value of the correct parity.
    """
    if mu < 1:
        raise ValueError("mu must be at least 1")
    if beta_est < 0:
        raise ValueError("beta_est must be non-negative")
    base = mu - 1 - beta_est
    violated = False
    for omega, sigma_l, eta_l, comps in samples:
        if eta_l != beta_est:
            raise ValueError(
                f"sample at omega={omega} has eta={eta_l}, expected beta_est={beta_est}; "
                "only points where the nullity attains the minimum qualify"
            )
        if sigma_l != comps.sigma_total or any(e != 0 for e in comps.etas):
            violated = True

    value = max(base, 0)
    details = {"base": max(base, 0), "additivity_violated": "yes" if violated else "no"}
    if violated:
        value += 1
        if total_linking is not None and value % 2 != total_linking % 2:
            value += 1
            details["parity_upgraded"] = "yes"
    return BoundReport(
        bound_name="rank",
        value=value,
        parity_of_total_linking=None if total_linking is None else total_linking % 2,
        details=details,
    )


def unlinking_bound(mu: int, sigma_l: int, eta_l: int, linking) -> BoundReport:
    """Unlinking bound: half the raw quantity

        |sigma_L| + |mu - 1 - eta_L| + sum |lk|

    rounded up.  The raw value is at most twice the unlinking number.
    """
    if mu < 1:
        raise ValueError("mu must be at least 1")
    if eta_l < 0:
        raise ValueError("eta_l must be non-negative")
    lk = np.asarray(linking)
    if lk.ndim == 2:
        _, pairs = _linking_pairs(lk)
        lk_abs = sum(abs(v) for _, _, v in pairs)
    else:
        lk_abs = sum(abs(int(v)) for v in np.ravel(lk).tolist())
    raw = abs(sigma_l) + abs(mu - 1 - eta_l) + lk_abs
    return BoundReport(
        bound_name="unlink",
        value=(raw + 1) // 2,
        details={"raw": raw},
    )


def _fixture_omega(record) -> TorusPoint | None:
    if "omega" not in record:
        return None
    return TorusPoint.from_strings(record_field(record, "omega", list))


def evaluate_fixture(record: Mapping) -> BoundReport:
    """Evaluate a bound fixture record (parsed JSON document).

    ``kind`` selects the formula: "lt" for the one-variable bound, "multi"
    for the multivariable bound, "rank" for the rank obstruction.
    """
    kind = record_field(record, "kind", str)
    mu = record_field(record, "mu")
    total = None if record.get("total_lk") is None else record_field(record, "total_lk")

    if kind == "lt":
        return splitting_bound_lt(
            mu=mu,
            sigma_lt=record_field(record, "sigma_L"),
            eta_lt=record_field(record, "eta_L"),
            total_linking=record_field(record, "total_lk"),
            comps=ComponentInvariants.from_records(record_field(record, "components", list)),
            omega=_fixture_omega(record),
        )
    if kind == "multi":
        return splitting_bound_multivariable(
            mu=mu,
            sigma_l=record_field(record, "sigma_L"),
            eta_l=record_field(record, "eta_L"),
            comps=ComponentInvariants.from_records(record_field(record, "components", list)),
            omega=_fixture_omega(record),
            total_linking=total,
        )
    if kind == "rank":
        samples = [
            (
                _fixture_omega(sample),
                record_field(sample, "sigma_L"),
                record_field(sample, "eta_L"),
                ComponentInvariants.from_records(record_field(sample, "components", list)),
            )
            for sample in record_field(record, "samples", list)
        ]
        return rank_obstruction(
            mu=mu,
            beta_est=record_field(record, "beta_est"),
            samples=samples,
            total_linking=total,
        )
    raise ValueError(f"unknown fixture kind {kind!r}")


def load_fixture_file(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            record = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ValueError(f"{path}: fixture record must be a JSON object")
    return record
