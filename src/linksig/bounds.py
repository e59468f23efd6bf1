"""Lower bounds on splitting and unlinking numbers.

Every bound here is pure integer arithmetic on invariant values: the
signature and nullity of the colored link at a torus point, the same data
for its individual components, and pairwise linking numbers.  Matrix data
never enters, so published invariant values can be evaluated directly even
when the underlying Seifert matrices are not available.

The one-variable (Levine-Tristram) splitting bound is the multivariable
bound on the diagonal omega = (w, ..., w), where the multivariable signature
is sigma_LT + sum lk; :func:`splitting_bound_lt` evaluates it that way.

Parity diagnostics ride along: the splitting number has the parity of the
total linking number, so a reported bound of matching parity cannot be
improved by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import isqrt
from typing import Iterable, Mapping, Sequence

from .ccomplex import TorusPoint, exact_int, exact_int_rows, record_field, shape_of


@dataclass(frozen=True)
class ComponentInvariants:
    """The number of colors and the totals of the per-color Levine-Tristram
    values (sigma_i, eta_i) at the chosen points: the formulas read only the sums.

    Values are read by :func:`exact_int`.  An unknotted component contributes
    (0, 0) at every point, so :meth:`unknots` is safe wherever the link is evaluated.
    """

    mu: int
    sigma_total: int
    eta_total: int

    def __post_init__(self):
        for name in ("mu", "sigma_total", "eta_total"):
            object.__setattr__(self, name, exact_int(getattr(self, name)))
        if self.mu < 0:
            raise ValueError("the number of components must be non-negative")
        if self.eta_total < 0:
            raise ValueError("component nullities must be non-negative")

    @classmethod
    def unknots(cls, mu: int) -> "ComponentInvariants":
        return cls(mu, 0, 0)

    @classmethod
    def of(cls, *pairs) -> "ComponentInvariants":
        """The totals of per-color pairs (sigma_i, eta_i), each eta_i non-negative."""
        sigmas = [exact_int(s) for s, _ in pairs]
        etas = [exact_int(e) for _, e in pairs]
        if any(e < 0 for e in etas):
            raise ValueError("component nullities must be non-negative")
        return cls(len(pairs), sum(sigmas), sum(etas))

    @classmethod
    def from_records(cls, records) -> "ComponentInvariants":
        return cls.of(*[(record_field(r, "sigma"), record_field(r, "eta")) for r in records])


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


def _positive_mu(mu) -> int:
    if (mu := exact_int(mu)) < 1:
        raise ValueError("mu must be at least 1")
    return mu


def _check_point(mu: int, omega: TorusPoint | None, comps: ComponentInvariants) -> None:
    if comps.mu != mu:
        raise ValueError(f"component data for {comps.mu} colors, expected {mu}")
    if omega is not None and omega.mu != mu:
        raise ValueError(f"omega has {omega.mu} coordinates, expected {mu}")


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

    ``mu``, ``sigma_l``, ``eta_l`` and ``total_linking`` are read by :func:`exact_int`.
    """
    sigma_l, eta_l = exact_int(sigma_l), exact_int(eta_l)
    total_linking = None if total_linking is None else exact_int(total_linking)
    mu = _positive_mu(mu)
    if eta_l < 0:
        raise ValueError("eta_l must be non-negative")
    _check_point(mu, omega, comps)
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

    that is, the multivariable bound on the diagonal.  ``mu``, ``sigma_lt``,
    ``eta_lt`` and ``total_linking`` are read by :func:`exact_int`.
    """
    sigma_lt, eta_lt, total_linking = map(exact_int, (sigma_lt, eta_lt, total_linking))
    report = splitting_bound_multivariable(
        mu, sigma_lt + total_linking, eta_lt, comps, omega, total_linking
    )
    return replace(report, bound_name="split-lt", details={"total_lk": total_linking})


def _linking_pairs(linking, mu: int | None = None) -> tuple[int, list[tuple[int, int, int]]]:
    """mu and the pairs (i, j, lk_ij), i < j, of the linking data of a mu-colored link.

    ``linking`` is a symmetric mu x mu matrix, or its upper triangle as a
    flat row-major list of mu(mu-1)/2 values; ``mu`` defaults to the size
    the data implies.  ``mu`` and the entries are read by :func:`exact_int`.  Raises
    ``ValueError`` for a ``mu`` below 1.
    """
    mu = None if mu is None else _positive_mu(mu)
    try:
        rows = exact_int_rows(linking)
    except ValueError:
        if len(shape := shape_of(linking)) == 2:
            raise
        if len(shape) != 1 or any(map(shape_of, linking)):  # not a flat row
            raise ValueError("linking data must be a square matrix or its upper triangle") from None
        values = [exact_int(v) for v in linking]
    else:
        if rows != [list(column) for column in zip(*rows)]:
            raise ValueError("linking matrix must be symmetric")
        values = [lk for i, row in enumerate(rows) for lk in row[i + 1 :]]
    if mu is None:  # the size whose upper triangle has len(values) entries, if any
        mu = (1 + isqrt(1 + 8 * len(values))) // 2
        if mu * (mu - 1) // 2 != len(values):
            raise ValueError(f"{len(values)} linking values do not fill an upper triangle")
    count = mu * (mu - 1) // 2  # checked before the pairs are listed
    if len(values) != count:
        raise ValueError(f"linking data needs {count} values for mu={mu}, got {len(values)}")
    pairs = [(i, j) for i in range(mu) for j in range(i + 1, mu)]
    return mu, [(i, j, lk) for (i, j), lk in zip(pairs, values)]


def linking_number_bound(
    linking,
    nonsplit: Mapping[tuple[int, int], bool] | Iterable | None = None,
    mu: int | None = None,
) -> BoundReport:
    """Sum of pairwise linking contributions.

    Each pair contributes 0 when split, 2 when non-split with vanishing
    linking number, |lk| otherwise.  Pairs with lk = 0 must come with an
    explicit non-split flag; linked pairs are non-split automatically.
    ``linking`` takes either form that :func:`_linking_pairs` reads.
    ``nonsplit`` maps a pair (i, j) of 0-based indices, in either order, to
    True (non-split) or False (split); a sequence of ``((i, j), flag)`` items
    is read the same way.  A pair with an index outside ``0..mu-1``, a pair
    with i == j, a pair flagged both ways, a linked pair flagged split and an
    unflagged pair with lk = 0 raise ``ValueError``, whose message numbers
    the components ``1..mu``.
    """
    mu, pairs = _linking_pairs(linking, mu)
    flags: dict[tuple[int, int], bool] = {}
    items = nonsplit.items() if isinstance(nonsplit, Mapping) else nonsplit or ()
    for (i, j), flag in items:
        named = f"pair flag ({i + 1}, {j + 1})"
        if not (0 <= i < mu and 0 <= j < mu):
            raise ValueError(f"{named} names a component outside 1..{mu}")
        if i == j:
            raise ValueError(f"{named} names component {i + 1} twice")
        if flags.setdefault((min(i, j), max(i, j)), flag) != flag:
            raise ValueError(f"{named} is flagged both split and non-split")
    value = 0
    total = 0
    for i, j, lk in pairs:
        total += lk
        flag = flags.get((i, j))
        if lk != 0:
            if flag is False:
                raise ValueError(
                    f"pair ({i + 1}, {j + 1}) has linking number {lk}: "
                    "a linked pair cannot be split"
                )
            value += abs(lk)
        elif flag is None:
            raise ValueError(
                f"pair ({i + 1}, {j + 1}) has linking number 0: "
                "a split/non-split flag is required"
            )
        elif flag:
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
    to the next value of the correct parity.  ``mu``, ``beta_est``,
    ``total_linking`` and each sample's ``sigma_l`` and ``eta_l`` are read by
    :func:`exact_int`.
    """
    beta_est = exact_int(beta_est)
    total_linking = None if total_linking is None else exact_int(total_linking)
    mu = _positive_mu(mu)
    if beta_est < 0:
        raise ValueError("beta_est must be non-negative")
    base = mu - 1 - beta_est
    violated = False
    for omega, sigma_l, eta_l, comps in samples:
        sigma_l, eta_l = exact_int(sigma_l), exact_int(eta_l)
        _check_point(mu, omega, comps)
        if eta_l != beta_est:
            raise ValueError(
                f"sample at omega={omega} has eta={eta_l}, expected beta_est={beta_est}; "
                "only points where the nullity attains the minimum qualify"
            )
        if sigma_l != comps.sigma_total or comps.eta_total:
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
    ``linking`` takes either form that :func:`_linking_pairs` reads;
    ``mu``, ``sigma_l`` and ``eta_l`` are read by :func:`exact_int`.
    """
    sigma_l, eta_l = exact_int(sigma_l), exact_int(eta_l)
    mu = _positive_mu(mu)
    if eta_l < 0:
        raise ValueError("eta_l must be non-negative")
    lk_abs = sum(abs(lk) for _, _, lk in _linking_pairs(linking, mu)[1])
    raw = abs(sigma_l) + abs(mu - 1 - eta_l) + lk_abs
    return BoundReport(
        bound_name="unlink",
        value=(raw + 1) // 2,
        details={"raw": raw},
    )


def _array(value) -> list:
    """A JSON array as it is; ``list()`` would also take a string or an object."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _point_record(record, mu) -> tuple:
    """(omega, sigma_L, eta_L, components) of a fixture or of a rank sample.

    A record with no ``components`` field describes ``mu`` unknots.
    """
    if not isinstance(record, Mapping):
        raise ValueError(f"malformed record: {record!r} is not an object")
    omega = record_field(record, "omega", _array) if "omega" in record else None
    return (
        None if omega is None else TorusPoint.from_strings(omega),
        record_field(record, "sigma_L"),
        record_field(record, "eta_L"),
        ComponentInvariants.from_records(record_field(record, "components", _array))
        if "components" in record
        else ComponentInvariants.unknots(_positive_mu(mu)),
    )


def evaluate_fixture(record: Mapping) -> BoundReport:
    """Evaluate a bound fixture record (parsed JSON document).

    ``kind`` selects the formula: "lt" for the one-variable bound, "multi"
    for the multivariable bound, "rank" for the rank obstruction.
    """
    kind = record_field(record, "kind", str)
    mu = record_field(record, "mu")
    total = None if record.get("total_lk") is None else record_field(record, "total_lk")

    if kind in ("lt", "multi"):
        omega, sigma, eta, comps = _point_record(record, mu)
        if kind == "lt":
            total = record_field(record, "total_lk")
            return splitting_bound_lt(mu, sigma, eta, total, comps, omega)
        return splitting_bound_multivariable(mu, sigma, eta, comps, omega, total)
    if kind == "rank":
        samples = [_point_record(sample, mu) for sample in record_field(record, "samples", _array)]
        return rank_obstruction(mu, record_field(record, "beta_est"), samples, total)
    raise ValueError(f"unknown fixture kind {kind!r}")
