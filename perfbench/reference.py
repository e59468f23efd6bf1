"""Independent reference for the benchmark's correctness check.

Nothing here imports linksig.  ``h_batch`` evaluates

    H(omega) = sum_eps  prod_i (1 - conj(w_i)^eps_i) * A^eps,   w_i = exp(2 pi i q_i)

for a whole batch of points straight from the formula, with
``A^eps = (A^-eps)^T`` for the patterns a system file does not store, and
``inertia`` classifies its eigenvalues with the CLI's default relative
tolerance.  An eigenvalue within a factor ``BAND`` of the threshold could go
either way under rounding: such a point is counted as ambiguous and reported,
not compared.  Exact-form and fixture commands are checked against values
fixed when their inputs were generated.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import numpy as np

TOL = 1e-9  # the CLI's default --tol
BAND = 100.0


def load(path: Path) -> tuple[int, dict]:
    doc = json.loads(path.read_text("utf-8"))
    matrices = {
        tuple(1 if c == "+" else -1 for c in key): np.asarray(value, dtype=float)
        for key, value in doc["matrices"].items()
    }
    return int(doc["mu"]), matrices


def h_batch(mu: int, matrices: dict, fractions: np.ndarray) -> np.ndarray:
    """H at each row of ``fractions`` (shape (N, mu), angles in turns)."""
    w = np.exp(2j * np.pi * fractions)
    patterns = list(product((1, -1), repeat=mu))
    coefficients = np.ones((len(fractions), len(patterns)), dtype=complex)
    for p, pattern in enumerate(patterns):
        for i, sign in enumerate(pattern):
            coefficients[:, p] *= 1 - (w[:, i].conj() if sign > 0 else w[:, i])
    stack = np.stack([
        matrices[pattern] if pattern in matrices else matrices[tuple(-s for s in pattern)].T
        for pattern in patterns
    ])
    return np.einsum("np,pij->nij", coefficients, stack)


def inertia(h: np.ndarray):
    """(sigma, eta, ambiguous) arrays for a stack of Hermitian matrices."""
    eigenvalues = np.linalg.eigvalsh(h)
    scale = np.maximum(1.0, np.abs(h).max(axis=(1, 2)))[:, None]
    threshold = TOL * scale
    sigma = (eigenvalues > threshold).sum(axis=1) - (eigenvalues < -threshold).sum(axis=1)
    eta = (np.abs(eigenvalues) <= threshold).sum(axis=1)
    near = (np.abs(eigenvalues) > threshold / BAND) & (np.abs(eigenvalues) < threshold * BAND)
    return sigma, eta, near.any(axis=1)


def _parse_fraction(text: str) -> float:
    numerator, _, denominator = text.partition("/")
    return int(numerator) / int(denominator or 1)


def _point(workdir: Path, system: str, omega: list[str]):
    mu, matrices = load(workdir / system)
    point = np.array([[_parse_fraction(q) for q in omega]])
    sigma, eta, ambiguous = inertia(h_batch(mu, matrices, point))
    return int(sigma[0]), int(eta[0]), bool(ambiguous[0])


def _check_scan(check: dict, stdout: str, csv: str, workdir: Path) -> tuple[bool, int]:
    mu, res = check["mu"], check["res"]
    lines = csv.splitlines()
    header = ",".join(f"theta_{i + 1}" for i in range(mu)) + ",sigma,eta,absdet"
    if not lines or lines[0] != header or len(lines) != res**mu + 1:
        return False, 0
    rows = [line.split(",") for line in lines[1:]]
    labels = [format(k / (res + 1), ".12g") for k in range(1, res + 1)]
    expected_angles = list(product(labels, repeat=mu))
    if any(len(row) != mu + 3 or tuple(row[:mu]) != angles
           for row, angles in zip(rows, expected_angles)):
        return False, 0
    got = np.array([[int(row[mu]), int(row[mu + 1])] for row in rows])
    grid = np.array(list(product(range(1, res + 1), repeat=mu))) / (res + 1)
    system_mu, matrices = load(workdir / check["system"])
    sigma, eta, ambiguous = inertia(h_batch(system_mu, matrices, grid))
    clear = ~ambiguous
    agree = (np.array_equal(got[clear, 0], sigma[clear])
             and np.array_equal(got[clear, 1], eta[clear])
             and stdout.split()[:2] == [f"rows={res**mu}", f"min_eta={got[:, 1].min()}"])
    return bool(agree), int(ambiguous.sum())


def check(command: dict, stdout: str, written: str, workdir: Path) -> tuple[bool, int]:
    """(output agrees with the reference, ambiguous points skipped)."""
    spec = command["check"]
    kind = spec["kind"]
    if kind == "lines":
        return stdout.splitlines() == spec["expect"], 0
    if kind == "prefix":
        fields = spec["expect"].split()
        return stdout.count("\n") == 1 and stdout.split()[:len(fields)] == fields, 0
    if kind == "sig":
        sigma, eta, ambiguous = _point(workdir, spec["system"], spec["omega"])
        return ambiguous or stdout == f"sigma={sigma} eta={eta}\n", int(ambiguous)
    if kind == "twobridge":
        sigma, eta, ambiguous = _point(workdir, spec["system"], spec["omega"])
        second = f"omega={','.join(spec['omega'])} sigma={sigma} eta={eta}"
        lines = stdout.splitlines()
        ok = len(lines) == 2 and lines[0] == spec["first"] and (ambiguous or lines[1] == second)
        return ok, int(ambiguous)
    if kind == "scan":
        return _check_scan(spec, stdout, written, workdir)
    raise ValueError(f"unknown check kind {kind!r}")
