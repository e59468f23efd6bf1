"""Seeded inputs of the three benchmark workloads.

``build(name, seed, workdir, root)`` writes every input file of one workload
into ``workdir`` and returns its plan: the command sequence of one pass, and
for each command what the reference checks.  Paths in the plan are relative
to ``workdir``, where the child process runs, so the same seed gives the same
plan and the same files wherever the checkout lives (``digest``).

Every workload is a closed loop: one client in one process sends the next
command only after the previous one returned.  Matrix entries stay small
integers, as in real C-complex data, which keeps ``h_at_minus_ones`` (an
int64 sum scaled by 2^mu) many orders of magnitude away from int64 range.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

# Why each workload exists.  BENCHMARK.json carries a one-line form of these.
WHY = {
    # Per-sample Python overhead dominates a scan: assemble_h and
    # TorusPoint.values, one eigvalsh and one det per sample, CSV rendering.
    # A batched evaluation kernel removes exactly this.  The rank-24 member is
    # LAPACK-bound, so a gain that exists only at small n shows as smaller.
    "scan_grid": "dense torus scans: per-sample Python overhead around eigvalsh/det dominates",
    # Almost all time is integer_symmetric_signature on Fractions at the
    # all-1/2 point.  A fraction-free elimination targets it; a batched float
    # kernel bypasses it and should show no change here.
    "exact_forms": "exact inertia at (-1,...,-1) on dense rank 40-80 forms: "
                   "Fraction elimination dominates",
    # Short one-off commands: argparse construction, the catalog self-check
    # and system loading cost more than the math.  A scan-oriented change must
    # not slow it down.
    "query_mix": "about 1000 short sig/bound/twobridge commands: fixed per-command cost dominates",
}

WORKLOADS = tuple(WHY)

# The calibration kernel (speed.py) that tracked each workload's commands best.
KERNEL = {"scan_grid": "interpreter", "exact_forms": "interpreter", "query_mix": "broad"}


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _pattern_keys(mu: int) -> list[str]:
    return ["+" + "".join(rest) for rest in product("+-", repeat=mu - 1)]


def _write_system(workdir: Path, filename: str, mu: int, matrices: dict) -> str:
    doc = {
        "mu": mu,
        "rank": len(next(iter(matrices.values()))),
        "matrices": {key: np.asarray(m, dtype=np.int64).tolist() for key, m in matrices.items()},
    }
    (workdir / filename).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return filename


def _sparse(rng, shape, density: float, low: int, high: int) -> np.ndarray:
    values = rng.integers(low, high + 1, size=shape)
    return values * (rng.random(shape) < density)


def random_system(rng, mu: int, n: int) -> dict:
    """A generic system: sparse entries in [-2, 2] for every canonical pattern."""
    return {key: _sparse(rng, (n, n), 0.5, -2, 2) for key in _pattern_keys(mu)}


def _unit_lower(rng, n: int, density: float) -> np.ndarray:
    return np.eye(n, dtype=np.int64) + np.tril(_sparse(rng, (n, n), density, -1, 1), -1)


def _split_form(rng, mu: int, s: np.ndarray) -> dict:
    """Matrices A^eps (canonical eps) whose sum of A + A^T equals ``s``.

    ``s`` must be symmetric with an even diagonal.  All patterns but the
    first are random; the first absorbs the remainder plus a random skew
    part, so no pattern is special in the file.
    """
    n = len(s)
    keys = _pattern_keys(mu)
    matrices = {key: _sparse(rng, (n, n), 0.3, -1, 1) for key in keys[1:]}
    rest = s - sum((a + a.T for a in matrices.values()), np.zeros_like(s))
    skew = _sparse(rng, (n, n), 0.2, -1, 1)
    first = np.triu(rest, 1) + np.diag(np.diag(rest) // 2) + skew - skew.T
    matrices = {keys[0]: first, **matrices}
    if not np.array_equal(sum(a + a.T for a in matrices.values()), s):
        raise RuntimeError("split form does not add up to the generated form")
    return matrices


def known_form(rng, n: int, hyperbolic: int) -> tuple[np.ndarray, int, int]:
    """A symmetric integer form with even diagonal and known (sigma, eta).

    The form is ``P (L D L^T  (+)  [[0, M], [M^T, 0]]) P^T`` with ``P`` a
    permutation, ``L`` unit lower triangular (so unimodular), ``D`` diagonal
    with entries in {2, -2, 0} and at least one 0, and ``M = U J V`` with
    ``U``, ``V`` unimodular and ``J`` a 0/1 diagonal of rank ``r``.  The
    second block has zero diagonal, so exact elimination must take its
    hyperbolic 2x2 branch; it contributes r positive, r negative and
    ``hyperbolic - 2r`` zero eigenvalues.
    """
    m = hyperbolic // 2
    k = n - 2 * m
    d = rng.choice([2, -2, 0], size=k, p=[0.45, 0.45, 0.10])
    d[rng.integers(k)] = 0
    lower = _unit_lower(rng, k, 0.5)
    block = lower @ np.diag(d) @ lower.T
    form = np.zeros((n, n), dtype=np.int64)
    form[:k, :k] = block
    sigma = int((d > 0).sum() - (d < 0).sum())
    eta = int((d == 0).sum())
    if m:
        r = m - max(1, m // 8)
        j = np.diag([1] * r + [0] * (m - r))
        u, v = _unit_lower(rng, m, 0.5), _unit_lower(rng, m, 0.5).T
        mm = u @ j @ v
        form[k:k + m, k + m:] = mm
        form[k + m:, k:k + m] = mm.T
        eta += 2 * (m - r)
    perm = rng.permutation(n)
    return form[np.ix_(perm, perm)], sigma, eta


def _fraction(rng, low: int = 5, high: int = 97) -> str:
    while True:
        q = int(rng.integers(low, high + 1))
        f = Fraction(int(rng.integers(1, q)), q)
        if f not in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)):
            return str(f)


def _generic_point(rng, mu: int) -> list[str]:
    return [_fraction(rng) for _ in range(mu)]


def _quarter_point(rng, mu: int) -> list[str]:
    return [str(rng.choice(["1/4", "3/4"])) for _ in range(mu)]


# Fixed rank-80 forms C(2a_1, b_1, ..., 2a_n), a_1 + ... + a_n = 81.  They
# are the most numerous commands of exact_forms, so its median command does
# not depend on the seed.
TWOBRIDGE_FORMS = tuple(
    ",".join(map(str, pair * count + tail))
    for pair, count, tail in [
        ([4, 3], 40, [2]), ([2, 1], 80, [2]), ([6, 2], 26, [6]),
        ([4, 1], 40, [2]), ([2, 3], 80, [2]), ([8, 2], 20, [2]),
    ]
)


def _shipped_c432(workdir: Path, root: Path) -> str:
    """Copy the shipped C(4,3,2) matrices, as the reference's data for that name."""
    shipped = json.loads((root / "src/linksig/data/systems/C_4_3_2.json").read_text("utf-8"))
    return _write_system(workdir, "ref_C_4_3_2.json", shipped["mu"], shipped["matrices"])


def _scan_grid(rng, workdir: Path, root: Path) -> list[dict]:
    members = [("C(4,3,2)", _shipped_c432(workdir, root), 2, 101)]
    # Five members of distinct cost, so the median command is one member's
    # median and not the boundary between two of them.
    for i, (mu, n, res) in enumerate([(2, 8, 61), (3, 6, 19), (2, 24, 31), (1, 40, 301)]):
        path = _write_system(workdir, f"scan_{i}.json", mu, random_system(rng, mu, n))
        members.append((path, path, mu, res))
    commands = []
    for i, (token, data, mu, res) in enumerate(members):
        out = f"scan_{i}.csv"
        commands.append({
            "argv": ["scan", token, "--res", str(res), "--out", out],
            "group": token,
            "out": out,
            "samples": res**mu,
            "check": {"kind": "scan", "system": data, "res": res, "mu": mu},
        })
    return commands


def _exact_forms(rng, workdir: Path) -> list[dict]:
    commands = []
    for i, (mu, n, hyperbolic) in enumerate(
        [(1, 56, 0), (2, 48, 0), (3, 40, 0), (2, 56, 28), (3, 48, 24)]
    ):
        form, sigma, eta = known_form(rng, n, hyperbolic)
        path = _write_system(workdir, f"exact_{i}.json", mu, _split_form(rng, mu, form))
        commands.append({
            "argv": ["sig", path, "--omega", ",".join(["1/2"] * mu)],
            "group": path,
            "out": None,
            "samples": 1,
            "check": {"kind": "lines", "expect": [f"sigma={sigma} eta={eta}"]},
        })
    for form in TWOBRIDGE_FORMS:
        s = sum(int(c) for c in form.split(",")[0::2]) // 2
        # H(-1,-1) is 4T with T tridiagonal, diagonal <= -2 and off-diagonal
        # 1: irreducibly diagonally dominant, hence negative definite.
        expect = f"s={s} sigma={-(s - 1)} eta=0 bound={s} sp={s} agree=yes"
        commands.append({
            "argv": ["twobridge", form],
            "group": form,
            "out": None,
            "samples": 1,
            "check": {"kind": "lines", "expect": [expect]},
        })
    return commands


def _query_mix(rng, workdir: Path, root: Path) -> list[dict]:
    commands = []
    formula = {"lt": "split-lt", "multi": "split-multi", "rank": "rank"}
    for path in sorted((root / "src/linksig/data/fixtures").glob("*.json")):
        record = json.loads(path.read_text("utf-8"))
        line = (f"name={record['name']} formula={formula[record['kind']]} "
                f"value={record['expected_bound']}")
        commands += [{
            "argv": ["bound", formula[record["kind"]], record["name"]],
            "group": f"bound {record['name']}",
            "out": None,
            "samples": 0,
            "check": {"kind": "prefix", "expect": line},
        }] * 16
    c432 = _shipped_c432(workdir, root)
    for _ in range(48):
        omega = _generic_point(rng, 2)
        commands.append({
            "argv": ["twobridge", "4,3,2", "--omega", ",".join(omega)],
            "group": "twobridge",
            "out": None,
            "samples": 2,
            "check": {"kind": "twobridge", "system": c432, "omega": omega,
                      "first": "s=3 sigma=-2 eta=0 bound=3 sp=3 agree=yes"},
        })
    sizes = [(2, 4), (3, 4), (2, 8), (3, 8), (2, 16), (3, 16), (2, 24), (2, 40)]
    for i, (mu, n) in enumerate(sizes):
        path = _write_system(workdir, f"query_{i}.json", mu, random_system(rng, mu, n))
        for j in range(105):
            omega = _quarter_point(rng, mu) if j % 3 == 0 else _generic_point(rng, mu)
            commands.append({
                "argv": ["sig", path, "--omega", ",".join(omega)],
                "group": path,
                "out": None,
                "samples": 1,
                "check": {"kind": "sig", "system": path, "omega": omega},
            })
    order = rng.permutation(len(commands))
    return [commands[i] for i in order]


def build(name: str, seed: int, workdir: Path, root: Path) -> list[dict]:
    """Write the inputs of workload ``name`` for ``seed``; return one pass's commands.

    A command's ``group`` names the commands that cost the same: the pass time
    is estimated from each group's median (run.py).
    """
    rng = _rng(name, seed)
    if name == "scan_grid":
        return _scan_grid(rng, workdir, root)
    if name == "exact_forms":
        return _exact_forms(rng, workdir)
    if name == "query_mix":
        return _query_mix(rng, workdir, root)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def digest(commands: list[dict], workdir: Path) -> str:
    """SHA-256 over the plan and every generated file, independent of location."""
    h = hashlib.sha256(json.dumps(commands, sort_keys=True).encode())
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
