"""Command-line interface.

Subcommands: ``sig`` (signature/nullity at a torus point), ``scan`` (grid
scan to CSV), ``bound`` (splitting/unlinking lower bounds from a fixture
file or inline values) and ``twobridge`` (Conway-form construction and the
splitting-number computation for the even two-bridge family).

Exit codes: 0 on success, 2 on input or parse errors, 3 on data-invariant
violations.  Output is deterministic: identical invocations print
byte-identical text.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import catalog
from .bounds import (
    ComponentInvariants,
    evaluate_fixture,
    linking_number_bound,
    splitting_bound_multivariable,
    unlinking_bound,
)
from .catalog import CatalogError, InvalidSystem
from .ccomplex import TorusPoint
from .invariants import signature_nullity, torus_scan, write_scan_csv
from .twobridge import ConwayForm, build_gss, predicted_splitting

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3


def cmd_sig(args) -> int:
    system = catalog.resolve_system(args.system)
    omega = TorusPoint.from_strings(args.omega.split(","))
    sigma, eta = signature_nullity(system, omega)
    print(f"sigma={sigma} eta={eta}")
    return EXIT_OK


def cmd_scan(args) -> int:
    system = catalog.resolve_system(args.system)
    if system.mu > 3:
        raise ValueError(f"scan supports at most 3 colors, system has {system.mu}")
    grid = torus_scan(system, args.res)
    write_scan_csv(grid, args.out)
    print(f"rows={grid.sigma.size} min_eta={grid.min_eta} near_zero_det={grid.near_zero_count}")
    return EXIT_OK


def _component_record(item: str) -> dict:
    fields = item.split(",")
    if len(fields) != 2:
        raise ValueError(f"--component expects 'sigma,eta', got {item!r}")
    return {"sigma": int(fields[0]), "eta": int(fields[1])}


def _require(args, names) -> None:
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"missing required inputs: {', '.join(missing)}")


def _inline_record(args, kind: str) -> dict:
    """The fixture record that the inline flags of split-lt/split-multi describe."""
    _require(args, ["mu", "sigma_l", "eta_l"] + ["total_lk"] * (kind == "lt"))
    record = {
        "kind": kind,
        "mu": args.mu,
        "sigma_L": args.sigma_l,
        "eta_L": args.eta_l,
        "total_lk": args.total_lk,
        "components": [_component_record(c) for c in args.component or ["0,0"] * args.mu],
    }
    if args.omega:
        record["omega"] = args.omega.split(",")
    return record


def _pair_flags(items, flag: bool) -> list[tuple[tuple[int, int], bool]]:
    flags = []
    for item in items or []:
        fields = item.split(",")
        if len(fields) != 2:
            raise ValueError(f"pair flags expect 'i,j', got {item!r}")
        flags.append(((int(fields[0]) - 1, int(fields[1]) - 1), flag))
    return flags


#: The value flags of ``bound`` in usage-line order, and the ones each formula
#: reads inline.  A formula given a fixture reads none.
_BOUND_FLAGS = ("mu", "sigma_l", "eta_l", "total_lk", "lk", "component", "nonsplit", "split",
                "omega")
_SPLIT_READS = {"mu", "sigma_l", "eta_l", "total_lk", "component", "omega"}
_INLINE_READS = {
    "split-lt": _SPLIT_READS,
    "split-multi": _SPLIT_READS,
    "linking": {"mu", "lk", "nonsplit", "split"},
    "unlink": {"mu", "sigma_l", "eta_l", "lk"},
}


def cmd_bound(args) -> int:
    kind = {"split-lt": "lt", "split-multi": "multi", "rank": "rank"}.get(args.formula)
    if args.fixture is not None and kind is None:
        raise ValueError(f"formula {args.formula!r} takes inline flags, not a fixture file")
    reads = () if args.fixture is not None else _INLINE_READS.get(args.formula, ())
    unread = [f"--{n.replace('_', '-')}" for n in _BOUND_FLAGS
              if n not in reads and getattr(args, n) is not None]
    if unread:
        source = "with a fixture " if args.fixture is not None else ""
        raise ValueError(f"formula {args.formula!r} {source}does not read {', '.join(unread)}")
    if kind is None:
        _require(args, ["lk"] if args.formula == "linking" else ["mu", "sigma_l", "eta_l", "lk"])
        lk = [int(v) for v in args.lk.split(",")]
        if args.formula == "linking":
            flags = _pair_flags(args.nonsplit, True) + _pair_flags(args.split, False)
            report = linking_number_bound(lk, flags, args.mu)
        else:
            report = unlinking_bound(args.mu, args.sigma_l, args.eta_l, lk)
        print(report.render())
        return EXIT_OK

    if args.fixture is not None:
        record = catalog.resolve_fixture(args.fixture)
        if record.get("kind") != kind:
            raise ValueError(
                f"fixture {record.get('name', args.fixture)!r} has kind "
                f"{record.get('kind')!r}, expected {kind!r}"
            )
    elif kind == "rank":
        raise ValueError("the rank obstruction is evaluated from a fixture file")
    else:
        record = _inline_record(args, kind)
    name = record.get("name")
    print((f"name={name} " if name else "") + evaluate_fixture(record).render())
    return EXIT_OK


def cmd_twobridge(args) -> int:
    form = ConwayForm.parse(args.form)
    system = build_gss(form)
    sigma, eta = signature_nullity(system, TorusPoint.minus_ones(2))
    s = predicted_splitting(form)
    bound = splitting_bound_multivariable(2, sigma, eta, ComponentInvariants.unknots(2)).value
    agree = "yes" if bound == s else "no"
    lines = [f"s={s} sigma={sigma} eta={eta} bound={bound} sp={s} agree={agree}"]
    if args.omega:  # evaluated before anything is printed, so a bad point prints nothing
        omega = TorusPoint.from_strings(args.omega.split(","))
        sig_o, eta_o = signature_nullity(system, omega)
        lines.append(f"omega={omega} sigma={sig_o} eta={eta_o}")
    print("\n".join(lines))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``parse_args`` leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="linksig",
        description="Multivariable link signatures and splitting-number bounds "
        "from generalized Seifert matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sig = sub.add_parser("sig", help="signature and nullity at a torus point")
    p_sig.add_argument("system", help="system file, shipped name, or Conway form C(...)")
    p_sig.add_argument("--omega", required=True, help="comma-separated angle fractions, e.g. 1/2,1/2")
    p_sig.set_defaults(func=cmd_sig)

    p_scan = sub.add_parser("scan", help="grid scan of sigma, eta and |det H| to CSV")
    p_scan.add_argument("system")
    p_scan.add_argument("--res", type=int, required=True, help="samples per axis")
    p_scan.add_argument("--out", required=True, help="output CSV path")
    p_scan.set_defaults(func=cmd_scan)

    p_bound = sub.add_parser("bound", help="evaluate a lower bound")
    p_bound.add_argument(
        "formula", choices=["split-multi", "split-lt", "linking", "rank", "unlink"]
    )
    p_bound.add_argument("fixture", nargs="?", help="fixture file or shipped fixture name")
    p_bound.add_argument("--mu", type=int)
    p_bound.add_argument("--sigma-l", dest="sigma_l", type=int)
    p_bound.add_argument("--eta-l", dest="eta_l", type=int)
    p_bound.add_argument("--total-lk", dest="total_lk", type=int)
    p_bound.add_argument("--lk", help="the mu(mu-1)/2 pairwise linking numbers, i<j row-major")
    p_bound.add_argument("--component", action="append", help="per-color 'sigma,eta', repeatable")
    p_bound.add_argument("--nonsplit", action="append", help="1-based pair 'i,j' known non-split")
    p_bound.add_argument("--split", action="append", help="1-based pair 'i,j' known split")
    p_bound.add_argument("--omega", help="evaluation point, mu coordinates, for the report only")
    p_bound.set_defaults(func=cmd_bound)

    p_tb = sub.add_parser("twobridge", help="two-bridge construction C(2a_1,b_1,...,2a_n)")
    p_tb.add_argument("form", help="comma-separated positive coefficients, e.g. 4,3,2")
    p_tb.add_argument("--omega", help="optional extra evaluation point")
    p_tb.set_defaults(func=cmd_twobridge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        catalog.check_shipped()
        return args.func(args)
    except CatalogError as exc:
        print(f"catalog self-check failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except InvalidSystem as exc:
        for problem in exc.problems:
            print(f"invariant violation: {problem}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # numpy names the allocation it could not make
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
