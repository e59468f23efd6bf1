"""Command-line interface.

Subcommands: ``sig`` (signature/nullity at a torus point), ``scan`` (grid
scan to CSV), ``bound`` (splitting/unlinking lower bounds from a fixture
file or inline values) and ``twobridge`` (Conway-form construction and the
splitting-number computation for the even two-bridge family).

A command is parsed once, by its own subcommand parser, which also reports
an unrecognized argument.  Exit codes: 0 on success, 2 on input or parse
errors, 3 on data-invariant violations.  Output is deterministic: identical
invocations print byte-identical text.  ``bound`` and the catalog gate run
without numpy; ``sig``, ``scan`` and ``twobridge`` import it when they run.
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
from .ccomplex import TorusPoint, integer

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3


def cmd_sig(args) -> int:
    from . import invariants

    system = catalog.resolve_system(args.system)
    omega = TorusPoint.from_strings(args.omega.split(","))
    sigma, eta = invariants.signature_nullity(system, omega)
    print(f"sigma={sigma} eta={eta}")
    return EXIT_OK


def cmd_scan(args) -> int:
    from . import invariants

    system = catalog.resolve_system(args.system)
    if system.mu > 3:
        raise ValueError(f"scan supports at most 3 colors, system has {system.mu}")
    grid = invariants.torus_scan(system, args.res)
    invariants.write_scan_csv(grid, args.out)
    print(f"rows={grid.sigma.size} min_eta={grid.min_eta} near_zero_det={grid.near_zero_count}")
    return EXIT_OK


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _ints(flag: str, item: str, expects: str | None = None) -> list[int]:
    """The comma-separated integers of one ``flag`` value; given ``expects``, exactly two."""
    fields = item.split(",") if item else []
    if expects and len(fields) != 2:
        raise ValueError(f"{expects}, got {item!r}")
    try:
        return [integer(field) for field in fields]
    except ValueError:
        raise ValueError(f"{flag} expects integers, got {item!r}") from None


#: The value flags of ``bound`` in usage-line order, each with its argparse settings.
_BOUND_FLAGS = {
    "mu": {"type": integer},
    "sigma_l": {"type": integer},
    "eta_l": {"type": integer},
    "total_lk": {"type": integer},
    "lk": {"help": "the mu(mu-1)/2 pairwise linking numbers, i<j row-major"},
    "component": {"action": "append", "help": "per-color 'sigma,eta', repeatable"},
    "nonsplit": {"action": "append", "help": "1-based pair 'i,j' known non-split"},
    "split": {"action": "append", "help": "1-based pair 'i,j' known split"},
    "omega": {"help": "evaluation point, mu coordinates, for the report only"},
}
#: Per formula, in usage-line order: its fixture kind (None: inline flags
#: only), then the value flags an inline call must give and the further ones
#: it may give.  A formula given a fixture reads no value flag.
_FORMULAS = {
    "split-multi": ("multi", "mu sigma_l eta_l", "total_lk component omega"),
    "split-lt": ("lt", "mu sigma_l eta_l total_lk", "component omega"),
    "linking": (None, "lk", "mu nonsplit split"),
    "rank": ("rank", "", ""),
    "unlink": (None, "mu sigma_l eta_l lk", ""),
}


def cmd_bound(args) -> int:
    kind, needs, optional = _FORMULAS[args.formula]
    if args.fixture is not None:
        if kind is None:
            raise ValueError(f"formula {args.formula!r} takes inline flags, not a fixture file")
        needs = optional = ""
    reads = f"{needs} {optional}".split()
    unread = [_flag(n) for n in _BOUND_FLAGS if n not in reads and getattr(args, n) is not None]
    if unread:
        source = "with a fixture " if args.fixture is not None else ""
        raise ValueError(f"formula {args.formula!r} {source}does not read {', '.join(unread)}")
    missing = [_flag(n) for n in needs.split() if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required inputs: {', '.join(missing)}")

    if kind is None:
        lk = _ints("--lk", args.lk)
        if args.formula == "unlink":
            report = unlinking_bound(args.mu, args.sigma_l, args.eta_l, lk)
        else:
            pairs = [(_ints(_flag(n), item, "pair flags expect 'i,j'"), n == "nonsplit")
                     for n in ("nonsplit", "split") for item in getattr(args, n) or ()]
            flags = [((i - 1, j - 1), flag) for (i, j), flag in pairs]
            report = linking_number_bound(lk, flags, args.mu)
        print(report.render())
        return EXIT_OK
    if args.fixture is not None:
        record = catalog.resolve_fixture(args.fixture)
        if record.get("kind") != kind:
            raise ValueError(f"fixture {record.get('name', args.fixture)!r} has kind "
                             f"{record.get('kind')!r}, expected {kind!r}")
    elif kind == "rank":
        raise ValueError("the rank obstruction is evaluated from a fixture file")
    else:  # the fixture record that the inline flags describe; no components means unknots
        record = {"kind": kind, "mu": args.mu, "sigma_L": args.sigma_l, "eta_L": args.eta_l,
                  "total_lk": args.total_lk}
        if args.component:
            comps = [_ints("--component", c, "--component expects 'sigma,eta'")
                     for c in args.component]
            record["components"] = [{"sigma": s, "eta": e} for s, e in comps]
        if args.omega:
            record["omega"] = args.omega.split(",")
    name = record.get("name")
    print((f"name={name} " if name else "") + evaluate_fixture(record).render())
    return EXIT_OK


def cmd_twobridge(args) -> int:
    from . import invariants, twobridge

    form = twobridge.ConwayForm.parse(args.form)
    system = twobridge.build_gss(form)
    sigma, eta = invariants.signature_nullity(system, TorusPoint.minus_ones(2))
    s = twobridge.predicted_splitting(form)
    bound = splitting_bound_multivariable(2, sigma, eta, ComponentInvariants.unknots(2)).value
    agree = "yes" if bound == s else "no"
    lines = [f"s={s} sigma={sigma} eta={eta} bound={bound} sp={s} agree={agree}"]
    if args.omega:  # evaluated before anything is printed, so a bad point prints nothing
        omega = TorusPoint.from_strings(args.omega.split(","))
        sig_o, eta_o = invariants.signature_nullity(system, omega)
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
    parser.commands = sub.choices  # each command's own parser, by name, for ``main``

    p_sig = sub.add_parser("sig", help="signature and nullity at a torus point")
    p_sig.add_argument("system", help="system file, shipped name, or Conway form C(...)")
    p_sig.add_argument("--omega", required=True, help="comma-separated angle fractions, e.g. 1/2,1/2")
    p_sig.set_defaults(func=cmd_sig)

    p_scan = sub.add_parser("scan", help="grid scan of sigma, eta and |det H| to CSV")
    p_scan.add_argument("system")
    p_scan.add_argument("--res", type=integer, required=True, help="samples per axis")
    p_scan.add_argument("--out", required=True, help="output CSV path")
    p_scan.set_defaults(func=cmd_scan)

    p_bound = sub.add_parser("bound", help="evaluate a lower bound")
    p_bound.add_argument("formula", choices=_FORMULAS)
    p_bound.add_argument("fixture", nargs="?", help="fixture file or shipped fixture name")
    for name, settings in _BOUND_FLAGS.items():
        p_bound.add_argument(_flag(name), **settings)
    p_bound.set_defaults(func=cmd_bound)

    p_tb = sub.add_parser("twobridge", help="two-bridge construction C(2a_1,b_1,...,2a_n)")
    p_tb.add_argument("form", help="comma-separated positive coefficients, e.g. 4,3,2")
    p_tb.add_argument("--omega", help="optional extra evaluation point")
    p_tb.set_defaults(func=cmd_twobridge)

    return parser


def _negative_values(argv: list[str]) -> list[str]:
    """``argv`` with each token that starts with ``-`` and a digit joined by ``=``
    to the long flag right before it, whose value it is: argparse alone reads
    ``--component -1,1`` as a flag missing its value and an unknown option.
    Every long flag of this parser but ``--help`` takes one value."""
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if (token[:1] == "-" and token[1:2].isdecimal() and flag.startswith("--")
                and "=" not in flag and not "--help".startswith(flag)):
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    argv = _negative_values(sys.argv[1:] if argv is None else list(argv))
    # A command's own parser reads its arguments, once; the top level reads only
    # what names no command, to print its help or its error.
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    try:
        catalog.self_check()
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
