"""Command-line front end.

Subcommands delegate to the library operations; every result is printed as
one JSON object on stdout with a short human summary on stderr.  Exit
codes: 0 success or passing verification, 1 failing verification, 2 usage
or parse error, 3 precision or budget exhaustion, or a verification that
checked no sample (verdict ``undecided``).  ``HAHN_FORGE_SEED`` overrides
``--seed``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import prepare as preparation
from .analytic import default_registry, hensel_root, implicit_series
from .errors import (
    BudgetExhausted,
    DepthExhausted,
    HahnForgeError,
    InsufficientPrecision,
    PrecisionStall,
    TermSyntaxError,
    UndecidableAtPrecision,
    UndecidedSign,
    UnknownFunction,
)
from .multiseries import format_multiseries, parse_multiseries, strong_split, weierstrass_divide
from .prepare import StrongUnitSpec, jacobian_probe, newton_polygon, puiseux_roots, strong_unit_probe
from .rv import rv_lambda
from .series import GroupElement, format_exponent, format_series, parse_series
from .terms import eval_term, parse_term, polynomial_coeffs, prepare_term

_PRECISION_ERRORS = (
    InsufficientPrecision,
    UndecidableAtPrecision,
    PrecisionStall,
    BudgetExhausted,
    DepthExhausted,
    UndecidedSign,
)

_VERDICT_EXIT = {"pass": 0, "fail": 1, "undecided": 3}

# root expansion and the samplers built on it run over exponent rank 1 only
_RANK_ONE_COMMANDS = ("roots", "prepare", "verify", "jacobian", "probe-unit")


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise TermSyntaxError(message)


def _add_common(parser, suppress):
    default = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--prec", default=default("8"), help="target precision exponent p/q")
    parser.add_argument("--lambda", dest="lam", default=default("0"), help="leading-term depth p/q")
    parser.add_argument("--seed", type=int, default=default(0))
    parser.add_argument("--trials", type=int, default=default(300))
    parser.add_argument("--rank", type=int, default=default(1))
    parser.add_argument("--degree", type=int, default=default(6))
    if suppress:
        parser.add_argument("--inv-zero-is-zero", action="store_true", default=argparse.SUPPRESS)
    else:
        parser.add_argument("--inv-zero-is-zero", action="store_true")


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _CliParser(prog="hahn-forge", description="exact Hahn-series computer algebra")
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name):
        # global flags are valid on either side of the subcommand
        p = sub.add_parser(name)
        _add_common(p, suppress=True)
        return p

    p = add_parser("eval")
    p.add_argument("term")
    p.add_argument("--at", required=True, help="series value for x")

    p = add_parser("rv")
    p.add_argument("series")

    p = add_parser("divide")
    p.add_argument("divisor")
    p.add_argument("dividend")
    p.add_argument("--var", type=int, default=1, help="distinguished variable, 1-based")

    p = add_parser("split")
    p.add_argument("series")

    p = add_parser("hensel")
    p.add_argument("coeffs", nargs="*", help="a_2 .. a_d as series text")

    p = add_parser("implicit")
    p.add_argument("series", help="multiseries, last variable solved")

    p = add_parser("roots")
    p.add_argument("poly", help="polynomial term in x")
    p.add_argument("--depth", default="4")

    p = add_parser("polygon")
    p.add_argument("poly")

    p = add_parser("prepare")
    p.add_argument("term")
    p.add_argument("--budget", type=int, default=3)

    p = add_parser("verify")
    p.add_argument("term")
    p.add_argument("--with-C", dest="with_c", required=True, help="semicolon-separated series")

    p = add_parser("jacobian")
    p.add_argument("term")
    p.add_argument("--with-C", dest="with_c", default=None)

    p = add_parser("probe-unit")
    p.add_argument("--center", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--g", default=None, help="registered function for the inner part")
    p.add_argument("--g-scale", default=None)
    p.add_argument("--h", default=None, help="registered function for the outer part")
    p.add_argument("--h-scale", default=None)
    return parser


def _emit(payload, summary):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stderr.write(summary + "\n")


def _poly_coeffs(text, registry, rank):
    coeffs = polynomial_coeffs(parse_term(text, registry, rank), rank)
    if coeffs is None:
        raise TermSyntaxError("the input must be polynomial in x")
    return coeffs


def _rational(flag, text):
    """The rational value of a ``p/q`` flag; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} has a zero denominator: {text!r}") from None


def run_cli(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        seed_env = os.environ.get("HAHN_FORGE_SEED")
        if seed_env is not None:
            args.seed = int(seed_env)
        return _dispatch(args, default_registry())
    except _PRECISION_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, BudgetExhausted) and exc.report is not None:
            sys.stdout.write(exc.report.to_json() + "\n")
        return 3
    except (HahnForgeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _dispatch(args, registry):
    rank = args.rank
    if rank < 1:
        raise ValueError(f"the exponent rank must be at least 1, got --rank {rank}")
    if rank != 1 and args.command in _RANK_ONE_COMMANDS:
        raise ValueError(f"{args.command} supports rank 1 only, got --rank {rank}")
    prec = GroupElement.scalar(_rational("--prec", args.prec), rank)
    lam = GroupElement.scalar(_rational("--lambda", args.lam), rank)
    if args.command == "eval":
        node = parse_term(args.term, registry, rank)
        x = parse_series(args.at, rank)
        value = eval_term(node, x, prec, registry, args.inv_zero_is_zero)
        _emit({"value": format_series(value)}, f"eval ok at precision {args.prec}")
        return 0

    if args.command == "rv":
        x = parse_series(args.series, rank)
        datum = rv_lambda(x, lam)
        _emit({"rv": datum.to_dict(), "lambda": args.lam}, "rv computed")
        return 0

    if args.command == "divide":
        f = parse_multiseries(args.divisor, rank=rank)
        g = parse_multiseries(args.dividend, rank=rank)
        nvars = max(f.nvars, g.nvars)
        if not 1 <= args.var <= nvars:
            raise ValueError(f"--var must name one of the variables x1 to x{nvars}, got --var {args.var}")
        q, r = weierstrass_divide(f, g, args.var - 1, args.degree, prec)
        _emit(
            {"Q": format_multiseries(q), "R": [format_multiseries(x) for x in r]},
            f"division by a degree-{len(r)} regular series",
        )
        return 0

    if args.command == "split":
        f = parse_multiseries(args.series, rank=rank)
        f1, f2, q = strong_split(f)
        _emit(
            {"f1": format_multiseries(f1), "f2": format_multiseries(f2), "Q": format_multiseries(q)},
            "strong split computed",
        )
        return 0

    if args.command == "hensel":
        coeffs = [parse_series(c, rank) for c in args.coeffs]
        root = hensel_root(coeffs, prec, rank)
        _emit({"root": format_series(root)}, "hensel root lifted")
        return 0

    if args.command == "implicit":
        f = parse_multiseries(args.series, rank=rank)
        r = implicit_series(f, args.degree, prec)
        _emit({"r": format_multiseries(r)}, "implicit series solved")
        return 0

    if args.command == "roots":
        coeffs = _poly_coeffs(args.poly, registry, rank)
        roots = puiseux_roots(coeffs, _rational("--depth", args.depth))
        _emit({"roots": [r.to_dict() for r in roots]}, f"{len(roots)} branches")
        return 0

    if args.command == "polygon":
        coeffs = _poly_coeffs(args.poly, registry, rank)
        edges = newton_polygon(coeffs)
        _emit(
            {"polygon": [{"slope": format_exponent(v), "multiplicity": m} for v, m in edges]},
            f"{len(edges)} polygon edges",
        )
        return 0

    if args.command == "prepare":
        node = parse_term(args.term, registry, rank)
        prep, report = prepare_term(node, lam, args.budget, args.trials, args.seed, registry)
        _emit(
            {"preparing_set": prep.to_dict(), "report": report.to_dict()},
            f"prepared with {len(prep.points)} points: {report.verdict}",
        )
        return _VERDICT_EXIT[report.verdict]

    if args.command == "verify":
        node = parse_term(args.term, registry, rank)
        centers = [parse_series(c.strip(), rank) for c in args.with_c.split(";") if c.strip()]
        term_fn = lambda x, p: eval_term(node, x, p, registry, args.inv_zero_is_zero)
        report = preparation.verify_preparation(term_fn, centers, lam, args.trials, args.seed)
        _emit({"report": report.to_dict()}, f"verification: {report.verdict}")
        return _VERDICT_EXIT[report.verdict]

    if args.command == "jacobian":
        node = parse_term(args.term, registry, rank)
        if args.with_c:
            centers = [parse_series(c.strip(), rank) for c in args.with_c.split(";") if c.strip()]
        else:
            prep, _ = prepare_term(node, lam, 3, args.trials, args.seed, registry)
            centers = prep.centers()
        term_fn = lambda x, p: eval_term(node, x, p, registry, args.inv_zero_is_zero)
        report = jacobian_probe(term_fn, centers, args.trials, args.seed)
        _emit({"report": report.to_dict()}, f"jacobian probe: {report.verdict}")
        return _VERDICT_EXIT[report.verdict]

    # probe-unit: argparse admits no other command
    for flag, fn, scale in (("g", args.g, args.g_scale), ("h", args.h, args.h_scale)):
        if scale and not fn:
            raise ValueError(f"--{flag}-scale needs --{flag}")
    center = parse_series(args.center, rank)
    inner = parse_series(args.inner, rank)
    outer = parse_series(args.outer, rank)
    spec = StrongUnitSpec(
        g=registry.get(args.g) if args.g else None,
        g_scale=parse_series(args.g_scale, rank) if args.g_scale else None,
        h=registry.get(args.h) if args.h else None,
        h_scale=parse_series(args.h_scale, rank) if args.h_scale else None,
    )
    if args.g and spec.g is None:
        raise UnknownFunction(f"function {args.g!r} is not registered")
    if args.h and spec.h is None:
        raise UnknownFunction(f"function {args.h!r} is not registered")
    report = strong_unit_probe(spec, (center, inner, outer), lam, args.trials, args.seed)
    _emit({"report": report.to_dict()}, f"strong-unit probe: {report.verdict}")
    return _VERDICT_EXIT[report.verdict]


def main():
    sys.exit(run_cli(sys.argv[1:]))
