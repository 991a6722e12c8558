"""Command-line interface.

Exit codes: 0 when the queried property holds or a witness was found,
1 when it provably does not hold, 2 on input errors.  All output is
deterministic; decimals are half-up renderings of the exact values and
are marked with '~'.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import blackwell, comparison, serialize
from .conditioning import is_deterministic_given
from .errors import CapabilityError, DistributionError, LoadError, ShapeError, WitnessError
from .kernel import Kernel, is_deterministic, state, state_is_dirac
from .serialize import decimal_str

_ERRORS = (LoadError, ShapeError, CapabilityError, DistributionError, WitnessError)


def _fmt(value: Fraction) -> str:
    return f"{value} (~{decimal_str(value)})"


def _print_kernel(k: Kernel, indent: str = "  ") -> None:
    for a in k.dom.labels:
        parts = []
        for y in k.cod.labels:
            w = k.column(a).weight(y)
            parts.append(f"{serialize._label_key(y)}: {_fmt(w)}")
        print(f"{indent}{serialize._label_key(a)} -> {', '.join(parts)}")


def _print_metadist(md: blackwell.MetaDist, indent: str = "  ") -> None:
    for point, weight in md.items():
        coords = ", ".join(f"{w} (~{decimal_str(w)})" for w in point.weights)
        print(f"{indent}point ({coords})  weight {_fmt(weight)}")


def _resolve_prior(exp, args, needed_by: str) -> Kernel:
    if args.uniform:
        if exp.semiring.name != "rational":
            raise LoadError("--uniform needs the rational semiring")
        return comparison.uniform_prior(exp.theta)
    if args.prior is None:
        raise LoadError(f"{needed_by} needs --prior NAME or --uniform")
    return exp.prior(args.prior)


def _cmd_compare(args) -> int:
    exp = serialize.load_experiment(args.file)
    f = exp.kernel(args.f)
    g = exp.kernel(args.g)
    mode = args.mode
    if mode == "plain":
        witness = comparison.find_garbling(f, g)
    elif mode == "bayes":
        witness = comparison.find_garbling_bayes(f, g)
    else:
        witness = comparison.find_garbling_as(f, g, _resolve_prior(exp, args, "mode 'as'"))
    if args.json:
        doc = {"mode": mode, "feasible": witness is not None,
               "witness": serialize.kernel_to_json(witness) if witness else None}
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif witness is None:
        print(f"{args.f} is not more informative than {args.g} (mode {mode}): "
              f"no garbling exists")
    else:
        print(f"{args.f} >= {args.g} (mode {mode}); witness channel:")
        _print_kernel(witness)
    return 0 if witness is not None else 1


def _cmd_standard_measure(args) -> int:
    exp = serialize.load_experiment(args.file)
    f = exp.kernel(args.f)
    md = blackwell.standard_measure(f, _resolve_prior(exp, args, "standard-measure"))
    if args.json:
        print(json.dumps(serialize.metadist_to_json(md), indent=2, sort_keys=True))
    else:
        print(f"standard measure of {args.f}:")
        _print_metadist(md)
    return 0


def _cmd_bss(args) -> int:
    exp = serialize.load_experiment(args.file)
    f = exp.kernel(args.f)
    g = exp.kernel(args.g)
    report = blackwell.bss_check(f, g, _resolve_prior(exp, args, "bss"))
    if args.json:
        print(json.dumps(serialize.bss_report_to_json(report), indent=2, sort_keys=True))
    else:
        print(f"standard measure of {args.f}:")
        _print_metadist(report.f_hat_m)
        print(f"standard measure of {args.g}:")
        _print_metadist(report.g_hat_m)
        print(f"garbling ({args.f} -> {args.g} almost surely): "
              f"{'feasible' if report.garbling_feasible else 'infeasible'}")
        if report.garbling is not None:
            _print_kernel(report.garbling)
        print(f"dilation (transport of standard measures): "
              f"{'feasible' if report.dilation_feasible else 'infeasible'}")
        if report.dilation is not None:
            for source, row in report.dilation.rows:
                shares = ", ".join(f"({p.text()}): {_fmt(w)}" for p, w in row.items())
                print(f"  row ({source.text()}) -> {shares}")
        if report.full_support:
            print(f"plain garbling (full-support prior): "
                  f"{'feasible' if report.plain_garbling is not None else 'infeasible'}")
        print(f"verdicts agree: {'yes' if report.agree else 'NO'}")
    return 0 if report.garbling_feasible else 1


def _cmd_check(args) -> int:
    exp = serialize.load_experiment(args.file)
    k = exp.kernel(args.kernel)
    prop = args.property
    if prop == "deterministic":
        verdict = is_deterministic(k)
    elif prop == "dirac":
        if len(k.dom) != 1:
            raise LoadError("'dirac' applies to states (single-input kernels)")
        verdict = state_is_dirac(state(k.column(k.dom.labels[0])))
    else:
        side = "left" if prop == "det-given-left" else "right"
        if k.cod.factors is None:
            raise LoadError(f"'{prop}' needs a kernel into a product (pair labels)")
        verdict = is_deterministic_given(k, given=side)
    print(f"{args.kernel} {prop}: {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def _add_prior_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--prior", help="name of a prior declared in the file")
    group.add_argument("--uniform", action="store_true",
                       help="use the uniform prior over the hypothesis set")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semistoch",
        description="Exact comparison of finite statistical experiments "
                    "over commutative semirings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="search for a garbling turning one "
                                       "experiment into another")
    p.add_argument("file")
    p.add_argument("f", help="name of the candidate more-informative experiment")
    p.add_argument("g", help="name of the target experiment")
    p.add_argument("--mode", choices=["plain", "as", "bayes"], default="plain")
    _add_prior_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_compare)

    p = sub.add_parser("standard-measure", help="distribution of the posterior point")
    p.add_argument("file")
    p.add_argument("f")
    _add_prior_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_standard_measure)

    p = sub.add_parser("bss", help="run garbling and dilation synthesis and "
                                   "compare their verdicts")
    p.add_argument("file")
    p.add_argument("f")
    p.add_argument("g")
    _add_prior_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_bss)

    p = sub.add_parser("check", help="decide a structural property of a kernel")
    p.add_argument("file")
    p.add_argument("kernel")
    p.add_argument("property", choices=["deterministic", "dirac",
                                        "det-given-left", "det-given-right"])
    p.set_defaults(run=_cmd_check)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
