"""Command-line interface.

Commands: ext (bigraded dimension/product tables), skew (emit the skew
extension's presentation), verify (the factorization certification),
frobenius and kp (corollary verdicts).  Every command takes a presentation
file; verify and skew also take an automorphism file.

Exit codes: 0 success/pass, 1 parse or input error, 2 truncation warnings or
an inconclusive verdict, 3 a failed verification or negative verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import (
    GradedAlgebra,
    MorphismError,
    TruncationError,
    morphism_from_images,
)
from .complexes import minimal_resolution
from .ext import ExtAlgebra
from .freealg import ParseError, Presentation, parse_automorphism, parse_presentation, format_presentation
from .linalg import Mod, field_by_name
from .smash import ext_product_table
from .verify import (
    frobenius_check,
    is_finite_certified,
    low_degree_generation_check,
    verify_ext_factorization,
)
from .algebra import skew_extension


def _jsonable(x):
    if isinstance(x, (Fraction, Mod)):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _coerce_field(pres: Presentation, name: str) -> Presentation:
    field = field_by_name(name)
    if field == pres.field:
        return pres
    if pres.field.name != "Q":
        raise ParseError("can only override a rational presentation with --field")
    rels = tuple(
        {w: field.of(c) for w, c in rel.items()} for rel in pres.relations
    )
    return Presentation(field, pres.generators, rels)


def _precedence(pres, seed_order):
    if not seed_order:
        return None
    names = [n for n in seed_order.replace(",", " ").split() if n]
    index = {g.name: i for i, g in enumerate(pres.generators)}
    if sorted(names) != sorted(index):
        raise ParseError("--seed-order must list every generator exactly once")
    return [index[n] for n in names]


def _load_presentation(args):
    pres = parse_presentation(_read(args.presentation))
    if getattr(args, "field", None):
        pres = _coerce_field(pres, args.field)
    return pres


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _truncation_warnings(res, N, D):
    warnings = []
    if res.gens.get(-N):
        warnings.append(
            "generators persist at cohomological degree %d; the table may continue" % N)
    for n in range(N + 1):
        if any(t == D for t in res.gens.get(-n, [])):
            warnings.append(
                "generators reach internal degree %d at position %d; the table may continue" % (D, n))
            break
    return warnings


def cmd_ext(args):
    pres = _load_presentation(args)
    precedence = _precedence(pres, args.seed_order)
    N, D = args.maxcoh, args.maxdeg
    A = GradedAlgebra(pres, D, precedence)
    P = minimal_resolution(A, N, D)
    E = ExtAlgebra(A, P, N, D)
    warnings = _truncation_warnings(P, N, D)
    lines = ["Ext dimension table over %s, window (N=%d, D=%d):" % (A.field.name, N, D)]
    dims = {}
    for n in range(N + 1):
        at_n = sorted((t, len(idx)) for (m, t), idx in E.bidegrees.items() if m == n)
        row = ", ".join("%d @ t=%d" % (k, t) for t, k in at_n) or "0"
        lines.append("  n=%d: %s" % (n, row))
        for t, k in at_n:
            dims["%d,%d" % (n, t)] = k
    data = {"dimensions": dims}
    if args.products:
        table = ext_product_table(E)
        prods = {}
        lines.append("products (g * f means g after f):")
        for (la, lb), vec in sorted(table.products.items()):
            name = "%s * %s" % (E.label_name(la), E.label_name(lb))
            val = " + ".join("%s %s" % (c, E.label_name(lc)) for lc, c in sorted(vec.items())) or "0"
            lines.append("  %s = %s" % (name, val))
            prods[name] = {E.label_name(lc): str(c) for lc, c in vec.items()}
        data["products"] = prods
    for w in warnings:
        lines.append("warning: " + w)
    payload = {
        "command": "ext",
        "truncation": {"N": N, "D": D},
        "field": A.field.name,
        "certified": {"window": [N, D], "warnings": warnings},
        "data": data,
    }
    _emit(args, payload, lines)
    if warnings and not args.lenient_truncation:
        return 2
    return 0


def cmd_skew(args):
    pres = _load_presentation(args)
    D = args.maxdeg
    A = GradedAlgebra(pres, D, _precedence(pres, args.seed_order))
    images = parse_automorphism(_read(args.auto), pres)
    sigma = morphism_from_images(A, A, images, automorphism=True, D=D)
    bpres = skew_extension(A, sigma, args.z_degree, args.z_name)
    text = format_presentation(bpres)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args):
    pres = _load_presentation(args)
    precedence = _precedence(pres, args.seed_order)
    images = parse_automorphism(_read(args.auto), pres)
    N, D = args.maxcoh, args.maxdeg
    report = verify_ext_factorization(pres, images, args.z_degree, N, D,
                                      zname=args.z_name, precedence=precedence)
    lines = ["factorization check over %s, window (N=%d, D=%d):" % (report.field_name, N, D)]
    for c in report.checks:
        lines.append("  %s %-12s %s" % ("PASS" if c.passed else "FAIL", c.key, c.title))
        if c.details:
            lines.append("       %s" % c.details)
        if c.counterexample is not None and not c.passed:
            lines.append("       counterexample: %s" % (c.counterexample,))
    lines.append("overall: %s" % ("PASS" if report.passed else "FAIL"))
    payload = {
        "command": "verify",
        "truncation": {"N": N, "D": D},
        "field": report.field_name,
        "certified": {
            "window": [N, D],
            "checks": {c.key: c.passed for c in report.checks},
        },
        "data": dict(report.data) | {
            "counterexamples": {
                c.key: c.counterexample for c in report.checks if c.counterexample is not None
            },
        },
    }
    _emit(args, payload, lines)
    return 0 if report.passed else 3


def cmd_frobenius(args):
    pres = _load_presentation(args)
    N, D = args.maxcoh, args.maxdeg
    A = GradedAlgebra(pres, D, _precedence(pres, args.seed_order))
    P = minimal_resolution(A, N, D)
    E = ExtAlgebra(A, P, N, D)
    table = ext_product_table(E)
    fin = is_finite_certified(P, A, N, D)
    verdict = frobenius_check(table, fin)
    lines = [
        "finite-dimensional certified: %s (%s)" % (fin.finite, fin.reason),
        "frobenius verdict [window N=%d, D=%d]: %s" % (N, D, verdict.status),
    ]
    if verdict.detail:
        lines.append("  " + verdict.detail)
    payload = {
        "command": "frobenius",
        "truncation": {"N": N, "D": D},
        "field": A.field.name,
        "certified": {"window": [N, D], "finite": fin.finite},
        "data": {"verdict": verdict.status, "detail": verdict.detail,
                 "top": verdict.top, "finite_reason": fin.reason},
    }
    _emit(args, payload, lines)
    if verdict.status == "frobenius":
        return 0
    if verdict.status == "not-finite-certified":
        return 2
    return 3


def cmd_kp(args):
    pres = _load_presentation(args)
    N, D = args.maxcoh, args.maxdeg
    A = GradedAlgebra(pres, D, _precedence(pres, args.seed_order))
    P = minimal_resolution(A, N, D)
    E = ExtAlgebra(A, P, N, D)
    table = ext_product_table(E)
    verdict = low_degree_generation_check(table, args.p, N, D)
    status = "generated-within-window" if verdict.generated else "not-generated"
    lines = ["K_%d verdict [window N=%d, D=%d]: %s" % (args.p, N, D, status)]
    if verdict.witness:
        lines.append("  first unreached bidegree: %s" % (verdict.witness,))
    payload = {
        "command": "kp",
        "truncation": {"N": N, "D": D},
        "field": A.field.name,
        "certified": {"window": [N, D]},
        "data": {"p": args.p, "verdict": status, "witness": verdict.witness},
    }
    _emit(args, payload, lines)
    return 0 if verdict.generated else 3


def build_parser():
    ap = argparse.ArgumentParser(
        prog="extalg",
        description="Ext-algebras of connected graded algebras and their skew extensions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, auto_required=False):
        p.add_argument("presentation", help="presentation file")
        p.add_argument("--maxcoh", type=int, default=4, metavar="N",
                       help="cohomological truncation (default 4)")
        p.add_argument("--maxdeg", type=int, default=6, metavar="D",
                       help="internal degree truncation (default 6)")
        p.add_argument("--field", default=None, help="field override: Q or F<p>")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--seed-order", default=None,
                       help="generator precedence, names separated by commas")
        if auto_required:
            p.add_argument("--auto", required=True, help="automorphism file")
            p.add_argument("--z-degree", type=int, default=1, metavar="L")
            p.add_argument("--z-name", default="z")

    p = sub.add_parser("ext", help="bigraded Ext dimension (and product) tables")
    common(p)
    p.add_argument("--products", action="store_true", help="emit the multiplication table")
    p.add_argument("--lenient-truncation", action="store_true",
                   help="exit 0 even when truncation warnings are present")
    p.set_defaults(fn=cmd_ext)

    p = sub.add_parser("skew", help="emit the presentation of the skew extension")
    common(p, auto_required=True)
    p.add_argument("--output", default=None, help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_skew)

    p = sub.add_parser("verify", help="certify the twisted tensor factorization of Ext")
    common(p, auto_required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("frobenius", help="Frobenius verdict for the Ext-algebra")
    common(p)
    p.set_defaults(fn=cmd_frobenius)

    p = sub.add_parser("kp", help="generation by cohomological degrees 1..p")
    common(p)
    p.add_argument("--p", type=int, required=True, help="largest generating degree")
    p.set_defaults(fn=cmd_kp)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for flag in ("maxcoh", "maxdeg"):
            if getattr(args, flag) < 0:
                raise ValueError("--%s must be nonnegative" % flag)
        return args.fn(args)
    except (ParseError, MorphismError, FileNotFoundError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except TruncationError as e:
        print("truncation: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
