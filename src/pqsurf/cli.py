"""Command-line interface.

Subcommands: invariants, table, singularities, hj, bounds, local-check,
bigness.  All numeric output is exact; non-integral rationals print as
"p/q".  Exit codes: 0 success, 2 parse error, 3 validation error, 4 engine
inconsistency.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .errors import EngineInconsistencyError, ParseError, PQError, ValidationError
from .limits import DEFAULT_ORDER_CAP, MAX_CERTIFICATE_POWER, MAX_HJ_ORDER

# Each subcommand imports the layers it uses when it runs, so that a short
# command such as `hj` or `bigness` does not load the group engine.

SCHEMA_VERSION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_ENGINE = 4


def fmt(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _emit_json(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    print(json.dumps(payload, indent=2))


def _load_description(path: str):
    from .inputs import parse_input

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_input(text)


# -- subcommands ---------------------------------------------------------------


def cmd_hj(args) -> int:
    from .hj import SingularityType, dual_type, leading_minors, string_for, string_intersection_matrix

    if args.n > MAX_HJ_ORDER:
        raise ValidationError(f"hj: n = {args.n} is above the ceiling {MAX_HJ_ORDER} of the dense string matrix")
    t = SingularityType(args.n, args.a)
    s = string_for(t)
    matrix = string_intersection_matrix(s)
    det = leading_minors(s)[-1]
    if args.json:
        _emit_json(
            {
                "n": t.n,
                "a": t.a,
                "dual_a": dual_type(t).a,
                "expansion": list(s.b),
                "matrix": matrix,
                "determinant": det,
            }
        )
        return 0
    print(f"type        {t}")
    print(f"dual        {dual_type(t)}")
    print(f"expansion   [{', '.join(map(str, s.b))}]")
    print("matrix")
    for row in matrix:
        print("    " + " ".join(f"{x:3d}" for x in row))
    print(f"determinant {det}")
    return 0


def cmd_invariants(args) -> int:
    from .inputs import run_invariants

    desc = _load_description(args.file)
    summary = run_invariants(desc, name=Path(args.file).stem, cap=args.max_group_order)
    if args.json:
        _emit_json(summary.to_json())
        return 0
    sing = ", ".join(f"{c} x 1/{n}(1,{a})" for n, a, c in summary.singularities) or "none"
    print(f"group order    {summary.group_order}")
    print(f"g(C1), g(C2)   {summary.g1}, {summary.g2}")
    print(f"singularities  {sing}")
    print(f"e              {summary.e}")
    print(f"K^2            {summary.ksq}")
    print(f"chi            {summary.chi}")
    print(f"q              {summary.q}")
    print(f"pg             {summary.pg}")
    return 0


def cmd_singularities(args) -> int:
    from .inputs import realize
    from .singularities import enumerate_singularities

    desc = _load_description(args.file)
    _, sys1, sys2 = realize(desc, cap=args.max_group_order)
    locus = enumerate_singularities(sys1, sys2)
    if args.json:
        _emit_json({"singularities": locus.to_json()})
        return 0
    if not locus.points:
        print("no singular points")
        return 0
    for entry in locus.to_json():
        print(
            f"1/{entry['n']}(1,{entry['a']})  normalized a={entry['a_normalized']}"
            f"  branch pair {tuple(entry['branch_pair'])}  orbit size {entry['orbit_size']}"
        )
    return 0


def cmd_bounds(args) -> int:
    from .bounds import degree_bound_report, lemma_cc_check
    from .inputs import realize
    from .surface import build_surface_model

    desc = _load_description(args.file)
    _, sys1, sys2 = realize(desc, cap=args.max_group_order)
    model = build_surface_model(sys1, sys2)
    reports = [
        degree_bound_report(model, curve)
        for curve in [model.F1, model.F2, *model.N, *model.M]
    ]
    cc = lemma_cc_check(model, in_scope=desc.in_scope_c1sq6)
    if args.json:
        _emit_json(
            {
                "curves": [r.to_json() for r in reports],
                "central_genera": [{"curve": c, "genus": g} for c, g in cc.genera],
                "lemma_cc_asserted": cc.asserted,
                "rational_centrals": list(cc.violations),
            }
        )
        return 0
    print(f"{'curve':<6} {'genus':>5} {'(K-E).C':>9} {'bound':>6}  ok")
    for r in reports:
        print(f"{r.curve.label:<6} {r.genus:>5} {fmt(r.kme_degree):>9} {r.bound:>6}  {r.satisfied}")
    if desc.in_scope_c1sq6:
        verdict = "all central components non-rational" if cc.all_nonrational else (
            "RATIONAL central components: " + ", ".join(cc.violations)
        )
        print(verdict)
    return 0


def cmd_table(args) -> int:
    from .inputs import formula_invariants, parse_rows, run_invariants

    summaries = []
    errors = []
    for path in args.files:
        if path.endswith(".rows"):
            try:
                rows = parse_rows(Path(path).read_text())
            except OSError as exc:
                raise ParseError(f"cannot read {path}: {exc}") from None
            for row in rows:
                try:
                    summaries.append((formula_invariants(row), None))
                except PQError as exc:
                    summaries.append((None, f"{row.name}: {exc}"))
                    errors.append(exc)
        else:
            try:
                desc = _load_description(path)
                summaries.append(
                    (run_invariants(desc, name=Path(path).stem, cap=args.max_group_order), None)
                )
            except PQError as exc:
                summaries.append((None, f"{path}: {exc}"))
                errors.append(exc)
    header = ["name", "group_order", "g1", "g2", "singularities", "e", "Ksq", "chi", "q", "pg", "error"]
    records = []
    for summary, error in summaries:
        if summary is None:
            records.append({"name": "", "error": error})
            continue
        record = summary.to_json()
        record["singularities"] = "+".join(
            f"{n}/{a}x{c}" for n, a, c in summary.singularities
        )
        record["error"] = ""
        records.append(record)
    if args.json:
        _emit_json({"rows": records})
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=header, restval="")
        writer.writeheader()
        for record in records:
            writer.writerow({k: record.get(k, "") for k in header})
    return _exit_code_for(errors[0]) if errors else 0


_POLY_TERM = re.compile(
    r"^\s*(?P<coeff>-?\d+(/\d+)?)?\s*\*?\s*(?:z1(?:\^(?P<i>\d+))?)?\s*\*?\s*(?:z2(?:\^(?P<j>\d+))?)?\s*$"
)


def parse_polynomial(text: str) -> tuple[tuple[int, int, Fraction], ...]:
    """Parse e.g. "3*z1^2*z2 - z2^4 + 1/2" into (i, j, coefficient) terms."""
    normalized = text.replace("-", "+-").replace(" ", "")
    terms = []
    for chunk in normalized.split("+"):
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign, chunk = Fraction(-1), chunk[1:]
        match = _POLY_TERM.match(chunk)
        if not match or not chunk:
            raise ParseError(f"bad polynomial term {chunk!r}")
        has_z1 = "z1" in chunk
        has_z2 = "z2" in chunk
        coeff_text = match.group("coeff")
        if coeff_text is None and not (has_z1 or has_z2):
            raise ParseError(f"bad polynomial term {chunk!r}")
        coeff = sign * Fraction(coeff_text) if coeff_text else sign
        i = int(match.group("i") or (1 if has_z1 else 0))
        j = int(match.group("j") or (1 if has_z2 else 0))
        terms.append((i, j, coeff))
    if not terms:
        raise ParseError(f"empty polynomial {text!r}")
    return tuple(terms)


def cmd_local_check(args) -> int:
    from .differentials import SourceSection, gamma_pullback, invariance_check, is_holomorphic

    terms = parse_polynomial(args.section)
    section = SourceSection(args.m, terms)
    pullback = gamma_pullback(section)
    holomorphic = is_holomorphic(pullback)
    order = pullback.min_mu1_exponent()
    invariant = invariance_check(section)
    if args.json:
        _emit_json(
            {
                "m": args.m,
                "invariant": invariant,
                "holomorphic": holomorphic,
                "mu1_order": None if order is None else str(order),
                "terms": [
                    {"mu1": str(p), "mu2": q, "dmu1": alpha, "dmu2": beta, "coeff": str(c)}
                    for p, q, alpha, beta, c in pullback.terms
                ],
            }
        )
        return 0
    for p, q, alpha, beta, c in pullback.terms:
        print(f"{fmt(c):>8}  mu1^{fmt(p)} mu2^{q} dmu1^{alpha} dmu2^{beta}")
    print(f"invariant under (z1,z2) -> (-z1,-z2): {invariant}")
    print(f"holomorphic: {holomorphic}")
    print(f"vanishing order along mu1 = 0: {'-' if order is None else fmt(order)}")
    return 0


def cmd_bigness(args) -> int:
    from .differentials import bigness_certificate

    cert = bigness_certificate(args.ksq, args.chi, args.points, m_max=args.max_m)
    if args.json:
        _emit_json(
            {
                "ksq": args.ksq,
                "chi": args.chi,
                "points": args.points,
                "certificate": None
                if cert is None
                else {"m_star": cert.m_star, "value": str(cert.value)},
            }
        )
        return 0
    if cert is None:
        print(f"no certificate for m <= {args.max_m}")
    else:
        print(f"m* = {cert.m_star}, section-count lower bound = {fmt(cert.value)}")
    return 0


# -- driver --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves no state on it, and building it
    anew for every in-process call costs time and leaves cyclic garbage."""
    parser = argparse.ArgumentParser(
        prog="pqsurf", description="Exact invariants of product-quotient surfaces"
    )
    parser.add_argument(
        "--max-group-order",
        type=int,
        default=DEFAULT_ORDER_CAP,
        help="cap on the order of constructed groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hj", help="Hirzebruch-Jung expansion of n/a")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hj)

    p = sub.add_parser("invariants", help="numerical invariants from a .pq file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("singularities", help="singular locus from a .pq file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_singularities)

    p = sub.add_parser("bounds", help="degree-bound reports for the basis curves")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table", help="batch table from .pq and/or .rows files")
    p.add_argument("files", nargs="+")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--csv", action="store_true", help="CSV output (the default)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("local-check", help="pull a section back through the 1/2(1,1) chart")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--section", required=True, help='polynomial in z1, z2, e.g. "z1^2 + 3*z1*z2"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_local_check)

    p = sub.add_parser("bigness", help="section-count bigness certificate for K - E")
    p.add_argument("--ksq", type=int, required=True)
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--max-m", type=int, default=MAX_CERTIFICATE_POWER)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bigness)

    return parser


def _exit_code_for(exc: PQError) -> int:
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, EngineInconsistencyError):
        return EXIT_ENGINE
    return EXIT_VALIDATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
