"""Command-line interface.

Subcommands: invariants, table, singularities, hj, bounds, local-check,
bigness.  Each ``cmd_*`` computes one payload dict, and this module is the
only one that defines its keys: with ``--json`` the payload is printed as
JSON, and without it the command's ``render_*`` prints the text view from
that payload alone.  All numeric output is exact; non-integral rationals
print as "p/q".  An error of a command that reads a .pq file names the file
once.  Exit codes: 0 success, else the ``exit_code`` of the error's class (2
parse, 3 validation, 4 engine inconsistency), or 141 when the reader of
standard output closes it before the output is written (as in ``pqsurf
bounds x.pq | head -1``): then nothing goes to stderr, and if standard output
is the process's own, it is pointed at the null device so that the
interpreter's final flush is quiet.  An in-process caller's replacement
``sys.stdout`` is left as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .errors import EngineInconsistencyError, ParseError, PQError, ValidationError
from .limits import (
    DEFAULT_ORDER_CAP, MAX_DIGITS, MAX_HJ_ORDER, MAX_LOCAL_M, MAX_ORDER_CAP, parse_int, require_digits, shortened,
)

# Each subcommand imports the layers it uses when it runs, so that a short
# command such as `hj` or `bigness` does not load the group engine.

SCHEMA_VERSION = 1
EXIT_BROKEN_PIPE = 128 + 13  # as a shell reports a process killed by SIGPIPE


def _require_range(flag: str, value: int, floor: int, ceiling: int | None = None) -> None:
    if value < floor:
        raise ValidationError(f"{flag} = {shortened(str(value))} is below the floor {floor}")
    if ceiling is not None and value > ceiling:
        raise ValidationError(f"{flag} = {shortened(str(value))} is above the ceiling {ceiling}")
    require_digits(value, flag)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as file:
            return file.read().removeprefix("\ufeff")  # a byte-order mark is no text
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: byte {exc.start} is not UTF-8 text") from None


@contextlib.contextmanager
def _naming(path: str):
    """An error raised inside the block names the file: the same class, its
    message prefixed by the path."""
    try:
        yield
    except PQError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _surface_summary(path: str, text: str, cap: int):
    """The invariants of the .pq text read from path, named by its stem."""
    from .inputs import parse_input, realize
    from .surface import build_surface_model

    _, sys1, sys2 = realize(parse_input(text), cap=cap)
    return build_surface_model(sys1, sys2).numerical_invariants()._replace(name=Path(path).stem)


def _summary_payload(summary) -> dict:
    return {
        "name": summary.name,
        "group_order": summary.group_order,
        "g1": summary.g1,
        "g2": summary.g2,
        "singularities": [{"n": n, "a": a, "count": c} for n, a, c in summary.singularities],
        "e": summary.e,
        "Ksq": summary.ksq,
        "chi": summary.chi,
        "q": summary.q,
        "pg": summary.pg,
    }


# -- subcommands: cmd_* returns the payload, render_* prints its text view -----


def cmd_hj(args) -> dict:
    from .hj import SingularityType, dual_type, hj_expand, leading_minors, string_intersection_matrix

    if args.n > MAX_HJ_ORDER:
        raise ValidationError(
            f"hj: n = {shortened(str(args.n))} is above the ceiling {MAX_HJ_ORDER} of the dense string matrix"
        )
    t = SingularityType(args.n, args.a)
    b = hj_expand(t.n, t.a)
    return {
        "n": t.n,
        "a": t.a,
        "dual_a": dual_type(t).a,
        "expansion": b,
        "matrix": string_intersection_matrix(t, b),
        "determinant": leading_minors(b)[-1],
    }


def render_hj(p: dict) -> None:
    print(f"type        1/{p['n']}(1,{p['a']})")
    print(f"dual        1/{p['n']}(1,{p['dual_a']})")
    print(f"expansion   [{', '.join(map(str, p['expansion']))}]")
    print("matrix")
    for row in p["matrix"]:
        print("    " + " ".join(f"{x:3d}" for x in row))
    print(f"determinant {p['determinant']}")


def cmd_invariants(args) -> dict:
    text = _read_text(args.file)
    with _naming(args.file):
        return _summary_payload(_surface_summary(args.file, text, args.max_group_order))


def render_invariants(p: dict) -> None:
    sing = ", ".join(f"{s['count']} x 1/{s['n']}(1,{s['a']})" for s in p["singularities"]) or "none"
    print(f"group order    {p['group_order']}")
    print(f"g(C1), g(C2)   {p['g1']}, {p['g2']}")
    print(f"singularities  {sing}")
    print(f"e              {p['e']}")
    print(f"K^2            {p['Ksq']}")
    print(f"chi            {p['chi']}")
    print(f"q              {p['q']}")
    print(f"pg             {p['pg']}")


def cmd_singularities(args) -> dict:
    from .hj import normalized_key
    from .inputs import parse_input, realize
    from .singularities import enumerate_singularities

    text = _read_text(args.file)
    with _naming(args.file):
        _, sys1, sys2 = realize(parse_input(text), cap=args.max_group_order)
        locus = enumerate_singularities(sys1, sys2)
    return {
        "singularities": [
            {
                "n": point.type.n,
                "a": point.type.a,
                "a_normalized": normalized_key(point.type).a,
                "branch_pair": list(point.branch_pair),
                "orbit_size": point.orbit_size,
            }
            for point in locus.points
        ]
    }


def render_singularities(p: dict) -> None:
    if not p["singularities"]:
        print("no singular points")
    for entry in p["singularities"]:
        print(
            f"1/{entry['n']}(1,{entry['a']})  normalized a={entry['a_normalized']}"
            f"  branch pair {tuple(entry['branch_pair'])}  orbit size {entry['orbit_size']}"
        )


def _curve_payload(report) -> dict:
    out = {
        "curve": report.curve.label,
        "genus": report.genus,
        "KmE_degree": str(report.kme_degree),
        "bound": report.bound,
        "satisfied": report.satisfied,
        "N1_E": report.n1_e,
    }
    if report.tangent_case is not None:
        out["tangent_case"] = {
            "KY_dot_Y": str(report.tangent_case.ky_dot_y),
            "Y_dot_E": str(report.tangent_case.y_dot_e),
            "Y_sq": str(report.tangent_case.y_sq),
            "string_defect": str(report.tangent_case.string_defect),
        }
    return out


def cmd_bounds(args) -> dict:
    from .bounds import degree_bound_report, lemma_cc_check
    from .inputs import parse_input, realize
    from .surface import build_surface_model

    text = _read_text(args.file)
    with _naming(args.file):
        desc = parse_input(text)
        _, sys1, sys2 = realize(desc, cap=args.max_group_order)
        model = build_surface_model(sys1, sys2)
        curves = [
            _curve_payload(degree_bound_report(model, curve))
            for curve in [model.F1, model.F2, *model.N, *model.M]
        ]
        cc = lemma_cc_check(model, in_scope=desc.in_scope_c1sq6)
    return {
        "curves": curves,
        "central_genera": [{"curve": c, "genus": g} for c, g in cc.genera],
        "lemma_cc_asserted": cc.asserted,
        "rational_centrals": list(cc.violations),
    }


def render_bounds(p: dict) -> None:
    print(f"{'curve':<6} {'genus':>5} {'(K-E).C':>9} {'bound':>6}  ok")
    for c in p["curves"]:
        print(f"{c['curve']:<6} {c['genus']:>5} {c['KmE_degree']:>9} {c['bound']:>6}  {c['satisfied']}")
    if p["lemma_cc_asserted"]:
        rational = p["rational_centrals"]
        verdict = "RATIONAL central components: " + ", ".join(rational) if rational else (
            "all central components non-rational"
        )
        print(verdict)


def cmd_table(args) -> tuple[dict, int]:
    from .inputs import format_singularity_multiset, formula_invariants, parse_rows

    def record(summary) -> dict:
        out = _summary_payload(summary)
        out["singularities"] = format_singularity_multiset(summary.singularities)
        out["error"] = ""
        return out

    records = []
    errors = []
    for path in args.files:
        if path.endswith(".rows"):
            text = _read_text(path)
            with _naming(path):
                rows = parse_rows(text)
            for row in rows:
                try:
                    records.append(record(formula_invariants(row)))
                except PQError as exc:
                    records.append({"name": "", "error": f"{row.name}: {exc}"})
                    errors.append(exc)
        else:
            try:
                text = _read_text(path)  # a read error names the file already
                with _naming(path):
                    records.append(record(_surface_summary(path, text, args.max_group_order)))
            except PQError as exc:
                records.append({"name": "", "error": str(exc)})
                errors.append(exc)
    return {"rows": records}, errors[0].exit_code if errors else 0


def render_table(p: dict) -> None:
    import csv

    header = ["name", "group_order", "g1", "g2", "singularities", "e", "Ksq", "chi", "q", "pg", "error"]
    writer = csv.DictWriter(sys.stdout, fieldnames=header, restval="")
    writer.writeheader()
    writer.writerows(p["rows"])


def _poly_terms(text: str):
    """(sign, term) pairs: a + or - opens a new term unless it follows * or ^,
    where it stays inside the term (and the term's factors refuse it)."""
    first, *pieces = text.replace("-", "+-").split("+")  # each piece after the first follows one sign
    terms = [["+", first]]
    for piece in pieces:
        sign, rest = ("-", piece[1:]) if piece[:1] == "-" else ("+", piece)
        if terms[-1][1].rstrip().endswith(("*", "^")):
            terms[-1][1] += sign + rest
        else:
            terms.append([sign, rest])
    return [(sign, term.strip()) for sign, term in terms]


def parse_polynomial(text: str) -> tuple[tuple[int, int, Fraction], ...]:
    """Parse e.g. "3*z1^2*z2 - z2^4 + 1/2" into (i, j, coefficient) terms.

    A term is an optional sign, then *-separated factors: at most one
    coefficient p or p/q, and z1 and z2 at most once each, with an optional
    exponent ^k, k >= 0 (p, q and k decimal digits).  Empty terms between
    + signs are skipped; anything else is a parse error quoting the term.
    The numbers of all terms have at most ``MAX_DIGITS`` digits in all, as
    the pullback sums coefficients over a common denominator."""
    terms, digits = [], 0
    for sign, term in _poly_terms(text):
        if not term and sign == "+":
            continue
        coeff = Fraction(-1 if sign == "-" else 1)
        exponents = {}
        for factor in term.split("*"):
            var, caret, exp = factor.strip().partition("^")
            num, slash, den = factor.strip().partition("/")
            kind = "coefficient" if num.isdecimal() and (den.isdecimal() or not slash) else None
            if var in ("z1", "z2") and (exp.isdecimal() or not caret):
                kind = var[1]
            if kind is None or kind in exponents:
                raise ParseError(f"bad polynomial term {shortened(term or sign)!r}")
            digits += len(num) + len(den) if kind == "coefficient" else len(exp)
            if kind == "coefficient":
                den = parse_int(den or "1", "denominator")
                if not den:
                    raise ParseError(f"zero denominator in polynomial term {shortened(term)!r}")
                coeff *= Fraction(parse_int(num, "coefficient"), den)
            exponents[kind] = parse_int(exp, "exponent") if caret else 1
        terms.append((exponents.get("1", 0), exponents.get("2", 0), coeff))
    if not terms:
        raise ParseError(f"empty polynomial {shortened(text)!r}")
    if digits > MAX_DIGITS:
        raise ValidationError(
            f"local-check --section has {digits} digits in its numbers, above the ceiling {MAX_DIGITS}"
        )
    return tuple(terms)


def cmd_local_check(args) -> dict:
    from .differentials import SourceSection, gamma_closed_form, gamma_pullback, invariance_check, is_holomorphic

    _require_range("local-check --m", args.m, 1, MAX_LOCAL_M)
    section = SourceSection(args.m, parse_polynomial(args.section))
    try:  # the section is checked, so a pullback that fails its own check is the engine's fault
        pullback, closed = gamma_pullback(section), gamma_closed_form(section)
    except ValidationError as exc:
        raise EngineInconsistencyError(f"local-check: {exc}") from None
    if pullback != closed:
        raise EngineInconsistencyError(f"local-check: the pullback for m = {args.m} differs from its closed form")
    order = pullback.min_mu1_exponent()
    return {
        "m": args.m,
        "invariant": invariance_check(section),
        "holomorphic": is_holomorphic(pullback),
        "mu1_order": None if order is None else str(order),
        "terms": [
            {"mu1": str(p), "mu2": q, "dmu1": alpha, "dmu2": beta, "coeff": str(c)}
            for p, q, alpha, beta, c in pullback.terms
        ],
    }


def render_local_check(p: dict) -> None:
    for t in p["terms"]:
        print(f"{t['coeff']:>8}  mu1^{t['mu1']} mu2^{t['mu2']} dmu1^{t['dmu1']} dmu2^{t['dmu2']}")
    print(f"invariant under (z1,z2) -> (-z1,-z2): {p['invariant']}")
    print(f"holomorphic: {p['holomorphic']}")
    print(f"vanishing order along mu1 = 0: {'-' if p['mu1_order'] is None else p['mu1_order']}")


def cmd_bigness(args) -> dict:
    from .differentials import bigness_certificate

    # the plurigenus formula holds on a minimal surface of general type: K^2 >= 1 and chi >= 1
    _require_range("bigness --ksq", args.ksq, 1)
    _require_range("bigness --chi", args.chi, 1)
    _require_range("bigness --points", args.points, 0)
    cert = bigness_certificate(args.ksq, args.chi, args.points)
    return {
        "ksq": args.ksq,
        "chi": args.chi,
        "points": args.points,
        "certificate": None if cert is None else {"m_star": cert.m_star, "value": str(cert.value)},
    }


def render_bigness(p: dict) -> None:
    cert = p["certificate"]
    if cert is None:
        print("no certificate for any m >= 2")
    else:
        print(f"m* = {cert['m_star']}, section-count lower bound = {cert['value']}")


# -- driver --------------------------------------------------------------------


def _int(text: str) -> int:
    """The type of every int argument, by ``parse_int``'s grammar: argparse's
    own ``int`` reads '1_0' as 10 and quotes a long bad value in full."""
    try:
        return parse_int(text, "")
    except (ValueError, ParseError):
        raise argparse.ArgumentTypeError(f"invalid int value: {shortened(text)!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves no state on it, and building it
    anew for every in-process call costs time and leaves cyclic garbage."""
    parser = argparse.ArgumentParser(
        prog="pqsurf", description="Exact invariants of product-quotient surfaces"
    )
    parser.add_argument(
        "--max-group-order",
        type=_int,
        default=DEFAULT_ORDER_CAP,
        help="cap on the order of constructed groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hj", help="Hirzebruch-Jung expansion of n/a")
    p.add_argument("n", type=_int)
    p.add_argument("a", type=_int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hj, render=render_hj)

    p = sub.add_parser("invariants", help="numerical invariants from a .pq file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants, render=render_invariants)

    p = sub.add_parser("singularities", help="singular locus from a .pq file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_singularities, render=render_singularities)

    p = sub.add_parser("bounds", help="degree-bound reports for the basis curves")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds, render=render_bounds)

    p = sub.add_parser("table", help="batch table from .pq and/or .rows files")
    p.add_argument("files", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table, render=render_table)

    p = sub.add_parser("local-check", help="pull a section back through the 1/2(1,1) chart")
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--section", required=True, help='polynomial in z1, z2, e.g. "z1^2 + 3*z1*z2"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_local_check, render=render_local_check)

    p = sub.add_parser("bigness", help="section-count bigness certificate for K - E")
    p.add_argument("--ksq", type=_int, required=True)
    p.add_argument("--chi", type=_int, required=True)
    p.add_argument("--points", type=_int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bigness, render=render_bigness)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _require_range("--max-group-order", args.max_group_order, 1, MAX_ORDER_CAP)
        result = args.func(args)
    except PQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    payload, code = result if isinstance(result, tuple) else (result, 0)
    try:
        if args.json:
            print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2))
        else:
            args.render(payload)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader of stdout is gone, e.g. `| head -1`
        if sys.stdout is sys.__stdout__:  # the interpreter's final flush then writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
