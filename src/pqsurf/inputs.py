"""Input descriptions, the .pq file grammar, formula-mode rows and pipelines.

Two input modes:

* full mode (.pq files): a group given by named cycle-notation generators and
  two spherical systems given by generator words; the whole pipeline
  (systems -> singularities -> model -> invariants) runs on them.
* formula mode (.rows files, CSV): only |G|, g1, g2 and the singularity
  multiset; computes the Euler number, q = 0 (rational base quotients) and,
  when K^2 is supplied, the Noether chi and P_g.  This exists because the
  classification tables list invariants, not spherical systems.

Both modes build their summary in ``summarize``: the singularity multiset
through ``singularity_multiset``, which merges each type with its dual, then
e, chi and P_g through ``euler_chi_pg``; full mode feeds it the K^2 of the
divisor lattice.

.pq grammar::

    [group]
    degree = 10
    a = (0 1 2 3 4)
    b = (5 6 7 8 9)

    [system1]
    ; optional: C1/G is P^1, so 0 is the only value accepted
    base_genus = 0
    generators = a, b, a^4*b^4
    ; optional, derived when absent
    signature = 5, 5, 5

    [system2]
    ...

    [flags]
    ; optional
    in_scope_c1sq6 = false

A line is blank, a comment (its first character other than white space is
'#' or ';'), a ``[section]`` header, or ``key = value``, split at the first
'=' and stripped, so a value may hold '=', ';' or '#'.  Keys are
case-sensitive.  Headers and keys start their line: an indented line, which
INI readers take as the continuation of a value, is refused, as are a key
before the first header, a repeated section or key, and any other line;
each is a ``ParseError`` that names the line.  ``in_scope_c1sq6`` is one of
1/yes/true/on or 0/no/false/off, in any case.  Only the sections and keys
shown are read: any other section, or any other key in a system section or
in ``[flags]``, is a ``ParseError`` that names it.

The words of ``generators`` and the entries of ``signature`` are separated
by commas, and none may be empty: ``t,,t``, a trailing comma and an empty
value are each a ``ParseError`` that names the section.

Generator words are '*'-separated factors ``name`` or ``name^k``: a name is
an ASCII letter or '_', then letters, digits or '_', and k is an optional
'-' and decimal digits.  A ``[group]`` key that is not a name is no word's
factor.  Every text is read with ``str`` methods, in one pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, NamedTuple

from .errors import ParseError, ValidationError
from .hj import SingularityType, normalized_key, string_length
from .limits import (
    DEFAULT_ORDER_CAP, MAX_BRANCH_POINTS, MAX_DEGREE, MAX_ORDER_CAP, parse_int, require_digits, shortened,
)

if TYPE_CHECKING:
    from .covers import SphericalSystem
    from .groups import FiniteGroup


class SystemSpec(NamedTuple):
    words: tuple[str, ...]
    signature: tuple[int, ...] | None = None


class InputDescription(NamedTuple):
    degree: int
    generators: tuple[tuple[str, str], ...]  # (name, cycle text), order matters
    system1: SystemSpec
    system2: SystemSpec
    in_scope_c1sq6: bool = False


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    """The sections of a .pq text, each a dict of its keys' values, in file
    order, by the grammar of the module docstring."""
    sections: dict[str, dict[str, str]] = {}
    section = name = None
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        if line[0].isspace():
            raise ParseError(f"line {number}: {shortened(stripped)!r} is indented: a value takes one line")
        if stripped[0] == "[" and stripped[-1] == "]" and len(stripped) > 2:
            name = stripped[1:-1]
            if name in sections:
                raise ParseError(f"line {number}: section {shortened(name)!r} already exists")
            section = sections[name] = {}
            continue
        if section is None:
            raise ParseError(f"line {number}: {shortened(stripped)!r} comes before any [section] header")
        key, equals, value = stripped.partition("=")
        key = key.rstrip()
        if not equals or not key or stripped[0] == "[":
            raise ParseError(f"line {number}: neither a [section] header nor 'key = value'")
        if key in section:
            raise ParseError(f"line {number}: option {shortened(key)!r} in section {shortened(name)!r} already exists")
        section[key] = value.lstrip()
    return sections


_BOOLEANS = {"1": True, "yes": True, "true": True, "on": True, "0": False, "no": False, "false": False, "off": False}
_SYSTEM_KEYS = ("base_genus", "generators", "signature")
_KEYS = {"system1": _SYSTEM_KEYS, "system2": _SYSTEM_KEYS, "flags": ("in_scope_c1sq6",)}


def parse_input(text: str) -> InputDescription:
    parser = _read_sections(text)
    for section in ("group", "system1", "system2"):
        if section not in parser:
            raise ParseError(f"missing [{section}] section")
    for section, sec in parser.items():
        keys = sec if section == "group" else _KEYS.get(section)  # [group] keys name the degree and generators
        if keys is None:
            raise ParseError(f"unknown section [{shortened(section)}]: the sections are group, system1, system2, flags")
        for key in sec:
            if key not in keys:
                raise ParseError(f"unknown key {shortened(key)!r} in [{section}]: its keys are {', '.join(keys)}")
    group_section = parser["group"]
    if "degree" not in group_section:
        raise ParseError("missing 'degree' in [group]")
    try:
        degree = parse_int(group_section["degree"], "degree")
    except (ValueError, ParseError):
        raise ParseError(f"bad degree {shortened(group_section['degree'])!r}") from None
    if degree < 1:
        raise ParseError(f"degree = {shortened(str(degree))} in [group]: a permutation domain needs at least one point")
    if degree > MAX_DEGREE:
        raise ValidationError(f"degree = {shortened(str(degree))} in [group] is above the ceiling {MAX_DEGREE}")
    generators = tuple(
        (name, value) for name, value in group_section.items() if name != "degree"
    )
    if not generators:
        raise ParseError("no group generators given")
    systems = []
    for section in ("system1", "system2"):
        sec = parser[section]
        if "generators" not in sec:
            raise ParseError(f"missing 'generators' in [{section}]")
        words = tuple(w.strip() for w in sec["generators"].split(","))
        if "" in words:
            raise ParseError(f"empty generator word in [{section}]: {shortened(sec['generators'])!r}")
        if len(words) > MAX_BRANCH_POINTS:
            raise ValidationError(
                f"[{section}] lists {len(words)} generators, above the ceiling {MAX_BRANCH_POINTS} on branch points"
            )
        try:
            base_genus = parse_int(sec.get("base_genus", "0"), "base_genus")
        except (ValueError, ParseError):
            raise ParseError(f"bad base_genus {shortened(sec['base_genus'])!r} in [{section}]") from None
        if base_genus != 0:
            raise ParseError(
                f"base_genus = {shortened(str(base_genus))} in [{section}]: only rational bases (0) are supported"
            )
        signature = None
        if "signature" in sec:
            try:
                signature = tuple(parse_int(x, "signature") for x in sec["signature"].split(","))
            except (ValueError, ParseError):
                raise ParseError(f"bad signature in [{section}]") from None
        systems.append(SystemSpec(words, signature))
    flag = parser.get("flags", {}).get("in_scope_c1sq6", "false")
    in_scope = _BOOLEANS.get(flag.lower())
    if in_scope is None:
        raise ParseError(f"bad in_scope_c1sq6 {shortened(flag)!r} in [flags]")
    return InputDescription(degree, generators, systems[0], systems[1], in_scope)


def _is_name(text: str) -> bool:
    """Whether text is a generator name: an ASCII letter or '_', then
    letters, digits or '_'."""
    return text.replace("_", "a").isalnum() and text[0].isascii() and not text[0].isdigit()


def _evaluate_word(named: dict[str, bytes], word: str) -> bytes:
    """The image string of a word in the named generators, whose keys are
    names; a power is read off the cycles of its generator
    (``groups.power_images``)."""
    from .groups import power_images, product_images

    acc = b""
    for factor in word.split("*"):
        name, caret, power = factor.strip().partition("^")
        if caret and not power.removeprefix("-").isdecimal() or name not in named and not _is_name(name):
            raise ParseError(f"bad factor {shortened(factor)!r} in word {shortened(word)!r}")
        if name not in named:
            raise ParseError(f"unknown generator {shortened(name)!r} in word {shortened(word)!r}")
        p = power_images(named[name], parse_int(power, "power")) if caret else named[name]
        acc = product_images(acc, p) if acc else p
    return acc


def realize(
    desc: InputDescription, cap: int = DEFAULT_ORDER_CAP
) -> tuple[FiniteGroup, SphericalSystem, SphericalSystem]:
    """The group and the two systems of a description.  The words are
    evaluated on image strings, and the group is closed once, as the span of
    the first system, which is then validated; every named generator must
    lie in the span, or the first system does not generate the group the
    file names."""
    from .covers import NOT_GENERATING, SphericalSystem
    from .groups import Permutation, group_spanned_by

    images = {name: bytes(Permutation.from_cycles(text, desc.degree).images) for name, text in desc.generators}
    named = {name: p for name, p in images.items() if _is_name(name)}  # a key such as "b^2" is no word's factor
    elements1 = [_evaluate_word(named, w) for w in desc.system1.words]
    group = group_spanned_by(desc.degree, elements1, cap)
    sys1 = SphericalSystem(group, tuple(group.index[p] for p in elements1))
    if not all(p in group.index for p in images.values()):
        raise ValidationError(NOT_GENERATING)

    def with_signature(spec: SystemSpec, sys: SphericalSystem) -> SphericalSystem:
        if spec.signature is not None and spec.signature != sys.signature:
            raise ValidationError(
                f"declared signature {shortened(str(spec.signature))} != derived {shortened(str(sys.signature))}"
            )
        return sys

    with_signature(desc.system1, sys1)
    sys2 = SphericalSystem(group, tuple(group.index[_evaluate_word(named, w)] for w in desc.system2.words))
    return group, sys1, with_signature(desc.system2, sys2)


# -- summaries ---------------------------------------------------------------


class TableRowSummary(NamedTuple):
    name: str
    group_order: int
    g1: int
    g2: int
    singularities: tuple[tuple[int, int, int], ...]  # (n, a_normalized, count)
    e: int
    ksq: int | None
    chi: int | None
    q: int
    pg: int | None


# -- formula mode ------------------------------------------------------------


class FormulaRow(NamedTuple):
    name: str
    group_order: int
    g1: int
    g2: int
    singularities: tuple[tuple[int, int, int], ...]  # (n, a, count)
    ksq: int | None = None


def parse_singularity_multiset(text: str) -> tuple[tuple[int, int, int], ...]:
    """Parse "2/1x2+3/1x1" into ((2, 1, 2), (3, 1, 1)); empty means none."""
    text = text.strip()
    if not text:
        return ()
    items = []
    for chunk in text.split("+"):
        n, _, rest = chunk.strip().partition("/")
        fields = (n, *rest.partition("x")[::2])
        if not all(map(str.isdecimal, fields)):
            raise ParseError(f"bad singularity item {shortened(chunk)!r} (expected n/axcount)")
        n, a, count = (parse_int(t, f"singularity {w}") for t, w in zip(fields, ("n", "a", "count")))
        try:
            SingularityType(n, a)  # validates n, a
        except ValidationError as exc:
            raise ParseError(f"bad singularity item {shortened(chunk)!r}: {exc}") from None
        if count < 1:
            raise ParseError(f"bad count in {shortened(chunk)!r}")
        items.append((n, a, count))
    return tuple(items)


def singularity_multiset(items) -> tuple[tuple[int, int, int], ...]:
    """(n, a, count) items as both modes report them: each type replaced by
    the smaller of it and its dual, equal types merged, sorted."""
    counts: dict[tuple[int, int], int] = {}
    for n, a, count in items:
        key = normalized_key(SingularityType(n, a))
        counts[key.n, key.a] = counts.get((key.n, key.a), 0) + count
    return tuple(sorted((n, a, c) for (n, a), c in counts.items()))


def format_singularity_multiset(items) -> str:
    return "+".join(f"{n}/{a}x{c}" for n, a, c in items)


def _integer_cell(record: dict, column: str) -> int:
    text = record[column].strip()
    try:
        return parse_int(text, column)
    except ValueError:
        raise ParseError(f"{column} {shortened(text)!r} is not an integer") from None


def parse_rows(text: str) -> list[FormulaRow]:
    import csv
    import io

    rows = []
    content = [
        line for line in io.StringIO(text) if line.strip() and not line.lstrip().startswith("#")
    ]
    if not content:
        return []
    reader = csv.DictReader(content)
    required = {"name", "group_order", "g1", "g2", "singularities"}
    if reader.fieldnames is None or not required <= set(reader.fieldnames):
        raise ParseError(f"rows file must have columns {sorted(required)}")
    for record in reader:
        name = (record["name"] or "").strip()
        try:
            short = sorted(c for c in required if record[c] is None)  # the line ended early
            if short:
                raise ParseError(f"no value for {', '.join(short)}")
            if None in record:  # the line ran on past the header
                cells = len(reader.fieldnames) + len(record[None])
                raise ParseError(f"{cells} cells, the header has {len(reader.fieldnames)}")
            rows.append(FormulaRow(
                name=name,
                group_order=_integer_cell(record, "group_order"),
                g1=_integer_cell(record, "g1"),
                g2=_integer_cell(record, "g2"),
                singularities=parse_singularity_multiset(record["singularities"]),
                ksq=_integer_cell(record, "ksq") if (record.get("ksq") or "").strip() else None,
            ))
        except ParseError as exc:
            raise ParseError(f"bad row {shortened(name)!r}: {exc}") from None
    return rows


def euler_chi_pg(group_order: int, g1: int, g2: int, singularities, ksq: int | None) -> tuple:
    """(e, chi, P_g) of S from |G|, g1, g2, the (n, a, count) multiset and K^2.

    e is the stratified count (2 - 2g1)(2 - 2g2)/|G| plus 1 - 1/n + l(n, a)
    per singular point; chi = (K^2 + e)/12 by Noether, and P_g = chi - 1 as
    q = 0.  Without K^2, chi and P_g are None.  Gates raise ValidationError."""
    # the sum in integers over the common denominator of its terms; a Fraction only for a message
    den = lcm(group_order, *(n for n, _, _ in singularities))
    num = (2 - 2 * g1) * (2 - 2 * g2) * (den // group_order) + sum(
        count * ((1 + string_length(SingularityType(n, a))) * den - den // n) for n, a, count in singularities
    )
    e, rest = divmod(num, den)
    if rest:
        raise ValidationError(f"Euler number {shortened(Fraction(num, den))} is not an integer")
    if ksq is None:
        return e, None, None
    chi, rest = divmod(ksq + e, 12)
    if rest or chi <= 0:
        raise ValidationError(f"chi = (K^2 + e)/12 = {shortened(Fraction(ksq + e, 12))} is not a positive integer")
    return e, chi, chi - 1


def summarize(name: str, group_order: int, g1: int, g2: int, items, ksq: int | None) -> TableRowSummary:
    """The summary of a surface in either mode: its (n, a, count) points as
    ``singularity_multiset`` reports them, then e, chi and P_g from
    ``euler_chi_pg``, with q = 0 as both base quotients are rational."""
    sings = singularity_multiset(items)
    e, chi, pg = euler_chi_pg(group_order, g1, g2, sings, ksq)
    return TableRowSummary(name, group_order, g1, g2, sings, e, ksq, chi, 0, pg)


def formula_invariants(row: FormulaRow) -> TableRowSummary:
    """The invariants of a table row; base quotients are rational (q = 0), as
    in the P_g = 0 classification."""
    if row.group_order < 1:
        raise ValidationError(f"group order {shortened(str(row.group_order))} is not positive")
    if row.g1 < 2 or row.g2 < 2:
        g1, g2 = shortened(str(row.g1)), shortened(str(row.g2))
        raise ValidationError(f"g1, g2 = {g1}, {g2}: both genera must be at least 2")
    for n, a, _ in row.singularities:
        # a point's order is that of a stabilizer in G, and its string has up to n - 1 components
        if n > MAX_ORDER_CAP:
            point = f"1/{shortened(str(n))}(1,{shortened(str(a))})"
            raise ValidationError(f"{point}: n is above the ceiling {MAX_ORDER_CAP} of the group order")
    for what, value in (("g1", row.g1), ("g2", row.g2), *(("count", c) for _, _, c in row.singularities)):
        require_digits(value, what)  # e grows with g1 g2 and with the counts
    return summarize(row.name, row.group_order, row.g1, row.g2, row.singularities, row.ksq)
