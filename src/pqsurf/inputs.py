"""Input descriptions, the .pq file grammar, formula-mode rows and pipelines.

Two input modes:

* full mode (.pq files): a group given by named cycle-notation generators and
  two spherical systems given by generator words; the whole pipeline
  (systems -> singularities -> model -> invariants) runs on them.
* formula mode (.rows files, CSV): only |G|, g1, g2 and the singularity
  multiset; computes the Euler number, q = 0 (rational base quotients) and,
  when K^2 is supplied, the Noether chi and P_g.  This exists because the
  classification tables list invariants, not spherical systems.

Both modes compute e, chi and P_g in ``euler_chi_pg``; full mode feeds it
the K^2 of the divisor lattice.  Both report the singularity multiset
through ``singularity_multiset``, which merges each type with its dual.

.pq grammar (INI sections)::

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

Comments take whole lines (configparser strips no inline comments).

Generator words are '*'-separated factors ``name`` or ``name^k`` (k may be
negative).
"""

from __future__ import annotations

import configparser
import re
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import ParseError, ValidationError
from .hj import SingularityType, normalized_key, string_length
from .limits import DEFAULT_ORDER_CAP, MAX_BRANCH_POINTS, MAX_DEGREE, MAX_ORDER_CAP, parse_int, shortened

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


def parse_input(text: str) -> InputDescription:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # generator names are case-sensitive
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.line.strip()!r} comes before any [section] header") from None
    except configparser.ParsingError as exc:
        raise ParseError(f"line {exc.errors[0][0]}: neither a [section] header nor 'key = value'") from None
    except configparser.DuplicateOptionError as exc:
        raise ParseError(
            f"line {exc.lineno}: option {exc.option!r} in section {exc.section!r} already exists"
        ) from None
    except configparser.DuplicateSectionError as exc:
        raise ParseError(f"line {exc.lineno}: section {exc.section!r} already exists") from None
    except configparser.Error as exc:
        raise ParseError(str(exc)) from None
    for section in ("group", "system1", "system2"):
        if section not in parser:
            raise ParseError(f"missing [{section}] section")
    group_section = parser["group"]
    if "degree" not in group_section:
        raise ParseError("missing 'degree' in [group]")
    try:
        degree = int(group_section["degree"])
    except ValueError:
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
        words = tuple(w.strip() for w in sec["generators"].split(",") if w.strip())
        if len(words) > MAX_BRANCH_POINTS:
            raise ValidationError(
                f"[{section}] lists {len(words)} generators, above the ceiling {MAX_BRANCH_POINTS} on branch points"
            )
        try:
            base_genus = int(sec.get("base_genus", "0"))
        except ValueError:
            raise ParseError(f"bad base_genus {shortened(sec['base_genus'])!r} in [{section}]") from None
        if base_genus != 0:
            raise ParseError(
                f"base_genus = {shortened(str(base_genus))} in [{section}]: only rational bases (0) are supported"
            )
        signature = None
        if "signature" in sec:
            try:
                signature = tuple(int(x) for x in sec["signature"].split(","))
            except ValueError:
                raise ParseError(f"bad signature in [{section}]") from None
        systems.append(SystemSpec(words, signature))
    in_scope = False
    if "flags" in parser:
        try:
            in_scope = parser["flags"].getboolean("in_scope_c1sq6", fallback=False)
        except ValueError:
            value = shortened(parser["flags"]["in_scope_c1sq6"])
            raise ParseError(f"bad in_scope_c1sq6 {value!r} in [flags]") from None
    return InputDescription(degree, generators, systems[0], systems[1], in_scope)


_WORD_FACTOR = re.compile(r"^([A-Za-z_]\w*)(?:\^(-?\d+))?$")


def _evaluate_word(group: FiniteGroup, named: dict[str, int], word: str) -> int:
    acc = group.identity
    for factor in word.split("*"):
        match = _WORD_FACTOR.match(factor.strip())
        if not match:
            raise ParseError(f"bad factor {shortened(factor)!r} in word {shortened(word)!r}")
        name, power = match.group(1), parse_int(match.group(2) or "1", "power")
        if name not in named:
            raise ParseError(f"unknown generator {shortened(name)!r} in word {shortened(word)!r}")
        acc = group.mul(acc, group.power(named[name], power))
    return acc


def realize(
    desc: InputDescription, cap: int = DEFAULT_ORDER_CAP
) -> tuple[FiniteGroup, SphericalSystem, SphericalSystem]:
    from .covers import SphericalSystem
    from .groups import Permutation, group_from_generators

    perms = [Permutation.from_cycles(text, desc.degree) for _, text in desc.generators]
    group = group_from_generators(perms, cap=cap)
    named = {name: i for (name, _), i in zip(desc.generators, group.generator_indices)}
    systems = []
    for spec in (desc.system1, desc.system2):
        elements = tuple(_evaluate_word(group, named, w) for w in spec.words)
        sys = SphericalSystem(group, elements)
        if spec.signature is not None and spec.signature != sys.signature:
            raise ValidationError(
                f"declared signature {shortened(str(spec.signature))} != derived {shortened(str(sys.signature))}"
            )
        systems.append(sys)
    return group, systems[0], systems[1]


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


def run_invariants(desc: InputDescription, name: str = "", cap: int = DEFAULT_ORDER_CAP) -> TableRowSummary:
    from .surface import build_surface_model

    _, sys1, sys2 = realize(desc, cap=cap)
    return build_surface_model(sys1, sys2).numerical_invariants()._replace(name=name)


# -- formula mode ------------------------------------------------------------


class FormulaRow(NamedTuple):
    name: str
    group_order: int
    g1: int
    g2: int
    singularities: tuple[tuple[int, int, int], ...]  # (n, a, count)
    ksq: int | None = None


_SING_ITEM = re.compile(r"^(\d+)/(\d+)x(\d+)$")
_INT_CELL = re.compile(r"[+-]?\d+")


def parse_singularity_multiset(text: str) -> tuple[tuple[int, int, int], ...]:
    """Parse "2/1x2+3/1x1" into ((2, 1, 2), (3, 1, 1)); empty means none."""
    text = text.strip()
    if not text:
        return ()
    items = []
    for chunk in text.split("+"):
        match = _SING_ITEM.match(chunk.strip())
        if not match:
            raise ParseError(f"bad singularity item {shortened(chunk)!r} (expected n/axcount)")
        n, a, count = (parse_int(t, f"singularity {w}") for t, w in zip(match.groups(), ("n", "a", "count")))
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
    if not _INT_CELL.fullmatch(text):
        raise ParseError(f"{column} {shortened(text)!r} is not an integer")
    return parse_int(text, column)


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
    e = Fraction((2 - 2 * g1) * (2 - 2 * g2), group_order)
    for n, a, count in singularities:
        e += count * (1 - Fraction(1, n) + string_length(SingularityType(n, a)))
    if e.denominator != 1:
        raise ValidationError(f"Euler number {e} is not an integer")
    if ksq is None:
        return int(e), None, None
    chi = Fraction(ksq + int(e), 12)
    if chi.denominator != 1 or chi <= 0:
        raise ValidationError(f"chi = (K^2 + e)/12 = {chi} is not a positive integer")
    return int(e), int(chi), int(chi) - 1


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
    sings = singularity_multiset(row.singularities)
    e, chi, pg = euler_chi_pg(row.group_order, row.g1, row.g2, sings, row.ksq)
    return TableRowSummary(
        name=row.name,
        group_order=row.group_order,
        g1=row.g1,
        g2=row.g2,
        singularities=sings,
        e=e,
        ksq=row.ksq,
        chi=chi,
        q=0,
        pg=pg,
    )
