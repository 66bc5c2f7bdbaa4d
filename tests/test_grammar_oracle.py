"""The input grammars, read with ``str`` methods, against the patterns they
replaced.

Each pattern below is the one the reader used before, kept verbatim as a
reference grammar, and each ``reference_*`` function reads its text with the
pattern as that reader did.  A derandomized test draws strings from the
grammar's alphabet and a few edge characters (a non-ASCII decimal digit, a
superscript digit, a non-ASCII letter, a white space that ``split()`` splits
at, an ideographic space and a run of 5000 digits) and asserts that the
reader and its reference accept and refuse the same texts, return the same
values and raise the same first error with the same message.  The rewrite
rests on three equalities of character classes, checked on every code
point: ``\\d`` is ``isdecimal``, ``\\s`` is ``isspace`` (the white space of
``split()`` and ``strip()``) and ``\\w`` is ``isalnum`` or ``_``.
"""

import re
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqsurf.cli import _poly_terms, parse_polynomial
from pqsurf.errors import ParseError, PQError
from pqsurf.groups import Permutation, power_images, product_images
from pqsurf.hj import SingularityType
from pqsurf.inputs import _evaluate_word, _is_name, parse_singularity_multiset
from pqsurf.limits import MAX_DEGREE, parse_int, shortened

INTEGER = r"\s*[+-]?\d+\s*"
CYCLES = re.compile(r"(\(\s*(\d+(\s+\d+)*)?\s*\))+")
WORD_FACTOR = re.compile(r"^([A-Za-z_]\w*)(?:\^(-?\d+))?$")
SING_ITEM = re.compile(r"^(\d+)/(\d+)x(\d+)$")
POLY_FACTOR = re.compile(r"(?P<num>\d+)(?:/(?P<den>\d+))?|z(?P<var>[12])(?:\^(?P<exp>\d+))?")
SIGNS = r"([+-])"

EDGES = ["٣", "²", "é", "\x1c", "　", "5" * 5000]


def texts(pieces: list[str], max_size: int = 12):
    """Strings joined from a grammar's pieces and the edge characters."""
    return st.lists(st.sampled_from([*pieces, *EDGES]), max_size=max_size).map("".join)


def shaped(*parts: list[str]):
    """Strings made of one choice from each part, in order: near the grammar,
    where a random string of pieces seldom comes."""
    return st.tuples(*map(st.sampled_from, parts)).map("".join)


def joined(separator: str, item, max_size: int = 3):
    return st.lists(item, min_size=1, max_size=max_size).map(separator.join)


DIGITS = ["0", "1", "2", "12", "٣", "²", "", "5" * 5000]
SPACES = ["", " ", "\x1c", "　"]


def outcome(read, *args):
    """What a reader gives: its value, or the class and message of its error."""
    try:
        return read(*args)
    except (ValueError, PQError) as exc:
        return type(exc).__name__, str(exc)


def test_character_classes_on_every_code_point():
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\d", every) == [c for c in every if c.isdecimal()]
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]
    assert [c for c in every if c.isspace()] == [c for c in every if not c.strip()] == [
        c for c in every if len(f"a{c}a".split()) == 2]


def reference_int(token: str, what: str) -> int:
    if not re.fullmatch(INTEGER, token):
        raise ValueError(f"not an integer: {shortened(token)!r}")
    try:
        return int(token)
    except ValueError:
        digits = len(token.lstrip("+-"))
        raise ParseError(
            f"{what} {shortened(token)!r} has {digits} digits, more than Python converts to an integer"
        ) from None


@settings(derandomize=True, deadline=None, max_examples=400)
@given(texts([*"0123456789+- \t_"]) | shaped(SPACES, ["", "+", "-", "+-"], [*DIGITS, "1_0"], SPACES))
def test_parse_int(token):
    assert outcome(parse_int, token, "count") == outcome(reference_int, token, "count")


def reference_cycles(text: str, degree: int | None = None) -> Permutation:
    stripped = text.replace(",", " ").strip()
    if not CYCLES.fullmatch(stripped):
        raise ParseError(f"bad cycle notation: {shortened(text)!r}")
    cycles = []
    seen: set[int] = set()
    disjoint = True
    for body in stripped[1:-1].split(")("):
        cyc = [parse_int(tok, "point") for tok in body.split()]
        size = len(seen)
        seen.update(cyc)
        if len(seen) - size != len(cyc):
            if len(set(cyc)) != len(cyc):
                raise ParseError(f"repeated point inside a cycle: {shortened(text)!r}")
            disjoint = False
        cycles.append(cyc)
    if not disjoint:
        raise ParseError(f"cycles are not disjoint: {shortened(text)!r}")
    d = degree if degree is not None else min(max(seen, default=0) + 1, MAX_DEGREE)
    if seen and max(seen) >= d:
        raise ParseError(f"point {shortened(str(max(seen)))} out of domain 0..{d - 1}")
    images = list(range(d))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return Permutation(tuple(images))


# one cycle, its points split by white space, commas or nothing
CYCLE = st.lists(shaped(["", " ", ",", *SPACES], [*DIGITS, "3"]), max_size=4).map(lambda points: f"({''.join(points)})")


@settings(derandomize=True, deadline=None, max_examples=600)
@given(texts(["(", ")", ")(", *"0123 ,\t"], 16) | joined("", CYCLE) | joined(" ", CYCLE), st.sampled_from([None, 4, 300]))
@example("(0 0)(" + "5" * 5000 + ")", None)  # a repeat inside a cycle is named before a later long point
@example("(0 1)(" + "5" * 5000 + ")(1 2)", None)  # and a long point before cycles that meet
def test_cycles(text, degree):
    assert outcome(Permutation.from_cycles, text, degree) == outcome(reference_cycles, text, degree)


# names of the word grammar, with non-ASCII letters and digits after the first character
NAMED = {"a": bytes((1, 2, 0, 3)), "b": bytes((0, 1, 3, 2)), "_": bytes((3, 2, 1, 0)), "aé": bytes((1, 0, 2, 3)),
         "a²": bytes((0, 2, 1, 3))}


def reference_word(named: dict[str, bytes], word: str) -> bytes:
    acc = b""
    for factor in word.split("*"):
        match = WORD_FACTOR.match(factor.strip())
        if not match:
            raise ParseError(f"bad factor {shortened(factor)!r} in word {shortened(word)!r}")
        name, power = match.group(1), parse_int(match.group(2), "power") if match.group(2) else 1
        if name not in named:
            raise ParseError(f"unknown generator {shortened(name)!r} in word {shortened(word)!r}")
        p = named[name] if power == 1 else power_images(named[name], power)
        acc = product_images(acc, p) if acc else p
    return acc


@settings(derandomize=True, deadline=None, max_examples=600)
@given(texts(["a", "b", "_", "aé", "a²", "c", "A1", "^", "-", "1", "*", " ", "\t"], 14) | joined("*", shaped(
    ["", " "], ["a", "b", "_", "aé", "a²", "c", "A", "1x", "é", ""], ["", "^", "^^"], ["", "-", "--", "+", " "], DIGITS, SPACES)))
def test_words(word):
    assert outcome(_evaluate_word, NAMED, word) == outcome(reference_word, NAMED, word)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(texts([*"ab_A19^-*( "], 8))
def test_a_key_is_a_name_as_a_bare_factor_matches(key):
    # a [group] key holds no line break, where the pattern's $ would differ
    assert _is_name(key) == (WORD_FACTOR.match(key) is not None and "^" not in key)


def reference_singularities(text: str) -> tuple[tuple[int, int, int], ...]:
    text = text.strip()
    if not text:
        return ()
    items = []
    for chunk in text.split("+"):
        match = SING_ITEM.match(chunk.strip())
        if not match:
            raise ParseError(f"bad singularity item {shortened(chunk)!r} (expected n/axcount)")
        n, a, count = (parse_int(t, f"singularity {w}") for t, w in zip(match.groups(), ("n", "a", "count")))
        try:
            SingularityType(n, a)
        except PQError as exc:
            raise ParseError(f"bad singularity item {shortened(chunk)!r}: {exc}") from None
        if count < 1:
            raise ParseError(f"bad count in {shortened(chunk)!r}")
        items.append((n, a, count))
    return tuple(items)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(texts(["/", "x", "+", *"0123579 "], 16) | joined("+", shaped(
    [*DIGITS, "5", " 2"], ["/", "", "//"], [*DIGITS, "3"], ["x", "", "X"], [*DIGITS, "2 "])))
def test_singularity_items(text):
    assert outcome(parse_singularity_multiset, text) == outcome(reference_singularities, text)


def reference_terms(text: str) -> list[tuple[str, str]]:
    pieces = re.split(SIGNS, text)
    terms = [["+", pieces[0]]]
    for sign, rest in zip(pieces[1::2], pieces[2::2]):
        if terms[-1][1].rstrip().endswith(("*", "^")):
            terms[-1][1] += sign + rest
        else:
            terms.append([sign, rest])
    return [(sign, term.strip()) for sign, term in terms]


def reference_polynomial(text: str) -> tuple[tuple[int, int, Fraction], ...]:
    terms = []
    for sign, term in reference_terms(text):
        if not term and sign == "+":
            continue
        coeff = Fraction(-1 if sign == "-" else 1)
        exponents = {}
        for factor in term.split("*"):
            match = POLY_FACTOR.fullmatch(factor.strip())
            kind = match and (match["var"] or "coefficient")
            if not match or kind in exponents:
                raise ParseError(f"bad polynomial term {shortened(term or sign)!r}")
            if kind == "coefficient":
                den = parse_int(match["den"] or "1", "denominator")
                if not den:
                    raise ParseError(f"zero denominator in polynomial term {shortened(term)!r}")
                coeff *= Fraction(parse_int(match["num"], "coefficient"), den)
            exponents[kind] = parse_int(match["exp"], "exponent") if match["exp"] else 1
        terms.append((exponents.get("1", 0), exponents.get("2", 0), coeff))
    if not terms:
        raise ParseError(f"empty polynomial {shortened(text)!r}")
    return tuple(terms)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(texts([*"+-*^ z"], 14))
def test_term_split(text):
    assert _poly_terms(text) == reference_terms(text)


@settings(derandomize=True, deadline=None, max_examples=800)
@given(texts(["z1", "z2", "z", "/", "^", "*", "+", "-", *"0123 "], 16) | st.lists(st.tuples(
    st.sampled_from(["", "+", "-", " - ", "+-", "^"]),
    joined("*", shaped(["z1", "z2", "z", "3", "1", "٣", "²", ""], ["", "^", "/", " "], ["", *DIGITS, "-1"]))),
    min_size=1, max_size=3).map(lambda terms: "".join(sign + term for sign, term in terms)))
def test_polynomials(text):
    assert outcome(parse_polynomial, text) == outcome(reference_polynomial, text)
