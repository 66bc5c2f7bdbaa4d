"""Expected answers for the benchmark, computed without importing pqsurf.

Everything here works on raw permutation image tuples and closed forms from
Bauer-Pignatelli, "The classification of minimal product-quotient surfaces
with p_g = 0" (Math. Comp. 2012):

    e   = 4(g1-1)(g2-1)/|G| + sum_x (l_x + 1 - 1/n_x)
    K^2 = 8(g1-1)(g2-1)/|G| - sum_x k_x,
    k_x = -2 + (2 + a + a')/n + sum_i (b_i - 2)

where x runs over the singular points 1/n(1,a) of X = (C1 x C2)/G, a' is the
inverse of a mod n and [b_1, ..., b_l] is the Hirzebruch-Jung expansion of
n/a.  The singular points come from double cosets H_i \\ G / K_j rather than
from the coset pairs the program enumerates.  Each ``check_*`` function
returns a list of human-readable mismatches; an empty list means the output
is right.

Composition follows the .pq convention: (p * q)(x) = p(q(x)).
"""

from __future__ import annotations

import configparser
import re
from fractions import Fraction
from math import comb


# -- permutations as image tuples ---------------------------------------------


def compose(p: tuple, q: tuple) -> tuple:
    return tuple(p[x] for x in q)


def inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def from_cycles(text: str, degree: int) -> tuple:
    images = list(range(degree))
    for body in re.findall(r"\(([^()]*)\)", text):
        cyc = [int(tok) for tok in body.replace(",", " ").split()]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return tuple(images)


def to_cycles(p: tuple) -> str:
    seen, parts = set(), []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cyc, x = [start], p[start]
        seen.add(start)
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = p[x]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def closure(gens) -> list:
    identity = tuple(range(len(gens[0])))
    elements, seen, frontier = [identity], {identity}, [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    return elements


def powers(g: tuple) -> list:
    """[1, g, g^2, ..., g^(m-1)] with m the order of g."""
    identity = tuple(range(len(g)))
    out, acc = [identity], g
    while acc != identity:
        out.append(acc)
        acc = compose(acc, g)
    return out


# -- Hirzebruch-Jung strings and the closed forms -----------------------------


def hj_string(n: int, a: int) -> list:
    b = []
    while a > 0:
        q = -(-n // a)
        b.append(q)
        n, a = a, q * a - n
    return b


def hj_value(b) -> Fraction:
    value = Fraction(b[-1])
    for x in reversed(b[:-1]):
        value = x - 1 / value
    return value


def tridiagonal_det(b) -> int:
    prev2, prev1 = 0, 1
    for x in b:
        prev2, prev1 = prev1, -x * prev1 - prev2
    return prev1


def normalized(n: int, a: int) -> tuple:
    return min((n, a), (n, pow(a, -1, n)))


def rh_genus(order: int, signature) -> int:
    two_g_minus_2 = order * (-2 + sum(1 - Fraction(1, m) for m in signature))
    return int(two_g_minus_2 + 2) // 2


def closed_form_invariants(order: int, g1: int, g2: int, points) -> dict:
    """e, K^2, chi, q, pg from the genera and the list of (n, a) points."""
    e = Fraction(4 * (g1 - 1) * (g2 - 1), order)
    ksq = Fraction(8 * (g1 - 1) * (g2 - 1), order)
    for n, a in points:
        b = hj_string(n, a)
        e += len(b) + 1 - Fraction(1, n)
        ksq -= -2 + Fraction(2 + a + pow(a, -1, n), n) + sum(x - 2 for x in b)
    chi = (ksq + e) / 12
    return {"e": e, "Ksq": ksq, "chi": chi, "q": 0, "pg": chi - 1}


# -- the surface of two spherical systems -------------------------------------


def surface_reference(gens1, gens2) -> dict:
    """Everything the invariants and bounds commands must report for the
    surface given by two spherical systems of image tuples."""
    group = closure(list(gens1) + list(gens2))
    order = len(group)
    identity = group[0]
    for gens in (gens1, gens2):
        acc = identity
        for g in gens:
            acc = compose(acc, g)
        if acc != identity or len(closure(list(gens))) != order:
            raise ValueError("not a spherical system of generators")
    cyc1 = [powers(g) for g in gens1]
    cyc2 = [powers(h) for h in gens2]
    g1 = rh_genus(order, [len(c) for c in cyc1])
    g2 = rh_genus(order, [len(c) for c in cyc2])

    points = []  # (branch pair, n, oriented a)
    for i, hs in enumerate(cyc1, 1):
        h_set = set(hs)
        for j, ks in enumerate(cyc2, 1):
            seen, pairs = set(), 0
            for d in group:
                if d in seen:
                    continue
                seen |= {compose(compose(x, d), y) for x in hs for y in ks}
                d_inv = inverse(d)
                rot = [compose(compose(d, y), d_inv) for y in ks]  # powers of d h_j d^-1
                n = sum(1 for y in rot if y in h_set)
                pairs += order // n
                if n == 1:
                    continue
                # the element of the stabilizer rotating the C1 point by exp(2 pi i/n)
                e2 = rot.index(hs[len(hs) // n])
                points.append(((i, j), n, (e2 // (len(ks) // n)) % n))
            if pairs != (order // len(hs)) * (order // len(ks)):
                raise ValueError(f"double cosets over {(i, j)} miss coset pairs")
    inv = closed_form_invariants(order, g1, g2, [(n, a) for _, n, a in points])

    def quotient_genus(g_cover, h, stabs) -> int:
        # Riemann-Hurwitz for the cover of genus g_cover modulo <h>, where
        # stabs lists the cyclic point stabilizers of the cover, one per point
        h_set = set(h)
        ram = sum(len(h_set & s) - 1 for s in stabs)
        return int(Fraction(2 * g_cover - 2 - ram, len(h)) + 2) // 2

    def fiber_stabilizers(cycs) -> list:
        out = []
        for ks in cycs:
            covered = set()
            for s in group:
                if s not in covered:
                    covered |= {compose(s, y) for y in ks}
                    s_inv = inverse(s)
                    out.append({compose(compose(s, y), s_inv) for y in ks})
        return out

    stabs1, stabs2 = fiber_stabilizers(cyc1), fiber_stabilizers(cyc2)
    genera = {"F1": g2, "F2": g1}
    for i, hs in enumerate(cyc1, 1):
        genera[f"N{i}"] = quotient_genus(g2, hs, stabs2)
    for j, ks in enumerate(cyc2, 1):
        genera[f"M{j}"] = quotient_genus(g1, ks, stabs1)
    return {
        "group_order": order,
        "g1": g1,
        "g2": g2,
        "points": points,
        "singularities": multiset([(n, a) for _, n, a in points]),
        "invariants": inv,
        "curve_genera": genera,
    }


def multiset(points) -> list:
    counts: dict = {}
    for n, a in points:
        key = normalized(n, a)
        counts[key] = counts.get(key, 0) + 1
    return sorted((n, a, c) for (n, a), c in counts.items())


def read_pq(text: str) -> tuple:
    """The two generator tuples of a .pq description, words evaluated."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    group = parser["group"]
    degree = int(group["degree"])
    named = {k: from_cycles(v, degree) for k, v in group.items() if k != "degree"}
    identity = tuple(range(degree))
    systems = []
    for section in ("system1", "system2"):
        elements = []
        for word in parser[section]["generators"].split(","):
            acc = identity
            for factor in word.strip().split("*"):
                name, _, power = factor.strip().partition("^")
                g = named[name]
                k = int(power or 1)
                if k < 0:
                    g, k = inverse(g), -k
                for _ in range(k):
                    acc = compose(acc, g)
            elements.append(acc)
        systems.append(elements)
    return tuple(systems)


# -- checks of command output ---------------------------------------------------


def check_invariants(payload: dict, ref: dict) -> list:
    errors = []
    want = {"group_order": ref["group_order"], "g1": ref["g1"], "g2": ref["g2"]}
    want.update(ref["invariants"])
    for key, value in want.items():
        if Fraction(payload.get(key)) != value:
            errors.append(f"{key}: got {payload.get(key)}, want {value}")
    got = sorted((s["n"], s["a"], s["count"]) for s in payload.get("singularities", []))
    if got != ref["singularities"]:
        errors.append(f"singularities: got {got}, want {ref['singularities']}")
    return errors


def check_bounds(payload: dict, ref: dict) -> list:
    errors = []
    genera = ref["curve_genera"]
    curves = payload.get("curves", [])
    labels = [c["curve"] for c in curves]
    if labels != list(genera):
        errors.append(f"curves: got {labels}, want {list(genera)}")
    for c in curves:
        want = genera.get(c["curve"])
        if c["genus"] != want:
            errors.append(f"genus of {c['curve']}: got {c['genus']}, want {want}")
        if c["bound"] != 2 * (2 * c["genus"] - 2):
            errors.append(f"bound of {c['curve']}: {c['bound']} for genus {c['genus']}")
        if c["satisfied"] != (Fraction(c["KmE_degree"]) <= c["bound"]):
            errors.append(f"satisfied flag of {c['curve']} disagrees with its degree")
    central = {c["curve"]: c["genus"] for c in payload.get("central_genera", [])}
    want_central = {k: v for k, v in genera.items() if k[0] in "NM"}
    if central != want_central:
        errors.append(f"central genera: got {central}, want {want_central}")
    rational = sorted(payload.get("rational_centrals", []))
    if rational != sorted(k for k, v in want_central.items() if v == 0):
        errors.append(f"rational centrals: got {rational}")
    return errors


def many_points_expected(k: int) -> dict:
    """Z/2 on two hyperelliptic curves with 2k branch points each."""
    ksq = 4 * (k - 2) ** 2
    e = 2 * (k - 2) ** 2 + 6 * k * k
    chi = Fraction(ksq + e, 12)
    return {
        "group_order": 2,
        "g1": k - 1,
        "g2": k - 1,
        "singularities": [(2, 1, (2 * k) ** 2)],
        "invariants": {"e": e, "Ksq": ksq, "chi": chi, "q": 0, "pg": chi - 1},
        # each central component is the opposite curve modulo its involution
        "curve_genera": {"F1": k - 1, "F2": k - 1,
                         **{f"N{i}": 0 for i in range(1, 2 * k + 1)},
                         **{f"M{j}": 0 for j in range(1, 2 * k + 1)}},
    }


def check_singularities(payload: dict, ref: dict) -> list:
    got = sorted((tuple(p["branch_pair"]), p["n"], p["a"], p["orbit_size"])
                 for p in payload.get("singularities", []))
    want = sorted((pair, n, a, ref["group_order"] // n) for pair, n, a in ref["points"])
    return [] if got == want else [f"singular points: got {got}, want {want}"]


def check_hj(payload: dict, n: int, a: int) -> list:
    b = payload.get("expansion", [])
    errors = []
    if not b or any(x < 2 for x in b) or hj_value(b) != Fraction(n, a):
        errors.append(f"hj {n} {a}: expansion {b} does not evaluate to {n}/{a}")
    elif abs(tridiagonal_det(b)) != n or abs(payload.get("determinant", 0)) != n:
        errors.append(f"hj {n} {a}: |det| = {payload.get('determinant')} != {n}")
    if payload.get("dual_a") != pow(a, -1, n):
        errors.append(f"hj {n} {a}: dual {payload.get('dual_a')}")
    matrix = payload.get("matrix", [])
    want = [[-b[r] if r == c else int(abs(r - c) == 1) for c in range(len(b))] for r in range(len(b))]
    if matrix != want:
        errors.append(f"hj {n} {a}: string matrix {matrix}")
    return errors


def bigness_m_star(ksq: int, chi: int, points: int, m_max: int = 100):
    for m in range(2, m_max + 1):
        value = chi + Fraction(m * (m - 1), 2) * ksq - Fraction(points * m * (2 * m + 1), 2)
        if value > 0:
            return m, value
    return None


def check_bigness(payload: dict, ksq: int, chi: int, points: int) -> list:
    want = bigness_m_star(ksq, chi, points)
    cert = payload.get("certificate")
    got = None if cert is None else (cert["m_star"], Fraction(cert["value"]))
    return [] if got == want else [f"bigness {ksq} {chi} {points}: got {got}, want {want}"]


def local_terms(m: int, terms) -> list:
    """The binomial closed form of the pullback of sum c z1^i z2^j (dz1 dz2)^m
    through z1 = mu1^(1/2), z2 = mu1^(1/2) mu2, as sorted (p, q, alpha, beta, c)."""
    out: dict = {}
    for i, j0, c in terms:
        for j in range(m + 1):
            key = (Fraction(i + j0, 2) - (m - j), j0 + m - j, 2 * m - j, j)
            out[key] = out.get(key, Fraction(0)) + c * comb(m, j) / Fraction(2 ** (2 * m - j))
    return sorted((*key, c) for key, c in out.items() if c != 0)


def check_local(payload: dict, m: int, terms) -> list:
    want = local_terms(m, terms)
    got = sorted((Fraction(t["mu1"]), t["mu2"], t["dmu1"], t["dmu2"], Fraction(t["coeff"]))
                 for t in payload.get("terms", []))
    errors = [] if got == want else [f"local-check terms: got {got}, want {want}"]
    invariant = all((i + j) % 2 == 0 for i, j, _ in terms)
    holomorphic = all(p.denominator == 1 and p >= 0 for p, *_ in want)
    order = str(min(p for p, *_ in want)) if want else None
    if (payload.get("invariant"), payload.get("holomorphic"), payload.get("mu1_order")) != (
        invariant, holomorphic, order
    ):
        errors.append("local-check flags disagree with the closed form")
    return errors


def formula_row(order: int, g1: int, g2: int, sings, ksq) -> dict:
    e = Fraction(4 * (g1 - 1) * (g2 - 1), order)
    for n, a, count in sings:
        e += count * (len(hj_string(n, a)) + 1 - Fraction(1, n))
    chi = None if ksq is None else (ksq + e) / 12
    return {"group_order": order, "g1": g1, "g2": g2, "e": e, "Ksq": ksq, "chi": chi, "q": 0,
            "pg": None if chi is None else chi - 1,
            "singularities": sorted((*normalized(n, a), c) for n, a, c in sings)}


def check_table(payload: dict, rows) -> list:
    """rows: (name, expected dict) in file order."""
    got = payload.get("rows", [])
    if len(got) != len(rows):
        return [f"table: got {len(got)} rows, want {len(rows)}"]
    errors = []
    for record, (name, want) in zip(got, rows):
        if record.get("error") or record.get("name") != name:
            errors.append(f"table row {name}: {record.get('name')} {record.get('error')}")
            continue
        for key, value in want.items():
            if key == "singularities":
                if record[key] != "+".join(f"{n}/{a}x{c}" for n, a, c in value):
                    errors.append(f"table row {name}: singularities {record[key]}")
            elif record.get(key) != value:
                errors.append(f"table row {name}: {key} = {record.get(key)}, want {value}")
    return errors
