"""Seeded inputs, operations and answer checks of the three workloads.

A workload object writes its fixed inputs when it is built (that is part of
set-up) and then hands out rounds of operations.  Each round is generated
from the workload's own ``random.Random``, so the same seed gives the same
inputs.  An operation is a list of pqsurf command lines run one after the
other; its ``check`` takes their JSON outputs and returns the mismatches
against ``reference``, which never imports pqsurf.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

import reference as ref

# The A6 system of the roadmap, signatures (2,4,5) x (3,3,4): g = (10, 16).
A6_DEGREE = 6
A6_SYSTEM1 = ("(1 3)(4 5)", "(0 5)(1 3 2 4)", "(0 5 2 3 4)")
A6_SYSTEM2 = ("(0 4 1)(2 3 5)", "(0 4 3)", "(0 1)(2 5 4 3)")

# many_points: Z/2 on two hyperelliptic curves with 2k branch points each,
# (2k)^2 nodes and 2 + 4k + 4k^2 basis curves (170 at k = 6).
MANY_POINTS_K = 6


@dataclass
class Op:
    kind: str
    commands: list  # pqsurf argument lists
    check: Callable[[list], list]  # JSON payloads -> mismatches
    pq: Path | None = None  # the surface input, for the staged trace
    section: tuple | None = None  # (m, terms) for the local chart
    hj_types: list = field(default_factory=list)
    bigness: tuple | None = None


def write_pq(path: Path, degree: int, named: list, words1: list, words2: list) -> None:
    """A .pq file from (name, image tuple) generators and the two systems' words."""
    lines = ["[group]", f"degree = {degree}"]
    lines += [f"{name} = {ref.to_cycles(g)}" for name, g in named]
    lines += ["", "[system1]", "generators = " + ", ".join(words1)]
    lines += ["", "[system2]", "generators = " + ", ".join(words2)]
    path.write_text("\n".join(lines) + "\n")


def random_section(rng: random.Random) -> tuple:
    """A seeded section a(z1, z2) (dz1 dz2)^m with distinct monomials."""
    m = rng.randint(1, 3)
    monomials = rng.sample([(i, j) for i in range(5) for j in range(5)], rng.randint(1, 3))
    terms = []
    for i, j in monomials:
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.choice([1, 1, 2]))
        terms.append((i, j, c))
    return m, tuple(terms)


def section_text(terms) -> str:
    parts = []
    for i, j, c in terms:
        factors = [str(abs(c))]
        factors += [f"z1^{i}"] if i else []
        factors += [f"z2^{j}"] if j else []
        parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    return " ".join(parts).removeprefix("+ ")


def checks_for_surface(expected: Callable[[], dict]) -> Callable[[list], list]:
    """The check of an invariants + bounds operation."""

    def check(payloads: list) -> list:
        want = expected()
        return ref.check_invariants(payloads[0], want) + ref.check_bounds(payloads[1], want)

    return check


class BigGroup:
    """invariants + bounds on a fresh relabelling of the A6 system per operation."""

    fresh_process = False

    def __init__(self, rng: random.Random, work: Path, fixtures: Path):
        self.rng, self.work = rng, work
        self.base1 = [ref.from_cycles(c, A6_DEGREE) for c in A6_SYSTEM1]
        self.base2 = [ref.from_cycles(c, A6_DEGREE) for c in A6_SYSTEM2]
        self.count = 0
        self.references: dict = {}

    def _reference(self, gens1, gens2) -> dict:
        key = (gens1, gens2)
        if key not in self.references:
            self.references[key] = ref.surface_reference(gens1, gens2)
        return self.references[key]

    def next_round(self) -> list:
        sigma = list(range(A6_DEGREE))
        self.rng.shuffle(sigma)
        sigma = tuple(sigma)
        sigma_inv = ref.inverse(sigma)
        gens1 = tuple(ref.compose(ref.compose(sigma, g), sigma_inv) for g in self.base1)
        gens2 = tuple(ref.compose(ref.compose(sigma, h), sigma_inv) for h in self.base2)
        self.count += 1
        path = self.work / f"a6_{self.count % 2}.pq"
        # every system element is its own generator, as in the roadmap's A6 file
        xs = [f"x{i}" for i in range(1, 4)]
        ys = [f"y{j}" for j in range(1, 4)]
        write_pq(path, A6_DEGREE, list(zip(xs + ys, gens1 + gens2)), xs, ys)
        return [Op("surface", [["invariants", str(path), "--json"], ["bounds", str(path), "--json"]],
                   checks_for_surface(lambda: self._reference(gens1, gens2)),
                   pq=path, section=random_section(self.rng))]


class ManyPoints:
    """invariants + bounds on Z/2 x two hyperelliptic curves; the involution's
    permutation representation is drawn afresh for every operation."""

    fresh_process = False

    def __init__(self, rng: random.Random, work: Path, fixtures: Path):
        self.rng, self.work = rng, work
        self.count = 0

    def next_round(self) -> list:
        degree = self.rng.randint(2, 8)
        moved = self.rng.sample(range(degree), 2 * self.rng.randint(1, degree // 2))
        t = list(range(degree))
        for a, b in zip(moved[::2], moved[1::2]):
            t[a], t[b] = b, a
        t = tuple(t)
        self.count += 1
        path = self.work / f"z2_{self.count % 2}.pq"
        # one named generator, as in the shipped z2_hyperelliptic.pq fixture
        words = ["t"] * (2 * MANY_POINTS_K)
        write_pq(path, degree, [("t", t)], words, words)
        return [Op("surface", [["invariants", str(path), "--json"], ["bounds", str(path), "--json"]],
                   checks_for_surface(lambda: ref.many_points_expected(MANY_POINTS_K)),
                   pq=path, section=random_section(self.rng))]


def random_rows(rng: random.Random, count: int) -> list:
    """Formula-mode rows with an integral Euler number and, when K^2 is
    given, a positive integral chi."""
    rows = []
    for r in range(count):
        g1, g2 = rng.randint(2, 30), rng.randint(2, 30)
        total = 4 * (g1 - 1) * (g2 - 1)
        order = rng.choice([d for d in range(2, 121) if total % d == 0])
        sings, keys = [], set()
        for _ in range(rng.randint(0, 2)):
            n = rng.randint(2, 9)
            a = rng.choice([x for x in range(1, n) if gcd(x, n) == 1])
            if ref.normalized(n, a) not in keys:
                keys.add(ref.normalized(n, a))
                sings.append((n, a, n * rng.randint(1, 2)))
        e = ref.formula_row(order, g1, g2, sings, None)["e"]
        ksq = None if rng.random() < 0.5 else int(12 * rng.randint(1, 4) - e)
        rows.append((f"row{r}", order, g1, g2, sings, ksq))
    return rows


def table_expectations(shipped: Path, rows) -> list:
    out = []
    with shipped.open() as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    for record in csv.DictReader(lines):
        sings = [tuple(map(int, item.replace("x", "/").split("/")))
                 for item in record["singularities"].split("+")]
        want = ref.formula_row(int(record["group_order"]), int(record["g1"]), int(record["g2"]),
                               sings, int(record["ksq"]))
        # the c_1^2 = 6 rows of the classification: e = K^2 = 6, chi = 1, pg = 0
        if (want["e"], want["Ksq"], want["chi"], want["pg"]) != (6, 6, 1, 0):
            raise ValueError(f"shipped row {record['name']} is not a c_1^2 = 6 row")
        out.append((record["name"], want))
    for name, order, g1, g2, sings, ksq in rows:
        out.append((name, ref.formula_row(order, g1, g2, sings, ksq)))
    return out


def write_rows(path: Path, rows) -> None:
    lines = ["name,group_order,g1,g2,singularities,ksq"]
    for name, order, g1, g2, sings, ksq in rows:
        items = "+".join(f"{n}/{a}x{c}" for n, a, c in sings)
        lines.append(f"{name},{order},{g1},{g2},{items},{'' if ksq is None else ksq}")
    path.write_text("\n".join(lines) + "\n")


class CliBatch:
    """A fixed round-robin of short commands, each a fresh process."""

    fresh_process = True

    def __init__(self, rng: random.Random, work: Path, fixtures: Path):
        self.rng = rng
        self.shipped = fixtures / "table_c1sq6.rows"
        self.beauville = fixtures / "beauville_55.pq"
        self.z2 = fixtures / "z2_hyperelliptic.pq"
        self.rows_path = work / "seeded.rows"
        rows = random_rows(rng, 6)
        write_rows(self.rows_path, rows)
        self.rows = rows
        self.references: dict = {}

    def _table(self) -> list:
        if "table" not in self.references:
            self.references["table"] = table_expectations(self.shipped, self.rows)
        return self.references["table"]

    def _surface(self, path: Path) -> dict:
        if path not in self.references:
            self.references[path] = ref.surface_reference(*ref.read_pq(path.read_text()))
        return self.references[path]

    def next_round(self) -> list:
        rng = self.rng
        n = rng.randint(2, 60)
        a = rng.choice([x for x in range(1, n) if gcd(x, n) == 1])
        ksq, chi, points = rng.randint(1, 9), rng.randint(1, 5), rng.randint(0, 8)
        m, terms = random_section(rng)
        return [
            Op("hj", [["hj", str(n), str(a), "--json"]],
               lambda p: ref.check_hj(p[0], n, a), hj_types=[(n, a)]),
            Op("bigness", [["bigness", "--ksq", str(ksq), "--chi", str(chi), "--points", str(points), "--json"]],
               lambda p: ref.check_bigness(p[0], ksq, chi, points), bigness=(ksq, chi, points)),
            Op("local-check", [["local-check", "--m", str(m), "--section", section_text(terms), "--json"]],
               lambda p: ref.check_local(p[0], m, terms), section=(m, terms)),
            Op("table", [["table", str(self.shipped), str(self.rows_path), "--json"]],
               lambda p: ref.check_table(p[0], self._table())),
            Op("invariants", [["invariants", str(self.beauville), "--json"]],
               lambda p: ref.check_invariants(p[0], self._surface(self.beauville)), pq=self.beauville),
            Op("singularities", [["singularities", str(self.z2), "--json"]],
               lambda p: ref.check_singularities(p[0], self._surface(self.z2)), pq=self.z2),
        ]


WORKLOADS = {"big_group": BigGroup, "many_points": ManyPoints, "cli_batch": CliBatch}


def make(name: str, seed: int, work: Path, fixtures: Path):
    """The workload ``name`` with its inputs drawn from ``seed``; fixed inputs go to ``work``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work, fixtures)
