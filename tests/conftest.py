import sys
from contextlib import contextmanager
from importlib.resources import files

import pytest

from pqsurf.covers import SphericalSystem
from pqsurf.groups import FiniteGroup, Permutation, _span, group_from_generators
from pqsurf.inputs import parse_input, realize
from pqsurf.surface import build_surface_model


def power(group, i: int, k: int) -> int:
    """i^k in the group, for k of either sign, read off the powers of i."""
    cycle = group.powers(i)
    return cycle[k % len(cycle)]


@contextmanager
def span_compositions():
    """Count the products the spans compose while the block runs: the calls
    of ``bytes.translate`` made from the frame of ``groups._span`` or of
    ``FiniteGroup.conjugacy_class`` (two per conjugation), seen by a profiler, so the
    program keeps no seam for the count.  The count is calls[0]."""
    calls = [0]
    spans = {_span.__code__, FiniteGroup.conjugacy_class.__code__}

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code in spans and getattr(arg, "__qualname__", "") == "bytes.translate":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def fixture_path(name: str):
    """The path of a fixture shipped inside the package."""
    return files("pqsurf") / "fixtures" / name


def run_invariants(desc, name: str = ""):
    """The numerical invariants of a parsed .pq description, by the route of
    `pqsurf invariants`: realize, build the model, read its invariants."""
    _, sys1, sys2 = realize(desc)
    return build_surface_model(sys1, sys2).numerical_invariants()._replace(name=name)


@pytest.fixture(scope="session")
def beauville():
    desc = parse_input(fixture_path("beauville_55.pq").read_text())
    return realize(desc)


@pytest.fixture(scope="session")
def toy():
    desc = parse_input(fixture_path("z2_hyperelliptic.pq").read_text())
    return realize(desc)


@pytest.fixture(scope="session")
def beauville_model(beauville):
    _, sys1, sys2 = beauville
    return build_surface_model(sys1, sys2)


@pytest.fixture(scope="session")
def toy_model(toy):
    _, sys1, sys2 = toy
    return build_surface_model(sys1, sys2)


@pytest.fixture(scope="session")
def z4_mixed_model():
    # signature (4, 4, 2, 2) self-paired: produces 1/4(1,1), 1/4(1,3) and
    # 1/2(1,1) points, including strings whose fiber multiplicities exceed 1
    g = Permutation.from_cycles("(0 1 2 3)")
    group = group_from_generators([g])
    (i,) = group.generator_indices
    sys = SphericalSystem(group, (i, power(group, i, 3), power(group, i, 2), power(group, i, 2)))
    return build_surface_model(sys, sys)
