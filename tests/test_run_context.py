"""One CLI run builds each artifact once.

`main` runs in-process with counting wrappers around every module binding
of the builders.  Per run, the spherical recognition, H^1, the standard
amalgam, its core loops and the whole group W are built at most once; the
edge complex at most twice for a diagram (the amalgam's and H^1's) and once
for a graph; and `enumerate_group` runs once for W plus once per distinct
core subdiagram.  Fresh `Aut` searches (calls of `generating_set`, which
memo hits skip) are counted too.
"""

import contextlib
import importlib
import io
import sys

import pytest

from coxloops.cli import main, parse_input
from coxloops.groups import dihedral

MODULES = ("cli", "amalgams", "cohomology", "coxeter", "loops", "morphisms")
BUILDERS = (
    "recognize_spherical",
    "cohomology",
    "standard_amalgam",
    "_build_core_data",
    "build_complex",
    "enumerate_group",
    "generating_set",
)


def _cox(rank, edges):
    return "\n".join(["coxeter v1", f"rank {rank}"] + [f"edge {i} {j} {m}" for i, j, m in edges]) + "\n"


INPUTS = {
    "A3": _cox(3, [(1, 2, 3), (2, 3, 3)]),
    "B3": _cox(3, [(1, 2, 3), (2, 3, 4)]),
    "K4": _cox(4, [(i, j, 3) for i in range(1, 5) for j in range(i + 1, 5)]),
    "K5": _cox(5, [(i, j, 3) for i in range(1, 6) for j in range(i + 1, 6)]),
    "D6": "\n".join(["table v1 12"] + [" ".join(map(str, r)) for r in dihedral(6).product]) + "\n",
    "graph": "graph v1\nedge 1 2\nedge 2 3\nedge 1 3\nedge 3 4\nedge 4 5\nedge 5 3\n",
}

# (command, input) -> builds per run; "whole" counts enumerate_group on the
# input diagram itself
EXPECTED = {
    ("verify", "B3"): dict(
        recognize_spherical=1, cohomology=1, standard_amalgam=1, _build_core_data=1,
        build_complex=2, enumerate_group=4, whole=1, generating_set=3,
    ),
    ("verify", "K5"): dict(
        recognize_spherical=1, cohomology=1, standard_amalgam=1, _build_core_data=1,
        build_complex=2, enumerate_group=2, whole=0, generating_set=3,
    ),
    ("verify", "D6"): dict(generating_set=3),
    ("verify", "graph"): dict(cohomology=1, build_complex=1),
    ("cohomology", "graph"): dict(cohomology=1, build_complex=1),
    ("amalgams", "K4"): dict(
        recognize_spherical=1, cohomology=1, standard_amalgam=1, _build_core_data=1,
        build_complex=2, enumerate_group=2, whole=0, generating_set=1,
    ),
    ("aut", "A3"): dict(recognize_spherical=1, enumerate_group=1, whole=1, generating_set=2),
}


@pytest.mark.parametrize("command,name", sorted(EXPECTED))
def test_one_build_per_artifact(command, name, monkeypatch):
    counts = dict.fromkeys(BUILDERS + ("whole",), 0)
    modules = [importlib.import_module(f"coxloops.{m}") for m in MODULES]
    diagram = None

    def counting(builder, fn):
        def wrapper(*args, **kwargs):
            counts[builder] += 1
            if builder == "enumerate_group" and args[0] == diagram:
                counts["whole"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for builder in BUILDERS:
        fn = next(getattr(m, builder) for m in modules if callable(getattr(m, builder, None)))
        wrapper = counting(builder, fn)
        for m in modules:
            if getattr(m, builder, None) is fn:
                monkeypatch.setattr(m, builder, wrapper)
    kind, obj = parse_input(INPUTS[name])
    if kind == "coxeter":
        diagram = obj
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(INPUTS[name].encode())))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "-", "--json"]) == 0
    assert counts == {**dict.fromkeys(counts, 0), **EXPECTED[(command, name)]}
