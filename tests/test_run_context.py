"""One CLI run builds each artifact once.

`main` runs in-process with counting wrappers around every module binding
of the builders.  Per run, the spherical recognition, H^1, the standard
amalgam, its core loops and the whole group W are built at most once; the
edge complex at most twice for a diagram (the amalgam's and H^1's) and once
for a graph; and `enumerate_group` runs once per distinct core subdiagram
plus once for W, unless W is itself a core (rank <= 2).  Fresh `Aut`
searches (calls of `generating_set`, which memo hits skip) are counted too,
and so are the certificates of an input table: its loop-axiom checks
(`loop_axiom_failures`) and associativity sweeps (`is_associative`), each
made once per run.  A certificate counts when its table equals the input,
except inside `verify_doubled_dihedral_automorphisms`: that one certifies
its own H and M(H, 2), and M(C6, 2) equals the D6 input entry for entry.
"""

import contextlib
import importlib
import io
import sys

import pytest

from coxloops.cli import main, parse_input
from coxloops.groups import dihedral, quaternion

MODULES = ("cli", "amalgams", "cohomology", "coxeter", "groups", "loops", "morphisms")
BUILDERS = (
    "recognize_spherical",
    "cohomology",
    "standard_amalgam",
    "_build_core_data",
    "build_complex",
    "enumerate_group",
    "generating_set",
)
CERTIFICATES = ("loop_axiom_failures", "is_associative")


def _cox(rank, edges):
    return "\n".join(["coxeter v1", f"rank {rank}"] + [f"edge {i} {j} {m}" for i, j, m in edges]) + "\n"


INPUTS = {
    "A3": _cox(3, [(1, 2, 3), (2, 3, 3)]),
    "B3": _cox(3, [(1, 2, 3), (2, 3, 4)]),
    "K4": _cox(4, [(i, j, 3) for i in range(1, 5) for j in range(i + 1, 5)]),
    "K5": _cox(5, [(i, j, 3) for i in range(1, 6) for j in range(i + 1, 6)]),
    "A2": _cox(2, [(1, 2, 3)]),
    "I2(8)": _cox(2, [(1, 2, 8)]),
    "D6": "\n".join(["table v1 12"] + [" ".join(map(str, r)) for r in dihedral(6).product]) + "\n",
    "Q8": "\n".join(["table v1 8"] + [" ".join(map(str, r)) for r in quaternion().product]) + "\n",
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
    ("verify", "A2"): dict(
        recognize_spherical=1, cohomology=1, standard_amalgam=1, _build_core_data=1,
        build_complex=2, enumerate_group=2, whole=1, generating_set=3,
    ),
    ("verify", "I2(8)"): dict(
        recognize_spherical=1, cohomology=1, standard_amalgam=1, _build_core_data=1,
        build_complex=2, enumerate_group=2, whole=1, generating_set=3,
    ),
    ("amalgams", "A2"): dict(
        recognize_spherical=1, cohomology=1, standard_amalgam=1, _build_core_data=1,
        build_complex=2, enumerate_group=2, whole=1,
    ),
    ("amalgams", "I2(8)"): dict(
        recognize_spherical=1, cohomology=1, standard_amalgam=1, _build_core_data=1,
        build_complex=2, enumerate_group=2, whole=1,
    ),
    ("verify", "D6"): dict(generating_set=3, loop_axiom_failures=1, is_associative=1),
    ("verify", "Q8"): dict(generating_set=2, loop_axiom_failures=1, is_associative=1),
    ("parse", "D6"): dict(loop_axiom_failures=1),
    ("parse", "Q8"): dict(loop_axiom_failures=1),
    ("group", "D6"): dict(loop_axiom_failures=1, is_associative=1),
    ("group", "Q8"): dict(loop_axiom_failures=1, is_associative=1),
    ("loop", "D6"): dict(loop_axiom_failures=1, is_associative=1),
    ("loop", "Q8"): dict(loop_axiom_failures=1, is_associative=1),
    ("aut", "D6"): dict(generating_set=4, loop_axiom_failures=1, is_associative=1),
    ("aut", "Q8"): dict(generating_set=2, loop_axiom_failures=1, is_associative=1),
    ("verify", "graph"): dict(cohomology=1, build_complex=1),
    ("cohomology", "graph"): dict(cohomology=1, build_complex=1),
    ("amalgams", "K4"): dict(
        recognize_spherical=1, cohomology=1, standard_amalgam=1, _build_core_data=1,
        build_complex=2, enumerate_group=2, whole=0, generating_set=1,
    ),
    ("aut", "A3"): dict(recognize_spherical=1, enumerate_group=1, whole=1, generating_set=2),
}


def _inside_doubled_dihedral_theorem() -> bool:
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_name == "verify_doubled_dihedral_automorphisms":
            return True
        frame = frame.f_back
    return False


@pytest.mark.parametrize("command,name", sorted(EXPECTED))
def test_one_build_per_artifact(command, name, monkeypatch):
    counts = dict.fromkeys(BUILDERS + CERTIFICATES + ("whole",), 0)
    modules = [importlib.import_module(f"coxloops.{m}") for m in MODULES]
    diagram = table = None

    def counting(builder, fn):
        def wrapper(*args, **kwargs):
            if builder in CERTIFICATES:
                rows = args[0] if builder == "loop_axiom_failures" else args[0].product
                if tuple(map(tuple, rows)) == table and not _inside_doubled_dihedral_theorem():
                    counts[builder] += 1
                return fn(*args, **kwargs)
            counts[builder] += 1
            if builder == "enumerate_group" and args[0] == diagram:
                counts["whole"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for builder in BUILDERS + CERTIFICATES:
        fn = next(getattr(m, builder) for m in modules if callable(getattr(m, builder, None)))
        wrapper = counting(builder, fn)
        for m in modules:
            if getattr(m, builder, None) is fn:
                monkeypatch.setattr(m, builder, wrapper)
    kind, obj = parse_input(INPUTS[name])
    if kind == "coxeter":
        diagram = obj
    if kind == "table":
        table = tuple(map(tuple, obj))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(INPUTS[name].encode())))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "-", "--json"]) == 0
    assert counts == {**dict.fromkeys(counts, 0), **EXPECTED[(command, name)]}
