"""Package-wide guards: the exported names, and no `assert` in the sources.

Certificates must hold under `python -O`, which strips `assert`, so every
check in `src/coxloops/` raises `CheckError` instead.
"""

import ast
import importlib
from pathlib import Path

import coxloops

PACKAGE = Path(coxloops.__file__).resolve().parent
SUBMODULES = (
    "errors", "gf2", "graphs", "groups", "coxeter", "loops", "morphisms", "cohomology", "amalgams",
)

# the names `coxloops.__all__` listed by hand before it was derived
EXPORTED_BEFORE = """
CheckError DiagramError FormatError ResourceLimitError gf2_rref gf2_rank
gf2_kernel_basis gf2_same_span Graph SpanningTree connected_components spanning_tree
GroupTable from_table cyclic dihedral quaternion alternating4 klein4 symmetric3
direct_product closure subgroup_table all_subgroups INF CoxeterDiagram ComponentType
SphericalReport recognize_spherical enumerate_order enumerate_group subdiagram
embed_parabolic diagram_a diagram_b diagram_d diagram_e diagram_f4 diagram_h diagram_i2
LoopTable IdentityReport chein_loop from_rows is_quasigroup is_loop is_associative
is_moufang moufang_values chein_values verify_chein_identities
verify_doubling_identities subloop_closure Morphism AutGroup TrichotomyReport
SemidirectAutReport DoubledDihedralAutReport automorphism_group compose_images
invert_images is_homomorphism is_automorphism generating_set translation_automorphism
lifted_automorphism dihedral_decomposition classify_trichotomy
verify_semidirect_automorphisms verify_doubled_dihedral_automorphisms EdgeComplex
build_complex CohomologyResult cohomology VertexStar vertex_star vertex_coboundary
vertex_twist edge_twist CoefficientGroup coefficient_group Amalgam standard_amalgam
twisted_amalgam cocycle_to_amalgam delta_cocycle verify_amalgam AmalgamReport
loop_completion verify_completion CompletionReport amalgams_isomorphic IsoReport
classify_twisted_amalgams ClassificationReport __version__
""".split()


def test_every_earlier_export_still_resolves():
    assert len(EXPORTED_BEFORE) == 96
    for name in EXPORTED_BEFORE:
        assert name in coxloops.__all__
        assert hasattr(coxloops, name)


def test_every_submodule_export_is_a_package_export():
    for m in SUBMODULES:
        module = importlib.import_module(f"coxloops.{m}")
        for name in module.__all__:
            assert name in coxloops.__all__
            assert getattr(coxloops, name) is getattr(module, name)
    assert len(coxloops.__all__) == len(set(coxloops.__all__))


def test_no_assert_statement_in_the_package():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 11
    asserts = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
