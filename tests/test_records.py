"""The contract of the package's record types, one table over all of them.

Each record keeps its field names and order, its `repr`, frozen fields,
and value equality with a matching hash; `VertexStar.kernel` and
`AutGroup.elements` are computed once per instance; `AutGroup` compares
and hashes by identity.  The field lists and reprs were frozen from the
records as they were before they became tuples.
"""

import importlib

import pytest

from coxloops import gf2
from coxloops.amalgams import (
    AmalgamReport,
    ClassificationReport,
    CompletionReport,
    CoreData,
    IsoReport,
)
from coxloops.cohomology import CoefficientGroup, CohomologyResult, VertexStar
from coxloops.coxeter import ComponentType, RegularAction, SphericalReport
from coxloops.errors import CheckError
from coxloops.graphs import Graph, SpanningTree
from coxloops.groups import ElementStatistics, IdentityReport, cyclic
from coxloops.loops import chein_loop
from coxloops.morphisms import (
    AutGroup,
    DoubledDihedralAutReport,
    SemidirectAutReport,
    TrichotomyReport,
)

C2 = cyclic(2)
M2 = chein_loop(C2)
E4 = (0, 1, 2, 3)
CYCLE = ComponentType("-", (1, 2, 3), None, "the underlying graph contains a cycle")

# (type, field values, field names, repr); CoreData and ElementStatistics
# hold a dict, AutGroup dicts and identity semantics, so none of them is
# hashed by value
RECORDS = [
    (
        IdentityReport,
        ("moufang", False, 27, (0, 1, 2), (3, 4)),
        ("name", "holds", "checked", "counterexample", "values"),
        "IdentityReport(name='moufang', holds=False, checked=27, counterexample=(0, 1, 2), "
        "values=(3, 4))",
    ),
    (
        SpanningTree,
        (1, ((1, 2), (1, 3)), ((2, 3),), (2,)),
        ("root", "tree_edges", "nontree_edges", "chosen_vertex"),
        "SpanningTree(root=1, tree_edges=((1, 2), (1, 3)), nontree_edges=((2, 3),), "
        "chosen_vertex=(2,))",
    ),
    (
        ComponentType,
        ("A2", (1, 2), 6),
        ("name", "vertices", "order", "reason"),
        "ComponentType(name='A2', vertices=(1, 2), order=6, reason=None)",
    ),
    (
        SphericalReport,
        (False, None, (CYCLE,)),
        ("spherical", "order", "components"),
        "SphericalReport(spherical=False, order=None, components=(ComponentType(name='-', "
        "vertices=(1, 2, 3), order=None, reason='the underlying graph contains a cycle'),))",
    ),
    (
        RegularAction,
        (((1, 0),), ((0, -1), (0, 0))),
        ("act", "tree"),
        "RegularAction(act=((1, 0),), tree=((0, -1), (0, 0)))",
    ),
    (
        ElementStatistics,
        (2, True, True, 1, {1: 1, 2: 1}),
        ("order", "abelian", "elementary_abelian", "involutions", "element_orders"),
        "ElementStatistics(order=2, abelian=True, elementary_abelian=True, involutions=1, "
        "element_orders={1: 1, 2: 1})",
    ),
    (
        TrichotomyReport,
        (3, "dihedral", 16, ((0, 2), 1)),
        ("case", "label", "loop_order", "decomposition"),
        "TrichotomyReport(case=3, label='dihedral', loop_order=16, decomposition=((0, 2), 1))",
    ),
    (
        SemidirectAutReport,
        (12, 24, 2, 12, True, True, True, True, True, 9),
        (
            "loop_order", "aut_order", "group_aut_order", "expected_order", "translations_ok",
            "lifts_ok", "normal_relation_ok", "intersection_trivial", "set_matches", "nodes",
        ),
        "SemidirectAutReport(loop_order=12, aut_order=24, group_aut_order=2, expected_order=12, "
        "translations_ok=True, lifts_ok=True, normal_relation_ok=True, "
        "intersection_trivial=True, set_matches=True, nodes=9)",
    ),
    (
        DoubledDihedralAutReport,
        (3, 24, 648, 648, True, True, 1, True, True, True, True, 30),
        (
            "h_order", "loop_order", "aut_order", "expected_order", "klein_ok", "centralizer_ok",
            "centralizer_witness", "rescalings_ok", "symmetric_ok", "lifts_ok", "set_matches",
            "nodes",
        ),
        "DoubledDihedralAutReport(h_order=3, loop_order=24, aut_order=648, expected_order=648, "
        "klein_ok=True, centralizer_ok=True, centralizer_witness=1, rescalings_ok=True, "
        "symmetric_ok=True, lifts_ok=True, set_matches=True, nodes=30)",
    ),
    (
        CohomologyResult,
        (
            Graph([1, 2, 3], [(1, 2), (1, 3), (2, 3)]), 3, 2, 1,
            (((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))),
            (1, 2, 4), (3, 5), (1,), ((2, 3),), 1,
        ),
        (
            "graph", "z1", "b1", "h1", "pair_index", "z_basis", "b_basis", "h_basis",
            "h_basis_edges", "components",
        ),
        "CohomologyResult(graph=Graph(vertices=(1, 2, 3), edges=[(1, 2), (1, 3), (2, 3)]), "
        "z1=3, b1=2, h1=1, pair_index=(((1, 2), (1, 3)), ((1, 2), (2, 3)), ((1, 3), (2, 3))), "
        "z_basis=(1, 2, 4), b_basis=(3, 5), h_basis=(1,), h_basis_edges=((2, 3),), "
        "components=1)",
    ),
    (
        CoefficientGroup,
        (((1, 2),), (1, 2), 2, (0, 1, 3, 2), 2, "structural"),
        ("simplex", "core", "order", "generator", "brute_order", "mode"),
        "CoefficientGroup(simplex=((1, 2),), core=(1, 2), order=2, generator=(0, 1, 3, 2), "
        "brute_order=2, mode='structural')",
    ),
    (
        CoreData,
        ((1,), C2, M2, {1: 1}, 2),
        ("core", "group", "loop", "gen_of", "u"),
        "CoreData(core=(1,), group=GroupTable(order=2), loop=LoopTable(order=4), "
        "gen_of={1: 1}, u=2)",
    ),
    (
        AmalgamReport,
        (7, 9, 6, True, True, True),
        (
            "simplices", "maps_checked", "chains_checked", "injective_ok", "homomorphism_ok",
            "composition_ok",
        ),
        "AmalgamReport(simplices=7, maps_checked=9, chains_checked=6, injective_ok=True, "
        "homomorphism_ok=True, composition_ok=True)",
    ),
    (
        CompletionReport,
        (24, 7, True, True, True),
        ("loop_order", "maps_checked", "injective_ok", "homomorphism_ok", "commuting_ok"),
        "CompletionReport(loop_order=24, maps_checked=7, injective_ok=True, "
        "homomorphism_ok=True, commuting_ok=True)",
    ),
    (
        IsoReport,
        (False, None, 4, 4, True),
        ("isomorphic", "witness", "assignments", "space", "exhausted"),
        "IsoReport(isomorphic=False, witness=None, assignments=4, space=4, exhausted=True)",
    ),
    (
        ClassificationReport,
        (1, ((2, 3),), (2,), 2, ((frozenset(),), (frozenset({1}),)), 1),
        (
            "cycle_rank", "nontree_edges", "chosen_vertices", "class_count", "classes",
            "pairs_checked",
        ),
        "ClassificationReport(cycle_rank=1, nontree_edges=((2, 3),), chosen_vertices=(2,), "
        "class_count=2, classes=((frozenset(),), (frozenset({1}),)), pairs_checked=1)",
    ),
    (
        VertexStar,
        (1, ((1, 2), (1, 3)), (((1, 2), (1, 3)),), (), (3,), ()),
        ("vertex", "edges", "pairs", "triples", "d0_rows", "d1_rows"),
        "VertexStar(vertex=1, edges=((1, 2), (1, 3)), pairs=(((1, 2), (1, 3)),), triples=(), "
        "d0_rows=(3,), d1_rows=())",
    ),
    (
        AutGroup,
        (
            (1, 2),
            ((0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)),
            ({1: E4, 2: (0, 2, 1, 3), 3: (0, 3, 2, 1)}, {2: E4, 3: (0, 1, 3, 2)}),
            5,
            4,
        ),
        ("base", "strong_generators", "transversals", "nodes", "degree"),
        "AutGroup(base=(1, 2), strong_generators=((0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)), "
        "transversals=({1: (0, 1, 2, 3), 2: (0, 2, 1, 3), 3: (0, 3, 2, 1)}, "
        "{2: (0, 1, 2, 3), 3: (0, 1, 3, 2)}), nodes=5, degree=4)",
    ),
]
UNHASHED = {CoreData, AutGroup, ElementStatistics}


def test_the_table_covers_every_record_type():
    modules = ("amalgams", "cohomology", "coxeter", "graphs", "groups", "loops", "morphisms")
    records = {
        obj
        for m in modules
        for name, obj in vars(importlib.import_module(f"coxloops.{m}")).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and not name.startswith("_")
    }
    assert records == {cls for cls, *_ in RECORDS} and len(records) == 18


@pytest.mark.parametrize("cls, values, names, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, values, names, text):
    record = cls(*values)
    assert cls._fields == names
    assert repr(record) == text
    assert repr(cls(**dict(zip(names, values)))) == text
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    if cls is AutGroup:
        return
    twin = cls(*values)
    assert record == twin and not record != twin
    if cls not in UNHASHED:
        assert hash(record) == hash(twin)


def test_aut_group_compares_and_hashes_by_identity():
    _, values, _, _ = RECORDS[-1]
    a, b = AutGroup(*values), AutGroup(*values)
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2
    with pytest.raises(CheckError, match="level 0 maps 1 to 1, not 2"):
        a._replace(transversals=values[2][::-1])


def test_cached_values_are_computed_once(monkeypatch):
    _, values, _, _ = RECORDS[-1]
    aut = AutGroup(*values)
    assert aut.order == 6
    assert aut.elements is aut.elements
    assert aut.elements == (
        (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1),
    )

    calls = []
    kernel_basis = gf2.gf2_kernel_basis
    monkeypatch.setattr(gf2, "gf2_kernel_basis", lambda *a: calls.append(a) or kernel_basis(*a))
    edges = ((1, 2), (1, 3), (1, 4))
    pairs = ((edges[0], edges[1]), (edges[0], edges[2]), (edges[1], edges[2]))
    star = VertexStar(1, edges, pairs, (edges,), (3, 5, 6), (7,))
    assert star.kernel is star.kernel and star.is_acyclic()
    assert star.kernel == (3, 5) and len(calls) == 1
