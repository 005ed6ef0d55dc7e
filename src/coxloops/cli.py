"""Command-line interface: parse inputs, run the pipelines, emit reports.

Three input dialects, sniffed from the first significant line:

- ``coxeter v1`` — a diagram: ``rank <n>`` then ``edge <i> <j> <m>`` lines
  (1-based vertices, m an integer >= 3 or the literal ``inf``; omitted pairs
  default to m = 2).
- ``graph v1`` — a bare graph: optional ``vertices <n>`` line plus
  ``edge <i> <j>`` lines; the vertex set is 1..max(n, largest endpoint).
- ``table v1 <order>`` — a multiplication table: ``order`` rows of ``order``
  0-based indices, identity expected at 0.

``#`` starts a comment anywhere; blank lines are ignored.

Commands: ``parse``, ``group``, ``loop``, ``aut``, ``cohomology``,
``amalgams``, ``verify``.  Reports are deterministic: repeated runs on the
same input and flags are byte-identical (no timestamps, no machine paths,
sorted collections everywhere).  Exit codes: 0 all checks pass, 2 a check
failed, 3 a cap/budget resource limit was hit, 4 parse/usage/I-O error.

Each run has one context (`_Run`), made in `main` from the parsed input and
the flags, that builds each artifact on first use and keeps it: the
spherical recognition, the underlying graph, its edge complex and H^1, the
standard amalgam, W and its double.  The commands are compositions of
shared blocks over it, so one run builds each artifact once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .amalgams import (
    Amalgam,
    classify_twisted_amalgams,
    loop_completion,
    standard_amalgam,
    verify_amalgam,
    verify_completion,
)
from .cohomology import (
    CohomologyResult,
    EdgeComplex,
    build_complex,
    coefficient_group,
    cohomology,
    vertex_star,
)
from .coxeter import (
    CoxeterDiagram,
    SphericalReport,
    enumerate_group,
    enumerate_order,
    recognize_spherical,
)
from .errors import CheckError, FormatError, ResourceLimitError
from .graphs import Graph
from .groups import GroupTable, IdentityReport, is_associative, loop_axiom_failures, subgroup_table
from .loops import LoopTable, chein_loop, is_moufang, verify_doubling_identities
from .morphisms import (
    automorphism_group,
    classify_trichotomy,
    verify_doubled_dihedral_automorphisms,
    verify_semidirect_automorphisms,
)

# loops bigger than this are skipped by the cubic triple checks and the
# brute-force automorphism blocks of `verify` (the dedicated commands still
# run them, guarded by --budget)
DESK_LOOP_LIMIT = 64


# ---------------------------------------------------------------------------
# input parsing


def _significant_lines(text: str):
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield num, line


def parse_input(text: str):
    """Sniff and parse one input document.

    Returns ("coxeter", CoxeterDiagram) | ("graph", Graph) |
    ("table", rows); raises FormatError with 1-based line numbers.
    """
    lines = list(_significant_lines(text))
    if not lines:
        raise FormatError("empty input (no significant lines)")
    num, header = lines[0]
    rest = lines[1:]
    fields = header.split()
    if fields[:2] == ["coxeter", "v1"] and len(fields) == 2:
        return ("coxeter", _parse_coxeter(rest))
    if fields[:2] == ["graph", "v1"] and len(fields) == 2:
        return ("graph", _parse_graph(rest))
    if fields[:2] == ["table", "v1"]:
        if len(fields) != 3:
            raise FormatError("table header must read `table v1 <order>`", num)
        try:
            order = int(fields[2])
        except ValueError:
            raise FormatError(f"table order {fields[2]!r} is not an integer", num)
        if order < 1:
            raise FormatError(f"table order must be >= 1, got {order}", num)
        return ("table", _parse_table(rest, order, num))
    raise FormatError(
        f"unknown header {header!r} (expected `coxeter v1`, `graph v1`, or `table v1 <order>`)",
        num,
    )


def _parse_coxeter(lines) -> CoxeterDiagram:
    rank: Optional[int] = None
    edges: List[Tuple[int, int, object]] = []
    seen = set()
    for num, line in lines:
        fields = line.split()
        if fields[0] == "rank":
            if rank is not None:
                raise FormatError("duplicate rank line", num)
            if len(fields) != 2:
                raise FormatError("rank line must read `rank <n>`", num)
            try:
                rank = int(fields[1])
            except ValueError:
                raise FormatError(f"rank {fields[1]!r} is not an integer", num)
            if rank < 1:
                raise FormatError(f"rank must be >= 1, got {rank}", num)
        elif fields[0] == "edge":
            if rank is None:
                raise FormatError("edge line before rank line", num)
            if len(fields) != 4:
                raise FormatError("edge line must read `edge <i> <j> <m>`", num)
            try:
                i, j = int(fields[1]), int(fields[2])
            except ValueError:
                raise FormatError("edge endpoints must be integers", num)
            if not (1 <= i <= rank and 1 <= j <= rank):
                raise FormatError(f"edge ({i},{j}) out of range for rank {rank}", num)
            if i == j:
                raise FormatError(f"edge ({i},{j}) is a loop", num)
            if fields[3] == "inf":
                m: object = math.inf
            else:
                try:
                    m = int(fields[3])
                except ValueError:
                    raise FormatError(
                        f"edge label {fields[3]!r} must be an integer >= 3 or `inf`", num
                    )
                if m < 3:
                    raise FormatError(
                        f"edge label must be >= 3 or the pair left to the default 2, got {m}",
                        num,
                    )
            key = (min(i, j), max(i, j))
            if key in seen:
                raise FormatError(f"duplicate edge ({key[0]},{key[1]})", num)
            seen.add(key)
            edges.append((i, j, m))
        else:
            raise FormatError(f"unknown directive {fields[0]!r} in coxeter input", num)
    if rank is None:
        raise FormatError("missing rank line")
    return CoxeterDiagram.from_edges(rank, edges)


def _parse_graph(lines) -> Graph:
    nverts = 0
    edges: List[Tuple[int, int]] = []
    seen = set()
    for num, line in lines:
        fields = line.split()
        if fields[0] == "vertices":
            if len(fields) != 2:
                raise FormatError("vertices line must read `vertices <n>`", num)
            try:
                n = int(fields[1])
            except ValueError:
                raise FormatError(f"vertex count {fields[1]!r} is not an integer", num)
            if n < 1:
                raise FormatError(f"vertex count must be >= 1, got {n}", num)
            nverts = max(nverts, n)
        elif fields[0] == "edge":
            if len(fields) != 3:
                raise FormatError("edge line must read `edge <i> <j>`", num)
            try:
                i, j = int(fields[1]), int(fields[2])
            except ValueError:
                raise FormatError("edge endpoints must be integers", num)
            if i < 1 or j < 1:
                raise FormatError(f"edge ({i},{j}) endpoints must be >= 1", num)
            if i == j:
                raise FormatError(f"edge ({i},{j}) is a loop", num)
            key = (min(i, j), max(i, j))
            if key in seen:
                raise FormatError(f"duplicate edge ({key[0]},{key[1]})", num)
            seen.add(key)
            edges.append(key)
            nverts = max(nverts, i, j)
        else:
            raise FormatError(f"unknown directive {fields[0]!r} in graph input", num)
    if nverts == 0:
        raise FormatError("graph has no vertices (add `vertices <n>` or edges)")
    return Graph(range(1, nverts + 1), edges)


def _parse_table(lines, order: int, header_num: int) -> List[List[int]]:
    rows: List[List[int]] = []
    for num, line in lines:
        if len(rows) == order:
            raise FormatError(f"extra row after the {order} table rows", num)
        fields = line.split()
        if len(fields) != order:
            raise FormatError(
                f"table row has {len(fields)} entries, expected {order}", num
            )
        row = []
        for f in fields:
            try:
                v = int(f)
            except ValueError:
                raise FormatError(f"table entry {f!r} is not an integer", num)
            if not (0 <= v < order):
                raise FormatError(f"table entry {v} out of range 0..{order - 1}", num)
            row.append(v)
        rows.append(row)
    if len(rows) != order:
        raise FormatError(
            f"table has {len(rows)} rows, expected {order}", header_num
        )
    return rows


# ---------------------------------------------------------------------------
# the per-run context


class _Run:
    """One run: the parsed input, the flags, and the artifacts built from
    them on first use and then kept, so all blocks of a command work on the
    same objects, and nothing outlives the run."""

    def __init__(self, kind: str, obj, cfg: argparse.Namespace):
        self.kind = kind
        self.obj = obj
        self.cfg = cfg

    @cached_property
    def spherical(self) -> SphericalReport:
        return recognize_spherical(self.obj)

    @cached_property
    def graph(self) -> Graph:
        return self.obj.underlying_graph() if self.kind == "coxeter" else self.obj

    @cached_property
    def complex(self) -> EdgeComplex:
        return build_complex(self.graph)

    @cached_property
    def cohomology(self) -> CohomologyResult:
        return cohomology(self.complex, strict=self.cfg.strict, cross_check=self.cfg.cross_check)

    @cached_property
    def amalgam(self) -> Amalgam:
        return standard_amalgam(self.obj)

    @cached_property
    def rows_loop(self) -> Tuple[Optional[LoopTable], Dict]:
        """A table as a loop, with the loop axioms certified once as a
        check; the LoopTable only exists when they pass."""
        n = len(self.obj)
        failure = next(loop_axiom_failures(self.obj), None)
        if failure is None:
            return LoopTable(self.obj, validate=False), _check("loop_axioms", True, order=n)
        if failure[0] == "identity":
            witness = "element 0 is not a two-sided identity"
        else:
            witness = "some row or column repeats a value (not a Latin square)"
        return None, _check("loop_axioms", False, witness=witness, order=n)

    @cached_property
    def associativity(self) -> IdentityReport:
        """Associativity of the run's loop, the input table (once its loop
        axioms passed) or M(W, 2), swept once per run."""
        return is_associative(self.rows_loop[0] if self.kind == "table" else chein_loop(self.group))

    @cached_property
    def group(self) -> GroupTable:
        """W of a diagram, or the group of a table from the run's two
        certificates; its double M(W, 2) is `chein_loop(ctx.group)`, which
        the group keeps."""
        if self.kind == "table":
            if not self.associativity.holds:
                raise CheckError(self.associativity.brief())
            return GroupTable(self.obj, validate=False)
        if "amalgam" in vars(self) and self.graph.is_connected() and self.obj.rank <= 2:
            # a connected diagram of rank <= 2 is its own core, so when the run
            # built the amalgam (verify, amalgams) W is the core group it
            # enumerated; past --cap, enumerate_group below still refuses W
            w = self.amalgam.core_loop(self.obj.vertices).group
            if w.order <= self.cfg.cap:
                return w
        return enumerate_group(self.obj, cap=self.cfg.cap)


# ---------------------------------------------------------------------------
# report plumbing


def _check(name: str, passed: bool, witness=None, **extra) -> Dict:
    entry: Dict = {"name": name, "status": "pass" if passed else "fail"}
    entry.update(extra)
    if not passed and witness is not None:
        entry["witness"] = witness
    return entry


def _skip(name: str, note: str) -> Dict:
    return {"name": name, "status": "skip", "note": note}


def _identity_checks(reports: Dict[str, object]) -> List[Dict]:
    out = []
    for name, rep in reports.items():
        entry: Dict = {
            "name": name,
            "status": "pass" if rep.holds else "fail",
            "checked": rep.checked,
        }
        if not rep.holds:
            entry["witness"] = {
                "instance": list(rep.counterexample),
                "values": list(rep.values),
            }
        out.append(entry)
    return out


def _order_check(found: int, classified: int, **extra) -> Dict:
    return _check(
        "order_matches_classification",
        found == classified,
        witness={"enumerated": found, "classified": classified},
        **extra,
    )


def _label(m) -> object:
    return "inf" if m == math.inf else m


def _diagram_payload(ctx: _Run) -> Dict:
    rec = ctx.spherical
    return {
        "rank": ctx.obj.rank,
        "edges": [[i, j, _label(m)] for i, j, m in ctx.obj.edges()],
        "spherical": rec.spherical,
        "order": rec.order if rec.spherical else "inf",
        "components": [
            {
                "type": c.name,
                "vertices": list(c.vertices),
                "order": _label(c.order),
                "reason": c.reason,
            }
            for c in rec.components
        ],
    }


def _graph_payload(graph: Graph) -> Dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [list(e) for e in graph.edges],
        "connected": graph.is_connected(),
    }


def _support(v: int) -> List[int]:
    return list(gf2.support(v))


def _triple_budget_gate(order: int, budget: int) -> Optional[str]:
    if order**3 > budget:
        return (
            f"{order}^3 = {order ** 3} triples exceed --budget {budget}; "
            "raise the budget to run the cubic checks"
        )
    return None


def _table_budget_gate(order: int, budget: int) -> Optional[str]:
    """Materializing a dense table (and the pairwise identity sweeps over
    it) costs order^2; past the budget only coset counting is run."""
    if order * order > budget:
        return (
            f"{order}^2 = {order * order} table entries exceed --budget "
            f"{budget}; raise the budget to materialize tables at this order"
        )
    return None


# ---------------------------------------------------------------------------
# blocks shared by the commands


def _prologue(ctx: _Run, copies: int) -> Tuple[Dict, List[Dict], Optional[str]]:
    """The start of group, loop and aut: the input's payload and its first
    check, finite_type for a diagram and loop_axioms for a table (the
    command ends there when it fails), and for a spherical diagram the
    budget gate on tables of `copies` * |W| elements."""
    if ctx.kind == "table":
        return {"order": len(ctx.obj)}, [ctx.rows_loop[1]], None
    payload = _diagram_payload(ctx)
    if not payload["spherical"]:
        reasons = [c["reason"] for c in payload["components"] if c["reason"]]
        return payload, [_check("finite_type", False, witness="; ".join(reasons))], None
    note = _table_budget_gate(copies * payload["order"], ctx.cfg.budget)
    return payload, [_check("finite_type", True)], note


def _double_gate(ctx: _Run) -> Optional[str]:
    """Why `verify` and `amalgams` do not build W and its double for a
    spherical diagram (past --cap, or past the table budget); None when
    they do."""
    order = ctx.spherical.order
    if order > ctx.cfg.cap:
        return f"group order {order} exceeds --cap {ctx.cfg.cap}"
    return _table_budget_gate(2 * order, ctx.cfg.budget)


def _gl2_order(k: int) -> int:
    out = 1
    for i in range(k):
        out *= (1 << k) - (1 << i)
    return out


def _theorem_checks(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    """Trichotomy of G plus the matching automorphism structure theorem."""
    g, t, budget = ctx.group, chein_loop(ctx.group), ctx.cfg.budget
    checks: List[Dict] = []
    tri = classify_trichotomy(g)
    payload: Dict = {
        "trichotomy": {
            "case": tri.case,
            "label": tri.label,
            "decomposition": None
            if tri.decomposition is None
            else {
                "subgroup": list(tri.decomposition[0]),
                "involution": tri.decomposition[1],
            },
        }
    }
    aut = automorphism_group(t, budget=budget)
    payload["aut_order"] = aut.order
    payload["aut_nodes"] = aut.nodes
    if tri.case == 1:
        k = t.order.bit_length() - 1
        expected = _gl2_order(k)
        checks.append(
            _check(
                "aut_order_is_general_linear",
                t.order == 1 << k and aut.order == expected,
                witness={"aut_order": aut.order, "expected": expected},
                expected=expected,
            )
        )
    elif tri.case == 2:
        rep = verify_semidirect_automorphisms(g, budget=budget)
        checks.append(
            _check(
                "aut_is_semidirect_product",
                rep.ok,
                witness={
                    "aut_order": rep.aut_order,
                    "expected_order": rep.expected_order,
                    "translations_ok": rep.translations_ok,
                    "lifts_ok": rep.lifts_ok,
                    "normal_relation_ok": rep.normal_relation_ok,
                    "intersection_trivial": rep.intersection_trivial,
                    "set_matches": rep.set_matches,
                },
                expected=rep.expected_order,
                group_aut_order=rep.group_aut_order,
            )
        )
    else:
        h = subgroup_table(g, tri.decomposition[0])
        rep = verify_doubled_dihedral_automorphisms(h, budget=budget)
        checks.append(
            _check(
                "aut_of_doubled_dihedral",
                rep.ok,
                witness={
                    "aut_order": rep.aut_order,
                    "expected_order": rep.expected_order,
                    "klein_ok": rep.klein_ok,
                    "centralizer_ok": rep.centralizer_ok,
                    "rescalings_ok": rep.rescalings_ok,
                    "symmetric_ok": rep.symmetric_ok,
                    "lifts_ok": rep.lifts_ok,
                    "set_matches": rep.set_matches,
                },
                expected=rep.expected_order,
                h_order=rep.h_order,
            )
        )
        checks.append(
            _check(
                "aut_order_matches_reconstruction",
                aut.order == rep.aut_order,
                witness={"direct": aut.order, "reconstructed": rep.aut_order},
            )
        )
    return payload, checks



def _cohomology_blocks(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    checks: List[Dict] = []
    res = ctx.cohomology
    checks.append(_check("coboundary_composition_zero", True))
    if ctx.cfg.cross_check:
        checks.append(_check("closed_form_bases_match_elimination", True))
    else:
        checks.append(_skip("closed_form_bases_match_elimination", "--no-cross-check"))
    graph = ctx.graph
    stars_bad = [
        i
        for i in graph.vertices
        if graph.degree(i) >= 1 and not vertex_star(ctx.complex, i).is_acyclic()
    ]
    checks.append(
        _check("vertex_stars_acyclic", not stars_bad, witness=stars_bad)
    )
    payload = {
        **_graph_payload(graph),
        "components": res.components,
        "dims": {"z1": res.z1, "b1": res.b1, "h1": res.h1},
        "pair_index": [[list(e) for e in s] for s in res.pair_index],
        "z_basis": [_support(v) for v in res.z_basis],
        "b_basis": [_support(v) for v in res.b_basis],
        "h_basis": [_support(v) for v in res.h_basis],
        "h_basis_edges": [list(e) for e in res.h_basis_edges],
    }
    return payload, checks


def _amalgam_blocks(ctx: _Run, classify: bool) -> Tuple[Dict, List[Dict]]:
    checks: List[Dict] = []
    a = ctx.amalgam
    rep = verify_amalgam(a)
    checks.append(
        _check(
            "standard_amalgam_valid",
            rep.ok,
            witness={
                "injective_ok": rep.injective_ok,
                "homomorphism_ok": rep.homomorphism_ok,
                "composition_ok": rep.composition_ok,
            },
            simplices=rep.simplices,
            maps_checked=rep.maps_checked,
            chains_checked=rep.chains_checked,
        )
    )
    payload: Dict = {"simplices": rep.simplices, "maps": rep.maps_checked}
    res = ctx.cohomology
    payload["h1_dim"] = res.h1
    if classify:
        cls = classify_twisted_amalgams(a, budget=ctx.cfg.budget)
        payload.update(
            {
                "cycle_rank": cls.cycle_rank,
                "nontree_edges": [list(e) for e in cls.nontree_edges],
                "chosen_vertices": list(cls.chosen_vertices),
                "num_amalgams": 1 << cls.cycle_rank,
                "class_count": cls.class_count,
                "classes": [
                    [sorted(delta) for delta in cls_group] for cls_group in cls.classes
                ],
                "pairs_checked": cls.pairs_checked,
            }
        )
        checks.append(
            _check(
                "class_count_is_2_pow_cycle_rank",
                cls.ok,
                witness={"class_count": cls.class_count, "cycle_rank": cls.cycle_rank},
            )
        )
        checks.append(
            _check(
                "cycle_rank_matches_h1",
                cls.cycle_rank == res.h1,
                witness={"cycle_rank": cls.cycle_rank, "h1": res.h1},
            )
        )
    if ctx.spherical.spherical:
        note = _double_gate(ctx)
    else:
        note = "diagram is not spherical; no global doubled loop exists"
    if not note:
        loop, maps = loop_completion(a, ctx.group)
        crep = verify_completion(a, loop, maps)
        payload["completion"] = {"loop_order": crep.loop_order}
        checks.append(
            _check(
                "completion_embeds_amalgam",
                crep.ok,
                witness={
                    "injective_ok": crep.injective_ok,
                    "homomorphism_ok": crep.homomorphism_ok,
                    "commuting_ok": crep.commuting_ok,
                },
                loop_order=crep.loop_order,
            )
        )
    else:
        payload["completion"] = None
        checks.append(_skip("completion_embeds_amalgam", note))
    return payload, checks


def _coefficient_checks(ctx: _Run) -> List[Dict]:
    a, cfg = ctx.amalgam, ctx.cfg
    mode = "structural" if cfg.cross_check else "none"
    orders: List[int] = []
    for sigma in a.simplices():
        # coefficient_group raises CheckError when the stabilizer disagrees
        orders.append(coefficient_group(sigma, a, mode=mode, budget=cfg.budget).order)
    entry = _check(
        "coefficient_groups_match_stabilizers",
        True,
        simplices=len(orders),
        orders=orders,
    )
    if not cfg.cross_check:
        entry = _skip(
            "coefficient_groups_match_stabilizers",
            "--no-cross-check (closed forms computed, stabilizers skipped)",
        )
    return [entry]


# ---------------------------------------------------------------------------
# commands: each takes the run and returns (payload, checks)


def _cmd_parse(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    if ctx.kind == "coxeter":
        return _diagram_payload(ctx), []
    if ctx.kind == "graph":
        return _graph_payload(ctx.graph), []
    return {"order": len(ctx.obj)}, [ctx.rows_loop[1]]


def _cmd_group(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    payload, checks, note = _prologue(ctx, 1)
    if checks[0]["status"] == "fail":
        return payload, checks
    if ctx.kind == "table":
        assoc = ctx.associativity
        checks.extend(_identity_checks({"associativity": assoc}))
        if not assoc.holds:
            return payload, checks
    elif note:
        worder = enumerate_order(ctx.obj, cap=ctx.cfg.cap)
        checks.append(_order_check(worder, payload["order"], enumerated=worder))
        checks.append(_skip("element_statistics", note))
        payload.update({"group_order": worder, "table": None, "table_note": note})
        return payload, checks
    else:
        order = ctx.group.order
        checks.append(_order_check(order, payload["order"], enumerated=order))
    g = ctx.group
    orders: Dict[str, int] = {}
    for x in range(g.order):
        k = str(g.element_order(x))
        orders[k] = orders.get(k, 0) + 1
    payload.update(
        {
            "group_order": g.order,
            "abelian": g.is_abelian(),
            "elementary_abelian": g.is_elementary_abelian(),
            "involutions": len(g.involutions()),
            "element_orders": {k: orders[k] for k in sorted(orders, key=int)},
        }
    )
    if g.order <= 64:
        payload["table"] = [list(row) for row in g.product]
        payload["labels"] = list(g.labels)
    else:
        payload["table"] = None
        payload["table_note"] = "order exceeds 64; table omitted from the report"
    return payload, checks


def _cmd_loop(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    payload, checks, note = _prologue(ctx, 2)
    if checks[0]["status"] == "fail":
        return payload, checks
    if ctx.kind == "table":
        # a table carries no marked group half, so there is no doubling to check
        t = ctx.rows_loop[0]
        payload["loop_order"] = t.order
        checks.append(_skip("c1", "not a doubled loop (no group half marked)"))
    elif note:
        payload.update(
            {
                "group_order": payload["order"],
                "loop_order": 2 * payload["order"],
                "associative": None,
                "assoc_note": note,
            }
        )
        checks.append(_skip("c1", note))
        checks.append(_skip("m1", note))
        return payload, checks
    else:
        t = chein_loop(ctx.group)
        payload.update({"group_order": ctx.group.order, "loop_order": t.order})
        checks.extend(_identity_checks(verify_doubling_identities(ctx.group)))
    note = _triple_budget_gate(t.order, ctx.cfg.budget)
    if note:
        for name in ("m1", "m2", "m3"):
            checks.append(_skip(name, note))
        payload["associative"] = None
        payload["assoc_note"] = note
    else:
        checks.extend(_identity_checks(is_moufang(t)))
        assoc = ctx.associativity
        payload["associative"] = assoc.holds
        payload["assoc_witness"] = (
            None if assoc.holds else list(assoc.counterexample)
        )
    payload["commutative"] = t.is_commutative()
    return payload, checks


def _cmd_aut(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    payload, checks, note = _prologue(ctx, 2)
    if checks[0]["status"] == "fail":
        return payload, checks
    budget = ctx.cfg.budget
    if ctx.kind == "coxeter":
        if note:
            payload.update(
                {"group_order": payload["order"], "loop_order": 2 * payload["order"]}
            )
            checks.append(_skip("automorphism_theorems", note))
            return payload, checks
        payload.update({"group_order": ctx.group.order, "loop_order": 2 * ctx.group.order})
        extra, th_checks = _theorem_checks(ctx)
        payload.update(extra)
        checks.extend(th_checks)
        return payload, checks
    # Aut of the table: of its group, after the theorems on the double, when
    # the associativity probe holds; of the loop otherwise
    table = ctx.rows_loop[0]
    note = _triple_budget_gate(table.order, budget)
    if note:
        checks.append(_skip("associativity_probe", note))
    else:
        payload["associative"] = ctx.associativity.holds
    doubled = None
    if payload.get("associative"):
        doubled, th_checks = _theorem_checks(ctx)
        checks.extend(th_checks)
        table = ctx.group
    aut = automorphism_group(table, budget=budget)
    payload.update({"aut_order": aut.order, "aut_nodes": aut.nodes})
    if doubled is not None:
        payload["doubled"] = doubled
    return payload, checks


def _cmd_amalgams(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    if not ctx.graph.is_connected():
        raise FormatError(
            "the amalgams command needs a connected diagram (underlying graph)"
        )
    if any(m == math.inf for _, _, m in ctx.obj.edges()):
        raise FormatError("the amalgams command needs all edge labels finite")
    payload = _diagram_payload(ctx)
    extra, checks = _amalgam_blocks(ctx, True)
    payload.update(extra)
    return payload, checks


def _cmd_verify(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    if ctx.kind == "graph":
        return _cohomology_blocks(ctx)
    if ctx.kind == "table":
        payload, checks = _cmd_loop(ctx)
        if payload.get("associative"):
            if 2 * ctx.group.order <= DESK_LOOP_LIMIT:
                extra, th_checks = _theorem_checks(ctx)
                payload.update(extra)
                checks.extend(th_checks)
            else:
                checks.append(
                    _skip(
                        "automorphism_theorems",
                        f"doubled order {2 * ctx.group.order} exceeds the desk-scale "
                        f"limit {DESK_LOOP_LIMIT} for verify; use the aut command",
                    )
                )
        return payload, checks

    payload = _diagram_payload(ctx)
    checks: List[Dict] = []

    coh_payload, coh_checks = _cohomology_blocks(ctx)
    payload["cohomology"] = {
        "dims": coh_payload["dims"],
        "components": coh_payload["components"],
    }
    checks.extend(coh_checks)

    finite_labels = all(m != math.inf for _, _, m in ctx.obj.edges())
    if finite_labels:
        checks.extend(_coefficient_checks(ctx))
    else:
        checks.append(
            _skip(
                "coefficient_groups_match_stabilizers",
                "an edge label is infinite; edge loops are undefined there",
            )
        )

    if finite_labels and ctx.graph.is_connected():
        cycle_rank = coh_payload["dims"]["h1"]
        classify = cycle_rank <= 4
        amal_payload, amal_checks = _amalgam_blocks(ctx, classify)
        if not classify:
            amal_checks.append(
                _skip(
                    "class_count_is_2_pow_cycle_rank",
                    f"cycle rank {cycle_rank} needs {1 << cycle_rank} amalgams; "
                    "beyond desk scale for verify",
                )
            )
        payload["amalgams"] = amal_payload
        checks.extend(amal_checks)
    else:
        note = (
            "underlying graph is disconnected"
            if finite_labels
            else "an edge label is infinite"
        )
        checks.append(_skip("standard_amalgam_valid", note))

    if not payload["spherical"]:
        checks.append(
            _skip(
                "group_enumeration",
                "diagram is not spherical (infinite group); global doubled-loop "
                "checks skipped",
            )
        )
    elif note := _double_gate(ctx):
        checks.append(_skip("group_enumeration", note))
    else:
        t = chein_loop(ctx.group)
        payload.update({"group_order": ctx.group.order, "loop_order": t.order})
        checks.append(_order_check(ctx.group.order, payload["order"]))
        checks.extend(_identity_checks(verify_doubling_identities(ctx.group)))
        note = _triple_budget_gate(t.order, ctx.cfg.budget)
        if t.order <= DESK_LOOP_LIMIT and not note:
            checks.extend(_identity_checks(is_moufang(t)))
            extra, th_checks = _theorem_checks(ctx)
            payload.update(extra)
            checks.extend(th_checks)
        else:
            reason = (
                note
                or f"loop order {t.order} exceeds the desk-scale limit "
                f"{DESK_LOOP_LIMIT} for verify; use the loop/aut commands"
            )
            checks.append(_skip("m1", reason))
            checks.append(_skip("automorphism_theorems", reason))
    return payload, checks


# command -> (its composition of blocks, the input kinds it accepts)
_COMMANDS = {
    "parse": (_cmd_parse, ("coxeter", "graph", "table")),
    "group": (_cmd_group, ("coxeter", "table")),
    "loop": (_cmd_loop, ("coxeter", "table")),
    "aut": (_cmd_aut, ("coxeter", "table")),
    "cohomology": (_cohomology_blocks, ("coxeter", "graph")),
    "amalgams": (_cmd_amalgams, ("coxeter",)),
    "verify": (_cmd_verify, ("coxeter", "graph", "table")),
}
COMMANDS = tuple(_COMMANDS)


# ---------------------------------------------------------------------------
# entry point


def _render_human(report: Dict) -> str:
    lines = [f"{report['command']}: {report['kind']} input ({report['input']})"]
    skip_keys = {"schema", "command", "input", "input_sha256", "kind", "config", "checks", "ok"}
    for key, value in report.items():
        if key in skip_keys:
            continue
        if isinstance(value, (dict, list)):
            text = json.dumps(value)
            if len(text) > 120:
                text = text[:117] + "..."
            lines.append(f"  {key}: {text}")
        else:
            lines.append(f"  {key}: {value}")
    for c in report["checks"]:
        status = c["status"].upper()
        extra = ""
        if c["status"] == "fail" and "witness" in c:
            extra = f"  witness: {json.dumps(c['witness'])}"
        elif c["status"] == "skip":
            extra = f"  ({c['note']})"
        lines.append(f"  [{status}] {c['name']}{extra}")
    failed = sum(1 for c in report["checks"] if c["status"] == "fail")
    lines.append("OK" if report["ok"] else f"FAILED ({failed} checks)")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxloops",
        description="Doubled loops over Coxeter diagrams: exhaustive identity, "
        "automorphism, cohomology, and amalgam-classification pipelines.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="input file path, or - for standard input")
    parser.add_argument(
        "--cap", type=int, default=10000, help="group-order limit for enumeration"
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=10_000_000,
        help="work limit for searches, identity sweeps, and table materialization",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--strict", action="store_true", help="reject disconnected graphs"
    )
    parser.add_argument(
        "--no-cross-check",
        dest="cross_check",
        action="store_false",
        help="skip brute-force cross-checks of closed forms",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; 2 means "check failure" here,
        # so usage problems join parse/I/O errors under exit code 4
        return 0 if e.code == 0 else 4
    if args.cap < 1 or args.budget < 1:
        print("error: --cap and --budget must be >= 1", file=sys.stderr)
        return 4

    try:
        if args.input == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.input, "rb") as fh:
                data = fh.read()
    except OSError as e:
        print(f"error: cannot read input: {e}", file=sys.stderr)
        return 4

    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        print(f"error: input is not UTF-8: {e}", file=sys.stderr)
        return 4

    try:
        kind, obj = parse_input(text)
        command, kinds = _COMMANDS[args.command]
        if kind not in kinds:
            raise FormatError(f"the {args.command} command needs a {' or '.join(kinds)} input")
        payload, checks = command(_Run(kind, obj, args))
    except ValueError as e:  # FormatError and DiagramError among them
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except CheckError as e:
        print(f"check failure: {e}", file=sys.stderr)
        return 2

    ok = all(c["status"] != "fail" for c in checks)
    report: Dict = {
        "schema": 1,
        "command": args.command,
        "input": args.input,
        "input_sha256": hashlib.sha256(data).hexdigest(),
        "kind": kind,
        "config": {
            "cap": args.cap,
            "budget": args.budget,
            "strict": args.strict,
            "cross_check": args.cross_check,
        },
    }
    report.update(payload)
    report["checks"] = checks
    report["ok"] = ok

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(_render_human(report))
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
