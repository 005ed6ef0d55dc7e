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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .amalgams import (
    classify_twisted_amalgams,
    loop_completion,
    standard_amalgam,
    verify_amalgam,
    verify_completion,
)
from .cohomology import build_complex, coefficient_group, cohomology, vertex_star
from .coxeter import (
    CoxeterDiagram,
    enumerate_group,
    enumerate_order,
    recognize_spherical,
)
from .errors import CheckError, DiagramError, FormatError, ResourceLimitError
from .graphs import Graph
from .groups import GroupTable, subgroup_table
from .loops import (
    LoopTable,
    chein_loop,
    is_associative,
    is_loop,
    is_moufang,
    verify_chein_identities,
    verify_doubling_identities,
)
from .morphisms import (
    automorphism_group,
    classify_trichotomy,
    verify_doubled_dihedral_automorphisms,
    verify_semidirect_automorphisms,
)

COMMANDS = ("parse", "group", "loop", "aut", "cohomology", "amalgams", "verify")

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


def _label(m) -> object:
    return "inf" if m == math.inf else m


def _diagram_payload(d: CoxeterDiagram) -> Dict:
    rec = recognize_spherical(d)
    return {
        "rank": d.rank,
        "edges": [[i, j, _label(m)] for i, j, m in d.edges()],
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


def _support(v: int) -> List[int]:
    return list(gf2.support(v))


def _loop_from_rows(rows: List[List[int]]) -> Tuple[Optional[LoopTable], Dict]:
    """Loop axioms as a check; the LoopTable only exists when they pass."""
    if is_loop(rows):
        return LoopTable(rows), _check("loop_axioms", True, order=len(rows))
    n = len(rows)
    witness = None
    if any(rows[0][x] != x or rows[x][0] != x for x in range(n)):
        witness = "element 0 is not a two-sided identity"
    else:
        witness = "some row or column repeats a value (not a Latin square)"
    return None, _check("loop_axioms", False, witness=witness, order=n)


# ---------------------------------------------------------------------------
# commands


def _cmd_parse(kind: str, obj, cfg) -> Tuple[Dict, List[Dict]]:
    if kind == "coxeter":
        return _diagram_payload(obj), []
    if kind == "graph":
        return (
            {
                "vertices": list(obj.vertices),
                "edges": [list(e) for e in obj.edges],
                "connected": obj.is_connected(),
            },
            [],
        )
    _, axiom_check = _loop_from_rows(obj)
    return {"order": len(obj)}, [axiom_check]


def _cmd_group(kind: str, obj, cfg) -> Tuple[Dict, List[Dict]]:
    if kind == "graph":
        raise FormatError("the group command needs a coxeter or table input")
    checks: List[Dict] = []
    if kind == "coxeter":
        payload = _diagram_payload(obj)
        if not payload["spherical"]:
            reasons = [c["reason"] for c in payload["components"] if c["reason"]]
            checks.append(_check("finite_type", False, witness="; ".join(reasons)))
            return payload, checks
        checks.append(_check("finite_type", True))
        note = _table_budget_gate(payload["order"], cfg.budget)
        if note:
            worder = enumerate_order(obj, cap=cfg.cap)
            checks.append(
                _check(
                    "order_matches_classification",
                    worder == payload["order"],
                    witness={"enumerated": worder, "classified": payload["order"]},
                    enumerated=worder,
                )
            )
            checks.append(_skip("element_statistics", note))
            payload.update({"group_order": worder, "table": None, "table_note": note})
            return payload, checks
        g = enumerate_group(obj, cap=cfg.cap)
        checks.append(
            _check(
                "order_matches_classification",
                g.order == payload["order"],
                witness={"enumerated": g.order, "classified": payload["order"]},
                enumerated=g.order,
            )
        )
    else:
        payload = {"order": len(obj)}
        loop, axiom_check = _loop_from_rows(obj)
        checks.append(axiom_check)
        if loop is None:
            return payload, checks
        assoc = is_associative(loop)
        entry = {
            "name": "associativity",
            "status": "pass" if assoc.holds else "fail",
            "checked": assoc.checked,
        }
        if not assoc.holds:
            entry["witness"] = {
                "instance": list(assoc.counterexample),
                "values": list(assoc.values),
            }
        checks.append(entry)
        if not assoc.holds:
            return payload, checks
        g = GroupTable(obj)
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


def _cmd_loop(kind: str, obj, cfg) -> Tuple[Dict, List[Dict]]:
    if kind == "graph":
        raise FormatError("the loop command needs a coxeter or table input")
    checks: List[Dict] = []
    if kind == "coxeter":
        payload = _diagram_payload(obj)
        if not payload["spherical"]:
            reasons = [c["reason"] for c in payload["components"] if c["reason"]]
            checks.append(_check("finite_type", False, witness="; ".join(reasons)))
            return payload, checks
        checks.append(_check("finite_type", True))
        note = _table_budget_gate(2 * payload["order"], cfg.budget)
        if note:
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
        g = enumerate_group(obj, cap=cfg.cap)
        t = chein_loop(g)
        payload.update({"group_order": g.order, "loop_order": t.order})
        checks.extend(_identity_checks(verify_doubling_identities(g)))
    else:
        loop, axiom_check = _loop_from_rows(obj)
        checks.append(axiom_check)
        payload = {"order": len(obj)}
        if loop is None:
            return payload, checks
        t = loop
        payload["loop_order"] = t.order
        if t.group_order is None:
            checks.append(
                _skip("c1", "not a doubled loop (no group half marked)")
            )
        else:
            checks.extend(_identity_checks(verify_chein_identities(t)))
    note = _triple_budget_gate(t.order, cfg.budget)
    if note:
        for name in ("m1", "m2", "m3"):
            checks.append(_skip(name, note))
        payload["associative"] = None
        payload["assoc_note"] = note
    else:
        checks.extend(_identity_checks(is_moufang(t)))
        assoc = is_associative(t)
        payload["associative"] = assoc.holds
        payload["assoc_witness"] = (
            None if assoc.holds else list(assoc.counterexample)
        )
    payload["commutative"] = t.is_commutative()
    return payload, checks


def _gl2_order(k: int) -> int:
    out = 1
    for i in range(k):
        out *= (1 << k) - (1 << i)
    return out


def _theorem_checks(g: GroupTable, t: LoopTable, budget: int) -> Tuple[Dict, List[Dict]]:
    """Trichotomy of G plus the matching automorphism structure theorem."""
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


def _cmd_aut(kind: str, obj, cfg) -> Tuple[Dict, List[Dict]]:
    if kind == "graph":
        raise FormatError("the aut command needs a coxeter or table input")
    checks: List[Dict] = []
    if kind == "coxeter":
        payload = _diagram_payload(obj)
        if not payload["spherical"]:
            reasons = [c["reason"] for c in payload["components"] if c["reason"]]
            checks.append(_check("finite_type", False, witness="; ".join(reasons)))
            return payload, checks
        checks.append(_check("finite_type", True))
        note = _table_budget_gate(2 * payload["order"], cfg.budget)
        if note:
            payload.update(
                {"group_order": payload["order"], "loop_order": 2 * payload["order"]}
            )
            checks.append(_skip("automorphism_theorems", note))
            return payload, checks
        g = enumerate_group(obj, cap=cfg.cap)
        t = chein_loop(g)
        payload.update({"group_order": g.order, "loop_order": t.order})
        extra, th_checks = _theorem_checks(g, t, cfg.budget)
        payload.update(extra)
        checks.extend(th_checks)
        return payload, checks
    loop, axiom_check = _loop_from_rows(obj)
    checks.append(axiom_check)
    payload = {"order": len(obj)}
    if loop is None:
        return payload, checks
    note = _triple_budget_gate(loop.order, cfg.budget)
    if note:
        checks.append(_skip("associativity_probe", note))
        aut = automorphism_group(loop, budget=cfg.budget)
        payload.update({"aut_order": aut.order, "aut_nodes": aut.nodes})
        return payload, checks
    assoc = is_associative(loop)
    payload["associative"] = assoc.holds
    if assoc.holds:
        g = GroupTable(obj)
        extra, th_checks = _theorem_checks(g, chein_loop(g), cfg.budget)
        aut_g = automorphism_group(g, budget=cfg.budget)
        payload.update(
            {"aut_order": aut_g.order, "aut_nodes": aut_g.nodes}
        )
        payload["doubled"] = extra
        checks.extend(th_checks)
    else:
        aut = automorphism_group(loop, budget=cfg.budget)
        payload.update({"aut_order": aut.order, "aut_nodes": aut.nodes})
    return payload, checks


def _cohomology_blocks(graph: Graph, cfg) -> Tuple[Dict, List[Dict]]:
    checks: List[Dict] = []
    res = cohomology(graph, strict=cfg.strict, cross_check=cfg.cross_check)
    checks.append(_check("coboundary_composition_zero", True))
    if cfg.cross_check:
        checks.append(_check("closed_form_bases_match_elimination", True))
    else:
        checks.append(_skip("closed_form_bases_match_elimination", "--no-cross-check"))
    cx = build_complex(graph)
    stars_bad = [
        i
        for i in graph.vertices
        if graph.degree(i) >= 1 and not vertex_star(cx, i).is_acyclic()
    ]
    checks.append(
        _check("vertex_stars_acyclic", not stars_bad, witness=stars_bad)
    )
    payload = {
        "vertices": list(graph.vertices),
        "edges": [list(e) for e in graph.edges],
        "connected": graph.is_connected(),
        "components": res.components,
        "dims": {"z1": res.z1, "b1": res.b1, "h1": res.h1},
        "pair_index": [[list(e) for e in s] for s in res.pair_index],
        "z_basis": [_support(v) for v in res.z_basis],
        "b_basis": [_support(v) for v in res.b_basis],
        "h_basis": [_support(v) for v in res.h_basis],
        "h_basis_edges": [list(e) for e in res.h_basis_edges],
    }
    return payload, checks


def _cmd_cohomology(kind: str, obj, cfg) -> Tuple[Dict, List[Dict]]:
    if kind == "table":
        raise FormatError("the cohomology command needs a coxeter or graph input")
    graph = obj.underlying_graph() if kind == "coxeter" else obj
    return _cohomology_blocks(graph, cfg)


def _amalgam_blocks(d: CoxeterDiagram, cfg, classify: bool = True) -> Tuple[Dict, List[Dict]]:
    checks: List[Dict] = []
    a = standard_amalgam(d)
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
    graph = d.underlying_graph()
    res = cohomology(graph, cross_check=cfg.cross_check)
    payload["h1_dim"] = res.h1
    if classify:
        cls = classify_twisted_amalgams(d, budget=cfg.budget)
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
    rec = recognize_spherical(d)
    table_note = (
        _table_budget_gate(2 * rec.order, cfg.budget) if rec.spherical else None
    )
    if rec.spherical and rec.order <= cfg.cap and not table_note:
        loop, maps = loop_completion(d, cap=cfg.cap)
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
        if not rec.spherical:
            note = "diagram is not spherical; no global doubled loop exists"
        elif rec.order > cfg.cap:
            note = f"group order {rec.order} exceeds --cap {cfg.cap}"
        else:
            note = table_note
        checks.append(_skip("completion_embeds_amalgam", note))
    return payload, checks


def _cmd_amalgams(kind: str, obj, cfg) -> Tuple[Dict, List[Dict]]:
    if kind != "coxeter":
        raise FormatError("the amalgams command needs a coxeter input")
    graph = obj.underlying_graph()
    if not graph.is_connected():
        raise FormatError(
            "the amalgams command needs a connected diagram (underlying graph)"
        )
    if any(m == math.inf for _, _, m in obj.edges()):
        raise FormatError("the amalgams command needs all edge labels finite")
    payload = _diagram_payload(obj)
    extra, checks = _amalgam_blocks(obj, cfg)
    payload.update(extra)
    return payload, checks


def _coefficient_checks(d: CoxeterDiagram, cfg) -> List[Dict]:
    a = standard_amalgam(d)
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


def _cmd_verify(kind: str, obj, cfg) -> Tuple[Dict, List[Dict]]:
    if kind == "graph":
        return _cohomology_blocks(obj, cfg)
    if kind == "table":
        payload, checks = _cmd_loop(kind, obj, cfg)
        loop, _ = _loop_from_rows(obj)
        if loop is not None and payload.get("associative"):
            g = GroupTable(obj)
            if 2 * g.order <= DESK_LOOP_LIMIT:
                extra, th_checks = _theorem_checks(g, chein_loop(g), cfg.budget)
                payload.update(extra)
                checks.extend(th_checks)
            else:
                checks.append(
                    _skip(
                        "automorphism_theorems",
                        f"doubled order {2 * g.order} exceeds the desk-scale "
                        f"limit {DESK_LOOP_LIMIT} for verify; use the aut command",
                    )
                )
        return payload, checks

    payload = _diagram_payload(obj)
    checks: List[Dict] = []
    graph = obj.underlying_graph()

    coh_payload, coh_checks = _cohomology_blocks(graph, cfg)
    payload["cohomology"] = {
        "dims": coh_payload["dims"],
        "components": coh_payload["components"],
    }
    checks.extend(coh_checks)

    finite_labels = all(m != math.inf for _, _, m in obj.edges())
    if finite_labels:
        checks.extend(_coefficient_checks(obj, cfg))
    else:
        checks.append(
            _skip(
                "coefficient_groups_match_stabilizers",
                "an edge label is infinite; edge loops are undefined there",
            )
        )

    if finite_labels and graph.is_connected():
        cycle_rank = coh_payload["dims"]["h1"]
        classify = cycle_rank <= 4
        amal_payload, amal_checks = _amalgam_blocks(obj, cfg, classify=classify)
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

    enum_note = (
        _table_budget_gate(2 * payload["order"], cfg.budget)
        if payload["spherical"]
        else None
    )
    if payload["spherical"] and payload["order"] <= cfg.cap and not enum_note:
        g = enumerate_group(obj, cap=cfg.cap)
        t = chein_loop(g)
        payload.update({"group_order": g.order, "loop_order": t.order})
        checks.append(
            _check(
                "order_matches_classification",
                g.order == payload["order"],
                witness={"enumerated": g.order, "classified": payload["order"]},
            )
        )
        checks.extend(_identity_checks(verify_doubling_identities(g)))
        note = _triple_budget_gate(t.order, cfg.budget)
        if t.order <= DESK_LOOP_LIMIT and not note:
            checks.extend(_identity_checks(is_moufang(t)))
            extra, th_checks = _theorem_checks(g, t, cfg.budget)
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
    elif not payload["spherical"]:
        checks.append(
            _skip(
                "group_enumeration",
                "diagram is not spherical (infinite group); global doubled-loop "
                "checks skipped",
            )
        )
    else:
        reason = (
            enum_note
            if payload["order"] <= cfg.cap
            else f"group order {payload['order']} exceeds --cap {cfg.cap}"
        )
        checks.append(_skip("group_enumeration", reason))
    return payload, checks


_DISPATCH = {
    "parse": _cmd_parse,
    "group": _cmd_group,
    "loop": _cmd_loop,
    "aut": _cmd_aut,
    "cohomology": _cmd_cohomology,
    "amalgams": _cmd_amalgams,
    "verify": _cmd_verify,
}


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
        payload, checks = _DISPATCH[args.command](kind, obj, args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (DiagramError, ValueError) as e:
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
