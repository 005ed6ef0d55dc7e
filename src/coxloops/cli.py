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
spherical recognition, the underlying graph, its edge complex, H^1 and the
standard amalgam over that one complex, W and its double.  The commands
are compositions of shared blocks over it, so one run builds each artifact
once.  Whether a block runs, or is skipped under ``--budget``, ``--cap`` or
a desk-scale limit of ``verify``, is one lookup (`_gate`) in one gate table
(`_GATES`).
"""

from __future__ import annotations

import math
import os
import sys
from functools import cached_property
from itertools import repeat
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

# the input digest comes from CPython's built-in SHA-256, as in `random`:
# hashlib always loads the OpenSSL binding, a heavy import for one digest
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import amalgams, coxeter, gf2, graphs, groups, loops, morphisms
from .errors import CheckError, FormatError, ResourceLimitError

# the layers are module objects that the package registers lazily, so a
# layer's body runs when a command first calls into it, and each call looks
# its function up at call time; `coxloops.cohomology` is the function H^1,
# so that layer comes from `sys.modules`
cohomology = sys.modules[f"{__package__}.cohomology"]

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
        order = _count(fields, "table header", "table v1 <order>", "table order", num)
        return ("table", _parse_table(rest, order, num))
    raise FormatError(
        f"unknown header {header!r} (expected `coxeter v1`, `graph v1`, or `table v1 <order>`)",
        num,
    )


def _count(fields: List[str], where: str, usage: str, what: str, num: int) -> int:
    """The positive count that ends a line reading `usage`: a rank, a vertex
    count or a table order, named `what`; `where` names the line."""
    if len(fields) != len(usage.split()):
        raise FormatError(f"{where} must read `{usage}`", num)
    try:
        n = int(fields[-1])
    except ValueError:
        raise FormatError(f"{what} {fields[-1]!r} is not an integer", num)
    if n < 1:
        raise FormatError(f"{what} must be >= 1, got {n}", num)
    return n


def _edge(fields: List[str], num: int, seen: set, rank: Optional[int] = None) -> Tuple[int, int, object]:
    """The endpoints of an edge line, and its label on a diagram of `rank`
    (None on a graph): the rules of both dialects, in the order they fire.
    `seen` holds the edges read so far, as sorted pairs."""
    usage = "edge <i> <j>" if rank is None else "edge <i> <j> <m>"
    if len(fields) != len(usage.split()):
        raise FormatError(f"edge line must read `{usage}`", num)
    try:
        i, j = int(fields[1]), int(fields[2])
    except ValueError:
        raise FormatError("edge endpoints must be integers", num)
    if rank is None and min(i, j) < 1:
        raise FormatError(f"edge ({i},{j}) endpoints must be >= 1", num)
    if rank is not None and not (1 <= min(i, j) and max(i, j) <= rank):
        raise FormatError(f"edge ({i},{j}) out of range for rank {rank}", num)
    if i == j:
        raise FormatError(f"edge ({i},{j}) is a loop", num)
    m: object = None
    if rank is not None:
        if fields[3] == "inf":
            m = math.inf
        else:
            try:
                m = int(fields[3])
            except ValueError:
                raise FormatError(f"edge label {fields[3]!r} must be an integer >= 3 or `inf`", num)
            if m < 3:
                raise FormatError(f"edge label must be >= 3 or the pair left to the default 2, got {m}", num)
    key = (min(i, j), max(i, j))
    if key in seen:
        raise FormatError(f"duplicate edge ({key[0]},{key[1]})", num)
    seen.add(key)
    return i, j, m


def _parse_coxeter(lines) -> coxeter.CoxeterDiagram:
    rank: Optional[int] = None
    edges: List[Tuple[int, int, object]] = []
    seen = set()
    for num, line in lines:
        fields = line.split()
        if fields[0] == "rank":
            if rank is not None:
                raise FormatError("duplicate rank line", num)
            rank = _count(fields, "rank line", "rank <n>", "rank", num)
        elif fields[0] == "edge":
            if rank is None:
                raise FormatError("edge line before rank line", num)
            edges.append(_edge(fields, num, seen, rank))
        else:
            raise FormatError(f"unknown directive {fields[0]!r} in coxeter input", num)
    if rank is None:
        raise FormatError("missing rank line")
    return coxeter.CoxeterDiagram.from_edges(rank, edges)


def _parse_graph(lines) -> graphs.Graph:
    nverts = 0
    edges: List[Tuple[int, int]] = []
    seen = set()
    for num, line in lines:
        fields = line.split()
        if fields[0] == "vertices":
            nverts = max(nverts, _count(fields, "vertices line", "vertices <n>", "vertex count", num))
        elif fields[0] == "edge":
            i, j, _ = _edge(fields, num, seen)
            edges.append((i, j))
            nverts = max(nverts, i, j)
        else:
            raise FormatError(f"unknown directive {fields[0]!r} in graph input", num)
    if nverts == 0:
        raise FormatError("graph has no vertices (add `vertices <n>` or edges)")
    return graphs.Graph(range(1, nverts + 1), edges)


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

    def __init__(self, kind: str, obj, cfg: SimpleNamespace):
        self.kind = kind
        self.obj = obj
        self.cfg = cfg

    def release(self, *names: str) -> None:
        """Drop the named artifacts, which no later block of the run reads."""
        for name in names:
            vars(self).pop(name, None)

    @cached_property
    def spherical(self) -> coxeter.SphericalReport:
        return coxeter.recognize_spherical(self.obj)

    @cached_property
    def connected(self) -> bool:
        """Whether a diagram's underlying graph is connected, read off the
        components its recognition split it into."""
        return len(self.spherical.components) <= 1

    @cached_property
    def graph(self) -> graphs.Graph:
        return self.obj.underlying_graph() if self.kind == "coxeter" else self.obj

    @cached_property
    def complex(self) -> cohomology.EdgeComplex:
        return cohomology.build_complex(self.graph)

    @cached_property
    def cohomology(self) -> cohomology.CohomologyResult:
        return cohomology.cohomology(self.complex, strict=self.cfg.strict, cross_check=self.cfg.cross_check)

    @cached_property
    def amalgam(self) -> amalgams.Amalgam:
        # the standard amalgam over the run's own complex, which H^1 shares
        return amalgams._build(self.obj, self.complex, frozenset(), "standard")

    @cached_property
    def rows_loop(self) -> Tuple[Optional[loops.LoopTable], Dict]:
        """A table as a loop, with the loop axioms certified once as a
        check; the LoopTable only exists when they pass."""
        n = len(self.obj)
        failure = next(groups.loop_axiom_failures(self.obj), None)
        if failure is None:
            return loops.LoopTable(self.obj, validate=False), _check("loop_axioms", True, order=n)
        if failure[0] == "identity":
            witness = "element 0 is not a two-sided identity"
        else:
            witness = "some row or column repeats a value (not a Latin square)"
        return None, _check("loop_axioms", False, witness=witness, order=n)

    @cached_property
    def associativity(self) -> groups.IdentityReport:
        """Associativity of the run's loop, the input table (once its loop
        axioms passed) or M(W, 2), swept once per run."""
        loop = self.rows_loop[0] if self.kind == "table" else loops.chein_loop(self.group)
        return groups.is_associative(loop)

    @cached_property
    def group(self) -> groups.GroupTable:
        """W of a diagram, or the group of a table from the run's two
        certificates; its double M(W, 2) is `chein_loop(ctx.group)`, which
        the group keeps."""
        if self.kind == "table":
            if not self.associativity.holds:
                raise CheckError(self.associativity.brief())
            return groups.GroupTable(self.obj, validate=False)
        if "amalgam" in vars(self) and self.connected and self.obj.rank <= 2:
            # a connected diagram of rank <= 2 is its own core, so when the run
            # built the amalgam (verify, amalgams) W is the core group it
            # enumerated; past --cap, enumerate_group below still refuses W
            w = self.amalgam.core_loop(self.obj.vertices).group
            if w.order <= self.cfg.cap:
                return w
        return coxeter.enumerate_group(self.obj, cap=self.cfg.cap)


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
    return [
        _check(
            name,
            rep.holds,
            witness=None if rep.holds else {
                "instance": list(rep.counterexample),
                "values": list(rep.values),
            },
            checked=rep.checked,
        )
        for name, rep in reports.items()
    ]


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


def _graph_payload(graph: graphs.Graph, connected: bool) -> Dict:
    return {"vertices": list(graph.vertices), "edges": list(graph.edges), "connected": connected}


def _fields(obj, names: str) -> Dict:
    """The named attributes of `obj` (a library report, say), in that order."""
    return {name: getattr(obj, name) for name in names.split()}


# ---------------------------------------------------------------------------
# the gate table: every decision to run a block or skip it under --budget,
# --cap or a desk-scale limit of verify


# unit -> (the cost of a block of size n, its limit: a flag or a constant,
# the skip note); the block is skipped with the note when the cost exceeds
# the limit.  The desk-scale limits are verify's own: the dedicated commands
# run those blocks under --budget alone.
_GATES = {
    # a dense table of n elements, and the pairwise sweeps over it
    "entries": (lambda n: n * n, "budget", "{n}^2 = {cost} table entries exceed --budget {limit}; "
                "raise the budget to materialize tables at this order"),
    # the cubic identity sweeps of a loop of order n
    "triples": (lambda n: n**3, "budget",
                "{n}^3 = {cost} triples exceed --budget {limit}; raise the budget to run the cubic checks"),
    # enumerating a group of order n
    "cap": (lambda n: n, "cap", "group order {n} exceeds --cap {limit}"),
    # verify's Moufang sweep and theorems on a doubled loop of order n
    "verify_loop": (lambda n: n, 64, "loop order {n} exceeds the desk-scale limit {limit} for verify; "
                    "use the loop/aut commands"),
    # verify's theorems on the double (of order n) of a table's group
    "verify_table": (lambda n: n, 64,
                     "doubled order {n} exceeds the desk-scale limit {limit} for verify; use the aut command"),
    # verify's classification of the 2^n twisted amalgams at cycle rank n
    "verify_classes": (lambda n: 1 << n, 16,
                       "cycle rank {n} needs {cost} amalgams; beyond desk scale for verify"),
}


def _gate(ctx: _Run, unit: str, n: int) -> Optional[str]:
    """The skip note of a block of size `n` in `unit`, or None when it runs."""
    cost, limit, note = _GATES[unit]
    c, lim = cost(n), getattr(ctx.cfg, limit) if isinstance(limit, str) else limit
    return note.format(n=n, cost=c, limit=lim) if c > lim else None


def _double_gate(ctx: _Run, nonspherical: str) -> Optional[str]:
    """Why `verify` and `amalgams` do not build W and its double (the note
    `nonspherical` when W is infinite), or None when they do."""
    if not ctx.spherical.spherical:
        return nonspherical
    order = ctx.spherical.order
    return _gate(ctx, "cap", order) or _gate(ctx, "entries", 2 * order)


# ---------------------------------------------------------------------------
# blocks shared by the commands


def _head(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    """The start of group, loop and aut: the input's payload and its first
    check, finite_type for a diagram and loop_axioms for a table; the
    command ends there when it fails."""
    if ctx.kind == "table":
        return {"order": len(ctx.obj)}, [ctx.rows_loop[1]]
    payload = _diagram_payload(ctx)
    reasons = "; ".join(c["reason"] for c in payload["components"] if c["reason"])
    return payload, [_check("finite_type", payload["spherical"], witness=reasons)]


def _gl2_order(k: int) -> int:
    out = 1
    for i in range(k):
        out *= (1 << k) - (1 << i)
    return out


def _theorems(ctx: _Run, payload: Dict, checks: List[Dict], note: Optional[str] = None) -> None:
    """Trichotomy of G plus the matching automorphism structure theorem,
    added to the command's payload and checks; skipped with its gate's note."""
    if note:
        checks.append(_skip("automorphism_theorems", note))
        return
    g, t, budget = ctx.group, loops.chein_loop(ctx.group), ctx.cfg.budget
    tri = morphisms.classify_trichotomy(g)
    payload["trichotomy"] = {
        "case": tri.case,
        "label": tri.label,
        "decomposition": None
        if tri.decomposition is None
        else {
            "subgroup": list(tri.decomposition[0]),
            "involution": tri.decomposition[1],
        },
    }
    aut = morphisms.automorphism_group(t, budget=budget)
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
        rep = morphisms.verify_semidirect_automorphisms(g, budget=budget)
        checks.append(
            _check(
                "aut_is_semidirect_product",
                rep.ok,
                witness=_fields(
                    rep,
                    "aut_order expected_order translations_ok lifts_ok "
                    "normal_relation_ok intersection_trivial set_matches",
                ),
                expected=rep.expected_order,
                group_aut_order=rep.group_aut_order,
            )
        )
    else:
        rep = morphisms.verify_dihedral_decomposition_automorphisms(g, tri.decomposition, budget=budget)
        checks.append(
            _check(
                "aut_of_doubled_dihedral",
                rep.ok,
                witness=_fields(
                    rep,
                    "aut_order expected_order klein_ok centralizer_ok rescalings_ok "
                    "symmetric_ok lifts_ok set_matches",
                ),
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


def _cohomology_blocks(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    checks: List[Dict] = []
    res = ctx.cohomology
    checks.append(_check("coboundary_composition_zero", True))
    if ctx.cfg.cross_check:
        checks.append(_check("closed_form_bases_match_elimination", True))
    else:
        checks.append(_skip("closed_form_bases_match_elimination", "--no-cross-check"))
    graph = ctx.graph
    stars_bad = [i for i, star in ctx.complex.stars.items() if not star.is_acyclic()]
    checks.append(
        _check("vertex_stars_acyclic", not stars_bad, witness=stars_bad)
    )
    payload = {
        # H^1 counted the components, so the graph is not walked again
        **_graph_payload(graph, res.components <= 1),
        "components": res.components,
        "dims": {"z1": res.z1, "b1": res.b1, "h1": res.h1},
        "pair_index": list(res.pair_index),
        "z_basis": [gf2.support(v) for v in res.z_basis],
        "b_basis": [gf2.support(v) for v in res.b_basis],
        "h_basis": [gf2.support(v) for v in res.h_basis],
        "h_basis_edges": list(res.h_basis_edges),
    }
    return payload, checks


def _amalgam_blocks(ctx: _Run, classify: bool) -> Tuple[Dict, List[Dict]]:
    checks: List[Dict] = []
    a = ctx.amalgam
    rep = amalgams.verify_amalgam(a)
    checks.append(
        _check(
            "standard_amalgam_valid",
            rep.ok,
            witness=_fields(rep, "injective_ok homomorphism_ok composition_ok"),
            simplices=rep.simplices,
            maps_checked=rep.maps_checked,
            chains_checked=rep.chains_checked,
        )
    )
    payload: Dict = {"simplices": rep.simplices, "maps": rep.maps_checked}
    res = ctx.cohomology
    payload["h1_dim"] = res.h1
    if classify:
        cls = amalgams.classify_twisted_amalgams(a, budget=ctx.cfg.budget)
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
    if not (note := _double_gate(ctx, "diagram is not spherical; no global doubled loop exists")):
        loop, maps = amalgams.loop_completion(a, ctx.group)
        crep = amalgams.verify_completion(a, loop, maps)
        payload["completion"] = {"loop_order": crep.loop_order}
        checks.append(
            _check(
                "completion_embeds_amalgam",
                crep.ok,
                witness=_fields(crep, "injective_ok homomorphism_ok commuting_ok"),
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
    # A_sigma depends on sigma only through its core: each distinct core is
    # computed at its first simplex, which names any CheckError it raises
    order_of: Dict[Tuple[int, ...], int] = {}
    orders: List[int] = []
    for sigma in a.complex.simplices():
        core = a.complex.core.get(sigma, ())
        if core not in order_of:
            order_of[core] = cohomology.coefficient_group(sigma, a, mode=mode, budget=cfg.budget).order
        orders.append(order_of[core])
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
        return _graph_payload(ctx.graph, ctx.graph.is_connected()), []
    return _head(ctx)


def _cmd_group(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    payload, checks = _head(ctx)
    if checks[0]["status"] == "fail":
        return payload, checks
    if ctx.kind == "table":
        assoc = ctx.associativity
        checks.extend(_identity_checks({"associativity": assoc}))
        if not assoc.holds:
            return payload, checks
        g = ctx.group
        stats = groups.element_statistics(g.columns, [(0, a) for a in range(g.order)])
    elif note := _gate(ctx, "entries", payload["order"]):
        worder = coxeter.enumerate_order(ctx.obj, cap=ctx.cfg.cap)
        checks.append(_order_check(worder, payload["order"], enumerated=worder))
        checks.append(_skip("element_statistics", note))
        payload.update({"group_order": worder, "table": None, "table_note": note})
        return payload, checks
    else:
        # the statistics walk W's regular action; no table is built for them
        w = coxeter.regular_action(ctx.obj, cap=ctx.cfg.cap)
        stats = groups.element_statistics(w.act, w.tree)
        checks.append(_order_check(stats.order, payload["order"], enumerated=stats.order))
    payload["group_order"] = stats.order
    payload.update(_fields(stats, "abelian elementary_abelian involutions"))
    payload["element_orders"] = {str(k): v for k, v in stats.element_orders.items()}
    if stats.order <= 64:
        # the table of a diagram is built over the action the statistics walked
        g = ctx.group if ctx.kind == "table" else coxeter._group_table(w)
        payload["table"] = [list(row) for row in g.product]
        payload["labels"] = list(g.labels)
    else:
        payload["table"] = None
        payload["table_note"] = "order exceeds 64; table omitted from the report"
    return payload, checks


def _cmd_loop(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    payload, checks = _head(ctx)
    if checks[0]["status"] == "fail":
        return payload, checks
    if ctx.kind == "table":
        # a table carries no marked group half, so there is no doubling to check
        t = ctx.rows_loop[0]
        payload["loop_order"] = t.order
        checks.append(_skip("c1", "not a doubled loop (no group half marked)"))
    elif note := _gate(ctx, "entries", 2 * payload["order"]):
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
        t = loops.chein_loop(ctx.group)
        payload.update({"group_order": ctx.group.order, "loop_order": t.order})
        checks.extend(_identity_checks(loops.verify_doubling_identities(ctx.group)))
    if note := _gate(ctx, "triples", t.order):
        for name in ("m1", "m2", "m3"):
            checks.append(_skip(name, note))
        payload["associative"] = None
        payload["assoc_note"] = note
    else:
        checks.extend(_identity_checks(loops.is_moufang(t)))
        assoc = ctx.associativity
        payload["associative"] = assoc.holds
        payload["assoc_witness"] = (
            None if assoc.holds else list(assoc.counterexample)
        )
    payload["commutative"] = t.is_commutative()
    return payload, checks


def _cmd_aut(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    payload, checks = _head(ctx)
    if checks[0]["status"] == "fail":
        return payload, checks
    budget = ctx.cfg.budget
    if ctx.kind == "coxeter":
        note = _gate(ctx, "entries", 2 * payload["order"])
        order = payload["order"] if note else ctx.group.order
        payload.update({"group_order": order, "loop_order": 2 * order})
        _theorems(ctx, payload, checks, note)
        return payload, checks
    # Aut of the table: of its group, after the theorems on the double, when
    # the associativity probe holds; of the loop otherwise
    table = ctx.rows_loop[0]
    if note := _gate(ctx, "triples", table.order):
        checks.append(_skip("associativity_probe", note))
    else:
        payload["associative"] = ctx.associativity.holds
    doubled: Dict = {}
    if payload.get("associative"):
        _theorems(ctx, doubled, checks)
        table = ctx.group
    aut = morphisms.automorphism_group(table, budget=budget)
    payload.update({"aut_order": aut.order, "aut_nodes": aut.nodes})
    if doubled:
        payload["doubled"] = doubled
    return payload, checks


def _cmd_amalgams(ctx: _Run) -> Tuple[Dict, List[Dict]]:
    if not ctx.connected:
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
        if note := payload.get("assoc_note"):
            _theorems(ctx, payload, checks, note)
        elif payload.get("associative"):
            _theorems(ctx, payload, checks, _gate(ctx, "verify_table", 2 * ctx.group.order))
        return payload, checks

    payload = _diagram_payload(ctx)
    coh_payload, checks = _cohomology_blocks(ctx)
    payload["cohomology"] = {
        "dims": coh_payload["dims"],
        "components": coh_payload["components"],
    }
    if any(m == math.inf for _, _, m in ctx.obj.edges()):
        note = "an edge label is infinite"
        checks += [
            _skip("coefficient_groups_match_stabilizers", f"{note}; edge loops are undefined there"),
            _skip("standard_amalgam_valid", note),
        ]
    else:
        checks.extend(_coefficient_checks(ctx))
        if not ctx.connected:
            checks.append(_skip("standard_amalgam_valid", "underlying graph is disconnected"))
        else:
            note = _gate(ctx, "verify_classes", coh_payload["dims"]["h1"])
            payload["amalgams"], amal_checks = _amalgam_blocks(ctx, not note)
            checks.extend(amal_checks)
            if note:
                checks.append(_skip("class_count_is_2_pow_cycle_rank", note))

    # the doubled-loop blocks below read none of these (W, where the
    # amalgam's core group is W, is already in `group`)
    ctx.release("amalgam", "complex", "cohomology")
    if note := _double_gate(
        ctx, "diagram is not spherical (infinite group); global doubled-loop checks skipped"
    ):
        checks.append(_skip("group_enumeration", note))
        return payload, checks
    t = loops.chein_loop(ctx.group)
    payload.update({"group_order": ctx.group.order, "loop_order": t.order})
    checks.append(_order_check(ctx.group.order, payload["order"]))
    checks.extend(_identity_checks(loops.verify_doubling_identities(ctx.group)))
    if note := _gate(ctx, "triples", t.order) or _gate(ctx, "verify_loop", t.order):
        checks.append(_skip("m1", note))
    else:
        checks.extend(_identity_checks(loops.is_moufang(t)))
        # the theorems read the loop's table but not the sweep's byte views
        vars(t).pop("byte_views", None)
    _theorems(ctx, payload, checks, note)
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
    import json

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


# the command line: each long option -> (its attribute, its kind: `int` takes
# a value, True or False is what the flag stores), its metavar and help;
# the two positionals are the command and the input, and -h/--help prints
# the help
_OPTIONS = {
    "--cap": ("cap", int, "CAP", "group-order limit for enumeration"),
    "--budget": ("budget", int, "BUDGET",
                 "work limit for searches, identity sweeps, and table materialization"),
    "--json": ("json", True, "", "emit a JSON report"),
    "--strict": ("strict", True, "", "reject disconnected graphs"),
    "--no-cross-check": ("cross_check", False, "", "skip brute-force cross-checks of closed forms"),
}
_DEFAULTS = {"cap": 10000, "budget": 10_000_000, "json": False, "strict": False, "cross_check": True}
_USAGE = "usage: coxloops [-h] {}\n                {{{}}} input".format(
    " ".join(f"[{name} {meta}]" if meta else f"[{name}]" for name, (_, _, meta, _) in _OPTIONS.items()),
    ",".join(COMMANDS),
)


class _UsageError(Exception):
    """A command line that does not parse: usage and the message on stderr, exit 4."""


def _help() -> str:
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(f"{name} {meta}".rstrip(), text) for name, (_, _, meta, text) in _OPTIONS.items()]
    return "\n".join([
        _USAGE,
        "",
        "Doubled loops over Coxeter diagrams: exhaustive identity, automorphism,",
        "cohomology, and amalgam-classification pipelines.",
        "",
        "positional arguments:",
        f"  {{{','.join(COMMANDS)}}}",
        f"  {'input':<22}input file path, or - for standard input",
        "",
        "options:",
        *(f"  {name:<22}{text}" for name, text in rows),
    ])


def _is_option(arg: str) -> bool:
    """Whether `arg` is read as an option: it starts with `-` and is not `-`
    (standard input), a negative number (`-5`, `-.5`, `-1.5`) or a word
    with a space in it."""
    if len(arg) < 2 or arg[0] != "-" or " " in arg:
        return False
    whole, dot, frac = arg[1:].partition(".")
    negative_number = frac.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return not negative_number


def _match(arg: str) -> Tuple[Optional[str], Optional[str]]:
    """The option `arg` names, exactly or by a unique prefix of a long
    option, with its value after `=` (or None); (None, None) when it names none."""
    if not arg.startswith("--"):
        if not arg.startswith("-h"):
            return None, None
        # -h=x and -hx give x to -h, which takes none; -hh is -h twice
        return "--help", arg[3:] if arg.startswith("-h=") else arg[2:].lstrip("h") or None
    name, eq, value = arg.partition("=")
    matches = [o for o in ("--help", *_OPTIONS) if o.startswith(name)]
    if len(matches) > 1:
        raise _UsageError(f"ambiguous option: {arg} could match {', '.join(matches)}")
    return (matches[0], value if eq else None) if matches else (None, None)


def _parse_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The run's flags and positionals from `argv`; None once -h/--help has
    printed the help.  Raises `_UsageError`.

    Options go anywhere among the positionals, take their value as the next
    argument or after `=`, and may be shortened to a unique prefix; after
    `--` every argument is a positional.  As with `argparse`, every option
    is matched first, so an ambiguous prefix is refused before anything
    else; then, left to right, a bad value, a value given to a flag or an
    invalid command is refused where it stands, and a leftover argument or
    a missing positional once all are read.
    """
    cut = argv.index("--") if "--" in argv else len(argv)
    options = {i: _match(arg) for i, arg in enumerate(argv[:cut]) if _is_option(arg)}
    cfg = SimpleNamespace(**_DEFAULTS)
    positionals: List[str] = []
    extras: List[str] = []
    last = -1  # where the last positional stood
    args = iter(enumerate(argv))
    for i, arg in args:
        if i not in options:
            if len(positionals) == 2:
                # `--` is dropped while a positional is open or right after the input
                if i != cut or i != last + 1:
                    extras.append(arg)
            elif i != cut:
                if not positionals and arg not in _COMMANDS:
                    choices = ", ".join(map(repr, COMMANDS))
                    raise _UsageError(f"argument command: invalid choice: {arg!r} (choose from {choices})")
                positionals.append(arg)
                last = i
            continue
        option, value = options[i]
        if option is None:
            extras.append(arg)
            continue
        if option == "--help":
            if value is not None:
                raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
            print(_help())
            return None
        attr, kind, _, _ = _OPTIONS[option]
        if kind is not int:
            if value is not None:
                raise _UsageError(f"argument {option}: ignored explicit argument {value!r}")
            setattr(cfg, attr, kind)
            continue
        if value is None:
            j, value = next(args, (None, None))
            if j is None or j == cut or j in options:
                raise _UsageError(f"argument {option}: expected one argument")
        try:
            setattr(cfg, attr, int(value))
        except ValueError:
            raise _UsageError(f"argument {option}: invalid int value: {value!r}") from None
    if len(positionals) < 2:
        missing = ("command", "input")[len(positionals):]
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    cfg.command, cfg.input = positionals
    return cfg


# chunks joined per write, a chunk being one value with its key and
# separator (a scalar, or a list of at most this many ints) or a bracket: a
# batch of a few KB holds little of a large report, and larger batches
# measured no faster
_WRITE_BATCH = 256


def _dumps(value, indent: str) -> str:
    """`json.dumps(value, indent=2)` with each line after the first at
    `indent`: the text of a value the writer leaves to `json`."""
    import json

    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _plain(text: str) -> bool:
    """Whether `json` writes `text` as itself in quotes: printable ASCII
    without a quote or a backslash."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _scalar(value, indent: str) -> Optional[str]:
    """The JSON text of `value` at `indent`, or None for a container
    `_write_json` walks."""
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str and _plain(value):
        return f'"{value}"'
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if len(value) <= _WRITE_BATCH and all(type(item) is int for item in value):
            inner = indent + "  "
            return "[\n" + inner + (",\n" + inner).join(map(str, value)) + "\n" + indent + "]"
        return None
    if isinstance(value, dict) and all(type(key) is str for key in value):
        return None if value else "{}"
    return _dumps(value, indent)


def _write_json(value, write) -> None:
    """`json.dumps(value, indent=2)` and a newline through `write`, in
    batches of `_WRITE_BATCH` chunks.

    The writer walks lists, tuples and dicts with str keys, and writes ints,
    bools, None and printable-ASCII strings without `"` or `\\` itself, a
    short list of ints with one join.  `json` writes every other value
    (escaped strings, floats, dicts with other keys, int subclasses) and
    every other key, so it decides every byte the writer does not produce.
    """
    buf: List[str] = []

    def walk(value, indent: str) -> None:
        # a non-empty container whose text continues the last chunk
        inner = indent + "  "
        sep = ",\n" + inner
        if isinstance(value, dict):
            head, close = "{\n" + inner, "\n" + indent + "}"
            pairs = (
                (f'"{key}": ' if _plain(key) else _dumps(key, "") + ": ", item) for key, item in value.items()
            )
        else:
            head, close = "[\n" + inner, "\n" + indent + "]"
            pairs = zip(repeat(""), value)
        for key, item in pairs:
            text = _scalar(item, inner)
            if text is None:
                buf.append(head + key)
                walk(item, inner)
            else:
                buf.append(head + key + text)
            head = sep
            if len(buf) >= _WRITE_BATCH:
                write("".join(buf))
                buf.clear()
        buf.append(close)

    text = _scalar(value, "")
    if text is None:
        walk(value, "")
    else:
        buf.append(text)
    buf.append("\n")
    write("".join(buf))


def _write_report(report: Dict, as_json: bool) -> None:
    """The report on stdout: the human rendering, or with `as_json` the
    bytes of `json.dumps(report, indent=2)` and a newline, streamed by
    `_write_json` so the whole document is never held at once.  Neither
    `json` nor its decoder is loaded unless a value needs `json` to write
    it; the reports of the commands need none."""
    out = sys.stdout
    if as_json:
        _write_json(report, out.write)
    else:
        out.write(_render_human(report) + "\n")
    out.flush()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as e:
        print(f"{_USAGE}\ncoxloops: error: {e}", file=sys.stderr)
        return 4
    if args is None:
        return 0
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
        "input_sha256": sha256(data).hexdigest(),
        "kind": kind,
        "config": _fields(args, "cap budget strict cross_check"),
    }
    report.update(payload)
    report["checks"] = checks
    report["ok"] = ok

    try:
        _write_report(report, args.json)
    except OSError as e:  # a closed pipe (BrokenPipeError) or a full disk
        # the interpreter flushes stdout once more at exit; send that flush to
        # devnull so it cannot fail again (the SIGPIPE note of the `signal` docs)
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # a stdout without a file descriptor has nothing left to flush
        print(f"error: cannot write the report: {e}", file=sys.stderr)
        return 4
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
