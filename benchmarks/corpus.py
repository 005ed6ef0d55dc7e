"""Workload inputs: a fixed Coxeter corpus plus seeded graphs and tables.

Coxeter diagrams are fixed by name.  From the seed come connected random
graphs (a random spanning tree plus extra edges, vertices shuffled) and a
relabelling of each table input that keeps the identity at 0.  Every input
is written to a file; the program only ever receives those paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

# name -> (rank, edges (i, j, m)); unlisted pairs commute (m = 2)
COXETER: Dict[str, Tuple[int, List[Tuple[int, int, int]]]] = {
    "A2": (2, [(1, 2, 3)]),
    "A3": (3, [(1, 2, 3), (2, 3, 3)]),
    "B3": (3, [(1, 2, 3), (2, 3, 4)]),
    "D5": (5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)]),
    "F4": (4, [(1, 2, 3), (2, 3, 4), (3, 4, 3)]),
    "I2_8": (2, [(1, 2, 8)]),
    "A1xB2": (3, [(2, 3, 4)]),
    "affine_A2": (3, [(1, 2, 3), (2, 3, 3), (1, 3, 3)]),
    "K4": (4, [(i, j, 3) for i in range(1, 5) for j in range(i + 1, 5)]),
    "C4_4343": (4, [(1, 2, 4), (2, 3, 3), (3, 4, 4), (1, 4, 3)]),
    "K5": (5, [(i, j, 3) for i in range(1, 6) for j in range(i + 1, 6)]),
    "K5_minus_edge": (
        5,
        [(i, j, 3) for i in range(1, 6) for j in range(i + 1, 6) if (i, j) != (4, 5)],
    ),
}

# name -> (vertices, edges) of a seeded connected random graph
GRAPHS: Dict[str, Tuple[int, int]] = {
    "graph_120_200": (120, 200),
    "graph_40_60": (40, 60),
}


def _dihedral6() -> List[List[int]]:
    """Dihedral group of order 12; element b*6 + a is r^a s^b."""
    m = 6
    rows = [[0] * (2 * m) for _ in range(2 * m)]
    for a1 in range(m):
        for b1 in range(2):
            for a2 in range(m):
                for b2 in range(2):
                    a = (a2 + a1) % m if b2 == 0 else (a2 - a1) % m
                    rows[b1 * m + a1][b2 * m + a2] = ((b1 + b2) % 2) * m + a
    return rows


def _quaternion() -> List[List[int]]:
    """Q8 as pairs (sign, unit) with units 1, i, j, k; element 2*unit + sign."""
    # unit products: (sign, unit) of e_a * e_b for a, b in 1, i, j, k
    unit = [
        [(0, 0), (0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 0), (0, 3), (1, 2)],
        [(0, 2), (1, 3), (1, 0), (0, 1)],
        [(0, 3), (0, 2), (1, 1), (1, 0)],
    ]
    rows = []
    for x in range(8):
        row = []
        for y in range(8):
            s, u = unit[x // 2][y // 2]
            row.append(2 * u + (s + x + y) % 2)
        rows.append(row)
    return rows


TABLES = {"D6": _dihedral6, "Q8": _quaternion}


@dataclass(frozen=True)
class Input:
    path: Path
    # expected report fields that depend on the seed, derived here from the
    # generated object so the oracle need not trust the program for them
    derived: Dict[str, object] = field(default_factory=dict)


def _write_coxeter(path: Path, rank: int, edges) -> None:
    lines = ["coxeter v1", f"rank {rank}"] + [f"edge {i} {j} {m}" for i, j, m in edges]
    path.write_text("\n".join(lines) + "\n")


def random_connected_graph(rng: random.Random, nverts: int, nedges: int) -> List[Tuple[int, int]]:
    """A random tree (each vertex, in shuffled order, joins a random earlier
    one) plus distinct random extra edges, listed in shuffled order."""
    if not nverts - 1 <= nedges <= nverts * (nverts - 1) // 2:
        raise ValueError(f"no connected simple graph with {nverts} vertices and {nedges} edges")
    order = list(range(1, nverts + 1))
    rng.shuffle(order)
    edges = set()
    for k in range(1, nverts):
        a, b = order[k], order[rng.randrange(k)]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < nedges:
        a, b = rng.sample(range(1, nverts + 1), 2)
        edges.add((min(a, b), max(a, b)))
    out = sorted(edges)
    rng.shuffle(out)
    return out


def relabel(rows: List[List[int]], rng: random.Random) -> List[List[int]]:
    """The same table under a random bijection that fixes the identity 0."""
    n = len(rows)
    rest = list(range(1, n))
    rng.shuffle(rest)
    pi = [0] + rest
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[pi[a]][pi[b]] = pi[rows[a][b]]
    return out


def write_inputs(names: List[str], seed: int, outdir: Path) -> Dict[str, Input]:
    """Write each named input to `outdir`; graphs and tables come from `seed`."""
    outdir.mkdir(parents=True, exist_ok=True)
    out: Dict[str, Input] = {}
    for name in names:
        # one stream per input, so adding an input leaves the others unchanged
        rng = random.Random(f"{seed}:{name}")
        if name in COXETER:
            path = outdir / f"{name}.cox"
            _write_coxeter(path, *COXETER[name])
            out[name] = Input(path)
        elif name in GRAPHS:
            nverts, nedges = GRAPHS[name]
            edges = random_connected_graph(rng, nverts, nedges)
            path = outdir / f"{name}.graph"
            lines = ["graph v1", f"vertices {nverts}"] + [f"edge {a} {b}" for a, b in edges]
            path.write_text("\n".join(lines) + "\n")
            # H^1 of the edge complex of a connected graph: z1 = sum of
            # (deg - 1) = 2E - V, b1 = E - 1, h1 = cycle rank E - V + 1
            dims = {"z1": 2 * nedges - nverts, "b1": nedges - 1, "h1": nedges - nverts + 1}
            out[name] = Input(path, {"dims": dims})
        else:
            rows = relabel(TABLES[name](), rng)
            path = outdir / f"{name}.table"
            lines = [f"table v1 {len(rows)}"] + [" ".join(map(str, r)) for r in rows]
            path.write_text("\n".join(lines) + "\n")
            out[name] = Input(path)
    return out
