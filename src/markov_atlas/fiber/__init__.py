"""Fiber enumeration and degree-bounded connectivity evidence.

The fiber of a marginal set is the complete list of non-negative integer
tables sharing those marginals.  Enumeration is exhaustive (depth-first
placement of units with per-edge budget pruning) and either returns the
whole fiber or raises `ResourceLimitError` — never a truncated result.

The enumeration and analysis loops live in `markov_atlas.fiber._kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Optional, Sequence, Tuple

from ..graphs import Graph
from ..lattice import MarginalSet, Move, TableVector, graph_marginals
from ..limits import Limits, default_limits
from . import _kernel

KERNEL_ID = _kernel.KERNEL_ID


@dataclass(frozen=True)
class Fiber:
    """Exhaustive fiber of a marginal set."""

    graph: Graph
    marginals: MarginalSet
    elements: Tuple[TableVector, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class FiberGraph:
    """Fiber elements joined when their difference has norm <= 2*degree."""

    fiber: Fiber
    degree: int
    adjacency: Tuple[Tuple[int, int], ...]


def _sorted_edges(g: Graph):
    return sorted(g.edges)


def _budgets(g: Graph, m: MarginalSet) -> List[int]:
    budgets: List[int] = []
    for (i, j) in _sorted_edges(g):
        budgets.extend(m.table(i, j))
    return budgets


def _tables_to_elements(g: Graph, tables) -> Tuple[TableVector, ...]:
    return tuple(TableVector.from_units(g.vertices, t) for t in tables)


def enumerate_fiber(g: Graph, m: MarginalSet,
                    candidates: Optional[Sequence[int]] = None,
                    limits: Optional[Limits] = None) -> Fiber:
    """Every non-negative table over V(g) whose marginals equal `m`.

    `candidates` optionally restricts the support labelings considered;
    it must be a superset of every feasible support (callers use it only
    with provably sufficient sets).
    """
    limits = limits or default_limits()
    if m.vertices != g.vertices:
        raise ValueError("marginals were taken over a different vertex order")
    m.validate()
    limits.check_vertices(g.n)
    limits.check_total(m.total)
    try:
        tables = _kernel.fiber_tables(g.n, _sorted_edges(g), _budgets(g, m),
                                      m.total, candidates=candidates,
                                      cap=limits.max_fiber)
    except _kernel.CapExceeded:
        raise limits.exceeded(
            "max_fiber", f"the fiber of total {m.total}") from None
    return Fiber(g, m, _tables_to_elements(g, tables))


def fiber_of(g: Graph, z: TableVector,
             limits: Optional[Limits] = None) -> Fiber:
    """Fiber through a given non-negative table."""
    return enumerate_fiber(g, graph_marginals(z, g), limits=limits)


def _unit_tables(f: Fiber) -> List[Tuple[int, ...]]:
    return [tuple(z.units()) for z in f.elements]


def fiber_graph(f: Fiber, k: int) -> FiberGraph:
    if k < 1:
        raise ValueError("degree bound must be >= 1")
    tables = _unit_tables(f)
    adj = []
    for i in range(f.size):
        ti = tables[i]
        for j in range(i + 1, f.size):
            if _kernel._norm(ti, tables[j]) <= 2 * k:
                adj.append((i, j))
    return FiberGraph(f, k, tuple(adj))


def fiber_components(f: Fiber, k: int) -> List[List[TableVector]]:
    """Connected components of the fiber under moves of degree <= k.

    Intermediate states of any component path are fiber elements and
    hence non-negative by construction.
    """
    if k < 1:
        raise ValueError("degree bound must be >= 1")
    labels = _kernel.component_labels(_unit_tables(f), 2 * k)
    by_root = {}
    for idx, root in enumerate(labels):
        by_root.setdefault(root, []).append(f.elements[idx])
    return [by_root[r] for r in sorted(by_root)]


def extract_moves(f: Fiber, k: int) -> List[Move]:
    """Deduplicated degree-<=k difference vectors between fiber elements,
    sign-canonicalized (entry at the smallest support mask positive),
    in the order of `TableVector.key()`."""
    vertices = f.graph.vertices
    return [Move(TableVector(vertices, dict(items)), items)
            for items in _kernel.fiber_moves(_unit_tables(f), 2 * k)]


def _grouped_tables(g: Graph, total: int, limits: Limits):
    cells = 1 << g.n
    count = comb(cells + total - 1, total)
    if limits.max_fiber and count > limits.max_fiber:
        raise limits.exceeded(
            "max_fiber",
            f"C({cells}+{total - 1}, {total}) = {count} tables")
    return _kernel.group_tables(g.n, _sorted_edges(g), total)


def _flips(g: Graph):
    """(mask, perm) for every flip of vertices that have an edge: the
    fiber with key `key` flipped by `mask` in every unit has the key
    `bytes(key[p] for p in perm)`."""
    edges = _sorted_edges(g)
    touched = 0
    for i, j in edges:
        touched |= (1 << i) | (1 << j)
    out = []
    for mask in range(1 << g.n):
        if mask & ~touched:
            continue
        perm = []
        for e, (i, j) in enumerate(edges):
            f = (((mask >> i) & 1) << 1) | ((mask >> j) & 1)
            perm.extend(4 * e + (c ^ f) for c in range(4))
        out.append((mask, perm))
    return out


def _witness(g: Graph, k: int, groups, split_keys):
    """The fiber with the smallest key among the flip images of the
    fibers `split_keys` (the first split fiber of a search over every
    fiber), with one representative per side of its first two
    components."""
    _, key, mask = min((bytes(map(key.__getitem__, perm)), key, mask)
                       for mask, perm in _flips(g) for key in split_keys)
    tables = sorted(tuple(sorted(m ^ mask for m in t)) for t in groups[key])
    labels = _kernel.component_labels(tables, 2 * k)
    roots = sorted(set(labels))
    elements = _tables_to_elements(g, tables)
    fib = Fiber(g, graph_marginals(elements[0], g), elements)
    za = elements[labels.index(roots[0])]
    zb = elements[labels.index(roots[1])]
    return fib, (za, zb)


def search_width(g: Graph, max_total: int, k: Optional[int] = None,
                 limits: Optional[Limits] = None):
    """Fiber search over every total up to max_total, in one pass.

    Returns `(degrees, witness)`.  `degrees[t - 1]` is the smallest
    k >= 1 such that every fiber of a table with total <= t is
    connected by moves of degree <= k.  `witness` is None unless `k` is
    given and some fiber of total <= max_total is split by moves of
    degree <= k; then it is the split fiber of the lowest total with the
    smallest marginal key, with one representative per side.

    Vertex flips map fibers to fibers and keep L1 distances, so one
    fiber per flip orbit is analysed (see `_kernel.group_tables`).
    """
    limits = limits or default_limits()
    limits.check_vertices(g.n)
    limits.check_total(max_total)
    degrees: List[int] = []
    best = 1
    witness = None
    for total in range(1, max_total + 1):
        groups = _grouped_tables(g, total, limits)
        split_keys = []
        for key, tables in groups.items():
            b = _kernel.bottleneck_norm(tables)
            best = max(best, b // 2)
            if k is not None and b > 2 * k:
                split_keys.append(key)
        degrees.append(best)
        if witness is None and split_keys:
            witness = _witness(g, k, groups, split_keys)
    return degrees, witness


def min_connecting_degree(g: Graph, max_total: int,
                          limits: Optional[Limits] = None) -> int:
    """Smallest k such that every fiber of a table with total <= max_total
    is connected by moves of degree <= k.

    This is a lower-bound estimator of the graph's Markov width: larger
    totals can only increase it.
    """
    return max(search_width(g, max_total, limits=limits)[0], default=1)


def witness_disconnected_fiber(g: Graph, k: int, max_total: int,
                               limits: Optional[Limits] = None):
    """A fiber (total <= max_total) split by degree-<=k moves, with one
    representative per side, or None if every such fiber is connected."""
    return search_width(g, max_total, k, limits=limits)[1]
