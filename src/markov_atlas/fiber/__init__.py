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
from ..lattice import (MarginalSet, Move, TableVector, canonical_sign,
                       graph_marginals)
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


def fiber_graph(f: Fiber, k: int) -> FiberGraph:
    if k < 1:
        raise ValueError("degree bound must be >= 1")
    adj = []
    for i in range(f.size):
        for j in range(i + 1, f.size):
            if (f.elements[i] - f.elements[j]).l1() <= 2 * k:
                adj.append((i, j))
    return FiberGraph(f, k, tuple(adj))


def fiber_components(f: Fiber, k: int) -> List[List[TableVector]]:
    """Connected components of the fiber under moves of degree <= k.

    Intermediate states of any component path are fiber elements and
    hence non-negative by construction.
    """
    if k < 1:
        raise ValueError("degree bound must be >= 1")
    tables = [tuple(z.units()) for z in f.elements]
    labels = _kernel.component_labels(tables, 2 * k)
    by_root = {}
    for idx, root in enumerate(labels):
        by_root.setdefault(root, []).append(f.elements[idx])
    return [by_root[r] for r in sorted(by_root)]


def extract_moves(f: Fiber, k: int) -> List[Move]:
    """Deduplicated degree-<=k difference vectors between fiber elements,
    sign-canonicalized (entry at the smallest support mask positive)."""
    seen = {}
    for i in range(f.size):
        for j in range(i + 1, f.size):
            u = f.elements[i] - f.elements[j]
            if 0 < u.l1() <= 2 * k:
                u = canonical_sign(u)
                seen[u.key()] = u
    return [Move(seen[key]) for key in sorted(seen)]


def _grouped_tables(g: Graph, total: int, limits: Limits):
    cells = 1 << g.n
    count = comb(cells + total - 1, total)
    if limits.max_fiber and count > limits.max_fiber:
        raise limits.exceeded(
            "max_fiber",
            f"C({cells}+{total - 1}, {total}) = {count} tables")
    return _kernel.group_tables(g.n, _sorted_edges(g), total)


def min_connecting_degree(g: Graph, max_total: int,
                          limits: Optional[Limits] = None) -> int:
    """Smallest k such that every fiber of a table with total <= max_total
    is connected by moves of degree <= k.

    This is a lower-bound estimator of the graph's Markov width: larger
    totals can only increase it.
    """
    limits = limits or default_limits()
    limits.check_vertices(g.n)
    limits.check_total(max_total)
    best = 1
    for total in range(1, max_total + 1):
        for tables in _grouped_tables(g, total, limits).values():
            b = _kernel.bottleneck_norm(tables)
            if b // 2 > best:
                best = b // 2
    return best


def witness_disconnected_fiber(g: Graph, k: int, max_total: int,
                               limits: Optional[Limits] = None):
    """A fiber (total <= max_total) split by degree-<=k moves, with one
    representative per side, or None if every such fiber is connected."""
    limits = limits or default_limits()
    limits.check_vertices(g.n)
    limits.check_total(max_total)
    for total in range(1, max_total + 1):
        groups = _grouped_tables(g, total, limits)
        for key in sorted(groups):
            tables = groups[key]
            labels = _kernel.component_labels(tables, 2 * k)
            roots = sorted(set(labels))
            if len(roots) > 1:
                elements = _tables_to_elements(g, tables)
                fib = Fiber(g, graph_marginals(elements[0], g), elements)
                za = elements[labels.index(roots[0])]
                zb = elements[labels.index(roots[1])]
                return fib, (za, zb)
    return None
