"""Fiber enumeration and degree-bounded connectivity evidence.

The fiber of a non-negative table is the complete list of non-negative
integer tables sharing its edge marginals.  Enumeration is exhaustive
(depth-first placement of units, pruned where a cell passes its
marginal or, in a search, a vertex's 1s pass half the total) and either
returns the whole fiber or raises `ResourceLimitError`, never a part.

The enumeration and analysis loops live in `markov_atlas.fiber._kernel`,
and the layer speaks its format: a fiber holds the kernel's tables
(sorted tuples of unit labelings), a move the kernel's sorted
(mask, coefficient) items.  Vectors are built only when asked for.
Every walk, that of `fiber_of` (the one way into a single fiber) and
those of `search_width` (the fibers up to a total), runs inside
`_capped`, which applies the caps of `default_limits()`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from ..errors import InvariantViolation
from ..graphs import Graph, _sum_pieces
from ..lattice import Move, TableVector, edge_cells, graph_marginals
from ..limits import default_limits
from . import _kernel

KERNEL_ID = "py"


@dataclass(frozen=True)
class Fiber:
    """Exhaustive fiber of a table: its tables as the kernel gives
    them, sorted tuples of unit labelings in lexicographic order."""

    graph: Graph
    tables: Tuple[Tuple[int, ...], ...]

    @cached_property
    def elements(self) -> Tuple[TableVector, ...]:
        """The tables as vectors, in the same order, built on first
        use."""
        return tuple(TableVector.from_units(self.graph.vertices, t)
                     for t in self.tables)

    @property
    def size(self) -> int:
        return len(self.tables)


def fiber_of(g: Graph, z: TableVector,
             candidates: Optional[Sequence[int]] = None) -> Fiber:
    """Every non-negative table over V(g) with the edge marginals of
    the non-negative table `z` (ValueError on a negative entry).

    `candidates` optionally restricts the support labelings, each placed
    once (ValueError on one outside range(2^n)); it must be a superset
    of every feasible support (callers give only sufficient sets).
    """
    if not z.is_nonnegative():
        raise ValueError("a fiber is taken through a non-negative table")
    m = graph_marginals(z, g)
    with _capped(g.n, m.total, "the fiber") as cap:
        return Fiber(g, tuple(_kernel.fiber_tables(
            g.n, m.edges, m.cells, m.total, candidates, cap=cap)))


@contextmanager
def _capped(n: int, total: int, what: str):
    """The max_fiber cap for walks of up to `total` units on n vertices,
    once both are within `default_limits()`; a walk's CapExceeded is
    raised as the max_fiber ResourceLimitError, naming `what` and the
    walk's total."""
    limits = default_limits()
    if n > limits.max_vertices:
        raise limits.exceeded("max_vertices", f"{n} vertices")
    if total > limits.max_total:
        raise limits.exceeded("max_total", f"table total {total}")
    try:
        yield limits.max_fiber
    except _kernel.CapExceeded as walk:
        raise limits.exceeded(
            "max_fiber", f"{what} of total {walk.args[0]}") from None


def _check_degree(k: int):
    if k < 1:
        raise ValueError("degree bound must be >= 1")


def fiber_components(f: Fiber, k: int) -> List[List[TableVector]]:
    """Connected components of the fiber under moves of degree <= k.

    Intermediate states of any component path are fiber elements and
    hence non-negative by construction.
    """
    _check_degree(k)
    labels = _kernel.component_labels(f.tables, 2 * k)
    by_root = {}
    for idx, root in enumerate(labels):
        by_root.setdefault(root, []).append(f.elements[idx])
    return [by_root[r] for r in sorted(by_root)]


def extract_moves(f: Fiber, k: int) -> List[Move]:
    """Deduplicated degree-<=k differences between fiber tables as
    moves, sign-canonicalized (entry at the smallest support mask
    positive), in the order of `TableVector.key()`.  Each move keeps
    the kernel's items; no vector is built."""
    _check_degree(k)
    vertices = f.graph.vertices
    return [Move(vertices, items)
            for items in _kernel.fiber_moves(f.tables, 2 * k)]


def _least_flip(edges, flips, fibers) -> Tuple[Tuple[int, ...], int]:
    """The (cells, mask) of the smallest (image, cells, mask) over the
    marginal cells `fibers` and every flip `mask` of vertices with an
    edge, where the image is the cells of the flipped fiber and
    `flips[mask]` the `edge_cells` of labeling `mask`.

    Flipping the vertices of `mask` xors edge e's cell index with
    2 f_i + f_j, so the smallest image is found edge by edge: every
    (cells, mask on the vertices seen so far) whose image agrees with
    the smallest one up to edge e is kept, and the smallest (cells,
    mask) of the survivors is taken."""
    best = [(cells, 0) for cells in fibers]
    seen = 0
    for e, (i, j) in enumerate(edges):
        free = ((1 << i) | (1 << j)) & ~seen
        seen |= free
        subsets = {0, free & (1 << i), free & (1 << j), free}
        images = []
        for c, part in best:
            for mask in (part | s for s in subsets):
                x = flips[mask][e]
                images.append(((c[x], c[x ^ 1], c[x ^ 2], c[x ^ 3]), c, mask))
        least = min(images)[0]
        best = [(c, mask) for image, c, mask in images if image == least]
    return min(best)


def _witness(g: Graph, k: int, split):
    """The fiber with the smallest marginal cells among the flip images
    of the fibers `split`, with one representative per side of its
    first two components.

    `split` holds the split fibers of the lowest split total, at least
    one of every flip orbit, in any order (see `search_width`), so the
    minimum is over every split fiber.  A fiber's cells are those of
    its first table, read from one packed sum of per-labeling
    increments with one byte per cell; equal images are the same
    fiber, and `_least_flip` finds the smallest."""
    total = len(split[0][0])
    if total > 255:
        raise ValueError("cell counts above 255 do not fit a byte field")
    flips = [edge_cells(mask, g.edges) for mask in range(1 << g.n)]
    inc = _kernel._packed(flips, 8)

    def cells_of(table):
        return tuple(sum(map(inc.__getitem__, table)).to_bytes(
            4 * g.m, "little"))

    fibers = {cells_of(tabs[0]): tabs for tabs in split}
    cells, mask = _least_flip(g.edges, flips, fibers)
    tables = sorted(tuple(sorted(m ^ mask for m in t)) for t in fibers[cells])
    labels = _kernel.component_labels(tables, 2 * k)
    za, zb = (TableVector.from_units(g.vertices, tables[labels.index(r)])
              for r in sorted(set(labels))[:2])
    return Fiber(g, tuple(tables)), (za, zb)


def _analyse(fibers, best: int, k: Optional[int]):
    """The running degree `best` raised to the bottlenecks of `fibers`,
    and those of them split by moves of degree <= k (none if k is
    None), skipping the fibers that cannot raise it (see
    `_search_fibers`).  Whether the fibers are a whole-graph walk's or
    those over a piece's split fibers, the split ones are the same (see
    `search_width`)."""
    split = []
    for tables in fibers:
        # a fiber of one table is the cheap common case of the test
        if len(tables) < 2 or set(tables[0]).intersection(*tables[1:]):
            continue
        b = _kernel.bottleneck_norm(tables,
                                    best if k is None else min(best, k))
        best = max(best, b // 2)
        if k is not None and b > 2 * k:
            split.append(tables)
    return best, split


def _search_fibers(g: Graph, max_total: int, k: Optional[int] = None):
    """The degrees of `search_width` from the fibers of the whole graph
    g (the caps checked for g and max_total before any walk), and the
    lowest total's fibers split by moves of degree <= k, if k is given.

    Vertex flips map fibers to fibers and keep L1 distances, so one
    fiber per flip orbit is analysed (see `_kernel.group_tables`).  Of
    those, only fibers that can raise the answer are analysed.  A
    fiber whose tables all hold a unit u (a fiber of one table among
    them) is u plus the fiber of total - 1 with the marginals less u's,
    at the same distances.  A flip image of that fiber was dealt with
    at total - 1, so its bottleneck is at most the running degree, and
    if it is split, a split fiber of a lower total holds the witness.
    Flips keep a common unit common, so at the lowest split total no
    split fiber is skipped, and the witness is the same.  Each analysed
    fiber's bottleneck starts at the running degree (and up to the
    lowest split total at most at k), which changes neither the degree
    nor the split test.
    """
    degrees: List[int] = []
    best = 1
    split = []
    with _capped(g.n, max_total, "the walk") as cap:
        for total in range(1, max_total + 1):
            best, found = _analyse(
                _kernel.group_tables(g.n, g.edges, total, cap=cap).values(),
                best, None if split else k)
            degrees.append(best)
            split = split or found
    return degrees, split


def search_width(g: Graph, max_total: int, k: Optional[int] = None):
    """Fiber search over every total up to max_total.

    Returns `(degrees, witness)`.  `degrees[t - 1]` is the smallest
    k >= 1 such that every fiber of a table with total <= t is
    connected by moves of degree <= k.  `witness` is None unless `k` is
    given and some fiber of total <= max_total is split by moves of
    degree <= k; then it is the split fiber of the lowest total with the
    smallest marginal cells, with one representative per side.  A total
    below 1 raises ValueError.

    A connected graph is split into pieces at its cut vertices and at
    its separating edges (`graphs._sum_pieces`).  g is then a clique
    sum of its pieces along a vertex or an edge: each side fixes the
    full marginal of the shared vertex or edge, a toric fiber product
    of codimension zero, whose Markov basis is the pieces' bases lifted
    plus degree-2 swaps (Sullivant 2007, "Toric fiber products").  So
    the width of the sum is the largest width of its pieces, and at
    least 2 (Develin and Sullivant 2003, "Markov bases of binary graph
    models").  Both bounds hold fiber by fiber: a piece's fiber of
    total t is a fiber of g of total t at the same distances (each unit
    extended by 0 off the piece, where the marginals then force 0), and
    the product connects a fiber of total t by lifts of moves within
    the pieces' fibers of total t and by swaps.  So per total t

        d(t) = max(max over pieces of d_piece(t), 2 if t >= 2).

    Each piece is searched as a whole graph (`_search_fibers`), and
    pieces with the same number of vertices and the same re-indexed
    edges are searched once; the caps apply to each searched graph.  A
    graph that does not split (one piece, a disconnected graph, a graph
    without edges) is searched whole.  The witness is a fiber of the
    whole graph: if some d(t) exceeds k, the whole graph is searched up
    to the first such total t*, and must give the pieces' degrees there
    (InvariantViolation otherwise).  For k = 1 degree-2 swaps split
    fibers that no piece splits, and that search gives the witness.

    For k >= 2 the whole graph is walked below t* only.  At t* the
    search walks only the fibers of g whose cells on a piece P are
    those of one of the split fibers P's own search found at t*
    (`_kernel.group_tables` with those cells fixed).  These are all the
    split fibers of g: a fiber of g is split by moves of degree <= k
    if and only if a piece's fiber under it is.  A move restricts to
    each piece at no larger degree, so a split piece fiber splits every
    fiber over it; and when every piece's fiber is connected, the lifts
    of their moves and the degree-2 swaps connect g's fiber.  Flipping
    the vertices with more than t* // 2 ones takes a split fiber of g
    to one these walks return, so the witness is that of g's whole
    walk, and the largest bottleneck among them is the degree at t*.
    """
    if max_total < 1:
        raise ValueError("table total must be >= 1")
    if k is not None:
        _check_degree(k)
    pieces = _sum_pieces(g) if g.m and g.is_connected() else []
    if len(pieces) < 2:
        degrees, split = _search_fibers(g, max_total, k)
    else:
        pieces = [(edges, g.subgraph(verts, edges)) for verts, edges in pieces]
        searched = {}
        for _, piece in pieces:
            if (piece.n, piece.edges) not in searched:
                searched[piece.n, piece.edges] = _search_fibers(
                    piece, max_total, k)
        degrees = [max(*ds, 2 if t else 1) for t, ds in
                   enumerate(zip(*(ds for ds, _ in searched.values())))]
        if k is None or degrees[-1] <= k:
            return degrees, None
        first = next(t for t, d in enumerate(degrees, 1) if d > k)
        whole, split = _search_fibers(g, first if k == 1 else first - 1, k)
        if k > 1:
            lifted = {}
            with _capped(g.n, first, "the walk") as cap:
                for edges, piece in pieces:
                    for tables in searched[piece.n, piece.edges][1]:
                        if len(tables[0]) != first:
                            continue
                        cells = graph_marginals(TableVector.from_units(
                            piece.vertices, tables[0]), piece).cells
                        for fib in _kernel.group_tables(
                                g.n, g.edges, first, (edges, cells),
                                cap).values():
                            lifted.setdefault(fib[0], fib)
            best, split = _analyse(lifted.values(), whole[-1], k)
            whole.append(best)
        if whole != degrees[:first]:
            raise InvariantViolation(
                f"whole-graph degrees {whole} differ from the pieces' "
                f"{degrees[:first]}")
    return degrees, _witness(g, k, split) if split else None


def min_connecting_degree(g: Graph, max_total: int) -> int:
    """Smallest k such that every fiber of a table with total <= max_total
    is connected by moves of degree <= k.

    This is a lower-bound estimator of the graph's Markov width: larger
    totals can only increase it.
    """
    return max(search_width(g, max_total)[0], default=1)
