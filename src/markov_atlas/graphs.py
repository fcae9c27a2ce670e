"""Simple graphs: blocks, bridges, and series-parallel structure.

Vertex order is significant throughout the package: it fixes the bit
positions of labelings, so every derived graph (block, bridge, induced
subgraph) keeps its vertices in the parent's order.

Series-parallel structure comes from one reduction, `_reduce` (series
and parallel steps, Duffin 1965), which `_tree` turns into a tree
bottom-up through a node constructor its caller passes: `sp_decompose`
builds the dicts that `decompose` prints, and the connector its own
nodes in the bits of its tables.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from .errors import (NoSuchPoles, NotK4MinorFree, NotSeriesParallel,
                     ParseError, _fields)

Edge = Tuple[int, int]


def _norm_edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


class Graph:
    """Immutable simple graph over an ordered vertex list; `edges` is the
    sorted tuple of its (i, j), i < j, pairs, in cell-layout order."""

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Sequence[str], edges: Iterable[Edge]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        n = len(self.vertices)
        es = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"loop edge at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range")
            es.add(_norm_edge(i, j))
        self.edges: Tuple[Edge, ...] = tuple(sorted(es))
        self._adj: Optional[Dict[int, Set[int]]] = None

    # -- basics --------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def index(self, label: str) -> int:
        """The position of `label`; a ValueError names a label that is
        not a vertex."""
        if label not in self.vertices:
            raise ValueError(f"{label!r} is not a vertex of the graph")
        return self.vertices.index(label)

    def adj(self) -> Dict[int, Set[int]]:
        if self._adj is None:
            a: Dict[int, Set[int]] = {i: set() for i in range(self.n)}
            for i, j in self.edges:
                a[i].add(j)
                a[j].add(i)
            self._adj = a
        return self._adj

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.adj().get(i, ())

    def edge_labels(self) -> List[Tuple[str, str]]:
        return [(self.vertices[i], self.vertices[j]) for i, j in self.edges]

    def subgraph(self, vertex_idxs: Iterable[int],
                 edges: Optional[Iterable[Edge]] = None) -> "Graph":
        """Subgraph on the given vertices (parent order preserved).

        With `edges` omitted, takes all induced edges.  Edge indices are
        remapped to the new vertex list.
        """
        keep = sorted(set(vertex_idxs))
        pos = {v: k for k, v in enumerate(keep)}
        if edges is None:
            edges = [e for e in self.edges if e[0] in pos and e[1] in pos]
        sub_edges = [(pos[i], pos[j]) for i, j in edges]
        return Graph([self.vertices[v] for v in keep], sub_edges)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph({list(self.vertices)}, {list(self.edges)})"

    # -- global structure ----------------------------------------------

    def connected_components(self) -> List[List[int]]:
        return [sorted(c) for c in _components(self.adj(), range(self.n))]

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def is_forest(self) -> bool:
        return self.m == self.n - len(self.connected_components())


def _components(adj: Dict[int, Set[int]], vertices: Iterable[int],
                removed: Iterable[int] = ()) -> List[List[int]]:
    """The components of the subgraph induced on `vertices` less
    `removed`, each a list of its vertices, in the order of their first
    vertex in `vertices`: a search over `adj` from each vertex not yet
    reached, which reads each component's list as it grows."""
    left = set(vertices)
    left.difference_update(removed)
    comps = []
    for s in vertices:
        if s in left:
            left.remove(s)
            comp = [s]
            for v in comp:
                for w in adj[v]:
                    if w in left:
                        left.remove(w)
                        comp.append(w)
            comps.append(comp)
    return comps


def parse_graph(text: str) -> Graph:
    """Parse edge-list text: one edge per line, `#` starts a comment.

    Vertices are ordered by first appearance; duplicate edges collapse.
    """
    labels: List[str] = []
    index: Dict[str, int] = {}
    edges: List[Edge] = []
    for lineno, parts in _fields(text):
        if len(parts) != 2:
            raise ParseError(f"expected two vertex labels, got {parts!r}",
                             lineno)
        a, b = parts
        if a == b:
            raise ParseError(f"loop edge at {a!r}", lineno)
        for lab in (a, b):
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
        edges.append((index[a], index[b]))
    return Graph(labels, edges)


# -- blocks and cut vertices ------------------------------------------

def _block_decomposition(g: Graph) -> List[List[Edge]]:
    """Hopcroft-Tarjan: the edge list of each block.

    The depth-first search runs on an explicit stack, so its depth is
    not bounded by the interpreter's recursion limit.
    """
    adj = g.adj()
    disc: Dict[int, int] = {}
    low: Dict[int, int] = {}
    block_list: List[List[Edge]] = []
    edge_stack: List[Edge] = []

    for root in range(g.n):
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        # frames: (vertex, DFS parent, iterator over unscanned neighbours)
        stack = [(root, None, iter(sorted(adj[root])))]
        while stack:
            u, parent, nbrs = stack[-1]
            for w in nbrs:
                if w == parent:
                    continue  # simple graph: one edge to parent
                if w not in disc:
                    edge_stack.append(_norm_edge(u, w))
                    disc[w] = low[w] = len(disc)
                    stack.append((w, u, iter(sorted(adj[w]))))
                    break
                if disc[w] < disc[u]:
                    edge_stack.append(_norm_edge(u, w))
                    low[u] = min(low[u], disc[w])
            else:
                # every neighbour of u is done: return to its parent
                stack.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[u])
                if low[u] >= disc[parent]:
                    comp: List[Edge] = []
                    target = _norm_edge(parent, u)
                    while True:
                        e = edge_stack.pop()
                        comp.append(e)
                        if e == target:
                            break
                    block_list.append(comp)
    return block_list


def _sorted_blocks(g: Graph) -> List[Tuple[List[int], List[Edge]]]:
    """(sorted vertex indices, edges) of each block, ordered by the
    vertex index lists."""
    out = [(sorted({v for e in es for v in e}), es)
           for es in _block_decomposition(g)]
    out.sort(key=lambda b: b[0])
    return out


def _sum_pieces(g: Graph) -> List[Tuple[Tuple[int, ...], Tuple[Edge, ...]]]:
    """(sorted vertex indices, sorted edges) of the pieces of g at its
    cut vertices and separating edges, ordered by the vertex lists.

    Each block is split at its separating edges: edges {a, b} whose
    removal, with both ends, disconnects the block.  Each component of
    the block less {a, b}, with a, b and the edge ab, is one piece, and
    is split again until no piece has a separating edge.  Every piece
    is an induced subgraph of g.  Two separating edges never cross (an
    edge cannot join two components of the block less the other's
    ends), and an edge other than ab separates a piece exactly when it
    separates the block (the rest of the block hangs from a or b), so
    the separating edges are found once per block.  An edge with an end
    of degree 2 in the block does not separate it: a component of the
    block less {a, b} without that end's other neighbour would meet the
    rest at the other end alone, a cut vertex."""
    adj = g.adj()
    pieces = []
    for verts, es in _sorted_blocks(g):
        block = set(verts)
        degree = Counter(v for e in es for v in e)
        work = [(block, [e for e in sorted(es)
                         if degree[e[0]] > 2 and degree[e[1]] > 2
                         and len(_components(adj, block, e)) > 1])]
        while work:
            vs, seps = work.pop()
            if not seps:
                pieces.append((tuple(sorted(vs)), tuple(sorted(
                    (v, w) for v in vs for w in adj[v] if v < w and w in vs))))
                continue
            a, b = seps[0]
            for part in _components(adj, vs, (a, b)):
                comp = {a, b, *part}
                work.append((comp, [(c, d) for c, d in seps[1:]
                                    if c in comp and d in comp]))
    pieces.sort()
    return pieces


def blocks(g: Graph) -> List[Graph]:
    """Maximal 2-connected subgraphs plus bridge edges.

    Every edge appears in exactly one block; isolated vertices yield no
    block.  Blocks are returned as graphs over parent-ordered vertices.
    """
    return [g.subgraph(verts, es) for verts, es in _sorted_blocks(g)]


def cut_vertices(g: Graph) -> Set[int]:
    """Vertices that lie in two or more blocks: the `attach` vertices
    of the pieces of `block_cut_forest`."""
    return {p.attach for p in block_cut_forest(g) if p.attach is not None}


class Piece(NamedTuple):
    """A block or an isolated vertex of a graph's block-cut forest.

    `vertices` are sorted indices into the graph and `edges` the
    block's edges (none for an isolated vertex).  `attach` is the one
    vertex the piece shares with the pieces before it in
    `block_cut_forest` order, and `parent` the index of the earlier
    piece through which it was reached; both are None for the first
    piece of a connected component.
    """

    vertices: Tuple[int, ...]
    edges: Tuple[Edge, ...]
    parent: Optional[int]
    attach: Optional[int]


def block_cut_forest(g: Graph) -> List[Piece]:
    """Blocks and isolated vertices, from one block decomposition, in
    breadth-first order over the block-cut forest.

    Components come in the order of their smallest vertex.  Within one,
    the first piece holds that vertex and every later piece meets the
    earlier ones in exactly its `attach` vertex, which lies in its
    `parent`; so the pieces hanging below a piece come after it.
    """
    bl = _sorted_blocks(g)
    at: List[List[int]] = [[] for _ in range(g.n)]
    for b, (verts, _) in enumerate(bl):
        for v in verts:
            at[v].append(b)
    placed = [False] * len(bl)
    expanded = [False] * g.n  # the blocks at the vertex are placed
    pieces: List[Piece] = []

    def place(b: int, parent: Optional[int], attach: Optional[int]):
        placed[b] = True
        pieces.append(Piece(tuple(bl[b][0]), tuple(bl[b][1]), parent,
                            attach))

    for s in range(g.n):
        if expanded[s]:
            continue
        if not at[s]:
            pieces.append(Piece((s,), (), None, None))
            continue
        place(at[s][0], None, None)
        head = len(pieces) - 1
        while head < len(pieces):
            for v in pieces[head].vertices:
                if expanded[v]:
                    continue
                expanded[v] = True
                for b in at[v]:
                    if not placed[b]:
                        place(b, head, v)
            head += 1
    return pieces


# -- bridges -----------------------------------------------------------

@dataclass(frozen=True)
class BridgePart:
    """A {u,v}-bridge: either the edge uv itself or all edges meeting
    one component of the graph minus {u, v}.

    `vertices` and `edges` are indices into the parent graph.
    """

    graph: Graph
    is_edge: bool
    vertices: Tuple[int, ...]
    edges: FrozenSet[Edge]


def bridges(g: Graph, u: int, v: int) -> List[BridgePart]:
    """Partition of E(g) into {u,v}-bridges, deterministic order (the
    uv edge bridge first, then by smallest contained vertex).  A
    {u,v}-bridge is the edge uv, or the edges with an end in one
    component of g - {u, v}; each comes with its subgraph of g."""
    if u == v:
        raise ValueError("bridge poles must be distinct")
    parts: List[Tuple[List[int], List[Edge]]] = []
    if g.has_edge(u, v):
        parts.append(([u, v], [_norm_edge(u, v)]))
    for part in _components(g.adj(), range(g.n), (u, v)):
        comp = set(part)
        es = [e for e in g.edges if e[0] in comp or e[1] in comp]
        if es:
            verts = sorted({x for e in es for x in e})
            parts.append((verts, es))
    parts.sort(key=lambda p: (len(p[1]) != 1 or p[1][0] != _norm_edge(u, v),
                              p[0]))
    return [BridgePart(g.subgraph(vs, es), es == [_norm_edge(u, v)],
                       tuple(vs), frozenset(es))
            for vs, es in parts]


def find_parallel3_poles(g: Graph):
    """The smallest vertex pair u < v, in lexicographic order, with
    three or more {u,v}-bridges, as (u, v, bridges(g, u, v)).

    Such a pair exists for every 2-connected series-parallel graph that
    is not a cycle; raises NoSuchPoles otherwise.
    """
    for u in range(g.n):
        for v in range(u + 1, g.n):
            parts = bridges(g, u, v)
            if len(parts) >= 3:
                return u, v, parts
    raise NoSuchPoles(f"no vertex pair of {g!r} has three bridges")


# -- series-parallel decomposition ------------------------------------

def _reduce(edges: Iterable[Edge], keep: Sequence[int] = ()):
    """Series-parallel reduction of a simple graph, one heap operation
    per step.

    Suppresses the smallest degree-2 vertex not in `keep` while more
    than one edge is left; a suppression that makes two parallel edges
    merges them at once.
    Returns the nodes made, the last one spanning what is left, and the
    number of edges left: 1 iff the graph reduces.  A node is [kind, a,
    b, children, join, smallest vertex, edge count]; a serial node's
    children run a-join-b, and a parallel node takes over the children
    of a parallel child of its pair.
    """
    nodes: List[list] = []
    nbr: Dict[int, Dict[int, int]] = {}  # vertex -> neighbour -> node
    for i, j in sorted(edges):
        nbr.setdefault(i, {})[j] = nbr.setdefault(j, {})[i] = len(nodes)
        nodes.append(["leaf", i, j, (), None, i, 1])
    left = len(nodes)
    heap = [v for v, ws in nbr.items() if len(ws) == 2 and v not in keep]
    heapq.heapify(heap)
    while left > 1 and heap:
        w = heapq.heappop(heap)
        if len(nbr.get(w, ())) != 2:  # suppressed, or merged down since
            continue
        (e1, a), (e2, b) = sorted((e, x) for x, e in nbr.pop(w).items())
        del nbr[a][w], nbr[b][w]
        nodes.append(["serial", a, b, (e1, e2), w,
                      min(nodes[e1][5], nodes[e2][5]),
                      nodes[e1][6] + nodes[e2][6]])
        new = len(nodes) - 1
        left -= 1
        old = nbr[a].get(b)
        if old is not None:
            kids = nodes[old][3] if nodes[old][0] == "parallel" else [old]
            kids.append(new)
            nodes.append(["parallel", min(a, b), max(a, b), kids, None,
                          min(nodes[old][5], nodes[new][5]),
                          nodes[old][6] + nodes[new][6]])
            new = len(nodes) - 1
            left -= 1
            for x in (a, b):
                if len(nbr[x]) == 2 and x not in keep:
                    heapq.heappush(heap, x)
        nbr[a][b] = nbr[b][a] = new
    return nodes, left


def _tree(nodes: List[list], poles: Tuple[int, int], make: Callable):
    """The last node of a reduction as a tree with the given poles,
    each node built bottom-up as `make(kind, p, q, children, join)`:
    p and q are its pole indices, children a tuple of built nodes, and
    join the join vertex of a serial node (None otherwise).

    Parallel children are sorted by (smallest vertex, edge count),
    stably, which gives one deterministic tree per reduction order.
    A top-down pass first orients every node from its parent's poles.
    """
    order = []
    stack = [(len(nodes) - 1, poles[0], poles[1])]
    while stack:
        k, p, q = stack.pop()
        kind, a, _, kids, w = nodes[k][:5]
        if kind == "serial":
            first, second = kids if p == a else kids[::-1]
            sub = [(first, p, w), (second, w, q)]
        else:
            sub = [(c, p, q) for c in sorted(kids,
                                             key=lambda c: nodes[c][5:])]
        order.append((k, p, q, [c for c, _, _ in sub]))
        stack.extend(sub)
    built: Dict[int, object] = {}
    for k, p, q, kids in reversed(order):
        kind, _, _, _, w = nodes[k][:5]
        built[k] = make(kind, p, q, tuple(built.pop(c) for c in kids), w)
    return built[len(nodes) - 1]


def _sp_reduction(g: Graph, poles: Optional[Tuple[str, str]]):
    """The reduction of a two-terminal series-parallel graph and its
    pole indices, as `_tree` takes them.

    Runs series/parallel reductions: merge parallel edge pairs,
    suppress degree-2 non-pole vertices.  Succeeds iff a single edge
    remains; with `poles` given, pole vertices are never suppressed and
    the surviving edge must connect them.
    """
    if g.m == 0 or not g.is_connected():
        raise NotSeriesParallel("graph must be connected with an edge")
    keep: Tuple[int, ...] = ()
    if poles is not None:
        keep = (g.index(poles[0]), g.index(poles[1]))
        if keep[0] == keep[1]:
            raise ValueError("poles must be two distinct vertices")
    nodes, left = _reduce(g.edges, keep)
    if left != 1:
        raise NotSeriesParallel(f"reduction stalled with {left} edges")
    a, b = nodes[-1][1:3]
    if keep and {a, b} != set(keep):
        raise NotSeriesParallel(
            f"reduction ended at {g.vertices[a]},{g.vertices[b]}, "
            f"not at the requested poles")
    return nodes, keep or (a, b)


def sp_decompose(g: Graph, poles: Optional[Tuple[str, str]] = None) -> dict:
    """The series-parallel decomposition tree of a two-terminal graph,
    between `poles` if given, as nested dicts of plain JSON data.

    Each node has "kind" ("leaf", "serial" or "parallel") and "poles"
    (two labels); a serial node also has "join", the label its two
    children meet at, and every inner node "children".  A leaf carries
    one edge; a parallel node has two or more children sharing both
    poles.  Raises NotSeriesParallel if the graph does not reduce to one
    edge (between the poles).
    """
    labels = g.vertices

    def node(kind, p, q, children, w):
        obj = {"kind": kind, "poles": [labels[p], labels[q]]}
        if kind == "serial":
            obj["join"] = labels[w]
        if kind != "leaf":
            obj["children"] = list(children)
        return obj

    return _tree(*_sp_reduction(g, poles), node)


def block_sp_tree(edges: Iterable[Edge], make: Callable):
    """The series-parallel tree of a 2-connected block, reduced in the
    order of `sp_decompose` and built through `make` as `_tree` builds
    it.  Raises NotK4MinorFree if the block does not reduce to one
    edge: a block has a K4 minor exactly then.
    """
    nodes, left = _reduce(edges)
    if left != 1:
        raise NotK4MinorFree("graph contains a K4 minor")
    return _tree(nodes, nodes[-1][1:3], make)


def is_k4_minor_free(g: Graph) -> bool:
    """True iff the graph has no K4 minor, decided block-wise: a block
    has none iff its series-parallel reduction reaches one edge."""
    return all(_reduce(es)[1] == 1 for es in _block_decomposition(g))


def complete_graph(labels: Sequence[str]) -> Graph:
    n = len(labels)
    return Graph(labels, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(labels: Sequence[str]) -> Graph:
    n = len(labels)
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(labels, [(i, (i + 1) % n) for i in range(n)])
