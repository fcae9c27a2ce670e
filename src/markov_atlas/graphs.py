"""Simple graphs: blocks, bridges, and series-parallel structure.

Vertex order is significant throughout the package: it fixes the bit
positions of labelings, so every derived graph (block, bridge, induced
subgraph) keeps its vertices in the parent's order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from .errors import (NoSuchPoles, NotK4MinorFree, NotSeriesParallel,
                     ParseError)

Edge = Tuple[int, int]


def _norm_edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


class Graph:
    """Immutable simple graph over an ordered vertex list."""

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
        self.edges: FrozenSet[Edge] = frozenset(es)
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

    def degree(self, i: int) -> int:
        return len(self.adj()[i])

    def has_edge(self, i: int, j: int) -> bool:
        return _norm_edge(i, j) in self.edges

    def edge_labels(self) -> List[Tuple[str, str]]:
        return [(self.vertices[i], self.vertices[j])
                for i, j in sorted(self.edges)]

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
        return f"Graph({list(self.vertices)}, {sorted(self.edges)})"

    # -- global structure ----------------------------------------------

    def connected_components(self) -> List[List[int]]:
        seen: Set[int] = set()
        comps = []
        adj = self.adj()
        for s in range(self.n):
            if s in seen:
                continue
            stack, comp = [s], []
            seen.add(s)
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def is_forest(self) -> bool:
        return self.m == self.n - len(self.connected_components())

    def is_cycle(self) -> bool:
        return (self.n >= 3 and self.m == self.n and self.is_connected()
                and all(self.degree(v) == 2 for v in range(self.n)))


def parse_graph(text: str) -> Graph:
    """Parse edge-list text: one edge per line, `#` starts a comment.

    Vertices are ordered by first appearance; duplicate edges collapse.
    """
    labels: List[str] = []
    index: Dict[str, int] = {}
    edges: List[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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

def _block_decomposition(g: Graph):
    """Hopcroft-Tarjan: returns (list of edge sets, set of cut vertices).

    The depth-first search runs on an explicit stack, so its depth is
    not bounded by the interpreter's recursion limit.
    """
    adj = g.adj()
    disc: Dict[int, int] = {}
    low: Dict[int, int] = {}
    block_list: List[List[Edge]] = []
    cuts: Set[int] = set()
    edge_stack: List[Edge] = []

    for root in range(g.n):
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        root_children = 0
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
                    if stack[-1][1] is None:
                        root_children += 1
                    else:
                        cuts.add(parent)
                    comp: List[Edge] = []
                    target = _norm_edge(parent, u)
                    while True:
                        e = edge_stack.pop()
                        comp.append(e)
                        if e == target:
                            break
                    block_list.append(comp)
        if root_children >= 2:
            cuts.add(root)
    return block_list, cuts


def _sorted_blocks(g: Graph) -> List[Tuple[List[int], List[Edge]]]:
    """(sorted vertex indices, edges) of each block, ordered by the
    vertex index lists."""
    edge_sets, _ = _block_decomposition(g)
    out = [(sorted({v for e in es for v in e}), es) for es in edge_sets]
    out.sort(key=lambda b: b[0])
    return out


def blocks(g: Graph) -> List[Graph]:
    """Maximal 2-connected subgraphs plus bridge edges.

    Every edge appears in exactly one block; isolated vertices yield no
    block.  Blocks are returned as graphs over parent-ordered vertices.
    """
    return [g.subgraph(verts, es) for verts, es in _sorted_blocks(g)]


def cut_vertices(g: Graph) -> Set[int]:
    _, cuts = _block_decomposition(g)
    return cuts


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
    uv edge bridge first, then by smallest contained vertex).

    A public utility: the connector no longer calls it, since it reads
    every split from the block's series-parallel tree.
    """
    if u == v:
        raise ValueError("bridge poles must be distinct")
    parts: List[Tuple[List[int], List[Edge]]] = []
    if g.has_edge(u, v):
        parts.append(([u, v], [_norm_edge(u, v)]))
    adj = g.adj()
    seen = {u, v}
    for s in range(g.n):
        if s in seen:
            continue
        stack, comp = [s], {s}
        seen.add(s)
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in seen and w not in (u, v):
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
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
    """Smallest lexicographic vertex pair with >= 3 bridges.

    Exists for every 2-connected series-parallel graph that is not a
    cycle; raises NoSuchPoles otherwise.  A public utility: the
    connector no longer calls it, since it re-poles at a parallel node
    of the block's series-parallel tree.
    """
    for u in range(g.n):
        for v in range(u + 1, g.n):
            parts = bridges(g, u, v)
            if len(parts) >= 3:
                return u, v, parts
    raise NoSuchPoles(f"no vertex pair of {g!r} has three bridges")


# -- series-parallel decomposition ------------------------------------

@dataclass(frozen=True)
class SPTree:
    """Two-terminal series-parallel decomposition tree.

    Leaves carry an edge; serial nodes have exactly two children glued
    at `join`; parallel nodes have two or more children sharing both
    poles.  Vertices are stored as labels of the realized graph.

    One walk, `_shape`, visits the nodes from an explicit stack; it
    drives `==`, `hash` and `realize`, and the connector builds its own
    nodes, in the bits of its tables, from it.  `to_json` and
    `from_json` also run from explicit stacks, so no method is bounded
    by the recursion limit.
    """

    kind: str  # "leaf" | "serial" | "parallel"
    poles: Tuple[str, str]
    children: Tuple["SPTree", ...] = ()
    join: Optional[str] = None

    def _shape(self) -> Iterator[tuple]:
        """Kind, poles, join and child count of every node in pre-order,
        last child first, from an explicit stack.  This determines the
        tree: read backwards, each node follows its children, first
        child first."""
        stack = [self]
        while stack:
            t = stack.pop()
            yield t.kind, t.poles, t.join, len(t.children)
            stack.extend(t.children)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a == b for a, b in itertools.zip_longest(
            self._shape(), other._shape()))

    def __hash__(self) -> int:
        return hash(tuple(self._shape()))

    def to_json(self) -> dict:
        """Nested dicts: kind, poles, join (serial nodes), children.
        Built from an explicit stack, so depth is not bounded by the
        recursion limit."""
        root: List[dict] = []
        stack = [(self, root)]
        while stack:
            t, siblings = stack.pop()
            obj = {"kind": t.kind, "poles": list(t.poles)}
            siblings.append(obj)
            if t.kind == "leaf":
                continue
            if t.kind == "serial":
                obj["join"] = t.join
            obj["children"] = []
            stack.extend((c, obj["children"]) for c in reversed(t.children))
        return root[0]

    @classmethod
    def from_json(cls, obj: dict) -> "SPTree":
        """Inverse of `to_json`, built bottom-up from an explicit stack."""
        built: List["SPTree"] = []
        stack = [(obj, False)]
        while stack:
            o, ready = stack.pop()
            if o["kind"] == "leaf":
                built.append(cls("leaf", tuple(o["poles"])))
            elif not ready:
                stack.append((o, True))
                stack.extend((c, False) for c in reversed(o["children"]))
            else:
                cut = len(built) - len(o["children"])
                children = tuple(built[cut:])
                del built[cut:]
                built.append(cls(o["kind"], tuple(o["poles"]), children,
                                 o.get("join")))
        return built[0]


def realize(tree: SPTree, vertex_order: Optional[Sequence[str]] = None) -> Graph:
    """Graph realized by a decomposition tree: the edges of its leaves."""
    edges = {(a, b) if a <= b else (b, a)
             for kind, (a, b), _, _ in tree._shape() if kind == "leaf"}
    labels = {v for e in edges for v in e}
    if vertex_order is None:
        order = sorted(labels)
    else:
        order = [v for v in vertex_order if v in labels]
        if set(order) != labels:
            raise ValueError("vertex_order does not cover the tree")
    index = {v: i for i, v in enumerate(order)}
    return Graph(order, [(index[a], index[b]) for a, b in edges])


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


def _tree(nodes: List[list], vertices: Sequence[str],
          poles: Tuple[int, int]) -> SPTree:
    """The last node of a reduction as an SPTree with the given poles.

    Parallel children are sorted by (smallest vertex, edge count),
    stably, which gives one deterministic tree per reduction order.
    The tree is built bottom-up after a top-down pass that orients
    every node from its parent's poles.
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
    built: Dict[int, SPTree] = {}
    for k, p, q, kids in reversed(order):
        w = nodes[k][4]
        built[k] = SPTree(nodes[k][0], (vertices[p], vertices[q]),
                          tuple(built.pop(c) for c in kids),
                          None if w is None else vertices[w])
    return built[len(nodes) - 1]


def sp_decompose(g: Graph,
                 poles: Optional[Tuple[str, str]] = None) -> SPTree:
    """Decompose a two-terminal series-parallel graph.

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
    return _tree(nodes, g.vertices, keep or (a, b))


def block_sp_tree(vertices: Sequence[str], edges: Iterable[Edge]) -> SPTree:
    """The series-parallel tree of a 2-connected block whose edges
    index into `vertices` (a subset of them may be used), reduced in
    the order of `sp_decompose`.  Raises NotK4MinorFree if the block
    does not reduce to one edge: a block has a K4 minor exactly then.
    """
    nodes, left = _reduce(edges)
    if left != 1:
        raise NotK4MinorFree("graph contains a K4 minor")
    return _tree(nodes, vertices, nodes[-1][1:3])


def is_k4_minor_free(g: Graph) -> bool:
    """True iff the graph has no K4 minor, decided block-wise: a block
    has none iff its series-parallel reduction reaches one edge."""
    return all(_reduce(es)[1] == 1 for es in _block_decomposition(g)[0])


def complete_graph(labels: Sequence[str]) -> Graph:
    n = len(labels)
    return Graph(labels, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(labels: Sequence[str]) -> Graph:
    n = len(labels)
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(labels, [(i, (i + 1) % n) for i in range(n)])
