"""Closed triangulated surfaces and complete-graph width certificates.

A clean, 2-face-colorable triangulation certifies a lower bound on the
Markov width of the complete graph over its vertex set.  The red faces
and the blue faces give two tables with equal complete-graph marginals.
Their fiber holds exactly 2^c tables, one per choice of red or blue in
each of the c components of the dual graph of the faces, and flipping a
component with m_i edges is a move of degree m_i/3.  So any connecting
move set needs degree at least the largest m_i/3: m/3 when the dual is
connected.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .errors import (InvalidTriangulation, NotTwoFaceColorable, ParseError,
                     ResourceLimitError)
from .graphs import Graph, complete_graph
from .lattice import TableVector, graph_marginals
from .limits import Limits, default_limits
from . import fiber as fiber_mod

Face = Tuple[int, int, int]


@dataclass(frozen=True)
class Triangulation:
    """Vertex labels plus face triples (indices, sorted)."""

    vertices: Tuple[str, ...]
    faces: Tuple[Face, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_set(self) -> FrozenSet[Tuple[int, int]]:
        es: Set[Tuple[int, int]] = set()
        for a, b, c in self.faces:
            es |= {(a, b), (a, c), (b, c)}
        return frozenset(es)

    @property
    def m(self) -> int:
        return len(self.edge_set)

    @property
    def f(self) -> int:
        return len(self.faces)

    @property
    def euler(self) -> int:
        return self.n - self.m + self.f

    def skeleton(self) -> Graph:
        return Graph(self.vertices, self.edge_set)

    def validate(self):
        seen: Set[Face] = set()
        for face in self.faces:
            if len(set(face)) != 3:
                raise InvalidTriangulation(f"degenerate face {face}")
            if face in seen:
                raise InvalidTriangulation(f"repeated face {face}")
            seen.add(face)
        count: Dict[Tuple[int, int], int] = {}
        for a, b, c in self.faces:
            for e in ((a, b), (a, c), (b, c)):
                count[e] = count.get(e, 0) + 1
        for e, k in count.items():
            if k != 2:
                raise InvalidTriangulation(
                    f"edge {e} lies in {k} faces, expected 2 (open surface)")


def load_triangulation(text: str) -> Triangulation:
    """Parse face-list text: three labels per line, `#` comments."""
    labels: List[str] = []
    index: Dict[str, int] = {}
    faces: List[Face] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected three vertex labels, got {parts!r}",
                             lineno)
        if len(set(parts)) != 3:
            raise ParseError(f"degenerate face {parts!r}", lineno)
        for lab in parts:
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
        faces.append(tuple(sorted(index[p] for p in parts)))
    t = Triangulation(tuple(labels), tuple(faces))
    t.validate()
    return t


def double_wheel(cycle_len: int) -> Triangulation:
    """Cycle of length N joined to two apexes: N+2 vertices, 3N edges.

    2-face-colorable exactly when N is even.
    """
    if cycle_len < 3:
        raise ValueError("cycle length must be at least 3")
    labels = [f"c{i}" for i in range(cycle_len)] + ["a", "b"]
    a = cycle_len
    b = cycle_len + 1
    faces = []
    for i in range(cycle_len):
        j = (i + 1) % cycle_len
        faces.append(tuple(sorted((i, j, a))))
        faces.append(tuple(sorted((i, j, b))))
    t = Triangulation(tuple(labels), tuple(faces))
    t.validate()
    return t


def is_clean(t: Triangulation) -> bool:
    """True iff every triangle of the skeleton is a face."""
    g = t.skeleton()
    adj = g.adj()
    face_set = set(t.faces)
    return all(tuple(sorted((i, j, k))) in face_set
               for i, j in g.edges for k in adj[i] & adj[j])


@dataclass(frozen=True)
class FaceColoring:
    """Proper two-coloring of the faces (True = red), and the index of
    each face's component in the dual graph."""

    red: Tuple[bool, ...]
    component: Tuple[int, ...]

    def red_faces(self, t: Triangulation) -> List[Face]:
        return [f for f, r in zip(t.faces, self.red) if r]

    def blue_faces(self, t: Triangulation) -> List[Face]:
        return [f for f, r in zip(t.faces, self.red) if not r]


def _dual_adjacency(t: Triangulation) -> List[Set[int]]:
    by_edge: Dict[Tuple[int, int], List[int]] = {}
    for fi, (a, b, c) in enumerate(t.faces):
        for e in ((a, b), (a, c), (b, c)):
            by_edge.setdefault(e, []).append(fi)
    adj: List[Set[int]] = [set() for _ in t.faces]
    for fs in by_edge.values():
        for x in fs:
            for y in fs:
                if x != y:
                    adj[x].add(y)
    return adj


def two_face_coloring(t: Triangulation) -> FaceColoring:
    """2-color the dual graph; deterministic (the first face of each
    dual component red), numbering the components in that order.

    Raises NotTwoFaceColorable if the dual has an odd cycle.
    """
    adj = _dual_adjacency(t)
    color: List[Optional[bool]] = [None] * t.f
    component = [0] * t.f
    count = 0
    for start in range(t.f):
        if color[start] is not None:
            continue
        color[start] = True
        component[start] = count
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if color[y] is None:
                    color[y] = not color[x]
                    component[y] = count
                    queue.append(y)
                elif color[y] == color[x]:
                    raise NotTwoFaceColorable(
                        f"faces {t.faces[x]} and {t.faces[y]} conflict")
        count += 1
    return FaceColoring(tuple(color), tuple(component))


def _face_mask(face: Face) -> int:
    return (1 << face[0]) | (1 << face[1]) | (1 << face[2])


def red_blue_vectors(t: Triangulation,
                     coloring: FaceColoring) -> Tuple[TableVector, TableVector]:
    """Indicator sums of the red and the blue faces; both have norm m/3
    and equal marginals on the complete graph."""
    zr = TableVector.from_units(
        t.vertices, [_face_mask(f) for f in coloring.red_faces(t)])
    zb = TableVector.from_units(
        t.vertices, [_face_mask(f) for f in coloring.blue_faces(t)])
    return zr, zb


def _clique_masks(t: Triangulation) -> List[int]:
    """Masks of all cliques of the skeleton with at most 3 vertices.

    Any table sharing the red vector's complete-graph marginals is
    supported on such masks: a support labeling with two set bits off
    the skeleton would charge an empty (1,1) marginal cell.
    """
    g = t.skeleton()
    adj = g.adj()
    masks = [0] + [1 << i for i in range(t.n)]
    for i, j in sorted(g.edges):
        masks.append((1 << i) | (1 << j))
        for k in sorted(adj[i] & adj[j]):
            if k > j:
                masks.append((1 << i) | (1 << j) | (1 << k))
    return sorted(set(masks))


@dataclass
class CertificateReport:
    n: int
    m: int
    f: int
    euler: int
    clean: bool
    colorable: bool
    bound: Optional[int]
    fiber_verified: bool
    fiber_size: Optional[int]
    fiber_is_pair: Optional[bool]
    skip_reason: Optional[str] = None
    dual_components: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "n": self.n, "m": self.m, "faces": self.f, "euler": self.euler,
            "clean": self.clean, "colorable": self.colorable,
            "dual_components": self.dual_components,
            "bound": self.bound, "fiber_verified": self.fiber_verified,
            "fiber_size": self.fiber_size, "fiber_is_pair": self.fiber_is_pair,
            "skip_reason": self.skip_reason,
        }


def certify_lower_bound(t: Triangulation, verify_fiber: bool = False,
                        restrict_support: bool = True,
                        limits: Optional[Limits] = None) -> CertificateReport:
    """Check cleanness and 2-face-colorability; on success the bound
    max_i m_i/3, over the components of the dual graph with m_i edges
    each (m/3 for a connected dual), applies to the complete graph over
    the triangulation's vertices.

    With `verify_fiber`, additionally enumerate the complete-graph fiber
    of the red vector and confirm it is exactly the 2^c tables that
    pick red or blue faces in each of the c dual components.  By
    default the enumeration restricts candidate supports to cliques of
    the skeleton (a provably sufficient set); `restrict_support=False`
    forces the blind search for cross-checking.
    """
    limits = limits or default_limits()
    t.validate()
    clean = is_clean(t)
    try:
        coloring = two_face_coloring(t)
        colorable = True
    except NotTwoFaceColorable:
        coloring = None
        colorable = False
    report = CertificateReport(
        n=t.n, m=t.m, f=t.f, euler=t.euler, clean=clean, colorable=colorable,
        bound=None, fiber_verified=False, fiber_size=None, fiber_is_pair=None)
    if not (clean and colorable):
        return report
    faces_per_component = Counter(coloring.component)
    report.dual_components = len(faces_per_component)
    # a component's faces hold each of its m_i edges twice, so f_i = 2m_i/3
    report.bound = max(faces_per_component.values()) // 2
    if not verify_fiber:
        return report
    zr, zb = red_blue_vectors(t, coloring)
    kn = complete_graph(t.vertices)
    candidates = _clique_masks(t) if restrict_support else None
    try:
        fib = fiber_mod.enumerate_fiber(kn, graph_marginals(zr, kn),
                                        candidates=candidates, limits=limits)
    except ResourceLimitError as exc:
        report.skip_reason = str(exc)
        return report
    report.fiber_size = fib.size
    report.fiber_is_pair = set(fib.elements) == {zr, zb}
    if fib.size == 2 ** report.dual_components:
        masks = [(_face_mask(f), r, c) for f, r, c
                 in zip(t.faces, coloring.red, coloring.component)]
        picks = {TableVector.from_units(
                     t.vertices, [m for m, r, c in masks
                                  if r != bool((flips >> c) & 1)])
                 for flips in range(fib.size)}
        report.fiber_verified = set(fib.elements) == picks
    return report
