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
from functools import cached_property
from itertools import permutations
from typing import Dict, List, Optional, Set, Tuple

from .errors import (InvalidTriangulation, NotTwoFaceColorable, ParseError,
                     ResourceLimitError, _fields)
from .graphs import Graph, complete_graph
from .lattice import TableVector
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

    @cached_property
    def _edge_faces(self) -> Dict[Tuple[int, int], List[int]]:
        """The face–edge incidence: each edge of a face, in the order
        the faces first give it, with the indices of its faces."""
        by_edge: Dict[Tuple[int, int], List[int]] = {}
        for fi, (a, b, c) in enumerate(self.faces):
            for e in ((a, b), (a, c), (b, c)):
                by_edge.setdefault(e, []).append(fi)
        return by_edge

    @property
    def m(self) -> int:
        return len(self._edge_faces)

    @property
    def f(self) -> int:
        return len(self.faces)

    @property
    def euler(self) -> int:
        return self.n - self.m + self.f

    def skeleton(self) -> Graph:
        return Graph(self.vertices, self._edge_faces)

    def validate(self):
        if not self.faces:
            raise InvalidTriangulation("triangulation has no faces")
        seen: Set[Face] = set()
        for face in self.faces:
            if len(set(face)) != 3:
                raise InvalidTriangulation(f"degenerate face {face}")
            if face in seen:
                raise InvalidTriangulation(f"repeated face {face}")
            seen.add(face)
        for e, fs in self._edge_faces.items():
            if len(fs) != 2:
                raise InvalidTriangulation(
                    f"edge {e} lies in {len(fs)} faces, expected 2 "
                    "(open surface)")


def load_triangulation(text: str) -> Triangulation:
    """Parse face-list text: three labels per line, `#` comments."""
    labels: List[str] = []
    index: Dict[str, int] = {}
    faces: List[Face] = []
    for lineno, parts in _fields(text):
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


def _dual_adjacency(t: Triangulation) -> List[Set[int]]:
    adj: List[Set[int]] = [set() for _ in t.faces]
    for fs in t._edge_faces.values():
        for x, y in permutations(fs, 2):
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
    masks = list(zip(map(_face_mask, t.faces), coloring.red))
    return (TableVector.from_units(t.vertices, [m for m, r in masks if r]),
            TableVector.from_units(t.vertices, [m for m, r in masks if not r]))


def _face_masks(t: Triangulation) -> List[int]:
    """The empty labeling and the face masks of a clean,
    2-face-colorable triangulation: every unit of every table with the
    red vector's complete-graph marginals is one of them.

    Such a table has the red vector's (1,1) cells: 0 at a non-edge of
    the skeleton, so no unit holds a non-edge, and 1 at an edge, so
    each edge lies in exactly one unit.  Vertex v lies in deg(v)/2
    units, as many as the red faces at v.  The skeleton has no K4: its
    four triangles would all be faces, and their dual component, a K4,
    has no 2-coloring.  So a unit holding v is a clique of at most
    three vertices and covers at most two of v's deg(v) edges.  Its
    deg(v)/2 units cover each of those edges once, so each covers
    exactly two: every unit holding a vertex is a triangle of the
    skeleton, that is a face.
    """
    return [0, *sorted(map(_face_mask, t.faces))]


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


def certify_lower_bound(t: Triangulation,
                        verify_fiber: bool = False) -> CertificateReport:
    """Check cleanness and 2-face-colorability; on success the bound
    max_i m_i/3, over the components of the dual graph with m_i edges
    each (m/3 for a connected dual), applies to the complete graph over
    the triangulation's vertices.

    With `verify_fiber`, additionally enumerate the complete-graph fiber
    of the red vector and confirm it is exactly the 2^c tables that
    pick red or blue faces in each of the c dual components.  The
    enumeration places only the empty unit and the faces
    (`_face_masks`), which is sound once the triangulation is clean
    and 2-face-colorable, as checked first.
    """
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
    try:
        fib = fiber_mod.fiber_of(kn, zr, candidates=_face_masks(t))
    except ResourceLimitError as exc:
        report.skip_reason = str(exc)
        return report
    report.fiber_size = fib.size
    tables = set(fib.tables)
    report.fiber_is_pair = tables == {tuple(zr.units()), tuple(zb.units())}
    if fib.size == 2 ** report.dual_components:
        masks = [(_face_mask(f), r, c) for f, r, c
                 in zip(t.faces, coloring.red, coloring.component)]
        picks = {tuple(sorted(m for m, r, c in masks
                              if r != bool((flips >> c) & 1)))
                 for flips in range(fib.size)}
        report.fiber_verified = tables == picks
    return report
