"""Markov-width classification from graph structure.

Forests have width exactly 2; non-forests without a K4 minor have width
exactly 4; anything containing a K4 minor has width at least 6 (K4 has
width 6 and width is minor-monotone).  The ">= 6" verdict carries the
branch sets of a K4 minor as machine-checkable provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Tuple

from .errors import InvariantViolation, NotTwoFaceColorable
from .graphs import Graph, _block_decomposition, _reduce, is_k4_minor_free
from . import fiber as fiber_mod
from . import triangulation as tri_mod


def find_k4_minor(g: Graph) -> Optional[Tuple[Tuple[str, ...], ...]]:
    """Branch sets of a K4 minor: four disjoint connected vertex sets,
    pairwise joined by an edge.  None if the graph has no K4 minor.

    K4 has maximum degree 3, so a graph has a K4 minor exactly when it
    contains a subdivision of K4.  The search runs in the first block
    whose series-parallel reduction stalls (a block without a K4 minor
    reduces to one edge).  One pass over that block's vertices, then
    one over its edges, drops each whose removal keeps a K4 minor (at
    most one K4 test per vertex and edge of the block).  Having one is
    closed under deletion, so what is left is edge-minimal: four branch
    vertices of degree 3 joined by six paths.  Each branch set is a
    branch vertex plus the inner vertices of its paths to branch
    vertices of larger index.
    """
    block = next((es for es in _block_decomposition(g)
                  if _reduce(es)[1] != 1), None)
    if block is None:
        return None

    def keeps_k4(es) -> bool:
        return not is_k4_minor_free(Graph(g.vertices, es))

    edges = set(block)
    for x in sorted({v for e in edges for v in e}):
        rest = {e for e in edges if x not in e}
        if keeps_k4(rest):
            edges = rest
    for e in sorted(edges):
        if keeps_k4(edges - {e}):
            edges.remove(e)
    adj = Graph(g.vertices, edges).adj()
    branch = [v for v in range(g.n) if len(adj[v]) == 3]
    sets = {b: [b] for b in branch}
    ends = []
    for b in branch:
        for w in adj[b]:
            prev, inner = b, []
            while w not in sets and len(adj[w]) == 2:
                inner.append(w)
                prev, w = w, (adj[w] - {prev}).pop()
            ends.append((b, w))
            if b < w:
                sets[b] += inner
    if len(branch) != 4 or sorted(ends) != list(permutations(branch, 2)):
        raise InvariantViolation("deletion did not end in a subdivided K4")
    return tuple(tuple(sorted(g.vertices[v] for v in sets[b]))
                 for b in branch)


@dataclass
class WidthReport:
    kind: str                    # "exact" or "lower-bound"
    value: int
    reason: str
    k4_minor: Optional[Tuple[Tuple[str, ...], ...]] = None
    search_degree: Optional[int] = None
    search_max_total: Optional[int] = None

    def to_json(self) -> dict:
        out = {"class": self.kind, "basis_degree": self.value,
               "provenance": self.reason}
        if self.k4_minor is not None:
            out["k4_minor"] = [list(s) for s in self.k4_minor]
        if self.search_degree is not None:
            out["search_degree"] = self.search_degree
            out["search_max_total"] = self.search_max_total
        return out


def classify_width(g: Graph,
                   evidence_max_total: Optional[int] = None) -> WidthReport:
    """Structural width classification, optionally refined by fiber
    search evidence up to a table total."""
    if g.is_forest():
        report = WidthReport("exact", 2, "forest")
    elif (minor := find_k4_minor(g)) is None:
        report = WidthReport("exact", 4, "non-forest without K4 minor")
    else:
        report = WidthReport("lower-bound", 6, "contains a K4 minor",
                             k4_minor=minor)
    if evidence_max_total is not None:
        report.search_degree = fiber_mod.min_connecting_degree(
            g, evidence_max_total)
        report.search_max_total = evidence_max_total
    return report


@dataclass
class KnBoundReport:
    n: int
    bound: int
    certificate: tri_mod.CertificateReport

    def to_json(self) -> dict:
        return {"n": self.n, "bound": self.bound,
                "certificate": self.certificate.to_json()}


def kn_lower_bound_report(n: int,
                          triangulation: Optional[tri_mod.Triangulation] = None,
                          verify_fiber: bool = False) -> KnBoundReport:
    """Certified lower bound on the Markov width of the complete graph
    on n vertices.

    With no triangulation supplied, the double wheel over a cycle of
    length n-2 is used (n must be even and at least 6 for the wheel to
    be 2-face-colorable; n=6 gives the octahedron and bound 4).  A
    supplied triangulation must have n vertices and be clean
    (ValueError otherwise) and 2-face-colorable (NotTwoFaceColorable
    otherwise); its bound is the largest m_i/3 over the
    components of its dual graph, m/3 when the dual is connected.
    """
    if triangulation is None:
        if n < 6 or n % 2:
            raise ValueError(
                "default double-wheel certificate needs even n >= 6")
        triangulation = tri_mod.double_wheel(n - 2)
    if triangulation.n != n:
        raise ValueError(
            f"triangulation has {triangulation.n} vertices, expected {n}")
    cert = tri_mod.certify_lower_bound(triangulation,
                                       verify_fiber=verify_fiber)
    if not cert.colorable:
        raise NotTwoFaceColorable(
            "triangulation is not 2-face-colorable; no bound certified")
    if not cert.clean:
        raise ValueError("triangulation is not clean; no bound certified")
    return KnBoundReport(n, cert.bound, cert)
