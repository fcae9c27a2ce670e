"""Markov-width classification from graph structure.

Forests have width exactly 2; non-forests without a K4 minor have width
exactly 4; anything containing a K4 minor has width at least 6 (K4 has
width 6 and width is minor-monotone).  The ">= 6" verdict carries the
branch sets of a K4 minor as machine-checkable provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from .errors import InvariantViolation, NotTwoFaceColorable
from .graphs import Graph, is_k4_minor_free
from . import fiber as fiber_mod
from . import triangulation as tri_mod


def _has_k4(node_count: int, edges: Set[Tuple[int, int]]) -> bool:
    labels = tuple(f"v{i}" for i in range(node_count))
    return not is_k4_minor_free(Graph(labels, frozenset(edges)))


def _delete_vertex(nsets, edges, x):
    keep = [i for i in range(len(nsets)) if i != x]
    remap = {old: new for new, old in enumerate(keep)}
    ns = [nsets[i] for i in keep]
    es = {tuple(sorted((remap[a], remap[b])))
          for a, b in edges if a != x and b != x}
    return ns, es


def _contract_edge(nsets, edges, a, b):
    ns = []
    remap = {}
    for i in range(len(nsets)):
        if i == b:
            continue
        remap[i] = len(ns)
        ns.append(nsets[i] | nsets[b] if i == a else nsets[i])
    remap[b] = remap[a]
    es = set()
    for x, y in edges:
        nx, ny = remap[x], remap[y]
        if nx != ny:
            es.add(tuple(sorted((nx, ny))))
    return ns, es


def find_k4_minor(g: Graph) -> Optional[Tuple[Tuple[str, ...], ...]]:
    """Branch sets of a K4 minor: four disjoint connected vertex sets,
    pairwise joined by an edge.  None if the graph has no K4 minor.

    Found by greedily deleting vertices and contracting/deleting edges
    while the K4 minor survives; the irreducible remainder is K4 itself.
    """
    if is_k4_minor_free(g):
        return None
    nsets: List[Set[int]] = [{i} for i in range(g.n)]
    edges: Set[Tuple[int, int]] = set(g.edges)
    progress = True
    while progress:
        progress = False
        for x in range(len(nsets)):
            ns, es = _delete_vertex(nsets, edges, x)
            if _has_k4(len(ns), es):
                nsets, edges = ns, es
                progress = True
                break
        if progress:
            continue
        for a, b in sorted(edges):
            ns, es = _contract_edge(nsets, edges, a, b)
            if _has_k4(len(ns), es):
                nsets, edges = ns, es
                progress = True
                break
            ns, es = nsets, edges - {(a, b)}
            if _has_k4(len(ns), es):
                nsets, edges = list(nsets), es
                progress = True
                break
    if len(nsets) != 4 or len(edges) != 6:
        raise InvariantViolation("minor minimization did not end in K4")
    return tuple(tuple(sorted(g.vertices[i] for i in s)) for s in nsets)


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
    elif is_k4_minor_free(g):
        report = WidthReport("exact", 4, "non-forest without K4 minor")
    else:
        report = WidthReport("lower-bound", 6, "contains a K4 minor",
                             k4_minor=find_k4_minor(g))
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
    supplied triangulation must have n vertices, be clean and
    2-face-colorable; its bound is the largest m_i/3 over the
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
        raise InvariantViolation(
            "triangulation is not clean; no bound certified")
    return KnBoundReport(n, cert.bound, cert)
