#!/usr/bin/env python3
"""Regenerate expected_widths.json, the committed answers of the
`evidence` workload.

For every connected graph on 4 vertices (totals 1..6) and on 5 vertices
(totals 1..4), one representative per isomorphism class, it records the
minimal connecting degree per table total, as `search-width` reports it.
Before writing, the answers are cross-checked against the structural
width classification: forests give 2 at every total >= 2, and no search
degree exceeds an exact width.

Usage, from the repository root:  python3 perfbench/make_expected.py
"""

import itertools
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.pop("MARKOV_ATLAS_LIMITS", None)
os.environ.pop("MARKOV_ATLAS_PURE", None)

from markov_atlas import Graph  # noqa: E402
from markov_atlas.fiber import min_connecting_degree  # noqa: E402
from markov_atlas.width import classify_width  # noqa: E402

from workloads import EXPECTED_FILE  # noqa: E402

MAX_TOTAL = {4: 6, 5: 4}


def connected_graphs(n):
    """One edge list per isomorphism class of connected n-vertex graphs,
    the class's smallest edge bitmask picking the representative."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for code in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if (code >> k) & 1]
        canon = min(sum(1 << index[tuple(sorted((p[a], p[b])))]
                        for a, b in edges) for p in perms)
        if canon in seen:
            continue
        seen.add(canon)
        g = Graph([f"x{i}" for i in range(n)], edges)
        if g.is_connected():
            out.append(edges)
    return out


def cross_check(g, widths):
    report = classify_width(g)
    if report.kind == "exact" and max(widths) > report.value:
        raise SystemExit(f"{g}: search degree {max(widths)} exceeds the "
                         f"exact width {report.value}")
    if g.is_forest() and any(d != 2 for d in widths[1:]):
        raise SystemExit(f"{g}: forest with degrees {widths}")


def main():
    graphs = []
    for n, max_total in MAX_TOTAL.items():
        for edges in connected_graphs(n):
            g = Graph([f"x{i}" for i in range(n)], edges)
            widths = [min_connecting_degree(g, t)
                      for t in range(1, max_total + 1)]
            cross_check(g, widths)
            graphs.append({"n": n, "edges": [list(e) for e in edges],
                           "min_degree": widths})
    with open(EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump({"graphs": graphs}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(graphs)} graphs to {EXPECTED_FILE}")


if __name__ == "__main__":
    main()
