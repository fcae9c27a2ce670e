"""Independent oracles shared by the test modules.

Everything here is deliberately naive: brute-force search over small
inputs, used to cross-check the package's structured algorithms.
"""

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from markov_atlas import Graph, TableVector, fiber_of, graph_marginals


def brute_has_k4_minor(g: Graph) -> bool:
    """K4 minor by exhaustive branch-set search (n <= 7 practical)."""
    n = g.n
    adj = g.adj()

    def connected(vs):
        vs = set(vs)
        start = next(iter(vs))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in vs and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen == vs

    def joined(a, b):
        return any(y in b for x in a for y in adj[x])

    verts = list(range(n))
    # assign each vertex to one of: branch set 0..3 or unused
    for assignment in itertools.product(range(5), repeat=n):
        sets = [[v for v in verts if assignment[v] == s] for s in range(4)]
        if any(not s for s in sets):
            continue
        if not all(connected(s) for s in sets):
            continue
        if all(joined(sets[i], sets[j])
               for i in range(4) for j in range(i + 1, 4)):
            return True
    return False


def rejection_fiber(g: Graph, z: TableVector) -> List[TableVector]:
    """Fiber of z by filtering every table of the same total (n, N small)."""
    ref = graph_marginals(z, g)
    total = z.total()
    out = []
    for units in itertools.combinations_with_replacement(
            range(1 << g.n), total):
        cand = TableVector.from_units(g.vertices, units)
        if graph_marginals(cand, g) == ref:
            out.append(cand)
    return out


def bfs_connected(g: Graph, z: TableVector, zp: TableVector,
                  max_norm: int = 8) -> Optional[int]:
    """Fewest steps of L1 norm <= max_norm from z to zp inside the fiber
    of z, or None when zp is unreachable.

    Breadth-first search over the whole enumerated fiber, O(F^2).
    """
    elements = fiber_of(g, z).elements
    dist = {z: 0}
    frontier = [z]
    while frontier and zp not in dist:
        nxt = []
        for a in frontier:
            for b in elements:
                if b not in dist and (a - b).l1() <= max_norm:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    return dist.get(zp)


def swap_partner(g: Graph, z: TableVector, rng, tries: int) -> TableVector:
    """A table with z's marginals, without enumerating its fiber.

    Each try picks two units and a vertex v; when the units agree at
    every neighbour of v, exchanging their bits at v keeps every edge
    marginal.
    """
    units = z.units()
    adj = g.adj()
    for _ in range(tries):
        i, j = rng.sample(range(len(units)), 2)
        v = rng.randrange(g.n)
        x, y = units[i], units[j]
        if not any(((x ^ y) >> w) & 1 for w in adj[v]):
            bit = 1 << v
            units[i] = (x & ~bit) | (y & bit)
            units[j] = (y & ~bit) | (x & bit)
    return TableVector.from_units(z.vertices, units)


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices."""
    labels = [chr(97 + i) for i in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(labels, [pairs[k] for k in range(len(pairs))
                             if (bits >> k) & 1])


def canonical_edge_code(g: Graph) -> int:
    """Smallest edge bitmask over all vertex permutations: a canonical
    form for isomorphism-deduplicating small graphs."""
    pairs = list(itertools.combinations(range(g.n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    best = None
    for perm in itertools.permutations(range(g.n)):
        code = 0
        for i, j in g.edges:
            a, b = perm[i], perm[j]
            code |= 1 << index[(a, b) if a < b else (b, a)]
        if best is None or code < best:
            best = code
    return best


def nonisomorphic_graphs(n: int) -> List[Graph]:
    """One representative per isomorphism class of n-vertex graphs.

    Canonical forms for every graph at once: the minimum edge-bitmask
    over all vertex permutations, vectorized with numpy.
    """
    import numpy as np

    pairs = list(itertools.combinations(range(n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    p = len(pairs)
    num = 1 << p
    codes = np.arange(num, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(p)) & 1  # num x p
    weights = (1 << np.arange(p)).astype(np.int64)
    best = codes.copy()
    for perm in itertools.permutations(range(n)):
        col = [index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
        # code of the preimage graph under perm; over all perms this
        # sweeps the whole isomorphism orbit
        permuted = bits[:, col] @ weights
        np.minimum(best, permuted, out=best)
    labels = [chr(97 + i) for i in range(n)]
    out = []
    seen = set()
    for code in range(num):
        c = int(best[code])
        if c not in seen:
            seen.add(c)
            out.append(Graph(labels, [pairs[k] for k in range(p)
                                      if (code >> k) & 1]))
    return out


def all_trees(n: int) -> List[Graph]:
    """One representative per isomorphism class of n-vertex trees."""
    return [g for g in nonisomorphic_graphs(n)
            if g.is_forest() and g.is_connected()]
