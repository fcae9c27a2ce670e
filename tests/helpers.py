"""Independent oracles shared by the test modules.

Everything here is deliberately naive: brute-force search over small
inputs, used to cross-check the package's structured algorithms.
"""

import itertools
from collections import Counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from markov_atlas import (Fiber, Graph, Move, TableVector, canonical_sign,
                          fiber_of, graph_marginals, project)
from markov_atlas.fiber import _kernel


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


def all_grouped_tables(n: int, edges,
                       total: int) -> Dict[bytes, List[Tuple[int, ...]]]:
    """Every table with exactly `total` units, grouped by the kernel's
    marginal key (bytes of the per-edge cells c00, c01, c10, c11), each
    fiber in lexicographic order: all C(2^n + total - 1, total) tables,
    with no orbit pruning."""
    num = 1 << n
    bump = [[4 * e + ((((mask >> i) & 1) << 1) | ((mask >> j) & 1))
             for e, (i, j) in enumerate(edges)] for mask in range(num)]
    cells = [0] * (4 * len(edges))
    units = [0] * total
    groups: Dict[bytes, List[Tuple[int, ...]]] = {}

    def rec(depth: int, start: int):
        if depth == total:
            groups.setdefault(bytes(cells), []).append(tuple(units))
            return
        for mask in range(start, num):
            row = bump[mask]
            for idx in row:
                cells[idx] += 1
            units[depth] = mask
            rec(depth + 1, mask)
            for idx in row:
                cells[idx] -= 1

    rec(0, 0)
    return groups


def _norm(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    """L1 distance between two same-size sorted tuples of units."""
    i = j = inter = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            inter += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return len(a) + len(b) - 2 * inter


def pairwise_moves(f: Fiber, k: int) -> List[Move]:
    """Degree-<=k moves of a fiber by subtracting every pair of its
    elements as vectors, sign-canonicalized, sorted by key."""
    seen = {}
    for i in range(f.size):
        for j in range(i + 1, f.size):
            u = f.elements[i] - f.elements[j]
            if 0 < u.l1() <= 2 * k:
                u = canonical_sign(u)
                seen[u.key()] = u
    return [Move(seen[key]) for key in sorted(seen)]


def mst_bottleneck(tables: List[Tuple[int, ...]]) -> int:
    """Largest edge norm on a minimum spanning tree of the tables under
    L1 distance (0 for one table), by Prim's algorithm over all pairs."""
    f = len(tables)
    dist = [0] + [None] * (f - 1)
    used = [False] * f
    best = 0
    for _ in range(f):
        u = min((i for i in range(f) if not used[i] and dist[i] is not None),
                key=dist.__getitem__)
        used[u] = True
        best = max(best, dist[u])
        for i in range(f):
            if not used[i]:
                d = _norm(tables[u], tables[i])
                if dist[i] is None or d < dist[i]:
                    dist[i] = d
    return best


def naive_search(g: Graph, max_total: int, ks=()):
    """Degrees and witnesses of a search over every fiber.

    `degrees[t - 1]` is the running maximum, from 1, of half the
    bottleneck norm of every fiber of total <= t.  For each k in `ks`
    the witness is None or `(tables, a, b)`: the tables of the split
    fiber (bottleneck above 2k) with the smallest key at the lowest
    split total, and the first table of its first two components."""
    edges = sorted(g.edges)
    degrees: List[int] = []
    best = 1
    witnesses = {k: None for k in ks}
    for total in range(1, max_total + 1):
        groups = all_grouped_tables(g.n, edges, total)
        norms = {key: mst_bottleneck(t) for key, t in groups.items()}
        best = max([best] + [b // 2 for b in norms.values()])
        degrees.append(best)
        for k in ks:
            split = [key for key in sorted(groups) if norms[key] > 2 * k]
            if witnesses[k] is None and split:
                tables = groups[split[0]]
                labels = _kernel.component_labels(tables, 2 * k)
                roots = sorted(set(labels))
                witnesses[k] = (tables, tables[labels.index(roots[0])],
                                tables[labels.index(roots[1])])
    return degrees, [witnesses[k] for k in ks]


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


def ladder_graph(k: int) -> Graph:
    """The 2 x k ladder: rails v0..v(k-1) and vk..v(2k-1), and rungs."""
    return Graph([f"v{i}" for i in range(2 * k)],
                 [(i, i + 1) for i in range(k - 1)]
                 + [(k + i, k + i + 1) for i in range(k - 1)]
                 + [(i, k + i) for i in range(k)])


def random_sp_block(n: int, rng) -> Graph:
    """A 2-connected series-parallel graph on n >= 3 vertices, grown
    from a triangle: each new vertex subdivides a random edge or joins
    its ends by a new path of length two."""
    edges = [(0, 1), (1, 2), (0, 2)]
    for v in range(3, n):
        k = rng.randrange(len(edges))
        a, b = edges.pop(k) if rng.random() < 0.5 else edges[k]
        edges += [(a, v), (b, v)]
    return Graph([f"v{i}" for i in range(n)], edges)


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


def _spread(m: int, ground: Sequence[str], sub: Sequence[str]) -> int:
    """The labeling m of `sub` placed at the positions of `sub` in
    `ground`."""
    at = {v: i for i, v in enumerate(ground)}
    return sum(1 << at[v] for j, v in enumerate(sub) if (m >> j) & 1)


def cutsame_oracle(z: TableVector, zbar: TableVector, x2: Sequence[str],
                   prefer: Optional[TableVector] = None) -> TableVector:
    """`glue_cutsame` as a matching loop of its own, per overlap class:
    units keep their X1 part while zbar has it, units of `prefer` first
    and then in ascending order; a released unit takes first a new part
    that turns it into a unit `prefer` still lacks, otherwise the
    smallest part left.  Inputs are assumed valid."""
    X = z.vertices
    X1 = zbar.vertices
    x2set = set(x2)
    Y = tuple(v for v in X1 if v in x2set)
    want = Counter(prefer.units() if prefer is not None else ())

    x1_bits = _spread((1 << len(X1)) - 1, X, X1)
    y_bits = _spread((1 << len(Y)) - 1, X, Y)
    bar_by_y: Dict[int, List[int]] = {}
    for m in zbar.units():
        part = _spread(m, X, X1)
        bar_by_y.setdefault(part & y_bits, []).append(part)
    z_by_y: Dict[int, List[int]] = {}
    for m in z.units():
        z_by_y.setdefault(m & y_bits, []).append(m)

    out_units: List[int] = []
    for ykey, full_units in sorted(z_by_y.items()):
        avail = Counter(bar_by_y.get(ykey, []))
        deferred: List[int] = []
        for full in sorted(full_units, key=lambda m: want[m] <= 0):
            part = full & x1_bits
            if avail[part] > 0:
                avail[part] -= 1
                want[full] -= 1
                out_units.append(full)
            else:
                deferred.append(full & ~x1_bits)
        leftovers = sorted(avail.elements())
        for rest in sorted(deferred, key=lambda r: all(
                want[r | p] <= 0 for p in leftovers)):
            new = next((p for p in leftovers if want[rest | p] > 0),
                       leftovers[0])
            want[rest | new] -= 1
            leftovers.remove(new)
            out_units.append(rest | new)
    return TableVector.from_units(X, out_units)


def cutsame_cases(rng, count: int):
    """`count` random valid glue_cutsame inputs (z, zbar, x2, prefer):
    2-6 vertices, X1 and X2 random covering sets that overlap in any
    number of vertices, X1 listed in a random order, and `prefer` absent,
    a random table or a table that the glue can reach."""
    for k in range(count):
        n = rng.randint(2, 6)
        verts = tuple(chr(97 + i) for i in range(n))
        side = [rng.randrange(3) for _ in verts]  # 0: X1 only, 1: X2 only
        x1 = [v for v, s in zip(verts, side) if s != 1]
        x2 = tuple(v for v, s in zip(verts, side) if s != 0)
        rng.shuffle(x1)
        x1 = tuple(x1)
        y = [v for v in x1 if v in x2]
        total = rng.randint(1, 5)
        z = TableVector.from_units(
            verts, [rng.randrange(1 << n) for _ in range(total)])
        # zbar: each unit's X1 part redrawn off the overlap, so that
        # zbar agrees with z on Y
        ypos = [x1.index(v) for v in y]
        zbar_units = []
        for m in project(z, x1).units():
            fresh = rng.randrange(1 << len(x1))
            for p in ypos:
                fresh = (fresh & ~(1 << p)) | (m & (1 << p))
            zbar_units.append(fresh)
        zbar = TableVector.from_units(x1, zbar_units)
        kind = k % 3
        if kind == 0:
            prefer = None
        elif kind == 1:
            prefer = TableVector.from_units(
                verts, [rng.randrange(1 << n) for _ in range(total)])
        else:
            # a random pairing of zbar's parts with z's X2 parts per
            # overlap class: a table the glue can reach
            prefer = _random_join(rng, z, zbar, x2)
        yield z, zbar, x2, prefer


def _random_join(rng, z: TableVector, zbar: TableVector,
                 x2: Sequence[str]) -> TableVector:
    """A table over z's vertices with X1 projection zbar and X2
    projection that of z: zbar's units and z's X2 parts, paired at
    random within each class of equal overlap bits."""
    X = z.vertices
    X1 = zbar.vertices
    y = [v for v in X1 if v in set(x2)]
    ybits = _spread((1 << len(y)) - 1, X, y)
    sides: Dict[int, Tuple[List[int], List[int]]] = {}
    for m in zbar.units():
        a = _spread(m, X, X1)
        sides.setdefault(a & ybits, ([], []))[0].append(a)
    for m in project(z, x2).units():
        b = _spread(m, X, x2)
        sides.setdefault(b & ybits, ([], []))[1].append(b)
    units = []
    for ones, twos in sides.values():
        rng.shuffle(twos)
        units += [a | b for a, b in zip(ones, twos)]
    return TableVector.from_units(X, units)
