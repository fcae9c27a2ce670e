"""Independent oracles shared by the test modules.

Everything here is deliberately naive: brute-force search over small
inputs, used to cross-check the package's structured algorithms.
"""

import functools
import itertools
import random
from collections import Counter
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from markov_atlas import (Fiber, Graph, Move, TableVector, WalkConfig,
                          fiber_of, graph_marginals, project, walk_states)
from markov_atlas.errors import InvariantViolation
from markov_atlas.fiber import _kernel
from markov_atlas.lattice import as_moves, edge_cells


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


def assert_k4_minor(g: Graph, sets) -> None:
    """Fail unless `sets` are the branch sets of a K4 minor of g: four
    nonempty, disjoint sets of vertex labels, each connected in g, and
    every two joined by an edge."""
    assert sets is not None and len(sets) == 4, sets
    flat = [v for s in sets for v in s]
    assert len(flat) == len(set(flat)), sets
    idx_sets = [{g.index(v) for v in s} for s in sets]
    adj = g.adj()
    for s in idx_sets:
        assert s, sets
        seen = {min(s)}
        stack = list(seen)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in s and y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert seen == s, f"branch set {sorted(s)} is not connected"
    for i in range(4):
        for j in range(i + 1, 4):
            assert any(y in idx_sets[j] for x in idx_sets[i]
                       for y in adj[x]), f"branch sets {i}, {j} not joined"


def subdivided_k4(length: int) -> Graph:
    """K4 with each edge replaced by a path of `length` edges: branch
    vertices v0..v3, then each path's inner vertices in order, for
    4 + 6 (length - 1) vertices and 6 length edges."""
    n = 4
    edges: List[Tuple[int, int]] = []
    for a, b in itertools.combinations(range(4), 2):
        path = [a, *range(n, n + length - 1), b]
        n += length - 1
        edges += zip(path, path[1:])
    return Graph([f"v{i}" for i in range(n)], edges)


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


def all_grouped_tables(n: int, edges, total: int
                       ) -> Dict[Tuple[int, ...], List[Tuple[int, ...]]]:
    """Every table with exactly `total` units, grouped by its marginal
    cells (`MarginalSet.cells`: the per-edge cells c00, c01, c10, c11),
    each fiber in lexicographic order: all C(2^n + total - 1, total)
    tables, with no orbit pruning."""
    num = 1 << n
    bump = [[4 * e + ((((mask >> i) & 1) << 1) | ((mask >> j) & 1))
             for e, (i, j) in enumerate(edges)] for mask in range(num)]
    cells = [0] * (4 * len(edges))
    units = [0] * total
    groups: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}

    def rec(depth: int, start: int):
        if depth == total:
            groups.setdefault(tuple(cells), []).append(tuple(units))
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


def unit_walk_tables(n: int, edges, budgets: Sequence[int], total: int,
                     candidates: Optional[Sequence[int]] = None,
                     cap: int = 0) -> List[Tuple[int, ...]]:
    """`_kernel.fiber_tables` by the unit walk it replaced: one unit
    per level, in ascending order, pruned only where a cell passes its
    budget, so that every table of `total` units within the budgets is
    made, and those that meet every budget are kept, in lexicographic
    order.  The candidates are placed once each; CapExceeded once more
    than `cap` tables are made (no cap at 0)."""
    masks = range(1 << n) if candidates is None else sorted(set(candidates))
    rows = [edge_cells(m, edges) for m in masks]
    cells = [0] * len(budgets)
    units = [0] * total
    tables: List[Tuple[int, ...]] = []
    made = 0

    def place(depth: int, lo: int):
        nonlocal made
        if depth == total:
            made += 1
            if cap and made > cap:
                raise _kernel.CapExceeded(total)
            if list(cells) == list(budgets):
                tables.append(tuple(units))
            return
        for i in range(lo, len(masks)):
            row = rows[i]
            for c in row:
                cells[c] += 1
            if all(cells[c] <= budgets[c] for c in row):
                units[depth] = masks[i]
                place(depth + 1, i)
            for c in row:
                cells[c] -= 1

    place(0, 0)
    return tables


@functools.lru_cache(maxsize=None)
def _every_table(n: int, total: int):
    """Every table of `total` units over n vertices in lexicographic
    order, and its count of each labeling, one row per table."""
    import numpy as np

    tables = list(itertools.combinations_with_replacement(range(1 << n),
                                                          total))
    counts = np.zeros((len(tables), 1 << n), dtype=np.int8)
    if total:
        np.add.at(counts, (np.arange(len(tables))[:, None],
                           np.array(tables)), 1)
    return tables, counts


def flip_cut_fibers(n: int, edges, total: int) -> List[List[Tuple[int, ...]]]:
    """Every table whose vertices with an edge are each 1 in at most
    total // 2 units (the flip cut), grouped blindly by its `edge_cells`
    cells, in the order of each fiber's first table."""
    import numpy as np

    tables, counts = _every_table(n, total)
    labelings = range(1 << n)
    bits = np.array([[(m >> v) & 1 for v in range(n)] for m in labelings])
    touched = sorted({v for e in edges for v in e})
    kept = np.flatnonzero((counts @ bits[:, touched] <= total // 2).all(1))
    cell = np.zeros((1 << n, 4 * len(edges)), dtype=np.int64)
    for m in labelings:
        cell[m, edge_cells(m, edges)] = 1
    groups: Dict[tuple, List[Tuple[int, ...]]] = {}
    for row, cells in zip(kept.tolist(), (counts[kept] @ cell).tolist()):
        groups.setdefault(tuple(cells), []).append(tables[row])
    return list(groups.values())


def least_flip_image(g: Graph, split) -> Tuple[tuple, tuple, int]:
    """The smallest (image, cells, mask) over the fibers `split` and
    every flip `mask` of vertices with an edge: `cells` are the
    `graph_marginals` cells of a fiber's first table and `image` those
    of the fiber flipped by `mask`, taken as `itemgetter` images of
    `cells`, over every (fiber, flip) pair."""
    edges = sorted(g.edges)
    touched = 0
    for i, j in edges:
        touched |= (1 << i) | (1 << j)
    flips = [(mask, [k ^ c for k in edge_cells(mask, edges) for c in range(4)])
             for mask in range(1 << g.n) if not mask & ~touched]
    fibers = [graph_marginals(TableVector.from_units(g.vertices, tabs[0]),
                              g).cells for tabs in split]
    return min(min(zip(map(itemgetter(*perm), fibers), fibers,
                       itertools.repeat(mask)))
               for mask, perm in flips)


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


def has_zero_marginals(u: TableVector, g: Graph) -> bool:
    """Whether u has zero total and every edge marginal zero on g, cell
    by cell from `graph_marginals`."""
    m = graph_marginals(u, g)
    return m.total == 0 and not any(m.cells)


def canonical_sign(u: TableVector) -> TableVector:
    """u or -u, whichever is positive at its smallest support mask."""
    if u.entries and u.entries[min(u.entries)] < 0:
        return -u
    return u


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
    return as_moves([seen[key] for key in sorted(seen)], f.graph)


def merge_moves(tables: Sequence[Tuple[int, ...]],
                max_norm: int) -> List[Tuple[Tuple[int, int], ...]]:
    """`_kernel.fiber_moves` by merging every pair of tables: distinct
    differences of norm in (0, max_norm] between same-size sorted
    tuples, as sorted (mask, coefficient) items with the coefficient at
    the smallest mask positive, in ascending order, equal items one
    tuple.

    Each pair's difference is the two one-sided parts of one merge of
    its tables.  The parts are equally large, so the merge stops once
    one part holds more than max_norm // 2 units."""
    half = max_norm // 2
    seen = set()
    f = len(tables)
    for i in range(f):
        a = tables[i]
        la = len(a)
        for j in range(i + 1, f):
            b = tables[j]
            lb = len(b)
            plus: List[int] = []
            minus: List[int] = []
            p = q = 0
            while p < la and q < lb:
                x, y = a[p], b[q]
                if x == y:
                    p += 1
                    q += 1
                elif x < y:
                    plus.append(x)
                    p += 1
                else:
                    minus.append(y)
                    q += 1
                    if len(minus) > half:
                        break
            else:
                minus.extend(b[q:])
                if 0 < len(minus) <= half:
                    plus.extend(a[p:])
                    if minus[0] < plus[0]:
                        plus, minus = minus, plus
                    seen.add((tuple(plus), tuple(minus)))
    shared: Dict[Tuple[int, int], Tuple[int, int]] = {}
    moves = []
    while seen:
        plus, minus = seen.pop()
        coeffs: Dict[int, int] = {}
        for m in plus:
            coeffs[m] = coeffs.get(m, 0) + 1
        for m in minus:
            coeffs[m] = coeffs.get(m, 0) - 1
        moves.append(tuple([shared.setdefault(item, item)
                            for item in sorted(coeffs.items())]))
    moves.sort()
    return moves


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


def full_verify(seq, max_norm: int = 8) -> dict:
    """`verify_sequence` by rechecking every state whole: each state's
    non-negativity and all its edge marginals against state 0's, then
    every step's norm and, with poles, its effect on the pole
    marginal from both states' projections."""
    if not seq.states:
        raise InvariantViolation("empty state chain")
    g = seq.graph
    ref = graph_marginals(seq.states[0], g)
    max_step = 0
    pole_changes = 0
    for k, state in enumerate(seq.states):
        if not state.is_nonnegative():
            raise InvariantViolation(f"state {k} is negative")
        if graph_marginals(state, g) != ref:
            raise InvariantViolation(f"state {k} changed the marginals")
    for k in range(1, len(seq.states)):
        norm = (seq.states[k] - seq.states[k - 1]).l1()
        if norm == 0:
            raise InvariantViolation(f"step {k} is a no-op")
        if norm > max_norm:
            raise InvariantViolation(f"step {k} has norm {norm} > {max_norm}")
        max_step = max(max_step, norm)
        if seq.poles is not None:
            uv = seq.poles
            if project(seq.states[k - 1], uv) != project(seq.states[k], uv):
                pole_changes += 1
                if norm != 4:
                    raise InvariantViolation(
                        f"step {k} changes the pole marginal with norm {norm}")
    return {"length": seq.length, "max_step_norm": max_step,
            "pole_changing_steps": pole_changes}


def oracle_walk(moves: Sequence, z0: TableVector, seed: int,
                steps: int) -> Iterator[TableVector]:
    """The state after each of `steps` walk steps (burn-in included)
    from the walk as it first stood: `random.Random(seed).randrange`
    draws the move and then the sign, and `all()` over the whole
    signed move decides acceptance.  `moves` are Moves or
    TableVectors; nothing is checked."""
    deltas = [tuple((mv.vector if isinstance(mv, Move) else mv)
                    .entries.items()) for mv in moves]
    rng = random.Random(seed)
    counts = dict(z0.entries)
    get = counts.get
    state = z0
    for _ in range(steps):
        delta = deltas[rng.randrange(len(deltas))]
        sign = -1 if rng.randrange(2) else 1
        if all(get(m, 0) + sign * c >= 0 for m, c in delta):
            for m, c in delta:
                left = get(m, 0) + sign * c
                if left:
                    counts[m] = left
                else:
                    del counts[m]
            state = TableVector(z0.vertices, counts)
        yield state


def visit_counts(g: Graph, moves: Sequence, z0: TableVector,
                 cfg: WalkConfig) -> Dict[tuple, int]:
    """How often the walk is at each state after burn-in, keyed by
    `TableVector.key()`."""
    counts: Dict[tuple, int] = {}
    states = walk_states(g, moves, z0, cfg)
    for state in itertools.islice(states, cfg.burn_in, None):
        counts[state.key()] = counts.get(state.key(), 0) + 1
    return counts


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


def tree_graph(tree: dict, vertex_order: Sequence[str]) -> Graph:
    """The graph of a decomposition tree as `sp_decompose` returns it:
    the edges of its leaves, read from an explicit stack so that no
    depth is bounded by the recursion limit, over the labels of
    `vertex_order` that the tree uses."""
    edges = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node["kind"] == "leaf":
            edges.add(frozenset(node["poles"]))
        stack.extend(node.get("children", ()))
    labels = set().union(*edges)
    index = {v: i for i, v in enumerate(v for v in vertex_order
                                        if v in labels)}
    assert len(index) == len(labels), "vertex_order does not cover the tree"
    return Graph(list(index), [tuple(index[v] for v in e) for e in edges])


def ladder_graph(k: int) -> Graph:
    """The 2 x k ladder: rails v0..v(k-1) and vk..v(2k-1), and rungs."""
    return Graph([f"v{i}" for i in range(2 * k)],
                 [(i, i + 1) for i in range(k - 1)]
                 + [(k + i, k + i + 1) for i in range(k - 1)]
                 + [(i, k + i) for i in range(k)])


def triangle_cactus(count: int) -> Graph:
    """`count` triangles on 2 * count + 1 vertices: triangle i is
    v(i), v(2i+1), v(2i+2), so each shares one vertex with an earlier
    one."""
    return Graph([f"v{i}" for i in range(2 * count + 1)],
                 [e for i in range(count) for e in
                  ((i, 2 * i + 1), (i, 2 * i + 2), (2 * i + 1, 2 * i + 2))])


def glued_octahedra() -> str:
    """Face text of two octahedra, equator 0 1 2 3 and apexes 4 and 5,
    glued along the face 0 1 4, which is dropped from both: n = 9,
    m = 21, 2-face-colorable (every vertex has even degree), and not
    clean, since 0 1 4 is a triangle of the skeleton but not a face."""
    second = {"0": "0", "1": "1", "4": "4"}
    faces = ["0 1 5", "1 2 4", "1 2 5", "2 3 4", "2 3 5", "0 3 4", "0 3 5"]
    return "".join(f + "\n" for f in faces) + "".join(
        " ".join(second.get(v, "q" + v) for v in f.split()) + "\n"
        for f in faces)


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


@functools.lru_cache(maxsize=None)
def nonisomorphic_graphs(n: int) -> Tuple[Graph, ...]:
    """One representative per isomorphism class of n-vertex graphs.

    Canonical forms for every graph at once: the minimum edge-bitmask
    over all vertex permutations, vectorized with numpy.  Kept per n
    (a tuple of immutable graphs), since n = 6 takes about 2 s and
    several test modules sweep it.
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
    return tuple(out)


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
