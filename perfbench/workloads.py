"""Seeded inputs, op lists and output checks for the benchmark workloads.

Each workload is a list of ops.  An op is one `markov-atlas ... --json`
command line over input files written here; the program sees only those
files, never the seed.

The instances themselves (tree shapes, vertex orders, tables, table
pairs, the bit layout of each table) are drawn once from a fixed
instance seed; the run's seed draws the vertex labels, and the
sampler's seed of each `sample` op.  The library works on vertex
positions, never on label strings, so runs on different seeds pose the
same problems under other names and measure the same amount of work.
Anything more made single ops vary by far more than any change the
benchmark must detect: instances drawn per seed moved one op's cost
100-fold (a cycle table's fiber size varies that much), and even a
per-seed flip of each vertex's bit, which maps fibers one-to-one onto
fibers, moved cycle ops up to eightfold, because it reorders the
connector's fiber search.

A check receives the parsed JSON output of its op and raises
`CheckFailed` when the output is wrong.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from markov_atlas.connector import MoveSequence, verify_sequence
from markov_atlas.graphs import Graph, parse_graph
from markov_atlas.lattice import (TableVector, format_vector,
                                  graph_marginals, vector_from_json)

Edge = Tuple[int, int]
HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_FILE = os.path.join(HERE, "expected_widths.json")

# walk length of every `sample` op
SAMPLE_STEPS = 3000
SAMPLE_BURN_IN = 500


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    argv: List[str]                  # CLI arguments, without --json
    check: Callable[[dict], None]


@dataclass
class Workload:
    ops: List[Op]
    # Ops that fail on the table-total cap at this commit.  They run once
    # per run, outside the timed passes, because the timed ops must all
    # succeed; a fix shows as these ops passing their checks.
    cap_probe: List[Op]


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------
# files

class _Writer:
    """Names numbered input files in one directory and, when `save` is
    set, writes them."""

    def __init__(self, directory: str, save: bool):
        self.directory = directory
        self.save = save
        self.count = 0

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"{self.count:04d}-{stem}.txt")
        if self.save:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return path


def _labels(rng: random.Random, n: int) -> List[str]:
    """n distinct random vertex labels."""
    return [f"v{k}" for k in rng.sample(range(10 * n + 10), n)]


def _bfs_order(n: int, edges: Sequence[Edge], rng: random.Random) -> List[int]:
    """Vertices component by component, each in BFS order from a random
    root, neighbours visited in random order."""
    adj: Dict[int, List[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    order: List[int] = []
    seen = set()
    for root in rng.sample(range(n), n):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for x in queue:
            order.append(x)
            nbrs = sorted(adj[x])
            rng.shuffle(nbrs)
            for y in nbrs:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return order


def _write_instance(w: _Writer, stem: str, n: int, edges: Sequence[Edge],
                    inst: random.Random, rng: random.Random,
                    tables: Sequence[Sequence[int]] = ()
                    ) -> Tuple[str, Graph, List[TableVector]]:
    """Write a graph on vertices 0..n-1, presented with random labels.

    The vertex order is a BFS order drawn from `inst`, and so is a flip
    of each vertex's bit in `tables` (unit lists over vertices 0..n-1):
    both are part of the instance, because the connector's choices
    depend on them.  Only the labels come from `rng`.  Returns the
    graph file, the parsed graph, and the tables over the parsed
    graph's vertex order.
    """
    order = _bfs_order(n, edges, inst)
    pos = {v: k for k, v in enumerate(order)}
    labels = _labels(rng, n)
    # Earlier vertex first, sorted by the later vertex: each vertex then
    # first appears right after all vertices before it, so the parsed
    # order is `labels`.  A plain sorted edge list would reorder a
    # cycle's vertices, and the vector headers would name another order
    # than the parsed graph.
    pairs = sorted((tuple(sorted((pos[a], pos[b]))) for a, b in edges),
                   key=lambda p: (p[1], p[0]))
    text = "".join(f"{labels[i]} {labels[j]}\n" for i, j in pairs)
    g = parse_graph(text)
    if g.vertices != tuple(labels) or g.m != len(pairs):
        raise RuntimeError(f"{stem}: graph file does not round-trip")
    flip = inst.getrandbits(n)

    def present(u: int) -> int:
        u ^= flip
        return sum(1 << pos[v] for v in range(n) if (u >> v) & 1)

    out = [TableVector.from_units(g.vertices, [present(u) for u in units])
           for units in tables]
    return w.write(stem, text), g, out


# ---------------------------------------------------------------------
# graph families (vertices 0..n-1, edges as index pairs)

def path_edges(n: int) -> List[Edge]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> List[Edge]:
    return [(i, (i + 1) % n) for i in range(n)]


def tree_edges(n: int, rng: random.Random, offset: int = 0) -> List[Edge]:
    """Random recursive tree: vertex i hangs off a uniform earlier one."""
    return [(offset + i, offset + rng.randrange(i)) for i in range(1, n)]


def forest_edges(n: int, rng: random.Random) -> List[Edge]:
    """Two to four random trees, each with at least two vertices."""
    k = rng.randint(2, 4)
    cuts = sorted(rng.sample(range(2, n - 1), k - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    while min(sizes) < 2:
        cuts = sorted(rng.sample(range(2, n - 1), k - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    edges: List[Edge] = []
    offset = 0
    for size in sizes:
        edges += tree_edges(size, rng, offset)
        offset += size
    return edges


def ladder_edges(k: int) -> List[Edge]:
    """2 x k grid: two paths of k vertices joined by k rungs."""
    return (path_edges(k) + [(k + i, k + i + 1) for i in range(k - 1)]
            + [(i, k + i) for i in range(k)])


def cactus_edges(n: int, rng: random.Random) -> Tuple[int, List[Edge]]:
    """Cycles of length 3-5 and pendant edges attached at random
    vertices until about n vertices exist."""
    size = rng.randint(3, 5)
    edges = cycle_edges(size)
    count = size
    while count < n:
        at = rng.randrange(count)
        if rng.random() < 0.7:
            length = rng.randint(3, 5)
            ring = [at] + list(range(count, count + length - 1))
            edges += [(ring[i], ring[(i + 1) % length])
                      for i in range(length)]
            count += length - 1
        else:
            edges.append((at, count))
            count += 1
    return count, edges


def theta_edges(k: int, length: int) -> Tuple[int, List[Edge]]:
    """k internally disjoint paths of `length` edges between poles 0
    and 1."""
    edges: List[Edge] = []
    n = 2
    for _ in range(k):
        path = [0] + list(range(n, n + length - 1)) + [1]
        edges += list(zip(path, path[1:]))
        n += length - 1
    return n, edges


def sp_edges(n: int, rng: random.Random) -> List[Edge]:
    """Random two-terminal series-parallel graph: start from a triangle,
    then either subdivide an edge (series) or add a vertex joined to
    both ends of an edge (parallel) until n vertices exist."""
    edges = cycle_edges(3)
    count = 3
    while count < n:
        a, b = edges[rng.randrange(len(edges))]
        if rng.random() < 0.4:
            edges.remove((a, b))
            edges += [(a, count), (count, b)]
        else:
            edges += [(a, count), (count, b)]
        count += 1
    return edges


# ---------------------------------------------------------------------
# same-marginal table pairs

def _swap_once(g: Graph, units: List[int], rng: random.Random) -> bool:
    """One marginal-preserving swap between two units, if one exists.

    Pick units x and y and a vertex set S whose outside neighbours carry
    equal bits in x and y; exchanging the S-bits of x and y keeps every
    edge marginal: an edge inside S swaps its two cells, an edge outside
    S is untouched, and an edge leaving S has equal bits at its outer
    end.  S is one connected component of the subgraph induced by the
    vertices where x and y differ; with a single component the swap
    would just exchange x and y.
    """
    i, j = rng.sample(range(len(units)), 2)
    x, y = units[i], units[j]
    adj = g.adj()
    differ = {v for v in range(g.n) if ((x ^ y) >> v) & 1}
    comps: List[List[int]] = []
    seen = set()
    for s in sorted(differ):
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        for a in comp:
            for b in adj[a]:
                if b in differ and b not in seen:
                    seen.add(b)
                    comp.append(b)
        comps.append(comp)
    if len(comps) < 2:
        return False
    mask = sum(1 << v for v in rng.choice(comps))
    units[i] = (x & ~mask) | (y & mask)
    units[j] = (y & ~mask) | (x & mask)
    return True


def same_marginal_pair(n: int, edges: Sequence[Edge], total: int,
                       rng: random.Random) -> Tuple[List[int], List[int]]:
    """Unit lists of a random table z and a distinct table z' with the
    same marginals, reached from z by total // 2 swaps."""
    g = Graph([str(v) for v in range(n)], edges)
    while True:
        units = [rng.getrandbits(n) for _ in range(total)]
        moved = list(units)
        done = tries = 0
        while done < max(1, total // 2) and tries < 50 * total:
            tries += 1
            done += _swap_once(g, moved, rng)
        if sorted(units) != sorted(moved):
            return units, moved


def _table(obj: dict, g: Graph) -> TableVector:
    v = vector_from_json(obj)
    _require(v.vertices == g.vertices, "table over the wrong vertex order")
    return v


# ---------------------------------------------------------------------
# workload: evidence

def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _search_check(g: Graph, widths: Sequence[int], max_total: int,
                  max_degree: Optional[int]) -> Callable[[dict], None]:
    want = [{"total": t, "min_degree": widths[t - 1]}
            for t in range(1, max_total + 1)]

    def check(obj: dict):
        _require(obj["per_total"] == want, "minimal connecting degrees differ"
                 " from the committed answers")
        if max_degree is None:
            _require("witness" not in obj, "unexpected witness")
            return
        split = max(widths[:max_total]) > max_degree
        wit = obj["witness"]
        _require((wit is not None) == split, "witness presence is wrong")
        if wit is None:
            return
        za = _table(wit["component_a"], g)
        zb = _table(wit["component_b"], g)
        _require(za.is_nonnegative() and zb.is_nonnegative(),
                 "negative witness table")
        _require(za.total() == zb.total() <= max_total, "witness totals")
        _require(graph_marginals(za, g) == graph_marginals(zb, g),
                 "witness tables have different marginals")
        _require((za - zb).l1() > 2 * max_degree,
                 "witness tables are joined by one allowed move")
        _require(wit["fiber_size"] >= 2, "witness fiber too small")
    return check


def _wheel_text(cycle_len: int, inst: random.Random,
                rng: random.Random) -> Tuple[str, int]:
    """Double wheel over a cycle of cycle_len: faces and their vertices
    in an order from `inst`, labels from `rng`."""
    n = cycle_len + 2
    labels = _labels(rng, n)
    faces = []
    for i in range(cycle_len):
        j = (i + 1) % cycle_len
        for apex in (cycle_len, cycle_len + 1):
            face = [labels[i], labels[j], labels[apex]]
            inst.shuffle(face)
            faces.append(" ".join(face))
    inst.shuffle(faces)
    return "\n".join(faces) + "\n", 3 * cycle_len


def _certify_check(n: int, m: int) -> Callable[[dict], None]:
    def check(obj: dict):
        _require(obj["n"] == n and obj["m"] == m, "wrong triangulation size")
        _require(obj["bound"] == m // 3, "bound is not m/3")
        _require(obj["fiber_verified"] is True and obj["fiber_size"] == 2,
                 "certifying fiber not verified")
    return check


def evidence(inst: random.Random, rng: random.Random, w: _Writer,
             expected: dict) -> Workload:
    """search-width over every connected graph on 4 vertices (totals
    1..6) and on 5 vertices (totals 2..4), one op per (graph, total);
    the total-4 op of each graph also asks for a degree-3 witness.  Plus
    certify --verify-fiber on the double wheels for K6, K8 and K10.

    Every op reports all totals up to its own, so each total-1 answer is
    still checked.  The 21 five-vertex total-1 ops (about 1 ms each) are
    left out because they put the median op on the jump from 4 ms to
    13 ms between the four-vertex total-3 ops and the five-vertex
    total-3 ops, where op_p50_s swung with every perturbation."""
    ops: List[Op] = []
    for k, entry in enumerate(expected["graphs"]):
        n = entry["n"]
        edges = [tuple(e) for e in entry["edges"]]
        path, g, _ = _write_instance(w, f"g{k}", n, edges, inst, rng)
        widths = entry["min_degree"]
        for total in range(1 if n == 4 else 2, len(widths) + 1):
            argv = ["search-width", path, "--max-total", str(total)]
            max_degree = 3 if total == 4 else None
            if max_degree is not None:
                argv += ["--max-degree", str(max_degree)]
            ops.append(Op(argv, _search_check(g, widths, total, max_degree)))
    for cycle_len in (4, 6, 8):
        text, m = _wheel_text(cycle_len, inst, rng)
        path = w.write(f"wheel{cycle_len}", text)
        ops.append(Op(["certify", path, "--verify-fiber"],
                      _certify_check(cycle_len + 2, m)))
    return Workload(ops, [])


# ---------------------------------------------------------------------
# workloads: connect-forest and connect-cyclic

def _connect_check(g: Graph, z: TableVector,
                   zp: TableVector) -> Callable[[dict], None]:
    def check(obj: dict):
        states = [_table(s, g) for s in obj["states"]]
        _require(len(states) >= 2, "no steps between distinct tables")
        _require(states[0] == z and states[-1] == zp,
                 "sequence does not join the given tables")
        try:
            verify_sequence(MoveSequence(g, states))
        except Exception as exc:
            raise CheckFailed(f"verify_sequence: {exc}") from None
    return check


def _connect_op(w: _Writer, family: str, n: int, edges: Sequence[Edge],
                total: int, inst: random.Random, rng: random.Random) -> Op:
    stem = f"{family}{n}-t{total}"
    pair = same_marginal_pair(n, edges, total, inst)
    gpath, g, (z, zp) = _write_instance(w, stem, n, edges, inst, rng,
                                        pair)
    if z == zp or graph_marginals(z, g) != graph_marginals(zp, g):
        raise RuntimeError(f"{stem}: not a same-marginal pair")
    apath = w.write(stem + "-a", format_vector(z))
    bpath = w.write(stem + "-b", format_vector(zp))
    return Op(["connect", gpath, apath, bpath],
              _connect_check(g, z, zp))


def connect_forest(inst: random.Random, rng: random.Random,
                   w: _Writer) -> Workload:
    """connect on paths, random trees and random forests, n = 10..100
    in steps of 5, totals 4, 6 and 8."""
    ops = []
    for n in range(10, 101, 5):
        for total in (4, 6, 8):
            for family, edges in (("path", path_edges(n)),
                                  ("tree", tree_edges(n, inst)),
                                  ("forest", forest_edges(n, inst))):
                ops.append(_connect_op(w, family, n, edges, total, inst, rng))
    return Workload(ops, [])


# Cycle sizes and totals in the timed ops.  Larger cases are left out
# because a single op can outlast a whole run (C6 at total 8 and C7 at
# totals >= 6 took seconds per op in trial runs; C8 and C12 at total 8,
# minutes).
CYCLE_TOTALS = {4: range(3, 9), 5: range(3, 9), 6: range(3, 8), 7: range(3, 6)}
CYCLE_REPEATS = 3
# Series-parallel graphs stop at total 4: from total 5 on, one op took
# 0.6-8 s in trial runs, and its time varied fivefold with the bit flips
# alone (the connector's pole-marginal interpolation nests cycle
# searches), so a few ops would decide every timing.
SP_TOTALS = (3, 4)
# (cycle length, total) of the ops that exceed the default table-total
# cap of 8 and fail with ResourceLimitError at this commit.
CAP_OPS = ((4, 9), (5, 10), (5, 11), (6, 11))


def connect_cyclic(inst: random.Random, rng: random.Random,
                   w: _Writer) -> Workload:
    """connect on cycles C4-C7, 2 x k ladders and cacti (totals 3..8),
    theta graphs (totals 3..6) and random series-parallel graphs
    (totals 3 and 4)."""
    ops = []
    for n, totals in CYCLE_TOTALS.items():
        for total in totals:
            for _ in range(CYCLE_REPEATS):
                ops.append(_connect_op(w, "cycle", n, cycle_edges(n), total,
                                       inst, rng))
    for total in (3, 5, 8):
        # ladders up to k = 10 put a band of similar-cost ops (10-20 ms
        # at total 8) at the 90th percentile, which otherwise sat on the
        # knee below the heaviest cycle ops and jumped between seeds
        for k in range(3, 11):
            for _ in range(2):
                ops.append(_connect_op(w, "ladder", 2 * k, ladder_edges(k),
                                       total, inst, rng))
        for size in range(8, 18, 2):
            for _ in range(2):
                n, edges = cactus_edges(size, inst)
                ops.append(_connect_op(w, "cactus", n, edges, total,
                                       inst, rng))
    # Theta graphs have non-adjacent poles, the connector case that
    # interpolates the pole marginal with glue_cutchange; a quarter to a
    # third of these pairs reach it, at 1-5 ms an op.
    for k, length in ((3, 2), (3, 3), (4, 2)):
        n, edges = theta_edges(k, length)
        for total in range(3, 7):
            for _ in range(2):
                ops.append(_connect_op(w, "theta", n, edges, total, inst,
                                       rng))
    for total in SP_TOTALS:
        for n in range(5, 10):
            for _ in range(3):
                ops.append(_connect_op(w, "sp", n, sp_edges(n, inst), total,
                                       inst, rng))
    probe = [_connect_op(w, "cycle-cap", n, cycle_edges(n), total, inst, rng)
             for n, total in CAP_OPS]
    return Workload(ops, probe)


# ---------------------------------------------------------------------
# workload: sample

# (family, vertex count, totals).  C6 and the 5-vertex path and trees
# stop at total 6: beyond it their fibers grow so large that one op's
# quadratic move extraction takes seconds (C6 at total 8: 30 s in a
# trial run).
SAMPLE_GRAPHS = (("cycle", 4, range(4, 9)), ("cycle", 5, range(4, 9)),
                 ("cycle", 6, range(4, 7)), ("k23", 5, range(4, 9)),
                 ("path", 4, range(4, 9)), ("path", 5, range(4, 7)),
                 ("tree", 5, range(4, 7)))
SAMPLE_REPEATS = 4
# Extra runs of the first C6 instance at total 6 (about 75 ms, mostly
# move extraction) with other walk seeds, so that the 90th percentile of
# op time falls among runs of one op.  Without them it fell in a gap
# between unlike ops (57 ms and 75 ms) and moved by 11% between seeds.
SAMPLE_BAND = (("cycle", 6, 6), 10)


def _sample_edges(family: str, n: int, inst: random.Random) -> List[Edge]:
    if family == "cycle":
        return cycle_edges(n)
    if family == "path":
        return path_edges(n)
    if family == "tree":
        return tree_edges(n, inst)
    return [(a, b) for a in (0, 1) for b in (2, 3, 4)]


def _sample_check(g: Graph, z0: TableVector,
                  seed: int) -> Callable[[dict], None]:
    ref = graph_marginals(z0, g)

    def check(obj: dict):
        final = _table(obj["final"], g)
        _require(final.is_nonnegative(), "negative final state")
        _require(graph_marginals(final, g) == ref,
                 "final state changed the marginals")
        _require(obj["seed"] == seed, "seed not echoed")
        _require(obj["proposed"] == SAMPLE_BURN_IN + SAMPLE_STEPS,
                 "proposals differ from burn-in + steps")
        _require(0 <= obj["accepted"] <= obj["proposed"], "acceptance count")
    return check


def sample(inst: random.Random, rng: random.Random, w: _Writer) -> Workload:
    """sample --degree 4 on small K4-minor-free graphs, starting from a
    table whose fiber has at least two elements, so the move set is
    never empty."""
    def op(gpath: str, vpath: str, g: Graph, z0: TableVector) -> Op:
        seed = rng.randrange(1 << 30)
        argv = ["sample", gpath, vpath, "--steps", str(SAMPLE_STEPS),
                "--burn-in", str(SAMPLE_BURN_IN), "--seed", str(seed),
                "--degree", "4"]
        return Op(argv, _sample_check(g, z0, seed))

    ops = []
    band_key, band_copies = SAMPLE_BAND
    band = None
    for family, n, totals in SAMPLE_GRAPHS:
        for total in totals:
            for _ in range(SAMPLE_REPEATS):
                stem = f"{family}{n}-t{total}"
                edges = _sample_edges(family, n, inst)
                z0_units, _ = same_marginal_pair(n, edges, total, inst)
                gpath, g, (z0,) = _write_instance(w, stem, n, edges, inst,
                                                  rng, [z0_units])
                vpath = w.write(stem + "-z0", format_vector(z0))
                ops.append(op(gpath, vpath, g, z0))
                if band is None and (family, n, total) == band_key:
                    band = (gpath, vpath, g, z0)
    ops += [op(*band) for _ in range(band_copies)]
    return Workload(ops, [])


WORKLOADS = {"evidence": evidence, "connect-forest": connect_forest,
             "connect-cyclic": connect_cyclic, "sample": sample}


def generate(name: str, seed: int, directory: str,
             save: bool = True) -> Workload:
    """The ops of workload `name` for `seed`, on inputs in `directory`;
    the input files are written only when `save` is set."""
    inst = random.Random(f"{name}:instances")
    rng = random.Random(f"{name}:{seed}")
    w = _Writer(directory, save)
    if name == "evidence":
        return evidence(inst, rng, w, load_expected())
    return WORKLOADS[name](inst, rng, w)
