"""Acceptance suite: one criterion per test, one printed verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines
as they complete.
"""

import itertools
import math
import random
from typing import Dict, List, Tuple

import pytest

from markov_atlas import (Graph, TableVector, classify_width, complete_graph,
                          connect_graph, connect_two_terminal, cut_vertices,
                          cycle_graph, extract_moves, fiber_of,
                          find_parallel3_poles, glue_cutchange, glue_cutsame,
                          glue_swaps, graph_marginals, is_k4_minor_free,
                          kn_lower_bound_report, min_connecting_degree,
                          project, search_width, verify_sequence)
from markov_atlas.errors import NoSuchPoles, ProjectionMismatch
from markov_atlas.triangulation import (certify_lower_bound, double_wheel,
                                        red_blue_vectors, two_face_coloring)

from helpers import all_trees, nonisomorphic_graphs


def verdict(num: int, ok: bool, text: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def tv(g, units):
    return TableVector.from_units(g.vertices, units)


# -- 1: forest width ----------------------------------------------------

def test_acceptance_1_forest_width():
    trees = [t for n in range(1, 7) for t in all_trees(n)]
    bad = []
    for g in trees:
        rep = classify_width(g)
        if (rep.kind, rep.value) != ("exact", 2):
            bad.append(g)
            continue
        if g.m and min_connecting_degree(g, 4) > 2:
            bad.append(g)
    verdict(1, not bad,
            f"all {len(trees)} trees on <= 6 vertices: fibers of total <= 4 "
            f"connect at degree 2 and classify as exact width 2")


# -- 2: cycle width -----------------------------------------------------

def test_acceptance_2_cycle_width():
    ok = True
    for n in (3, 4, 5, 6):
        g = cycle_graph("abcdef"[:n])
        if min_connecting_degree(g, 4) > 4:
            ok = False
    c4 = cycle_graph("abcd")
    witness = search_width(c4, 4, 3)[1]
    ok = ok and witness is not None
    if witness is not None:
        fib, (za, zb) = witness
        ok = ok and graph_marginals(za, c4) == graph_marginals(zb, c4)
    verdict(2, ok,
            "C3-C6 fibers of total <= 4 connect at degree 4; "
            "C4 exhibits a degree-3-disconnected fiber")


# -- 3: K4 evidence -----------------------------------------------------

def test_acceptance_3_k4_needs_degree_6():
    k4 = complete_graph("abcd")
    d = min_connecting_degree(k4, 6)
    witness = search_width(k4, 6, 5)[1]
    ok = d == 6 and witness is not None
    verdict(3, ok,
            f"min connecting degree of K4 at totals <= 6 is {d} "
            f"and a degree-5-disconnected fiber exists")


# -- 4: connector soundness (property-based) ----------------------------

FIBER_DRAWS = 20


def test_acceptance_4_connector_on_random_graphs():
    rng = random.Random(20240817)
    tested = 0
    failures = 0
    attempts = 0
    while tested < 200 and attempts < 20000:
        attempts += 1
        n = rng.randint(2, 8)
        labels = tuple(chr(97 + i) for i in range(n))
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < rng.choice((0.25, 0.4, 0.55))]
        g = Graph(labels, edges)
        if not is_k4_minor_free(g):
            continue
        total = rng.randint(1, 3)
        # the fiber of a random table of this total, redrawn while it
        # holds a single table; a graph none of whose draws gives two
        # tables is skipped (at total 1 every fiber is a single table
        # unless a vertex is isolated)
        for _ in range(FIBER_DRAWS):
            units = [rng.randrange(1 << n) for _ in range(total)]
            tabs = fiber_of(g, tv(g, units)).elements
            if len(tabs) >= 2:
                break
        else:
            continue
        a, b = rng.sample(range(len(tabs)), 2)
        z, zp = tabs[a], tabs[b]
        try:
            # Properties 1-3: same-marginal chain, non-negative states,
            # every step norm <= 8 (checked by verify_sequence)
            verify_sequence(connect_graph(g, z, zp))
            # Property 4 (pole discipline) on two-terminal runs, which
            # apply to 2-connected pieces
            if g.is_connected() and not cut_vertices(g):
                try:
                    u, v, _ = find_parallel3_poles(g)
                    verify_sequence(connect_two_terminal(
                        g, g.vertices[u], g.vertices[v], z, zp))
                except NoSuchPoles:
                    pass
        except Exception:
            failures += 1
        tested += 1
    verdict(4, failures == 0 and tested == 200,
            f"{tested} random K4-minor-free graphs (<= 8 vertices, "
            f"totals <= 3): connector succeeded with all four sequence "
            f"properties verified, {failures} failures")


# -- 5: gluing oracles --------------------------------------------------

def _splits(k: int):
    """Proper covers (X1, X2) of k vertices: each side nonempty and
    holding at least one private vertex."""
    verts = tuple(chr(97 + i) for i in range(k))
    for assign in itertools.product((1, 2, 3), repeat=k):  # 3 = shared
        x1 = tuple(v for v, s in zip(verts, assign) if s in (1, 3))
        x2 = tuple(v for v, s in zip(verts, assign) if s in (2, 3))
        if 1 in assign and 2 in assign:
            yield verts, x1, x2


def _tables(verts, max_total):
    out = []
    for total in range(1, max_total + 1):
        for units in itertools.combinations_with_replacement(
                range(1 << len(verts)), total):
            out.append(TableVector.from_units(verts, units))
    return out


def test_acceptance_5_gluing_oracles():
    checked = failures = 0
    for k in (2, 3, 4):
        max_total = 3 if k < 4 else 2
        for verts, x1, x2 in _splits(k):
            y = tuple(v for v in x1 if v in x2)
            tables = _tables(verts, max_total)
            by_marg: Dict[tuple, List[TableVector]] = {}
            for z in tables:
                key = (project(z, x1).key(), project(z, x2).key())
                by_marg.setdefault(key, []).append(z)

            # cutsame: every (z, zbar) with matching overlap
            side1 = _tables(x1, max_total)
            bar_by_y: Dict[tuple, List[TableVector]] = {}
            for zbar in side1:
                bar_by_y.setdefault(project(zbar, y).key(), []).append(zbar)
            for z in tables:
                for zbar in bar_by_y.get(project(z, y).key(), []):
                    if zbar.total() != z.total():
                        continue
                    checked += 1
                    zp = glue_cutsame(z, zbar, x2)
                    if not (zp.is_nonnegative()
                            and project(zp, x1) == zbar
                            and project(zp, x2) == project(z, x2)
                            and (z - zp).l1() ==
                            (project(z, x1) - zbar).l1()):
                        failures += 1

            # swaps: every pair with equal side projections
            for group in by_marg.values():
                for z, zp in itertools.combinations(group, 2):
                    checked += 1
                    states = glue_swaps(z, zp, x1, x2)
                    good = states[0] == z and states[-1] == zp
                    for t in range(1, len(states)):
                        good = good and (
                            (states[t] - states[t - 1]).l1() == 4
                            and states[t].is_nonnegative())
                    if not good:
                        failures += 1

            # cutchange: compatible side pairs with the tight-norm
            # precondition, indexed by overlap projections
            side2 = _tables(x2, max_total)
            pairs2: Dict[tuple, List[Tuple[TableVector, TableVector]]] = {}
            for z2 in side2:
                for z2p in side2:
                    d2 = (z2 - z2p).l1()
                    if d2 == 0:
                        continue
                    key = (project(z2, y).key(), project(z2p, y).key(), d2)
                    pairs2.setdefault(key, []).append((z2, z2p))
            for z1 in side1:
                for z1p in side1:
                    d1 = (z1 - z1p).l1()
                    dy = (project(z1, y) - project(z1p, y)).l1()
                    if d1 == 0 or d1 != dy:
                        continue
                    key = (project(z1, y).key(), project(z1p, y).key(), d1)
                    for z2, z2p in pairs2.get(key, []):
                        checked += 1
                        z, zp = glue_cutchange(z1, z1p, z2, z2p, verts)
                        if not (project(z, x1) == z1
                                and project(zp, x1) == z1p
                                and project(z, x2) == z2
                                and project(zp, x2) == z2p
                                and (z - zp).l1() == d1):
                            failures += 1
    verdict(5, failures == 0 and checked > 10000,
            f"gluing postconditions hold on {checked} exhaustive "
            f"instances (|X| <= 4), {failures} failures")


# -- 6: octahedron certificate ------------------------------------------

def test_acceptance_6_octahedron_certificate():
    t = double_wheel(4)
    rep = certify_lower_bound(t, verify_fiber=True)
    zr, zb = red_blue_vectors(t, two_face_coloring(t))
    kn = complete_graph(t.vertices)
    blind = fiber_of(kn, zr)
    ok = (rep.clean and rep.colorable and rep.bound == 4
          and rep.fiber_verified and rep.fiber_size == 2
          and set(blind.tables) == {tuple(zr.units()), tuple(zb.units())})
    verdict(6, ok,
            "octahedron: clean, 2-face-colorable, bound 4, and the red "
            "vector's K6 fiber is exactly the red/blue pair (structured "
            "and blind enumeration agree)")


# -- 7: double-wheel bounds ---------------------------------------------

def test_acceptance_7_double_wheel_bounds():
    ok = True
    notes = []
    for n in (6, 8, 10):
        rep = kn_lower_bound_report(n, verify_fiber=(n in (6, 8)))
        cert = rep.certificate
        ok = ok and rep.bound == n - 2
        ok = ok and cert.n == n and cert.m == 3 * (n - 2)
        if n in (6, 8):
            ok = ok and cert.fiber_verified and cert.fiber_size == 2
        notes.append(f"n={n}: bound {rep.bound}")
    verdict(7, ok,
            "double-wheel certificates give mu(K_n) >= n-2 "
            f"({'; '.join(notes)}); fibers verified at n=6,8")


# -- 8: sampler uniformity ----------------------------------------------

def _chi2_crit_99(df: int) -> float:
    """99th percentile of chi-square by the Wilson-Hilferty cube
    approximation (z_0.99 = 2.3263)."""
    z = 2.3263478740408408
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def test_acceptance_8_sampler_uniformity():
    from markov_atlas.sampler import WalkConfig, walk_states

    g = cycle_graph("abcd")
    z0 = tv(g, [0b0000, 0b0101, 0b1010, 0b1111])
    fib = fiber_of(g, z0)
    moves = extract_moves(fib, 4)
    cfg = WalkConfig(steps=100_000, burn_in=2000, seed=271828)
    # thin the chain so the chi-square test sees near-independent draws
    # (the raw walk is autocorrelated; uniformity is about its
    # stationary distribution, not its step-to-step behaviour)
    stride = 50
    counts: Dict[tuple, int] = {}
    for i, s in enumerate(walk_states(g, moves, z0, cfg)):
        if i >= cfg.burn_in and (i - cfg.burn_in) % stride == 0:
            counts[s.key()] = counts.get(s.key(), 0) + 1
    total = sum(counts.values())
    expected = total / fib.size
    chi2 = sum((counts.get(e.key(), 0) - expected) ** 2 / expected
               for e in fib.elements)
    crit = _chi2_crit_99(fib.size - 1)

    probe = WalkConfig(steps=3000, seed=271828)
    t1 = list(walk_states(g, moves, z0, probe))
    t2 = list(walk_states(g, moves, z0, probe))
    ok = chi2 < crit and t1 == t2
    verdict(8, ok,
            f"10^5-step C4 walk: chi-square {chi2:.1f} < {crit:.1f} "
            f"(alpha=0.01, fiber size {fib.size}); trajectory "
            f"bit-reproducible under seed")


# -- 9: minor monotonicity ----------------------------------------------

def _contract(g: Graph, i: int, j: int) -> Graph:
    """Simple contraction of edge ij (j merged into i)."""
    keep = [v for v in range(g.n) if v != j]
    remap = {v: k for k, v in enumerate(keep)}
    edges = set()
    for a, b in g.edges:
        a2 = remap[i if a == j else a]
        b2 = remap[i if b == j else b]
        if a2 != b2:
            edges.add((min(a2, b2), max(a2, b2)))
    return Graph([g.vertices[v] for v in keep], edges)


def test_acceptance_9_minor_monotonicity():
    cache: Dict[tuple, int] = {}

    def md(g: Graph) -> int:
        key = (g.n, tuple(sorted(g.edges)))
        if key not in cache:
            cache[key] = min_connecting_degree(g, 3)
        return cache[key]

    graphs = [g for n in range(2, 6) for g in nonisomorphic_graphs(n)]
    violations = 0
    checked = 0
    for g in graphs:
        base = md(g)
        for (i, j) in sorted(g.edges):
            checked += 1
            if md(_contract(g, i, j)) > base:
                violations += 1
        if g.n > 1:
            for v in range(g.n):
                checked += 1
                dropped = g.subgraph([x for x in range(g.n) if x != v])
                if md(dropped) > base:
                    violations += 1
    verdict(9, violations == 0 and checked > 0,
            f"min connecting degree (totals <= 3) is monotone under all "
            f"{checked} single edge contractions and vertex deletions on "
            f"graphs with <= 5 vertices; {violations} violations")
