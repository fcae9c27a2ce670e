"""Fiber enumeration against a rejection oracle, fiber components, and
the minimal-connecting-degree search."""

import gc
import itertools
import random

import pytest

from markov_atlas import (Graph, TableVector, cycle_graph, extract_moves,
                          fiber_components, fiber_of, graph_marginals,
                          min_connecting_degree, search_width)
from markov_atlas import fiber
from markov_atlas.errors import InvariantViolation, ResourceLimitError
from markov_atlas.graphs import _sum_pieces
from markov_atlas.lattice import edge_cells
from markov_atlas.fiber import _kernel

from helpers import (all_graphs, all_grouped_tables, all_trees,
                     flip_cut_fibers, has_zero_marginals, ladder_graph,
                     least_flip_image, merge_moves, mst_bottleneck,
                     naive_search, nonisomorphic_graphs, pairwise_moves,
                     rejection_fiber, triangle_cactus, unit_walk_tables)


def tv(g, units):
    return TableVector.from_units(g.vertices, units)


# -- enumeration correctness -------------------------------------------

def test_fiber_matches_rejection_oracle():
    graphs = [
        Graph(("a", "b", "c"), [(0, 1), (1, 2)]),
        cycle_graph("abcd"),
        Graph(("a", "b", "c", "d"), [(0, 1)]),
        Graph(("a", "b"), []),
    ]
    for g in graphs:
        for units in itertools.combinations_with_replacement(
                range(1 << g.n), 3):
            z = tv(g, units)
            fib = fiber_of(g, z)
            assert sorted(e.key() for e in fib.elements) == \
                sorted(e.key() for e in rejection_fiber(g, z))
            break  # one fiber per graph is enough here


def test_fiber_oracle_sweep_small():
    """Every fiber of every graph on 3 vertices, totals <= 3."""
    for g in all_graphs(3):
        for total in (1, 2, 3):
            seen = set()
            for units in itertools.combinations_with_replacement(
                    range(1 << g.n), total):
                z = tv(g, units)
                key = graph_marginals(z, g)
                if key in seen:
                    continue
                seen.add(key)
                fib = fiber_of(g, z)
                oracle = rejection_fiber(g, z)
                assert sorted(e.key() for e in fib.elements) == \
                    sorted(e.key() for e in oracle)


def test_fiber_contains_its_seed():
    g = cycle_graph("abcde")
    z = tv(g, [0b00111, 0b11000, 0b00000])
    fib = fiber_of(g, z)
    assert z in fib.elements


def test_empty_graph_fiber_is_value_partition():
    g = Graph(("a", "b"), [])
    z = tv(g, [0, 0, 3])
    fib = fiber_of(g, z)
    # all tables of total 3 over 4 labelings share the (empty) marginals
    assert fib.size == len(list(
        itertools.combinations_with_replacement(range(4), 3)))


def test_negative_table_rejected():
    """z = t - (t' - t) on C4 has t's marginals but a negative entry,
    so it is in no fiber; t's fiber has 12 tables."""
    g = cycle_graph("abcd")
    t = tv(g, [0b0000, 0b0101, 0b1010, 0b1111])
    tp = tv(g, [0b0011, 0b0110, 0b1001, 0b1100])
    z = t - (tp - t)
    assert graph_marginals(z, g) == graph_marginals(t, g)
    assert fiber_of(g, t).size == 12
    with pytest.raises(ValueError, match="non-negative"):
        fiber_of(g, z)


def test_fiber_cap_raises(monkeypatch):
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", "max_fiber=10")
    g = Graph(("a", "b", "c", "d"), [])
    z = tv(g, [0] * 5)
    with pytest.raises(ResourceLimitError, match="max_fiber"):
        fiber_of(g, z)


def test_fiber_cap_boundary(monkeypatch):
    """A fiber of exactly `cap` tables is returned, and one of cap + 1
    tables raises, in the kernel (with and without candidates) and
    through `fiber_of` under MARKOV_ATLAS_LIMITS."""
    g = cycle_graph("abcd")
    z = tv(g, [0, 2, 4, 5, 7, 9, 11, 14])
    m = graph_marginals(z, g)
    tables = _kernel.fiber_tables(g.n, m.edges, m.cells, m.total)
    size = len(tables)
    assert size == 40
    support = sorted({u for t in tables for u in t})
    for candidates in (None, support):
        assert _kernel.fiber_tables(g.n, m.edges, m.cells, m.total,
                                    candidates, cap=size) == tables
        with pytest.raises(_kernel.CapExceeded):
            _kernel.fiber_tables(g.n, m.edges, m.cells, m.total,
                                 candidates, cap=size - 1)
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", f"max_fiber={size}")
    assert fiber_of(g, z).tables == tuple(tables)
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", f"max_fiber={size - 1}")
    with pytest.raises(ResourceLimitError, match=f"max_fiber = {size - 1}"):
        fiber_of(g, z)


def test_search_cap_counts_the_tables_a_walk_makes(monkeypatch):
    """max_fiber bounds the tables one walk makes: a search whose
    largest walk makes exactly max_fiber tables answers, and with the
    cap one lower it raises the error that names the walk and the
    variable that raises the cap.  A fixed-cell walk counts only the
    tables over its cells."""
    # four isolated vertices: 16 tables at total 1, 136 at total 2
    g = Graph(("a", "b", "c", "d"), [])
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", "max_fiber=136")
    assert min_connecting_degree(g, 2) == 1
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", "max_fiber=135")
    with pytest.raises(ResourceLimitError) as exc:
        min_connecting_degree(g, 2)
    assert str(exc.value) == (
        "the walk of total 2 exceeds the cap max_fiber = 135; "
        "raise it with MARKOV_ATLAS_LIMITS=\"max_fiber=...\"")
    k4 = Graph(tuple("abcd"), list(itertools.combinations(range(4), 2)))
    plan = _kernel.WalkPlan(4, k4.edges, 5)
    made = [sum(map(len, _kernel.group_tables(plan, t).values()))
            for t in range(1, 6)]
    assert made == [1, 41, 51, 782, 969]
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", "max_fiber=969")
    assert search_width(k4, 5) == ([1, 1, 1, 4, 4], None)
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", "max_fiber=968")
    with pytest.raises(ResourceLimitError,
                       match="the walk of total 5 exceeds .* = 968;"):
        search_width(k4, 5)
    # the bowtie's walks with a triangle's cells fixed at total 4 make
    # 242 tables each, its whole-graph walks at most 187 below it
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", "max_fiber=242")
    assert search_width(BOWTIE, 4, 3)[1] is not None
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", "max_fiber=241")
    with pytest.raises(ResourceLimitError,
                       match="the walk of total 4 exceeds .* = 241;"):
        search_width(BOWTIE, 4, 3)
    # a path's walk of total 3 makes 15 tables, and with its first
    # edge's cells fixed it makes only the 4 tables over those cells
    plan = _kernel.WalkPlan(3, [(0, 1), (1, 2)], 3)
    assert sum(map(len, _kernel.group_tables(plan, 3).values())) == 15
    fixed = (((0, 1),), [1, 1, 1, 0])
    over = _kernel.group_tables(plan, 3, fixed)
    assert sum(map(len, over.values())) == 4
    assert _kernel.group_tables(plan, 3, fixed, cap=4) == over
    with pytest.raises(_kernel.CapExceeded):
        _kernel.group_tables(plan, 3, fixed, cap=3)


def test_fiber_places_each_candidate_once():
    """A repeated candidate is placed once, and a candidate outside
    range(2^n) is a ValueError that names it (before, C4's 12-table
    fiber came back with 192 tables and with 15)."""
    g = cycle_graph("abcd")
    z = tv(g, [0b0000, 0b0101, 0b1010, 0b1111])
    fib = fiber_of(g, z)
    assert fib.size == 12
    support = sorted({u for t in fib.tables for u in t})
    assert fiber_of(g, z, support + support).tables == fib.tables
    with pytest.raises(ValueError, match=r"candidates \[16\]"):
        fiber_of(g, z, support + [16])
    with pytest.raises(ValueError, match=r"candidates \[-1\]"):
        fiber_of(g, z, [-1] + support)


def test_fiber_tables_match_the_unit_walk():
    """On every graph of at most 4 vertices (edgeless ones and isolated
    vertices included) at totals 0-6, the walk gives the unit walk's
    tables in the unit walk's order, for the marginals of random tables,
    with every labeling and with random candidate supersets of the
    support (repeats included); a fiber of F tables returns at cap F and
    raises at cap F - 1."""
    rng = random.Random(30)
    sizes = set()
    for n in range(5):
        for g in all_graphs(n):
            for total in range(7):
                units = [rng.randrange(1 << n) for _ in range(total)]
                m = graph_marginals(tv(g, units), g)
                extra = [rng.randrange(1 << n) for _ in range(3)]
                for candidates in (None, units + extra + units[:2]):
                    want = unit_walk_tables(n, m.edges, m.cells, total,
                                            candidates)
                    got = _kernel.fiber_tables(n, m.edges, m.cells, total,
                                               candidates)
                    assert got == want, (g, units, candidates)
                    size = len(want)
                    sizes.add(size)
                    assert _kernel.fiber_tables(
                        n, m.edges, m.cells, total, candidates,
                        cap=size) == want
                    if size > 1:
                        with pytest.raises(_kernel.CapExceeded):
                            _kernel.fiber_tables(n, m.edges, m.cells, total,
                                                 candidates, cap=size - 1)
    # fibers of one table and of many, up to the edgeless 4-vertex
    # graph's C(21, 6) tables at total 6
    assert 1 in sizes and max(sizes) == 54264


def test_walks_of_large_totals_within_recursion_limit(
        default_recursion_limit):
    """Both walks run from a stack, not one call per unit: a one-edge
    fiber of one table returns at total 10,000 (each cell at 2,500) and
    at 1,100 with every unit in one cell, where the unit walk raised
    RecursionError at 1,100; and the search walk of one vertex at total
    1,100 returns its one fiber of 1,101 tables, where the recursive
    search walk raised RecursionError."""
    assert _kernel.fiber_tables(2, [(0, 1)], [2500] * 4, 10000) == [
        (0,) * 2500 + (1,) * 2500 + (2,) * 2500 + (3,) * 2500]
    assert _kernel.fiber_tables(2, [(0, 1)], [1100, 0, 0, 0], 1100) == [
        (0,) * 1100]
    fibers = list(_kernel.group_tables(_kernel.WalkPlan(1, [], 1100),
                                       1100).values())
    assert fibers == [[(0,) * (1100 - k) + (1,) * k for k in range(1101)]]


def test_search_leaves_no_reference_cycle():
    """A search leaves nothing for the cyclic collector: with the
    collector off, `gc.collect()` after `search_width` on K5 up to
    total 4 finds 0 objects (the recursive search walk left 15,588)."""
    k5 = Graph(tuple("abcde"), list(itertools.combinations(range(5), 2)))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        search_width(k5, 4, 3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# W4 (hub e), K5, and K4 with the edge a-b subdivided by e
DEGREE_6_GRAPHS = {
    "W4": Graph(tuple("abcde"), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4),
                                 (1, 4), (2, 4), (3, 4)]),
    "K5": Graph(tuple("abcde"), list(itertools.combinations(range(5), 2))),
    "K4-subdivided": Graph(tuple("abcde"), [(0, 2), (0, 3), (1, 2), (1, 3),
                                            (2, 3), (0, 4), (1, 4)]),
}


@pytest.mark.parametrize("name", sorted(DEGREE_6_GRAPHS))
def test_degree_6_under_the_default_caps(monkeypatch, name):
    """The smallest graphs whose search shows degree 6 answer at total
    6 under the default caps: each walk of total 6 makes 258,407
    tables, while all C(37, 6) = 2,324,784 tables on 5 vertices are
    more than max_fiber."""
    monkeypatch.delenv("MARKOV_ATLAS_LIMITS", raising=False)
    want = [1, 1, 1, 4, 4, 6] if name == "K5" else [1, 2, 2, 4, 4, 6]
    assert search_width(DEGREE_6_GRAPHS[name], 6) == (want, None)


def test_vertex_and_total_caps():
    g = Graph(tuple("abcdefghijklmnopq"), [])
    with pytest.raises(ResourceLimitError,
                       match="max_vertices.*MARKOV_ATLAS_LIMITS"):
        fiber_of(g, TableVector(g.vertices, {}))
    g2 = Graph(("a",), [])
    with pytest.raises(ResourceLimitError,
                       match="max_total.*MARKOV_ATLAS_LIMITS"):
        fiber_of(g2, tv(g2, [0] * 9))


# -- fiber components --------------------------------------------------

def test_components_refine_with_degree():
    g = cycle_graph("abcd")
    z = tv(g, [0b0000, 0b0011, 0b1100, 0b1111])
    fib = fiber_of(g, z)
    comp2 = fiber_components(fib, 2)
    comp4 = fiber_components(fib, 4)
    assert len(comp4) <= len(comp2)
    assert sum(len(c) for c in comp4) == fib.size


K23 = Graph(tuple("abcde"), [(a, b) for a in (0, 1) for b in (2, 3, 4)])
P5 = Graph(tuple("abcde"), [(i, i + 1) for i in range(4)])


@pytest.mark.parametrize("g, units, size", [
    (cycle_graph("abcd"), [0, 2, 4, 5, 7, 9, 11, 14], 40),
    (cycle_graph("abcde"), [0, 1, 2, 8, 10, 11, 15, 21], 136),
    (cycle_graph("abcdef"), [0, 5, 23, 28, 34, 38], 118),
    (K23, [4, 6, 11, 13, 17, 18, 23, 25], 124),
    (P5, [3, 6, 8, 16, 29, 29], 262),
], ids=["C4-t8", "C5-t8", "C6-t6", "K23-t8", "P5-t6"])
def test_extract_moves_matches_pairwise_oracle(g, units, size):
    """Same moves, signs and order as subtracting every pair."""
    fib = fiber_of(g, tv(g, units))
    assert fib.size == size
    for k in (1, 2, 4):
        got = extract_moves(fib, k)
        want = pairwise_moves(fib, k)
        assert [m.vector.key() for m in got] == [m.vector.key() for m in want]


def test_extract_moves_build_no_vectors(monkeypatch):
    """Moves keep the kernel's items: extracting the 7,117 moves of P5
    at total 6 builds no TableVector."""
    fib = fiber_of(P5, tv(P5, [3, 6, 8, 16, 29, 29]))
    built = []
    real = TableVector.__init__

    def counted(self, *args):
        built.append(1)
        real(self, *args)

    monkeypatch.setattr(TableVector, "__init__", counted)
    moves = extract_moves(fib, 4)
    assert len(moves) == 7117 and not built


@pytest.mark.parametrize("k", [0, -2])
def test_degree_bound_below_one_rejected(k):
    fib = fiber_of(P5, tv(P5, [3, 6, 8, 16, 29, 29]))
    for analyse in (extract_moves, fiber_components):
        with pytest.raises(ValueError, match="degree bound must be >= 1"):
            analyse(fib, k)
    with pytest.raises(ValueError, match="degree bound must be >= 1"):
        search_width(P5, 2, k)


@pytest.mark.parametrize("total", [0, -2])
def test_table_total_below_one_rejected(total):
    g = cycle_graph("abcd")
    with pytest.raises(ValueError, match="table total must be >= 1"):
        search_width(g, total)
    with pytest.raises(ValueError, match="table total must be >= 1"):
        search_width(g, total, 3)
    with pytest.raises(ValueError, match="table total must be >= 1"):
        min_connecting_degree(g, total)


# the fibers of test_extract_moves_matches_pairwise_oracle
MOVE_FIBERS = {"C4-t8": (cycle_graph("abcd"), [0, 2, 4, 5, 7, 9, 11, 14]),
               "C5-t8": (cycle_graph("abcde"), [0, 1, 2, 8, 10, 11, 15, 21]),
               "C6-t6": (cycle_graph("abcdef"), [0, 5, 23, 28, 34, 38]),
               "K23-t8": (K23, [4, 6, 11, 13, 17, 18, 23, 25]),
               "P5-t6": (P5, [3, 6, 8, 16, 29, 29])}


def _check_kernel_moves(tables, max_norm):
    """`_kernel.fiber_moves` gives the merge oracle's moves in its
    order, with equal items one tuple, whatever the order of the
    tables."""
    got = _kernel.fiber_moves(tables, max_norm)
    assert got == merge_moves(sorted(tables), max_norm)
    shared = {}
    for items in got:
        for item in items:
            assert shared.setdefault(item, item) is item


@pytest.mark.parametrize("max_norm", [2, 4, 6, 8, 16])
@pytest.mark.parametrize("name", sorted(MOVE_FIBERS))
def test_fiber_moves_match_merge_oracle(name, max_norm):
    g, units = MOVE_FIBERS[name]
    tables = list(fiber_of(g, tv(g, units)).tables)
    _check_kernel_moves(tables, max_norm)
    random.Random(name).shuffle(tables)
    _check_kernel_moves(tables, max_norm)


def test_fiber_moves_small_fibers_and_repeated_units():
    """No table, one, two; tables that repeat one unit N times, which
    fill all N occupancy bits of that unit."""
    c4 = list(fiber_of(cycle_graph("abcd"),
                       tv(cycle_graph("abcd"), [0, 5, 10, 15])).tables)
    assert _kernel.fiber_moves([], 8) == []
    assert _kernel.fiber_moves(c4[:1], 8) == []
    assert _kernel.fiber_moves([()], 8) == []
    _check_kernel_moves(c4[:2], 8)
    _check_kernel_moves(c4[1::-1], 8)
    # every table of 4 units over 2 free vertices: 35 tables
    free = _kernel.fiber_tables(2, [], [], 4)
    assert len(free) == 35 and (3, 3, 3, 3) in free
    for max_norm in (2, 4, 8):
        _check_kernel_moves(free, max_norm)
    repeated = [(0,) * 6, (1,) * 6, (0, 0, 0, 1, 1, 1), (2,) * 6,
                (0, 1, 2, 2, 2, 2)]
    for max_norm in (6, 12):
        _check_kernel_moves(repeated, max_norm)


@pytest.mark.parametrize("total", [127, 128, 130])
def test_fiber_moves_wide_coefficients(total):
    """Coefficients past 127 widen the count fields: one edge and an
    isolated vertex, all units in cell (0, 0), total + 1 tables at norm
    2 * total (the kernel is called directly, past the total cap)."""
    tables = _kernel.fiber_tables(3, [(0, 1)], [total, 0, 0, 0], total)
    assert len(tables) == total + 1
    _check_kernel_moves(tables, 2 * total)
    assert _kernel.fiber_moves(tables, 2 * total) == [
        ((0, d), (4, -d)) for d in range(1, total + 1)]


def test_fiber_tables_are_the_kernels():
    """A fiber holds the kernel's tables; its vectors are those tables,
    in the same order, built on first use."""
    g = cycle_graph("abcd")
    z = tv(g, [0, 2, 4, 5, 7, 9, 11, 14])
    fib = fiber_of(g, z)
    edges = sorted(g.edges)
    budgets = graph_marginals(z, g).cells
    assert list(fib.tables) == _kernel.fiber_tables(g.n, edges, budgets, 8)
    assert "elements" not in vars(fib)
    assert [tuple(e.units()) for e in fib.elements] == list(fib.tables)
    assert fib.elements is fib.elements
    assert fib.size == len(fib.tables) == 40


def test_extract_moves_are_kernel_elements():
    g = cycle_graph("abcd")
    z = tv(g, [0b0000, 0b0101, 0b1010, 0b1111])
    fib = fiber_of(g, z)
    moves = extract_moves(fib, 4)
    assert moves
    for mv in moves:
        assert has_zero_marginals(mv.vector, g)
        assert 1 <= mv.vector.l1() // 2 <= 4


# -- width search ------------------------------------------------------

def test_path_connects_at_degree_2():
    g = Graph(("a", "b", "c"), [(0, 1), (1, 2)])
    assert min_connecting_degree(g, 4) == 2
    assert search_width(g, 4, 2)[1] is None


def _cells(g, table):
    return graph_marginals(tv(g, table), g).cells


def test_marginal_cells_are_the_kernels_keys():
    """`MarginalSet.cells` tells the kernel's fibers apart, though the
    walk's keys are vertex and (1, 1) counts, not cells: the tables of
    one fiber share their marginal cells, and different fibers have
    different cells."""
    g = Graph(("a", "b", "c", "d"), [(0, 1), (1, 2), (0, 2), (2, 3)])
    plan = _kernel.WalkPlan(g.n, g.edges, 3)
    fibers = list(_kernel.group_tables(plan, 3).values())
    for tables in fibers:
        assert {_cells(g, t) for t in tables} == {_cells(g, tables[0])}
    assert len({_cells(g, tables[0]) for tables in fibers}) == len(fibers)


def test_witness_past_total_255():
    """The witness reads a fiber's cells in fields sized from the total
    (one byte per cell raised ValueError past 255): C4's split fiber
    at total 2, tables (5, 15) and (7, 13), with 254 copies of unit 5
    added to each, gives a witness of total 256 at distance 4, the
    least flip image; with 255 copies, a cell holds 256."""
    g = cycle_graph("abcd")
    split = search_width(g, 2, 1)[1][0].tables
    assert split == ((5, 15), (7, 13))
    for copies in (254, 255):
        tables = [tuple(sorted(t + (5,) * copies)) for t in split]
        witness = fiber._witness(g, 1, [tables])
        za, zb = witness[1]
        assert za.total() == zb.total() == copies + 2
        assert graph_marginals(za, g) == graph_marginals(zb, g)
        assert (za - zb).l1() == 4
        _assert_least_flip(g, [tables], witness)
    assert max(_cells(g, tables[0])) == 256


def test_witness_marginals_are_its_key():
    g = cycle_graph("abcde")
    fib, (za, zb) = search_width(g, 4, 3)[1]
    m = graph_marginals(fib.elements[0], g)
    assert m == graph_marginals(za, g) == graph_marginals(zb, g)
    assert all(graph_marginals(e, g) == m for e in fib.elements)


def test_c4_needs_degree_4():
    g = cycle_graph("abcd")
    assert min_connecting_degree(g, 4) == 4
    fibw = search_width(g, 4, 3)[1]
    assert fibw is not None
    fib, (za, zb) = fibw
    assert za in fib.elements and zb in fib.elements
    assert graph_marginals(za, g) == graph_marginals(zb, g)
    labels = _kernel.component_labels(
        [tuple(e.units()) for e in fib.elements], 6)
    assert len(set(labels)) > 1


def test_min_degree_monotone_in_total():
    g = cycle_graph("abcd")
    prev = 0
    for total in range(1, 5):
        d = min_connecting_degree(g, total)
        assert d >= prev
        prev = d


# -- orbit-reduced search against the search over every fiber ----------

ORBIT_CASES = [
    (Graph(("a", "b", "c", "d"), [(0, 1), (1, 2)]), 4),  # P3 + isolated d
    (cycle_graph("abcd"), 4),
    (Graph(tuple("abcd"), list(itertools.combinations(range(4), 2))), 3),
]


@pytest.mark.parametrize("g,total", ORBIT_CASES)
def test_group_tables_keeps_one_fiber_per_flip_orbit(g, total):
    """Every fiber is the flip image of a fiber `group_tables` returns,
    and each returned fiber is complete; bits of isolated vertices are
    free inside a fiber, so pruning them would lose tables."""
    edges = sorted(g.edges)
    oracle = all_grouped_tables(g.n, edges, total)
    key_of = {t: key for key, tabs in oracle.items() for t in tabs}
    got = _kernel.group_tables(_kernel.WalkPlan(g.n, edges, total), total)
    assert len(got) < len(oracle)
    covered = set()
    for tabs in got.values():
        assert tabs == oracle[_cells(g, tabs[0])]
        for flips in range(1 << g.n):
            covered.add(key_of[tuple(sorted(m ^ flips for m in tabs[0]))])
    assert covered == set(oracle)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_group_tables_matches_blind_grouping(n):
    """`group_tables` gives the fibers of a grouping of every table by
    its marginal cells, less those the flip cut drops, fiber for fiber
    and in the same order (the order the search and the witness
    follow): every labelled graph on 1-4 vertices at totals 0-6, and
    one graph per isomorphism class on 5 vertices at totals 0-4.  The
    sweep takes in graphs with isolated vertices and total 1, where
    the walk's vertex fields are 1 bit wide.  Each total is walked on
    a plan built for it and on one built for total 8, whose wider
    fields give the same fibers in the same order."""
    graphs = all_graphs(n) if n <= 4 else nonisomorphic_graphs(n)
    isolated = 0
    for g in graphs:
        edges = sorted(g.edges)
        isolated += len({v for e in edges for v in e}) < n
        wide = _kernel.WalkPlan(n, edges, 8)
        for total in range(7 if n <= 4 else 5):
            want = flip_cut_fibers(n, edges, total)
            for plan in (_kernel.WalkPlan(n, edges, total), wide):
                got = list(_kernel.group_tables(plan, total).values())
                assert got == want, (edges, total, plan.width)
    assert isolated


def test_group_tables_refuses_a_total_past_its_plan():
    """A plan's fields hold total // 2 below 2^W: K4's plan for total
    5 has W = 2, so it walks totals 0-7 and refuses 8."""
    k4 = list(itertools.combinations(range(4), 2))
    plan = _kernel.WalkPlan(4, k4, 5)
    assert plan.width == 2
    assert list(_kernel.group_tables(plan, 0).values()) == [[()]]
    assert sum(map(len, _kernel.group_tables(plan, 5).values())) == 969
    assert _kernel.group_tables(plan, 7)
    with pytest.raises(ValueError, match="total 8"):
        _kernel.group_tables(plan, 8)


def test_search_builds_increments_without_edge_cells(monkeypatch):
    """A search builds its walks' increments by doubling over the
    vertices: `search_width(K5, 4)` makes no `_kernel.edge_cells` call
    (one per labeling in each of its 4 walks before, 128 in all)."""
    calls = []
    real = _kernel.edge_cells

    def counted(mask, edges):
        calls.append(mask)
        return real(mask, edges)

    monkeypatch.setattr(_kernel, "edge_cells", counted)
    k5 = Graph(tuple("abcde"), list(itertools.combinations(range(5), 2)))
    assert search_width(k5, 4) == ([1, 1, 1, 4], None)
    assert calls == []


def _recorded_witnesses(monkeypatch):
    """Every `_witness` call of a search: (g, split, witness)."""
    calls = []
    real = fiber._witness

    def recorded(g, k, split):
        witness = real(g, k, split)
        calls.append((g, split, witness))
        return witness

    monkeypatch.setattr(fiber, "_witness", recorded)
    return calls


def _flipped(tables, mask):
    return tuple(sorted(tuple(sorted(m ^ mask for m in t)) for t in tables))


def _assert_least_flip(g, split, witness):
    """`_least_flip` gives the oracle's (cells, mask), and the witness
    its image and the fiber of those cells flipped by that mask."""
    image, cells, mask = least_flip_image(g, split)
    fibers = [_cells(g, tabs[0]) for tabs in split]
    edges = sorted(g.edges)
    flips = [edge_cells(m, edges) for m in range(1 << g.n)]
    assert fiber._least_flip(edges, flips, fibers) == (cells, mask)
    fib = witness[0]
    assert _cells(g, fib.tables[0]) == image
    assert fib.tables == _flipped(split[fibers.index(cells)], mask)


def test_least_flip_matches_itemgetter_minimum(monkeypatch):
    """The edge-by-edge minimum of `_witness` is the smallest
    (image, cells, mask) over every (fiber, flip) `itemgetter` image,
    on the split sets of every connected graph on 2-5 vertices at
    k = 1, 2, 3."""
    calls = _recorded_witnesses(monkeypatch)
    for n in range(2, 6):
        for g in nonisomorphic_graphs(n):
            if g.is_connected():
                for k in (1, 2, 3):
                    search_width(g, 6 if n <= 4 else 4, k)
    assert len(calls) > 40
    for g, split, witness in calls:
        _assert_least_flip(g, split, witness)


def test_least_flip_breaks_ties_as_the_minimum():
    """A split set whose smallest image is reached by several (cells,
    mask) pairs: the C4 fiber split at degree 3 and its flip images.
    The tie goes to the smallest cells, then the smallest mask."""
    g = cycle_graph("abcd")
    tables = search_width(g, 4, 3)[1][0].tables
    split = list({_cells(g, t[0]): t for t in (
        _flipped(tables, mask) for mask in range(16))}.values())
    image = least_flip_image(g, split)[0]
    ties = [(_cells(g, t[0]), mask) for t in split for mask in range(16)
            if _cells(g, _flipped(t, mask)[0]) == image]
    # several fibers reach it, and some fiber under several flips
    assert len(ties) > len({c for c, _ in ties}) > 1
    _assert_least_flip(g, split, fiber._witness(g, 3, split))


@pytest.mark.parametrize("g,total", ORBIT_CASES)
def test_kernel_fibers_and_bottlenecks_match_oracles(g, total):
    edges = sorted(g.edges)
    for key, tabs in all_grouped_tables(g.n, edges, total).items():
        assert _kernel.fiber_tables(g.n, edges, list(key), total) == tabs
        support = sorted({m for t in tabs for m in t})
        assert _kernel.fiber_tables(g.n, edges, list(key), total,
                                    candidates=support) == tabs
        exact = mst_bottleneck(tabs)
        assert _kernel.bottleneck_norm(tabs) == exact
        # started at a floor, the exact bottleneck raised to 2 * floor
        for floor in range(1, total + 2):
            want = max(exact, 2 * floor) if len(tabs) >= 2 else 0
            assert _kernel.bottleneck_norm(tabs, floor) == want


def _drop(t, unit):
    i = t.index(unit)
    return t[:i] + t[i + 1:]


@pytest.mark.parametrize("g,total", ORBIT_CASES)
def test_common_unit_fiber_is_a_lower_total_fiber(g, total):
    """A fiber whose tables all hold a unit u, less u, is exactly a
    fiber of total - 1, at the same distances: the fibers
    `search_width` skips repeat a lower total.  A vertex without an
    edge has a free bit inside a fiber, so then no unit is common."""
    edges = sorted(g.edges)
    isolated = set(range(g.n)) - {v for e in edges for v in e}
    lower = all_grouped_tables(g.n, edges, total - 1)
    key_of = {t: key for key, tabs in lower.items() for t in tabs}
    seen = 0
    for tabs in all_grouped_tables(g.n, edges, total).values():
        for unit in set(tabs[0]).intersection(*tabs[1:]):
            rest = sorted(_drop(t, unit) for t in tabs)
            assert rest == lower[key_of[rest[0]]]
            assert mst_bottleneck(rest) == mst_bottleneck(tabs)
            seen += 1
    assert bool(seen) != bool(isolated)


def test_search_width_analyses_only_fibers_that_can_raise_it(monkeypatch):
    """On C4 at total 4, `bottleneck_norm` sees exactly the fibers of
    `group_tables` with 2 or more tables and no unit common to all."""
    g = cycle_graph("abcd")
    edges = sorted(g.edges)
    analysed = []
    exact = _kernel.bottleneck_norm

    def counted(tables, floor=1):
        analysed.append(tables)
        return exact(tables, floor)

    monkeypatch.setattr(_kernel, "bottleneck_norm", counted)
    assert search_width(g, 4, 3)[0] == [1, 2, 2, 4]
    plan = _kernel.WalkPlan(g.n, edges, 4)
    fibers = [tabs for total in range(1, 5)
              for tabs in _kernel.group_tables(plan, total).values()]
    want = [tabs for tabs in fibers
            if len(tabs) >= 2 and not set(tabs[0]).intersection(*tabs[1:])]
    assert analysed == want
    assert 0 < len(want) < len(fibers)


def test_floor_past_the_split_total_is_the_running_degree(monkeypatch):
    """Above the lowest total with a fiber split at degree <= k, each
    bottleneck starts at the running degree, as in a search without
    k: on C4 with k = 3 the 122 fibers analysed at totals 5 and 6 start
    at 4, not at k."""
    floors = []
    exact = _kernel.bottleneck_norm

    def recorded(tables, floor=1):
        floors.append((len(tables[0]), floor))
        return exact(tables, floor)

    monkeypatch.setattr(_kernel, "bottleneck_norm", recorded)
    g = cycle_graph("abcd")
    assert search_width(g, 6, 3)[0] == [1, 2, 2, 4, 4, 4]
    with_k = [(t, floor) for t, floor in floors if t > 4]
    floors.clear()
    search_width(g, 6)
    assert with_k == [(t, floor) for t, floor in floors if t > 4]
    assert len(with_k) == 122
    assert {floor for _, floor in with_k} == {4}


def test_search_width_matches_naive_search():
    """Same degrees and witnesses as a search over every fiber: every
    labelled graph on 2-4 vertices at totals <= 4, and C5 and K_{2,3}
    at total 3, for k = 1, 2, 3; and C5, K_{2,3} and the house graph
    at total 4 for k = 3, the shape of the benchmark's searches."""
    c5 = cycle_graph("abcde")
    k23 = Graph(tuple("abcde"), [(i, j) for i in (0, 1) for j in (2, 3, 4)])
    house = Graph(tuple("abcde"),
                  [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)])
    cases = [(g, 4, (1, 2, 3)) for n in (2, 3, 4) for g in all_graphs(n)]
    cases += [(c5, 3, (1, 2, 3)), (k23, 3, (1, 2, 3))]
    cases += [(g, 4, (3,)) for g in (c5, k23, house)]
    witnessed = 0
    for g, max_total, ks in cases:
        degrees, witnesses = naive_search(g, max_total, ks)
        for k, want in zip(ks, witnesses):
            got_degrees, got = search_width(g, max_total, k)
            assert got_degrees == degrees
            if want is None:
                assert got is None
                continue
            fib, (za, zb) = got
            assert [tuple(e.units()) for e in fib.elements] == want[0]
            assert (tuple(za.units()), tuple(zb.units())) == want[1:]
            witnessed += 1
    assert witnessed > 20


# -- search by pieces against the whole-graph search -------------------

BOWTIE = Graph(tuple("abcde"), [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4),
                                (3, 4)])
# C4 a-b-c-d with the path d-e-f hung at d
C4_TAIL = Graph(tuple("abcdef"), [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4),
                                  (4, 5)])


def _witness_bytes(witness):
    if witness is None:
        return None
    fib, (za, zb) = witness
    return (fib.graph, fib.tables, za.key(), zb.key())


def test_search_by_pieces_matches_whole_graph_search():
    """Same degrees and witnesses as `_search_fibers` on the whole
    graph, for k = None, 1, 2, 3: every connected graph on 2-5
    vertices (totals 6 and 4), every tree on 6 vertices, and the
    bowtie, the 2x3 ladder and C4 with a hung path at total 4.

    The whole-graph witness for k is taken from a search up to the
    first total whose degree exceeds k: it is the split fiber of the
    lowest split total, which later totals do not change (the naive
    search pins that at the full totals)."""
    cases = [(g, 6 if n <= 4 else 4) for n in range(2, 6)
             for g in nonisomorphic_graphs(n) if g.is_connected()]
    cases += [(g, 4) for g in all_trees(6)]
    cases += [(g, 4) for g in (BOWTIE, ladder_graph(3), C4_TAIL)]
    split = 0
    for g, max_total in cases:
        degrees, _ = fiber._search_fibers(g, max_total)
        split += len(_sum_pieces(g)) > 1
        for k in (None, 1, 2, 3):
            got_degrees, got = search_width(g, max_total, k)
            assert got_degrees == degrees
            first = next((t for t, d in enumerate(degrees, 1)
                          if k is not None and d > k), None)
            want = first and fiber._witness(
                g, k, fiber._search_fibers(g, first, k)[1])
            assert _witness_bytes(got) == _witness_bytes(want)
    assert split == 29


def _record_group_tables(monkeypatch):
    calls = []
    real = _kernel.group_tables

    def recorded(plan, total, cap=0):
        calls.append(plan.n)
        return real(plan, total, cap=cap)

    monkeypatch.setattr(_kernel, "group_tables", recorded)
    return calls


def _record_walks(monkeypatch):
    """(n, total, whole) of every `group_tables` call, `whole` False
    for a walk with some cells fixed."""
    calls = []
    real = _kernel.group_tables

    def recorded(plan, total, fixed=None, cap=0):
        calls.append((plan.n, total, fixed is None))
        return real(plan, total, fixed, cap)

    monkeypatch.setattr(_kernel, "group_tables", recorded)
    return calls


def _edge_counts(edges, table):
    cells = [0] * (4 * len(edges))
    for m in table:
        for c in edge_cells(m, edges):
            cells[c] += 1
    return tuple(cells)


def test_group_tables_with_fixed_cells_walks_the_fibers_over_them():
    """With a piece's cells fixed, `group_tables` gives exactly the
    fibers of the flip-cut grouping with those cells on the piece's
    edges, in the same order: for every piece of the bowtie at totals
    2-4 and of C4 with a hung path at total 3, and every cells of the
    piece's edges that some fiber has.  Cells of a larger total fit no
    table, though no cell is overfilled."""
    walks = 0
    for g, totals in ((BOWTIE, (2, 3, 4)), (C4_TAIL, (3,))):
        for _, sub in _sum_pieces(g):
            for total in totals:
                plan = _kernel.WalkPlan(g.n, g.edges, total)
                over = {}
                for tabs in flip_cut_fibers(g.n, g.edges, total):
                    over.setdefault(_edge_counts(sub, tabs[0]),
                                    []).append(tabs)
                for cells, want in over.items():
                    got = _kernel.group_tables(plan, total,
                                               (sub, list(cells)))
                    assert list(got.values()) == want, (g, sub, cells)
                    assert _kernel.group_tables(plan, total - 1,
                                                (sub, list(cells))) == {}
                    walks += 1
    assert walks > 100


def test_split_graph_witness_walks_over_split_piece_fibers(monkeypatch):
    """For k >= 2 the bowtie's witness at total 4 comes from walks
    with a triangle's cells fixed: the whole graph is walked at totals
    1-3 only, and the triangle once per total, its search's split
    fibers seeding the walks.  For k = 1 degree-2 swaps split fibers
    that no piece splits, and the whole graph is walked at the first
    split total."""
    calls = _record_walks(monkeypatch)
    assert search_width(BOWTIE, 4, 3)[1][0].size == 2
    assert [t for n, t, whole in calls if n == 5 and whole] == [1, 2, 3]
    assert [t for n, t, _ in calls if n == 3] == [1, 2, 3, 4]
    assert (5, 4, False) in calls
    calls.clear()
    assert search_width(BOWTIE, 4, 1)[1][0].size == 2
    assert [t for n, t, whole in calls if n == 5 and whole] == [1, 2]
    assert all(whole for _, _, whole in calls)


def _orbits(g, split):
    """The least flip image (`_least_flip`) of each fiber of `split`:
    one set element per flip orbit."""
    flips = [edge_cells(m, g.edges) for m in range(1 << g.n)]
    images = set()
    for tabs in split:
        cells, mask = fiber._least_flip(g.edges, flips, [_cells(g, tabs[0])])
        images.add(_cells(g, _flipped(tabs, mask)[0]))
    return images


def test_lifted_split_fibers_meet_every_split_orbit(monkeypatch):
    """At the first total whose degree exceeds k, the split fibers
    walked over the pieces' split fibers meet the same flip orbits as
    the whole-graph search's split fibers (they are the same fibers):
    every connected graph on 3-5 vertices with 2 or more pieces
    (totals 6 and 4), and the bowtie, the 2x3 ladder and C4 with a hung
    path at total 4, for k = 2, 3."""
    calls = _recorded_witnesses(monkeypatch)
    cases = [(g, 6 if n <= 4 else 4) for n in range(3, 6)
             for g in nonisomorphic_graphs(n)
             if g.is_connected() and len(_sum_pieces(g)) > 1]
    cases += [(g, 4) for g in (BOWTIE, ladder_graph(3), C4_TAIL)]
    compared = 0
    for g, max_total in cases:
        for k in (2, 3):
            calls.clear()
            degrees, witness = search_width(g, max_total, k)
            if witness is None:
                assert not calls
                continue
            first = next(t for t, d in enumerate(degrees, 1) if d > k)
            whole = fiber._search_fibers(g, first, k)[1]
            [(_, lifted, _)] = calls
            assert len(lifted[0][0]) == first
            assert sorted(lifted) == sorted(whole)
            assert _orbits(g, lifted) == _orbits(g, whole)
            compared += 1
    assert compared == 34


def test_cactus_is_searched_one_triangle_at_a_time(monkeypatch):
    """A cactus of 20 triangles on 41 vertices, past the 16-vertex cap
    of a whole-graph search, is searched on triangles alone."""
    calls = _record_group_tables(monkeypatch)
    assert search_width(triangle_cactus(20), 4) == ([1, 2, 2, 4], None)
    assert calls and max(calls) <= 3


def test_identical_pieces_are_searched_once(monkeypatch):
    """The 199 C4 pieces of a 2x200 ladder are one search: one
    `group_tables` call per total, on 4 vertices."""
    calls = _record_group_tables(monkeypatch)
    assert search_width(ladder_graph(200), 4) == ([1, 2, 2, 4], None)
    assert calls == [4] * 4


def test_pieces_that_disagree_with_the_whole_graph_raise(monkeypatch):
    """The witness search on the whole graph checks the pieces'
    degrees: a piece degree raised at total 3 is caught."""
    real = fiber._search_fibers

    def wrong_for_pieces(g, max_total, k=None):
        degrees, witness = real(g, max_total, k)
        if g.n == 3:
            degrees[2:] = [max(d, 3) for d in degrees[2:]]
        return degrees, witness

    monkeypatch.setattr(fiber, "_search_fibers", wrong_for_pieces)
    with pytest.raises(InvariantViolation, match="differ"):
        search_width(BOWTIE, 4, 2)


def test_lifted_bottleneck_that_disagrees_with_the_pieces_raises(
        monkeypatch):
    """At the first total above k the largest bottleneck of the fibers
    walked over the pieces' split fibers is checked against the
    pieces' degree: the bowtie's triangles raised from 4 to 5 at total
    4 are caught at k = 3."""
    real = fiber._search_fibers

    def wrong_for_pieces(g, max_total, k=None):
        degrees, witness = real(g, max_total, k)
        if g.n == 3:
            degrees[3:] = [5] * len(degrees[3:])
        return degrees, witness

    monkeypatch.setattr(fiber, "_search_fibers", wrong_for_pieces)
    with pytest.raises(InvariantViolation,
                       match=r"\[1, 2, 2, 4\] differ .* \[1, 2, 2, 5\]"):
        search_width(BOWTIE, 4, 3)
