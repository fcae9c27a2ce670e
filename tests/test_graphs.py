"""Graph structure: blocks, bridges, series-parallel decomposition,
and K4-minor-freeness against a brute-force oracle."""

import hashlib
import itertools
import json
import random
import sys

import pytest

from markov_atlas import (Graph, TableVector, blocks, bridges,
                          complete_graph, connect_two_terminal, cut_vertices,
                          cycle_graph, find_parallel3_poles,
                          graph_marginals, is_k4_minor_free, parse_graph,
                          sp_decompose)
from markov_atlas.errors import NoSuchPoles, NotSeriesParallel, ParseError
from markov_atlas.graphs import _sum_pieces, block_cut_forest

from helpers import (all_graphs, brute_has_k4_minor, ladder_graph,
                     nonisomorphic_graphs, random_sp_block, tree_graph)


# -- parsing -----------------------------------------------------------

def test_parse_first_appearance_order():
    g = parse_graph("x y\ny z\n# comment\nz x\n")
    assert g.vertices == ("x", "y", "z")
    assert g.m == 3
    # comment-only, blank and indented lines carry nothing, a trailing
    # comment is cut off, and the edges come sorted whatever their order
    g = parse_graph("# c a b\n\nc a  # first\n   \n\tb a\nc b#last\n")
    assert g.vertices == ("c", "a", "b")
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    z = TableVector(g.vertices, {0b011: 1, 0b100: 2})
    assert graph_marginals(z, g).edges == g.edges
    assert Graph("abc", [(2, 0), (1, 0)]).edges == ((0, 1), (0, 2))


def test_parse_collapses_duplicates():
    g = parse_graph("a b\nb a\n")
    assert g.m == 1


def test_parse_rejects_loop():
    with pytest.raises(ParseError) as err:
        parse_graph("a b\nc c\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_graph("# g\n\na b  # edge\n  # indented\nc c # loop\n")
    assert err.value.line == 5


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_graph("a b c\n")


# -- basic structure ---------------------------------------------------

def test_subgraph_preserves_parent_order():
    g = parse_graph("d c\nc b\nb a\n")
    sub = g.subgraph([3, 1, 2])  # a, c, b by parent positions
    assert sub.vertices == ("c", "b", "a")
    assert sub.m == 2


def test_forest_and_cycle_predicates():
    assert parse_graph("a b\nb c\n").is_forest()
    assert not cycle_graph("abc").is_forest()
    assert Graph(("a", "b"), []).is_forest()


# -- blocks and cut vertices -------------------------------------------

def test_two_triangles_at_a_vertex():
    # triangles abc and cde share c
    g = parse_graph("a b\nb c\na c\nc d\nd e\nc e\n")
    bs = blocks(g)
    assert len(bs) == 2
    assert sorted(sorted(b.vertices) for b in bs) == [
        ["a", "b", "c"], ["c", "d", "e"]]
    assert cut_vertices(g) == {g.index("c")}


def test_bridge_edge_is_its_own_block():
    g = parse_graph("a b\nb c\nc a\nc d\n")
    bs = blocks(g)
    assert len(bs) == 2
    assert any(b.m == 1 for b in bs)


def test_blocks_partition_edges():
    for g in all_graphs(5):
        edge_label_sets = [set(b.edge_labels()) for b in blocks(g)]
        flat = [e for s in edge_label_sets for e in s]
        assert len(flat) == len(set(flat)) == g.m


def test_cut_vertices_oracle():
    """A cut vertex is exactly one whose removal adds components."""
    for g in all_graphs(5):
        expect = set()
        base = len(g.connected_components())
        for v in range(g.n):
            rest = g.subgraph([x for x in range(g.n) if x != v])
            if len(rest.connected_components()) > base - (
                    len(g.adj()[v]) == 0):
                expect.add(v)
        assert cut_vertices(g) == expect, repr(g)


def test_blocks_of_a_long_path():
    """The block DFS is iterative: a 5,000-vertex path needs no deep
    recursion, and the process-wide recursion limit is left alone."""
    n = 5000
    g = Graph([str(i) for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    limit = sys.getrecursionlimit()
    assert len(blocks(g)) == n - 1
    assert cut_vertices(g) == set(range(1, n - 1))
    assert sys.getrecursionlimit() == limit


def test_block_cut_forest_order():
    """Blocks and isolated vertices once each; components in order of
    their smallest vertex; every later piece of a component meets the
    earlier ones exactly at its attach vertex, which its parent holds."""
    for g in all_graphs(5):
        pieces = block_cut_forest(g)
        assert sorted(p.vertices for p in pieces if p.edges) == \
            sorted(tuple(g.index(v) for v in b.vertices) for b in blocks(g))
        assert sorted(e for p in pieces for e in p.edges) == sorted(g.edges)
        comps = g.connected_components()
        comp_of = {v: k for k, c in enumerate(comps) for v in c}
        firsts = [j for j, p in enumerate(pieces) if p.parent is None]
        assert [pieces[j].vertices[0] for j in firsts] == \
            [c[0] for c in comps]
        seen = set()
        for j, p in enumerate(pieces):
            if p.parent is None:
                assert p.attach is None and not seen & set(p.vertices)
                comp = comp_of[p.vertices[0]]
            else:
                assert p.parent < j and comp_of[p.vertices[0]] == comp
                assert seen & set(p.vertices) == {p.attach}
                assert p.attach in pieces[p.parent].vertices
            seen |= set(p.vertices)
        assert seen == set(range(g.n))


def test_sum_pieces():
    """Cut vertices and separating edges split a graph; blocks without
    a separating edge stay whole."""
    triangle = ((0, 1), (0, 2), (1, 2))
    c4 = ((0, 1), (0, 2), (1, 3), (2, 3))

    def shapes(g):
        out = []
        for verts, edges in _sum_pieces(g):
            pos = {v: i for i, v in enumerate(verts)}
            out.append(tuple((pos[a], pos[b]) for a, b in edges))
        return out

    bowtie = Graph(tuple("abcde"),
                   [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    diamond = Graph(tuple("abcd"), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert _sum_pieces(bowtie) == [((0, 1, 2), triangle),
                                   ((2, 3, 4), ((2, 3), (2, 4), (3, 4)))]
    assert _sum_pieces(diamond) == [((0, 1, 2), ((0, 1), (0, 2), (1, 2))),
                                    ((0, 2, 3), ((0, 2), (0, 3), (2, 3)))]
    assert shapes(ladder_graph(3)) == [c4, c4]
    assert shapes(ladder_graph(200)) == [c4] * 199
    theta = Graph(tuple("abcde"), [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4),
                                   (4, 1)])  # three paths of length 2
    for g in (complete_graph("abcd"), cycle_graph("abcde"), theta):
        assert _sum_pieces(g) == [(tuple(range(g.n)), tuple(sorted(g.edges)))]
    path = Graph(tuple("abcd"), [(0, 1), (1, 2), (2, 3)])
    assert _sum_pieces(path) == [((0, 1), ((0, 1),)), ((1, 2), ((1, 2),)),
                                 ((2, 3), ((2, 3),))]


# -- bridges -----------------------------------------------------------

def test_theta_graph_bridges():
    # three internally disjoint a-b paths
    g = parse_graph("a b\na c\nc b\na d\nd b\n")
    parts = bridges(g, 0, 1)
    assert len(parts) == 3
    assert parts[0].is_edge
    assert {len(p.edges) for p in parts} == {1, 2}


def test_bridges_partition_edges():
    g = complete_graph("abcd")
    for u in range(4):
        for v in range(u + 1, 4):
            parts = bridges(g, u, v)
            es = [e for p in parts for e in p.edges]
            assert sorted(es) == sorted(g.edges)


def test_find_parallel3_poles_on_theta():
    g = parse_graph("a b\na c\nc b\na d\nd b\n")
    u, v, parts = find_parallel3_poles(g)
    assert (g.vertices[u], g.vertices[v]) == ("a", "b")
    assert len(parts) == 3


def test_cycle_has_no_parallel3_poles():
    with pytest.raises(NoSuchPoles):
        find_parallel3_poles(cycle_graph("abcdef"))


def test_every_2connected_sp_noncycle_has_poles():
    """Structure guarantee of the public `find_parallel3_poles`; the
    connector no longer calls it, since it re-poles a ring at a parallel
    node of the block's series-parallel tree."""
    for g in nonisomorphic_graphs(6):
        if not g.is_connected() or cut_vertices(g) or g.n < 3:
            continue
        # 2-connected on 3 or more vertices, so a cycle iff m == n
        if g.m == g.n or not is_k4_minor_free(g):
            continue
        u, v, parts = find_parallel3_poles(g)
        assert len(parts) >= 3


# -- series-parallel decomposition -------------------------------------

def test_sp_tree_roundtrip_graph():
    g = parse_graph("a b\na c\nc b\na d\nd b\n")
    tree = sp_decompose(g, poles=("a", "b"))
    assert tree["poles"] == ["a", "b"]
    assert tree_graph(tree, g.vertices) == g


def test_sp_decompose_rejects_k4():
    with pytest.raises(NotSeriesParallel):
        sp_decompose(complete_graph("abcd"))


def test_sp_decompose_respects_requested_poles():
    g = cycle_graph("abcd")
    tree = sp_decompose(g, poles=("b", "d"))
    assert tree["poles"] == ["b", "d"]
    assert tree_graph(tree, g.vertices) == g


def test_pole_that_is_not_a_vertex():
    """A pole label missing from the graph is named in a ValueError,
    by the decomposition and by the two-terminal connector."""
    g = cycle_graph("abcd")
    with pytest.raises(ValueError, match="^'z' is not a vertex of the graph$"):
        sp_decompose(g, poles=("a", "z"))
    z = TableVector.from_units(g.vertices, [0b0101])
    with pytest.raises(ValueError, match="^'y' is not a vertex of the graph$"):
        connect_two_terminal(g, "y", "b", z, z)


# sha256 over (poles, tree) of every decomposition below, as the
# recursive reduction it replaced printed them; the iterative reduction
# must reproduce every tree exactly
DECOMPOSE_DIGEST = \
    "5ab5f9ee831aa9dc47032ce88610aa06a2f915b4231fc3af9fca5d685c354f17"


def test_decompose_output_pinned():
    """Every connected 6-vertex graph that reduces, without poles and
    with every ordered pole pair that reduces: 487 trees."""
    digest = hashlib.sha256()
    count = 0
    for g in nonisomorphic_graphs(6):
        if not g.is_connected() or g.m == 0:
            continue
        for poles in [None] + list(itertools.permutations(g.vertices, 2)):
            try:
                tree = sp_decompose(g, poles)
            except NotSeriesParallel:
                continue
            count += 1
            assert json.loads(json.dumps(tree)) == tree
            digest.update(json.dumps([poles, tree]).encode())
    assert count == 487
    assert digest.hexdigest() == DECOMPOSE_DIGEST


@pytest.mark.parametrize("make", [
    lambda: ladder_graph(1000),
    lambda: cycle_graph([f"v{i}" for i in range(5000)]),
    lambda: random_sp_block(2000, random.Random(2000)),
], ids=["ladder-2x1000", "C5000", "sp-block-2000"])
def test_sp_decompose_deep_inputs(make, default_recursion_limit):
    """Trees up to thousands of levels deep decompose, their leaves give
    back the graph, and the graph passes the K4 test, under the default
    recursion limit."""
    g = make()
    tree = sp_decompose(g)
    assert tree_graph(tree, g.vertices) == g
    assert is_k4_minor_free(g)


def test_sp_decompose_all_small_sp_graphs():
    """Reduction succeeds exactly on the 2-connected K4-minor-free
    blocks, and the tree's leaves always give back the graph."""
    for g in nonisomorphic_graphs(5):
        if not g.is_connected() or g.m == 0:
            continue
        try:
            tree = sp_decompose(g)
            ok = True
        except NotSeriesParallel:
            ok = False
        if ok:
            assert tree_graph(tree, g.vertices) == g
            assert not brute_has_k4_minor(g)


# -- K4-minor-freeness against the oracle ------------------------------

def test_k4_minor_free_matches_oracle_n5():
    for g in all_graphs(5):
        assert is_k4_minor_free(g) == (not brute_has_k4_minor(g)), repr(g)


def test_k4_minor_free_matches_oracle_n6():
    for g in nonisomorphic_graphs(6):
        assert is_k4_minor_free(g) == (not brute_has_k4_minor(g)), repr(g)


def test_k4_examples():
    assert not is_k4_minor_free(complete_graph("abcd"))
    assert is_k4_minor_free(cycle_graph("abcdef"))
    # K4 with one edge subdivided still has the minor
    g = parse_graph("a b\na c\na d\nb c\nb d\nc e\ne d\n")
    assert not is_k4_minor_free(g)
