"""Width classification and complete-graph lower-bound reports."""

import itertools

import pytest

from markov_atlas import (Graph, classify_width, complete_graph, cycle_graph,
                          find_k4_minor, is_k4_minor_free,
                          kn_lower_bound_report, min_connecting_degree,
                          parse_graph, width)
from markov_atlas.errors import NotTwoFaceColorable
from markov_atlas.triangulation import load_triangulation

from helpers import (assert_k4_minor, glued_octahedra, ladder_graph,
                     nonisomorphic_graphs, subdivided_k4)


def test_star_is_exact_2():
    g = Graph(tuple("abcdef"), [(0, i) for i in range(1, 6)])
    rep = classify_width(g)
    assert (rep.kind, rep.value) == ("exact", 2)


def test_empty_graph_counts_as_forest():
    rep = classify_width(Graph(("a", "b", "c"), []))
    assert (rep.kind, rep.value) == ("exact", 2)


def test_c7_is_exact_4():
    rep = classify_width(cycle_graph("abcdefg"))
    assert (rep.kind, rep.value) == ("exact", 4)


def test_k5_is_lower_bound_6_with_provenance():
    g = complete_graph("abcde")
    rep = classify_width(g)
    assert (rep.kind, rep.value) == ("lower-bound", 6)
    assert rep.k4_minor is not None
    obj = rep.to_json()
    assert obj["class"] == "lower-bound"
    assert len(obj["k4_minor"]) == 4


def test_find_k4_minor_branch_sets_are_valid():
    shapes = [
        complete_graph("abcd"),
        complete_graph("abcde"),
        parse_graph("a b\na c\na d\nb c\nb d\nc e\ne d\n"),  # subdivided K4
        parse_graph("a b\nb c\nc d\nd a\na c\nb d\nd e\ne f\n"),
        # a triangle component first, then K5 with a pendant path
        parse_graph("x y\ny z\nz x\n"
                    + "".join(f"{a} {b}\n" for a, b in
                              itertools.combinations("abcde", 2))
                    + "e p\np q\nq r\n"),
    ]
    shapes += [subdivided_k4(length) for length in range(1, 14)]
    for n in range(4, 7):
        for g in nonisomorphic_graphs(n):
            if is_k4_minor_free(g):
                assert find_k4_minor(g) is None, repr(g)
            else:
                shapes.append(g)
    for g in shapes:
        assert_k4_minor(g, find_k4_minor(g))


def test_find_k4_minor_makes_at_most_one_test_per_vertex_and_edge(
        monkeypatch):
    """One K4 test of the graph, then one per vertex and one per edge:
    1 + 76 + 78 on K4 with each edge a path of 13 edges."""
    calls = []
    real = width.is_k4_minor_free
    monkeypatch.setattr(width, "is_k4_minor_free",
                        lambda h: calls.append(h) or real(h))
    g = subdivided_k4(13)
    assert (g.n, g.m) == (76, 78)
    assert_k4_minor(g, find_k4_minor(g))
    assert len(calls) <= 1 + g.n + g.m


def test_find_k4_minor_searches_only_the_block_with_the_minor(monkeypatch):
    """A K4 hung at v0 of a 2x200 ladder (403 vertices, 604 edges): the
    deletion passes run on the K4's block alone, so each K4 test sees
    at most its 6 edges, one test per vertex and edge of it."""
    sizes = []
    real = width.is_k4_minor_free
    monkeypatch.setattr(width, "is_k4_minor_free",
                        lambda h: sizes.append(h.m) or real(h))
    ladder = ladder_graph(200)
    k4 = itertools.combinations([0, 400, 401, 402], 2)
    g = Graph(ladder.vertices + ("k1", "k2", "k3"),
              set(ladder.edges) | set(k4))
    assert (g.n, g.m) == (403, 604)
    assert_k4_minor(g, find_k4_minor(g))
    assert 0 < len(sizes) <= 11 and max(sizes) <= 6, sizes


def test_find_k4_minor_none_for_sp():
    assert find_k4_minor(cycle_graph("abcd")) is None


def test_classification_consistent_with_search():
    """Desk-scale agreement between structure and fiber search."""
    for g in nonisomorphic_graphs(4):
        rep = classify_width(g)
        d = min_connecting_degree(g, 3)
        if rep.kind == "exact":
            assert d <= rep.value // 2 * 2 and d <= rep.value
        else:
            assert not is_k4_minor_free(g)


@pytest.mark.parametrize("total", [0, -2])
def test_evidence_total_below_one_rejected(total):
    with pytest.raises(ValueError, match="table total must be >= 1"):
        classify_width(cycle_graph("abcd"), evidence_max_total=total)


def test_evidence_attached():
    rep = classify_width(cycle_graph("abcd"), evidence_max_total=4)
    assert rep.search_degree == 4
    assert rep.to_json()["search_max_total"] == 4


def test_kn_report_defaults():
    assert kn_lower_bound_report(6).bound == 4
    assert kn_lower_bound_report(8).bound == 6
    assert kn_lower_bound_report(10).bound == 8


def test_kn_report_rejects_odd_or_small():
    with pytest.raises(ValueError):
        kn_lower_bound_report(7)
    with pytest.raises(ValueError):
        kn_lower_bound_report(4)


def test_kn_report_with_bad_triangulation():
    tetra = load_triangulation("a b c\na b d\na c d\nb c d\n")
    with pytest.raises(NotTwoFaceColorable):
        kn_lower_bound_report(4, triangulation=tetra)


def test_kn_report_rejects_unclean_triangulation():
    """A colorable triangulation that is not clean is an input error,
    as a vertex-count mismatch is, not an invariant violation."""
    t = load_triangulation(glued_octahedra())
    assert (t.n, t.m) == (9, 21)
    with pytest.raises(ValueError, match="not clean"):
        kn_lower_bound_report(9, triangulation=t)


def test_kn_report_vertex_count_mismatch():
    tetra = load_triangulation("a b c\na b d\na c d\nb c d\n")
    with pytest.raises(ValueError):
        kn_lower_bound_report(6, triangulation=tetra)
