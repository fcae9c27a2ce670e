"""Width classification and complete-graph lower-bound reports."""

import pytest

from markov_atlas import (Graph, classify_width, complete_graph, cycle_graph,
                          find_k4_minor, is_k4_minor_free,
                          kn_lower_bound_report, min_connecting_degree,
                          parse_graph)
from markov_atlas.errors import NotTwoFaceColorable
from markov_atlas.triangulation import load_triangulation

from helpers import nonisomorphic_graphs


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
    ]
    for g in shapes:
        sets = find_k4_minor(g)
        assert sets is not None
        flat = [v for s in sets for v in s]
        assert len(flat) == len(set(flat))
        idx_sets = [{g.index(v) for v in s} for s in sets]
        adj = g.adj()
        for s in idx_sets:
            # connected branch set
            seen = {next(iter(s))}
            stack = list(seen)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y in s and y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert seen == s
        for i in range(4):
            for j in range(i + 1, 4):
                assert any(y in idx_sets[j]
                           for x in idx_sets[i] for y in adj[x])


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


def test_kn_report_vertex_count_mismatch():
    tetra = load_triangulation("a b c\na b d\na c d\nb c d\n")
    with pytest.raises(ValueError):
        kn_lower_bound_report(6, triangulation=tetra)
