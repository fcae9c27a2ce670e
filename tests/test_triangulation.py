"""Triangulated surfaces and complete-graph lower-bound certificates."""

import itertools

import pytest

from markov_atlas import (certify_lower_bound, complete_graph, double_wheel,
                          fiber_of, graph_marginals, is_clean,
                          load_triangulation, red_blue_vectors,
                          two_face_coloring)
from markov_atlas import triangulation
from markov_atlas.errors import (InvalidTriangulation, NotTwoFaceColorable,
                                 ParseError)
from markov_atlas.triangulation import Triangulation, _face_mask, _face_masks

TETRA = "a b c\na b d\na c d\nb c d\n"


def octahedron():
    return double_wheel(4)


# -- parsing and validation --------------------------------------------

def test_load_tetrahedron():
    t = load_triangulation(TETRA)
    assert (t.n, t.m, t.f) == (4, 6, 4)
    assert t.euler == 2
    # comment-only and blank lines carry nothing; trailing comments go
    assert load_triangulation("# tetrahedron\n\na b c  # top\n   \n"
                              "a b d\n\ta c d#\nb c d\n") == t


def test_load_rejects_bad_line():
    with pytest.raises(ParseError) as err:
        load_triangulation("a b c\na b\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        load_triangulation("# faces\n\na b c # one\n  \na b  # short\n")
    assert err.value.line == 5


def test_open_surface_rejected():
    with pytest.raises(InvalidTriangulation):
        load_triangulation("a b c\na b d\n")


def test_repeated_face_rejected():
    with pytest.raises(InvalidTriangulation):
        load_triangulation(TETRA + "a b c\n")


@pytest.mark.parametrize("text", ["", "# no faces\n\n"])
def test_no_faces_rejected(text):
    with pytest.raises(InvalidTriangulation, match="no faces"):
        load_triangulation(text)


# -- double wheel -------------------------------------------------------

def test_double_wheel_counts():
    for ncyc in (4, 6, 8):
        t = double_wheel(ncyc)
        assert t.n == ncyc + 2
        assert t.m == 3 * ncyc
        assert t.f == 2 * ncyc
        assert t.euler == 2
        t.validate()


def test_double_wheel_clean():
    for ncyc in (4, 5, 6, 8):
        assert is_clean(double_wheel(ncyc))


def test_double_wheel_coloring_parity():
    two_face_coloring(double_wheel(4))
    two_face_coloring(double_wheel(6))
    with pytest.raises(NotTwoFaceColorable):
        two_face_coloring(double_wheel(5))


# -- cleanness ----------------------------------------------------------

def test_is_clean_oracle():
    """Compare against explicit 3-clique enumeration of the skeleton."""
    for t in (load_triangulation(TETRA), octahedron(), double_wheel(6)):
        sk = t.skeleton()
        adj = sk.adj()
        cliques = {tuple(sorted((i, j, k)))
                   for (i, j) in sk.edges for k in adj[i] & adj[j]}
        assert is_clean(t) == (cliques == set(t.faces))


def test_tetrahedron_clean_but_not_colorable():
    t = load_triangulation(TETRA)
    assert is_clean(t)
    with pytest.raises(NotTwoFaceColorable):
        two_face_coloring(t)


# -- red/blue vectors ---------------------------------------------------

def test_red_blue_vectors_properties():
    t = octahedron()
    coloring = two_face_coloring(t)
    zr, zb = red_blue_vectors(t, coloring)
    assert zr.total() == zb.total() == t.f // 2 == t.m // 3
    kn = complete_graph(t.vertices)
    assert graph_marginals(zr, kn) == graph_marginals(zb, kn)
    assert (zr - zb).l1() == 2 * t.m // 3


def test_face_candidates_cover_both_vectors():
    t = octahedron()
    coloring = two_face_coloring(t)
    zr, zb = red_blue_vectors(t, coloring)
    cand = set(_face_masks(t))
    assert cand == {0, *map(_face_mask, t.faces)}
    assert set(zr.entries) <= cand
    assert set(zb.entries) <= cand


# -- certificates -------------------------------------------------------

def test_octahedron_certificate():
    rep = certify_lower_bound(octahedron(), verify_fiber=True)
    assert rep.clean and rep.colorable
    assert rep.bound == 4
    assert rep.fiber_verified and rep.fiber_size == 2


def test_double_wheel_6_certificate():
    rep = certify_lower_bound(double_wheel(6), verify_fiber=True)
    assert rep.dual_components == 1
    assert rep.bound == 6
    assert rep.fiber_verified and rep.fiber_size == 2


def octahedra(shared_apex: bool):
    """Two octahedra, disjoint or glued at one vertex: the dual graph of
    the faces has two components of 12 edges each."""
    t = octahedron()
    text = ""
    for prefix in "pq":
        labels = [prefix + v for v in t.vertices]
        if shared_apex:
            labels[t.vertices.index("a")] = "a"
        text += "".join(" ".join(labels[i] for i in f) + "\n"
                        for f in t.faces)
    return load_triangulation(text)


@pytest.mark.parametrize("shared_apex", [True, False])
def test_disconnected_dual_bounds_the_largest_component(shared_apex):
    """m = 24 but the fiber has 2^2 tables, one per choice of red or
    blue in each octahedron; flipping one octahedron is a degree-4
    move, so the bound is 4, not 8."""
    t = octahedra(shared_apex)
    assert (t.n, t.m) == (11 if shared_apex else 12, 24)
    rep = certify_lower_bound(t, verify_fiber=True)
    assert rep.clean and rep.colorable
    assert rep.dual_components == 2
    assert rep.bound == 4
    assert rep.fiber_verified and rep.fiber_size == 4
    assert not rep.fiber_is_pair


def difference_triangulation(n_mod, a, b, c):
    """Three copies x, y, z of Z_N, with x-y when y - x is in A, y-z
    when z - y is in B and x-z when z - x is in C; the faces are all
    the triangles."""
    text = "".join(f"x{x} y{(x + i) % n_mod} z{(x + i + j) % n_mod}\n"
                   for x in range(n_mod) for i in a for j in b
                   if (i + j) % n_mod in c)
    return load_triangulation(text)


@pytest.mark.parametrize("make", [
    octahedron,
    lambda: octahedra(True),
    lambda: octahedra(False),
    lambda: double_wheel(6),
    lambda: double_wheel(8),
], ids=["octahedron", "octahedra-glued", "octahedra-disjoint",
        "wheel-n8", "wheel-n10"])
def test_face_search_matches_blind_enumeration(make, monkeypatch):
    """The fiber certify enumerates over the faces is the fiber of a
    blind search over every labeling (the octahedron is the double
    wheel for n = 6)."""
    t = make()
    searched = []

    def recording(*args, **kwargs):
        searched.append(fiber_of(*args, **kwargs))
        return searched[-1]

    monkeypatch.setattr(triangulation.fiber_mod, "fiber_of", recording)
    rep = certify_lower_bound(t, verify_fiber=True)
    assert rep.fiber_verified
    zr, _ = red_blue_vectors(t, two_face_coloring(t))
    kn = complete_graph(t.vertices)
    blind = fiber_of(kn, zr)
    assert sorted(searched[0].tables) == sorted(blind.tables)
    assert blind.size == rep.fiber_size


def test_difference_set_member_n12(monkeypatch):
    """N = 4 with A = B = C = {1, 2, 3}: 12 vertices, 36 edges, 24
    faces and a connected dual, so bound 12; the fiber of total 12 is
    the red/blue pair."""
    t = difference_triangulation(4, {1, 2, 3}, {1, 2, 3}, {1, 2, 3})
    assert (t.n, t.m, t.f) == (12, 36, 24)
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", "max_total=12")
    rep = certify_lower_bound(t, verify_fiber=True)
    assert rep.clean and rep.colorable and rep.dual_components == 1
    assert rep.bound == 12
    assert rep.fiber_verified and rep.fiber_size == 2 and rep.fiber_is_pair


def test_tetrahedron_certificate_fails():
    rep = certify_lower_bound(load_triangulation(TETRA))
    assert rep.clean and not rep.colorable
    assert rep.bound is None
