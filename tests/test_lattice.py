"""Sparse table vectors, projections, and marginal maps."""

import pytest
from hypothesis import given, strategies as st

from markov_atlas import (Graph, TableVector, graph_marginals, parse_vector,
                          project, vector_from_json, vector_to_json)
from markov_atlas.errors import (GroundSetMismatch, NotKernelMove, ParseError)
from markov_atlas.lattice import as_moves, edge_cells, format_vector

from helpers import canonical_sign, has_zero_marginals

VERTS = ("a", "b", "c", "d")


def vec(units):
    return TableVector.from_units(VERTS, units)


def passes_kernel_test(u, g):
    """Whether `as_moves` takes u as a move of g."""
    try:
        as_moves([u], g)
    except NotKernelMove:
        return False
    return True


def small_vectors(n_verts=4):
    verts = VERTS[:n_verts]
    return st.dictionaries(
        st.integers(0, (1 << n_verts) - 1), st.integers(-3, 3), max_size=6
    ).map(lambda d: TableVector(verts, d))


# -- basics ------------------------------------------------------------

def test_zero_entries_pruned():
    z = TableVector(VERTS, {0b0001: 2, 0b0010: 0})
    assert z.entries == {0b0001: 2}
    assert z.l1() == 2


def test_out_of_range_mask_rejected():
    with pytest.raises(ValueError):
        TableVector(("a",), {0b10: 1})


def test_units_roundtrip():
    z = vec([3, 3, 5])
    assert z.units() == [3, 3, 5]
    assert z.total() == 3


def test_units_requires_nonnegative():
    with pytest.raises(ValueError):
        (-vec([1])).units()


def test_ground_set_mismatch():
    with pytest.raises(GroundSetMismatch):
        vec([1]) + TableVector(("x", "y"), {1: 1})


@given(small_vectors(), small_vectors())
def test_addition_is_linear_on_entries(z1, z2):
    s = z1 + z2
    for m in set(z1.entries) | set(z2.entries):
        assert s.entries.get(m, 0) == z1.entries.get(m, 0) + z2.entries.get(m, 0)


@given(small_vectors())
def test_negation_is_involutive(z):
    assert -(-z) == z
    assert (z + (-z)).l1() == 0


# -- projections -------------------------------------------------------

def test_project_reorders_bits():
    z = TableVector(VERTS, {0b0001: 1})  # a=1, rest 0
    p = project(z, ("b", "a"))
    # in the output, bit 0 is b, bit 1 is a
    assert p.entries == {0b10: 1}


def test_project_empty_targets_gives_total():
    z = vec([0, 7, 7])
    p = project(z, ())
    assert p.vertices == ()
    assert p.entries == {0: 3}


def test_project_unknown_vertex():
    with pytest.raises(GroundSetMismatch):
        project(vec([0]), ("z",))


@given(small_vectors())
def test_projection_is_functorial(z):
    via = project(project(z, ("a", "b", "c")), ("a", "c"))
    direct = project(z, ("a", "c"))
    assert via == direct


@given(small_vectors(), small_vectors())
def test_projection_is_linear(z1, z2):
    t = ("b", "d")
    assert project(z1 + z2, t) == project(z1, t) + project(z2, t)


# -- marginals ---------------------------------------------------------

def path_graph():
    return Graph(VERTS, [(0, 1), (1, 2), (2, 3)])


def test_edge_marginal_cells():
    g = path_graph()
    z = vec([0b0011, 0b0010])  # a=b=1; b=1 alone
    m = graph_marginals(z, g)
    # edge (a, b): first bit = a.  0b0011 -> cell 11; 0b0010 -> cell 01
    assert m.table(0, 1) == (0, 1, 0, 1)
    assert m.total == 2


def test_marginals_match_pairwise_projection():
    g = path_graph()
    z = vec([0b0101, 0b1110, 0b0000])
    m = graph_marginals(z, g)
    for (i, j) in g.edges:
        p = project(z, (VERTS[i], VERTS[j]))
        cells = m.table(i, j)
        # cell index uses the smaller-index vertex as the first bit
        assert cells == (p.entries.get(0, 0), p.entries.get(2, 0),
                         p.entries.get(1, 0), p.entries.get(3, 0))


def test_edge_cells_layout():
    """Edge e owns cells 4e..4e+3; the smaller-index vertex's value is
    the high bit of the cell."""
    edges = [(0, 1), (0, 3), (1, 2)]
    assert edge_cells(0b0000, edges) == [0, 4, 8]
    assert edge_cells(0b0001, edges) == [2, 6, 8]  # a = 1
    assert edge_cells(0b1010, edges) == [1, 5, 10]  # b = d = 1
    assert edge_cells(0b1111, edges) == [3, 7, 11]
    assert edge_cells(0b1111, []) == []


@given(small_vectors())
def test_kernel_iff_equal_marginals(u):
    """u is a kernel element iff z and z+u have the same marginals
    whenever both are tables."""
    g = path_graph()
    assert passes_kernel_test(u, g) == has_zero_marginals(u, g)


def test_as_move_rejects_nonkernel():
    g = path_graph()
    with pytest.raises(NotKernelMove):
        as_moves([vec([1])], g)


def test_degree_4_cycle_move():
    g = Graph(VERTS, [(0, 1), (1, 2), (2, 3), (0, 3)])
    u = (vec([0b0101, 0b0101, 0b1111, 0b1111])
         - vec([0b0111, 0b0111, 0b1101, 0b1101]))
    assert has_zero_marginals(u, g)
    assert as_moves([u], g)[0].vector.l1() // 2 == 4


def test_degree_2_path_move():
    g = Graph(VERTS, [(0, 1), (1, 2)])
    # swap the value of the free vertex d between two units
    u = vec([0b0011, 0b1100]) - vec([0b1011, 0b0100])
    assert has_zero_marginals(u, g)
    assert as_moves([u], g)[0].vector.l1() // 2 == 2


def test_kernel_test_zero_vector_and_edgeless_graph():
    assert passes_kernel_test(TableVector(VERTS, {}), path_graph())
    edgeless = Graph(VERTS, [])
    # without edges only the total has to vanish
    assert passes_kernel_test(vec([1, 2]) - vec([4, 8]), edgeless)
    assert not passes_kernel_test(vec([1, 2]) - vec([4]), edgeless)
    assert as_moves([vec([3]) - vec([12])], edgeless)[0].vector.l1() // 2 \
        == 1


def test_kernel_test_rejects_other_vertex_order():
    g = Graph(VERTS, [(0, 1), (1, 2), (2, 3), (0, 3)])
    u = TableVector(("b", "a", "c", "d"), {0b0101: 1, 0b1010: 1,
                                           0b0111: -1, 0b1000: -1})
    with pytest.raises(GroundSetMismatch):
        as_moves([u], g)


def test_kernel_test_fields_fit_the_l1_norm():
    """Edge (a, b) with c free: counts of at most 300 put cell marginals
    (512, -1, -512, 1) on the edge.  Packed in fields sized for the
    largest count (9 bits), 512 * 2**0 - 1 * 2**9 - 512 * 2**18
    + 1 * 2**27 is 0; fields sized for the L1 norm (1026) see them."""
    g = Graph(("a", "b", "c"), [(0, 1)])
    u = TableVector(g.vertices, {0b000: 300, 0b100: 212, 0b010: -1,
                                 0b001: -300, 0b101: -212, 0b011: 1})
    m = graph_marginals(u, g)
    assert (m.edges, m.cells) == (((0, 1),), (512, -1, -512, 1))
    assert sum(c << (9 * k) for k, c in enumerate((512, -1, -512, 1))) == 0
    assert u.total() == 0
    assert not passes_kernel_test(u, g)
    flat = TableVector(g.vertices, {0b000: 300, 0b100: -300,
                                    0b011: -300, 0b111: 300})
    assert passes_kernel_test(flat, g)


def test_canonical_sign():
    u = vec([1]) - vec([2])
    assert canonical_sign(u) == u
    assert canonical_sign(-u) == u
    assert canonical_sign(TableVector(VERTS, {})).l1() == 0


# -- formats -----------------------------------------------------------

def test_vector_text_roundtrip():
    z = vec([0b0101, 0b0101, 0b1000])
    assert parse_vector(format_vector(z)) == z
    # comments, blank lines and a header with no space after its colon
    assert parse_vector("# z\n\nvertices:a b c d  # header\n   \n"
                        "1010 2 # twice\n0001 1\n") == z


def test_vector_json_roundtrip():
    z = vec([0b0001, 0b1111])
    assert vector_from_json(vector_to_json(z)) == z


def test_vector_from_json_rejects_bad_bitstrings():
    """A bit string of the wrong length, or with characters other than
    0 and 1, is a ParseError, as in the text format; zero vertices
    have the one labeling ""."""
    for bits in ("1x", "1", "100", "1_0", " 1"):
        with pytest.raises(ParseError):
            vector_from_json({"vertices": ["a", "b"], "entries": {bits: 1}})
    zero = TableVector((), {0: 2})
    assert vector_to_json(zero) == {"vertices": [], "entries": {"": 2}}
    assert vector_from_json(vector_to_json(zero)) == zero


def test_parse_vector_reports_line():
    with pytest.raises(ParseError) as err:
        parse_vector("vertices: a b\n01 1\n0x 2\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_vector("# v\n\nvertices:a b # header\n01 1  # one\n\n0x 2\n")
    assert err.value.line == 6


def test_parse_vector_needs_header():
    with pytest.raises(ParseError):
        parse_vector("01 1\n")


def test_parse_vector_wrong_width():
    with pytest.raises(ParseError):
        parse_vector("vertices: a b c\n01 1\n")
