"""Gluing primitives and the degree-4 connector."""

import hashlib
import itertools
import json
import random

import pytest

from markov_atlas import (Graph, SPTree, TableVector, connect_cycle,
                          connect_graph, connect_sp, connect_two_terminal,
                          cut_vertices, cycle_graph, complete_graph,
                          glue_cutchange, glue_cutsame, glue_swaps,
                          graph_marginals, is_k4_minor_free, parse_graph,
                          parse_vector, project, realize, sp_decompose,
                          verify_sequence)
from markov_atlas.connector import MoveSequence
from markov_atlas.errors import (InvariantViolation, NotK4MinorFree,
                                 NotSeriesParallel, ProjectionMismatch)
from markov_atlas.fiber import _kernel

from helpers import (all_graphs, all_grouped_tables, bfs_connected,
                     cutsame_cases, cutsame_oracle, ladder_graph,
                     random_sp_block, swap_partner)


def tv(verts, units):
    return TableVector.from_units(tuple(verts), units)


def random_units(rng, nbits, total):
    return [rng.randrange(1 << nbits) for _ in range(total)]


# -- glue_cutsame ------------------------------------------------------

def cutsame_case(rng, nverts, total):
    verts = tuple(chr(97 + i) for i in range(nverts))
    cut = rng.randint(1, nverts - 1)
    x1 = verts[:cut + 1]          # overlap at position `cut`
    x2 = verts[cut:]
    z = tv(verts, random_units(rng, nverts, total))
    # zbar: same overlap projection, X1 side rewritten
    zbar_units = []
    pos_y = cut  # index of the overlap vertex within verts
    for m in z.units():
        new = rng.randrange(1 << cut) | (m & (1 << pos_y))
        zbar_units.append(new & ((1 << (cut + 1)) - 1))
    zbar = tv(x1, zbar_units)
    return verts, x1, x2, z, zbar


def test_cutsame_postconditions_randomized():
    rng = random.Random(23)
    for k in range(400):
        verts, x1, x2, z, zbar = cutsame_case(rng, rng.randint(2, 4),
                                              rng.randint(1, 3))
        # every other case steers the hand-off toward a random table
        prefer = (tv(verts, random_units(rng, len(verts), 3)) if k % 2
                  else None)
        zp = glue_cutsame(z, zbar, x2, prefer)
        assert zp.is_nonnegative()
        assert project(zp, x1) == zbar
        assert project(zp, x2) == project(z, x2)
        assert (z - zp).l1() == (project(z, x1) - zbar).l1()


def test_cutsame_pairs_new_parts_as_in_prefer():
    """Released units take the new parts that make them units of
    `prefer` when they can, and the rest in sorted order."""
    verts = ("a", "b", "c", "d")
    z = tv(verts, [0b0000, 0b1000])
    zbar = tv(("a", "b", "c"), [0b001, 0b010])
    assert glue_cutsame(z, zbar, ("c", "d")) == tv(verts, [0b0001, 0b1010])
    prefer = tv(verts, [0b0010, 0b1001])
    assert glue_cutsame(z, zbar, ("c", "d"), prefer) == prefer
    with pytest.raises(ProjectionMismatch):
        glue_cutsame(z, zbar, ("c", "d"), project(prefer, ("a", "b")))


def test_cutsame_matches_oracle():
    """glue_cutsame is one steered lift; it returns the table of the
    per-class matching loop it replaced, with overlaps of any size and
    `prefer` absent, random or reachable."""
    rng = random.Random(8)
    for z, zbar, x2, prefer in cutsame_cases(rng, 20000):
        assert glue_cutsame(z, zbar, x2, prefer) == \
            cutsame_oracle(z, zbar, x2, prefer)


def test_cutsame_identity_when_already_matching():
    verts = ("a", "b", "c")
    z = tv(verts, [0b011, 0b110])
    zbar = project(z, ("a", "b"))
    assert glue_cutsame(z, zbar, ("b", "c")) == z


def test_cutsame_rejects_overlap_disagreement():
    verts = ("a", "b", "c")
    z = tv(verts, [0b011])
    zbar = tv(("a", "b"), [0b00])  # b-value differs
    with pytest.raises(ProjectionMismatch):
        glue_cutsame(z, zbar, ("b", "c"))


# -- glue_swaps --------------------------------------------------------

def swaps_case(rng, nverts, total):
    verts = tuple(chr(97 + i) for i in range(nverts))
    cut = rng.randint(1, nverts - 1)
    x1 = verts[:cut + 1]
    x2 = verts[cut:]
    z = tv(verts, random_units(rng, nverts, total))
    # zp: shuffle the pairing between X1 and X2 parts inside each
    # overlap class, keeping both side projections
    by_y = {}
    for m in z.units():
        by_y.setdefault((m >> cut) & 1, []).append(m)
    units = []
    lowmask = (1 << cut) - 1
    for ykey, ms in by_y.items():
        lows = [m & lowmask for m in ms]
        rng.shuffle(lows)
        for m, low in zip(ms, lows):
            units.append((m & ~lowmask) | low)
    return verts, x1, x2, z, tv(verts, units)


def test_swaps_postconditions_randomized():
    rng = random.Random(31)
    checked = 0
    for _ in range(300):
        verts, x1, x2, z, zp = swaps_case(rng, rng.randint(2, 4),
                                          rng.randint(1, 4))
        states = glue_swaps(z, zp, x1, x2)
        assert states[0] == z and states[-1] == zp
        for k in range(1, len(states)):
            assert (states[k] - states[k - 1]).l1() == 4
            assert states[k].is_nonnegative()
            assert project(states[k], x1) == project(z, x1)
            assert project(states[k], x2) == project(z, x2)
        checked += len(states) - 1
    assert checked > 0


def test_swaps_rejects_projection_mismatch():
    verts = ("a", "b", "c")
    z = tv(verts, [0b011])
    zp = tv(verts, [0b111])
    with pytest.raises(ProjectionMismatch):
        glue_swaps(z, zp, ("a", "b"), ("b", "c"))


# -- glue_cutchange ----------------------------------------------------

def test_cutchange_lifts_a_shared_step():
    # X1 = {a, b}, X2 = {b, c}; a norm-4 step on each side moving the
    # same overlap marginal
    z1 = tv(("a", "b"), [0b00, 0b00])
    z1p = tv(("a", "b"), [0b10, 0b10])
    z2 = tv(("b", "c"), [0b00, 0b10])
    z2p = tv(("b", "c"), [0b01, 0b11])
    z, zp = glue_cutchange(z1, z1p, z2, z2p, ("a", "b", "c"))
    assert project(z, ("a", "b")) == z1
    assert project(zp, ("a", "b")) == z1p
    assert project(z, ("b", "c")) == z2
    assert project(zp, ("b", "c")) == z2p
    assert (z - zp).l1() == (z1 - z1p).l1() == 4


def test_cutchange_requires_tight_norm():
    # sides change the overlap by different amounts
    z1 = tv(("a", "b"), [0b00, 0b11])
    z1p = tv(("a", "b"), [0b10, 0b01])
    z2 = tv(("b", "c"), [0b01, 0b10])
    z2p = tv(("b", "c"), [0b01, 0b10])
    with pytest.raises(ProjectionMismatch):
        glue_cutchange(z1, z1p, z2, z2p, ("a", "b", "c"))


def test_cutchange_randomized_on_unit_relabelings():
    """Sides that move exactly one unit's non-overlap values lift to a
    pair at distance 4."""
    rng = random.Random(41)
    for _ in range(200):
        total = rng.randint(1, 4)
        units1 = random_units(rng, 2, total)
        units2 = [((m >> 1) & 1) | (rng.randrange(2) << 1) for m in units1]
        z1 = tv(("a", "b"), units1)
        z2 = tv(("b", "c"), units2)
        # move one unit on each side, keeping the overlap value equal
        k = rng.randrange(total)
        u1, u2 = list(units1), list(units2)
        yv = (u1[k] >> 1) & 1
        n1 = (rng.randrange(2)) | (yv << 1)
        n2 = yv | (rng.randrange(2) << 1)
        flip = 1 - yv
        u1[k] = n1 ^ (0b10 if False else 0)
        u2[k] = n2
        # also flip the overlap bit on both sides together half the time
        if rng.randrange(2):
            u1[k] = (u1[k] & 0b01) | (flip << 1)
            u2[k] = (u2[k] & 0b10) | flip
        z1p, z2p = tv(("a", "b"), u1), tv(("b", "c"), u2)
        d1 = (z1 - z1p).l1()
        dy = (project(z1, ("b",)) - project(z1p, ("b",))).l1()
        d2 = (z2 - z2p).l1()
        if not (d1 == d2 == dy) or d1 == 0:
            continue
        z, zp = glue_cutchange(z1, z1p, z2, z2p, ("a", "b", "c"))
        assert (z - zp).l1() == d1
        for side, a, b in ((("a", "b"), z1, z1p), (("b", "c"), z2, z2p)):
            assert project(z, side) == a
            assert project(zp, side) == b


# -- connector: cycles -------------------------------------------------

def cycle_fiber_pairs(n, total):
    g = cycle_graph("abcdefgh"[:n])
    groups = all_grouped_tables(n, sorted(g.edges), total)
    for key in sorted(groups):
        tabs = groups[key]
        if len(tabs) >= 2:
            yield g, tv(g.vertices, tabs[0]), tv(g.vertices, tabs[-1])


def test_connect_cycle_c4_and_c5():
    for n in (4, 5):
        count = 0
        for g, z, zp in cycle_fiber_pairs(n, 3):
            seq = connect_cycle(g, z, zp)
            stats = verify_sequence(seq)
            assert stats["max_step_norm"] <= 8
            count += 1
        assert count > 0


def cycle_orbit_fibers(n, total):
    """Fibers of C_n at `total` with two or more tables, at least one
    per orbit under the model's symmetries: bit flips at any vertex and
    the cycle's rotations and reflections map fibers to fibers.  Kept
    are the fibers whose per-vertex counts of 1s are at most total / 2
    and lexicographically least among their rotations and reflections;
    flips and then a rotation bring every fiber there."""
    g = cycle_graph("abcdef"[:n])
    groups = _kernel.group_tables(n, sorted(g.edges), total)
    for key in sorted(groups):
        tabs = groups[key]
        counts = [sum((m >> v) & 1 for m in tabs[0]) for v in range(n)]
        turns = [counts[k:] + counts[:k] for k in range(n)]
        if (len(tabs) >= 2 and all(2 * c <= total for c in counts)
                and counts == min(turns + [t[::-1] for t in turns])):
            yield g, [tv(g.vertices, t) for t in tabs]


def test_connect_cycle_matches_bfs_oracle():
    """C3-C6 at totals <= 4: wherever the exhaustive search connects two
    tables at degree 4, the connector does too (at most two pairs per
    fiber keep the test quick)."""
    pairs = 0
    for n in range(3, 7):
        for total in range(2, 5):
            for g, tabs in cycle_orbit_fibers(n, total):
                picks = [(tabs[0], tabs[-1])]
                if len(tabs) > 2:
                    picks.append((tabs[-1], tabs[len(tabs) // 2]))
                for z, zp in picks:
                    assert bfs_connected(g, z, zp) is not None
                    seq = connect_graph(g, z, zp, verify=True)
                    assert seq.states[0] == z and seq.states[-1] == zp
                    pairs += 1
    assert pairs > 3000


def test_triangle_walk_is_shortest():
    """A K3 fiber is a segment along one norm-8 move, so the connector's
    walk has exactly the oracle's shortest length."""
    g = cycle_graph("abc")
    longest = 0
    for total in range(1, 9):
        groups = all_grouped_tables(3, sorted(g.edges), total)
        for tabs in groups.values():
            for a, b in itertools.permutations(tabs, 2):
                z, zp = tv(g.vertices, a), tv(g.vertices, b)
                seq = connect_cycle(g, z, zp)
                verify_sequence(seq)
                assert seq.length == bfs_connected(g, z, zp) == \
                    abs(zp.entries.get(0, 0) - z.entries.get(0, 0))
                longest = max(longest, seq.length)
    assert longest >= 2


@pytest.mark.parametrize("n,total", [(5, 11), (12, 8)])
def test_connect_cycle_beyond_fiber_search(n, total):
    """Cycles out of reach of a fiber search: C5 at total 11 exceeds the
    default table-total cap, and C12 has 4,096 cells per table."""
    g = cycle_graph([f"v{i}" for i in range(n)])
    rng = random.Random(n * 100 + total)
    for _ in range(5):
        z = tv(g.vertices, random_units(rng, n, total))
        zp = swap_partner(g, z, rng, tries=50 * total)
        assert zp != z
        seq = connect_graph(g, z, zp)
        verify_sequence(seq)
        assert seq.states[0] == z and seq.states[-1] == zp


def test_connect_ignores_resource_caps(monkeypatch):
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", "max_total=2")
    g = cycle_graph("abcdef")
    rng = random.Random(6)
    z = tv(g.vertices, random_units(rng, 6, 6))
    zp = swap_partner(g, z, rng, tries=300)
    assert zp != z
    seq = connect_graph(g, z, zp, verify=True)
    assert seq.states[-1] == zp


def test_connect_cycle_rejects_non_cycle():
    g = parse_graph("a b\nb c\n")
    z = tv(g.vertices, [0])
    with pytest.raises(ValueError):
        connect_cycle(g, z, z)


# -- connector: general graphs -----------------------------------------

def fiber_pairs(g, total, rng, max_pairs=2):
    groups = all_grouped_tables(g.n, sorted(g.edges), total)
    keys = [k for k in sorted(groups) if len(groups[k]) >= 2]
    rng.shuffle(keys)
    for key in keys[:max_pairs]:
        tabs = groups[key]
        a, b = rng.sample(range(len(tabs)), 2)
        yield tv(g.vertices, tabs[a]), tv(g.vertices, tabs[b])


def test_connect_all_small_k4_minor_free_graphs():
    """Every graph on 4 vertices without a K4 minor, fibers of total 2."""
    rng = random.Random(7)
    for g in all_graphs(4):
        if not is_k4_minor_free(g):
            continue
        for z, zp in fiber_pairs(g, 2, rng):
            seq = connect_graph(g, z, zp, verify=True)
            assert seq.states[0] == z and seq.states[-1] == zp


def test_connect_named_shapes():
    shapes = [
        "a b\nb c\na c\nc d\nd e\nc e\n",       # two triangles at c
        "a b\na c\nc b\na d\nd b\n",            # theta
        "a b\nb c\nc d\nd a\na c\n",            # C4 plus a chord
        "a b\nb c\nc d\nd e\ne a\nb e\n",       # C5 plus a chord
        "a b\nb c\nc a\nc d\nd e\ne f\nf d\n",  # triangles joined by a path
    ]
    rng = random.Random(13)
    for text in shapes:
        g = parse_graph(text)
        for z, zp in fiber_pairs(g, 3, rng):
            seq = connect_graph(g, z, zp, verify=True)
            assert seq.states[-1] == zp


def test_connect_disconnected_graph():
    g = parse_graph("a b\nc d\n")
    z = tv(g.vertices, [0b0011, 0b1100])
    # same marginals on both components, the other joint pairing
    z2 = tv(g.vertices, [0b0000, 0b1111])
    assert graph_marginals(z2, g) == graph_marginals(z, g)
    seq = connect_graph(g, z, z2, verify=True)
    assert seq.states[-1] == z2


MULTI_CUT_SHAPES = [
    # triangle a b c with a pendant path at each vertex
    "a b\nb c\nc a\na a1\na1 a2\nb b1\nc c1\nc1 c2\nc2 c3\n",
    # triangle, 4-cycle cut at opposite vertices, triangle, 4-cycle cut
    # at adjacent vertices, triangle: each shares a vertex with the next
    "a b\nb c\nc a\nc d\nd e\ne f\nf c\ne g\ng h\nh e\n"
    "h i\ni j\nj k\nk h\ni l\nl m\nm i\n",
]


def multi_cut_graphs():
    for text in MULTI_CUT_SHAPES:
        yield parse_graph(text)
    # forests over interleaved labels: a tree, a path and an isolated
    # vertex; a path on five vertices and two isolated vertices
    yield Graph("abcdefghi", [(0, 2), (2, 5), (2, 6), (6, 8),
                              (1, 3), (3, 7)])
    yield Graph("abcdefg", [(1, 3), (3, 4), (4, 5), (5, 6)])


def test_connect_lifts_steps_that_move_several_cut_vertices():
    """Steps that change the joint marginal of several cut vertices
    (blocks with two or more cut vertices, and unions of blocks joined
    by swaps) cannot be lifted across a single overlap vertex; the lift
    takes one group per cut vertex.  Every chain is checked by
    verify_sequence, and such steps occur on every graph."""
    rng = random.Random(57)
    for g in multi_cut_graphs():
        cuts = tuple(g.vertices[v] for v in sorted(cut_vertices(g)))
        pairs = joint_moves = 0
        for total in range(2, 7):
            for _ in range(12):
                z = tv(g.vertices, random_units(rng, g.n, total))
                zp = swap_partner(g, z, rng, tries=6 * g.n)
                if zp == z:
                    continue
                seq = connect_graph(g, z, zp, verify=True)
                assert seq.states[0] == z and seq.states[-1] == zp
                pairs += 1
                joint_moves += sum(project(a, cuts) != project(b, cuts)
                                   for a, b in zip(seq.states,
                                                   seq.states[1:]))
        assert pairs >= 30 and joint_moves > 0, repr(g)


STEERED_PAIRS = [
    # a 15-vertex tree at total 4 (an unsteered hand-off takes 2 steps;
    # one step is the lower bound)
    ("ab bc bd ce cf eg eh ei ej ik il jm kn lo",
     ["101000001101001", "000011001101101", "010010011011101",
      "010111101110111"],
     ["101000001101001", "010010011101101", "000011001011101",
      "010111101110111"], 1),
    # a 13-vertex cactus of triangles at total 5 (unsteered: 5 steps)
    ("ab ac bd ce de df dg fh fi gi fj fk jk fl hl hm",
     ["0101001001000", "1101010110100", "0100001110100", "1010100011001",
      "1111001111011"],
     ["1111001001000", "1101010110100", "1010101110100", "0100000011001",
      "0101001111011"], 2),
]


@pytest.mark.parametrize("edges,units,target,most", STEERED_PAIRS)
def test_connect_steers_toward_the_target(edges, units, target, most):
    """Pairs from the benchmark's connect op lists on which the
    block-cut pass, handing released units toward the target, keeps
    the chain short."""
    g = parse_graph("".join(f"{e[0]} {e[1]}\n" for e in edges.split()))
    header = "vertices: " + " ".join(g.vertices) + "\n"
    z, zp = (parse_vector(header + "".join(f"{b} 1\n" for b in bits))
             for bits in (units, target))
    seq = connect_graph(g, z, zp, verify=True)
    assert seq.states[0] == z and seq.states[-1] == zp
    assert seq.length <= most


def test_connect_long_path_within_recursion_limit(default_recursion_limit):
    """A 5,000-vertex path connects, verified, under the default
    recursion limit of 1000."""
    n = 5000
    g = Graph([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])
    rng = random.Random(5)
    z = tv(g.vertices, random_units(rng, n, 2))
    zp = swap_partner(g, z, rng, tries=200)
    assert zp != z
    seq = connect_graph(g, z, zp, verify=True)
    assert seq.states[0] == z and seq.states[-1] == zp


def test_connect_large_random_tree(default_recursion_limit):
    n = 2000
    rng = random.Random(2000)
    g = Graph([f"v{i}" for i in range(n)],
              [(i, rng.randrange(i)) for i in range(1, n)])
    z = tv(g.vertices, random_units(rng, n, 4))
    zp = swap_partner(g, z, rng, tries=400)
    assert zp != z
    seq = connect_graph(g, z, zp, verify=True)
    assert seq.states[0] == z and seq.states[-1] == zp


def test_connect_long_ladder_within_recursion_limit(default_recursion_limit):
    """2x300 and 2x1000 ladders are single 2-connected blocks whose
    series-parallel trees are about 900 and 3,000 levels deep; the
    connector walks them from a work stack."""
    for k in (300, 1000):
        g = ladder_graph(k)
        rng = random.Random(k)
        z = tv(g.vertices, random_units(rng, g.n, 4))
        zp = swap_partner(g, z, rng, tries=100)
        assert zp != z
        seq = connect_graph(g, z, zp, verify=True)
        assert seq.states[0] == z and seq.states[-1] == zp


def test_connect_forest_steps_stay_small():
    g = parse_graph("a b\nb c\nb d\n")
    rng = random.Random(3)
    for z, zp in fiber_pairs(g, 3, rng, max_pairs=4):
        seq = connect_graph(g, z, zp, verify=True)
        for step in seq.steps:
            assert step.l1() <= 4


def test_connect_rejects_k4():
    g = complete_graph("abcd")
    z = tv(g.vertices, [0b0000])
    with pytest.raises(NotK4MinorFree):
        connect_graph(g, z, z)


def test_connect_rejects_marginal_mismatch():
    g = cycle_graph("abcd")
    z = tv(g.vertices, [0b0000])
    zp = tv(g.vertices, [0b1111])
    with pytest.raises(ProjectionMismatch):
        connect_graph(g, z, zp)


def test_connect_trivial_pair():
    g = cycle_graph("abcd")
    z = tv(g.vertices, [0b0101, 0b0000])
    seq = connect_graph(g, z, z)
    assert seq.length == 0


def pinned_connect_inputs():
    """(name, graph, z, zp, poles) on which the connector reaches every
    case: the block-cut pass (path, tree, forest), the isolated-vertex
    walk, the K3 walk, the cycle split (C7), the ring re-pole (ladder),
    a cactus, the cut-change crossing (theta pairs whose pole marginal
    moves), a random series-parallel block, and `connect_two_terminal`
    with given poles (poles not None)."""
    def edges(text):
        return parse_graph("".join(f"{e[0]} {e[1]}\n" for e in text.split()))

    theta = edges("ac cb ad db ae eb")
    rng = random.Random(2024)
    for name, g, total in (
            ("isolated", Graph("abcde", [(1, 3), (3, 4)]), 3),
            ("c3", cycle_graph("abc"), 4), ("theta", theta, 3)):
        for z, zp in fiber_pairs(g, total, rng, max_pairs=4):
            yield name, g, z, zp, None
    for z, zp in fiber_pairs(theta, 3, rng, max_pairs=6):
        yield "theta-poles", theta, z, zp, ("a", "b")
    for name, g, total, poles in (
            ("path", Graph("abcdef", [(i, i + 1) for i in range(5)]), 4,
             None),
            ("tree", edges("ab bc bd ce cf eg eh ei ej"), 5, None),
            ("forest", Graph("abcdefgh", [(0, 2), (2, 5), (2, 6), (1, 3),
                                          (3, 7), (4, 7)]), 4, None),
            ("c7", cycle_graph("abcdefg"), 4, None),
            ("ladder", ladder_graph(6), 4, None),
            ("cactus", edges("ab ac bd ce de df dg fh fi gi fj fk jk fl hl "
                             "hm"), 5, None),
            ("sp", random_sp_block(12, random.Random(12)), 4, None),
            ("ladder-poles", ladder_graph(5), 4, ("v0", "v5"))):
        for _ in range(3):
            z = tv(g.vertices, random_units(rng, g.n, total))
            yield name, g, z, swap_partner(g, z, rng, tries=20 * g.n), poles


CONNECT_DIGEST = (
    "18616fe675221e1cbe491924ebb854119ebec4519fa82b7075f3344bb7281530")


def test_connect_output_pinned():
    """The JSON that `connect --json` prints, on fixed inputs that reach
    every connector case, and the same JSON from `connect_two_terminal`
    with given poles: any change to a chain shows here."""
    digest = hashlib.sha256()
    for _, g, z, zp, poles in pinned_connect_inputs():
        seq = (connect_graph(g, z, zp, verify=True) if poles is None else
               connect_two_terminal(g, *poles, z, zp, verify=True))
        digest.update((json.dumps(seq.to_json(), indent=2) + "\n").encode())
    assert digest.hexdigest() == CONNECT_DIGEST


def mirrored(tree):
    """`tree` with every node's poles swapped and its children reversed,
    rebuilt through `SPTree.from_json`."""
    obj = tree.to_json()
    stack = [obj]
    while stack:
        node = stack.pop()
        node["poles"].reverse()
        node.get("children", []).reverse()
        stack.extend(node.get("children", []))
    return SPTree.from_json(obj)


MIRRORED_DIGEST = (
    "7fc97b87436b5217ea6ee545c0373527b1df127772d59137a821326c606269d8")


def mirrored_inputs():
    """(graph, canonical tree, mirrored tree, z, zp) on a theta with a
    pole edge, a 2x5 ladder and a random series-parallel block, three
    pairs each: the canonical tree is `sp_decompose`'s."""
    theta = parse_graph("a b\na c\nc e\ne b\na d\nd f\nf b\n")
    rng = random.Random(44)
    for g, poles in ((theta, ("a", "b")), (ladder_graph(5), ("v0", "v5")),
                     (random_sp_block(12, random.Random(12)), None)):
        tree = sp_decompose(g, poles)
        for _ in range(3):
            z = tv(g.vertices, random_units(rng, g.n, 5))
            yield (g, tree, mirrored(tree), z,
                   swap_partner(g, z, rng, tries=50 * g.n))


def test_connect_sp_mirrored_trees_pinned():
    """`connect_sp` on trees that `sp_decompose` never returns: every
    node mirrored, poles swapped and children reversed.  The connector
    keeps a tree's child order and pole orientation, and on some of
    these pairs a mirrored tree gives another chain than the canonical
    one, so a conversion that reorders a tree shows here."""
    digest = hashlib.sha256()
    differ = 0
    for g, tree, mirror, z, zp in mirrored_inputs():
        assert mirror != tree and realize(mirror, g.vertices) == g
        seq = connect_sp(mirror, z, zp, verify=True)
        assert seq.poles == mirror.poles
        differ += seq.states != connect_sp(tree, z, zp).states
        digest.update((json.dumps(seq.to_json(), indent=2) + "\n").encode())
    assert differ and digest.hexdigest() == MIRRORED_DIGEST


# -- two-terminal pole discipline --------------------------------------

def test_two_terminal_pole_discipline_theta():
    # K_{2,3} with poles a, b: without an a-b edge the pole marginal is
    # not a model marginal, so steps can change it
    g = parse_graph("a c\nc b\na d\nd b\na e\ne b\n")
    rng = random.Random(19)
    checked = 0
    for z, zp in fiber_pairs(g, 3, rng, max_pairs=6):
        seq = connect_two_terminal(g, "a", "b", z, zp, verify=True)
        assert seq.poles == ("a", "b")
        stats = verify_sequence(seq)
        checked += stats["pole_changing_steps"]
    # discipline is enforced by verify_sequence: any pole-changing step
    # with norm other than 4 would have raised
    assert checked > 0


def test_two_terminal_rejects_bad_poles_up_front():
    """The theta a-c-e-b, a-d-f-b, a-g-b is not series-parallel between
    c and d: the reduction says so before any table is touched."""
    g = parse_graph("a c\nc e\ne b\na d\nd f\nf b\na g\ng b\n")
    rng = random.Random(11)
    for _ in range(20):
        z = tv(g.vertices, random_units(rng, g.n, 4))
        zp = swap_partner(g, z, rng, tries=40)
        with pytest.raises(NotSeriesParallel):
            connect_two_terminal(g, "c", "d", z, zp)


def test_connect_sp_drives_from_tree():
    g = parse_graph("a b\na c\nc b\na d\nd b\n")
    tree = sp_decompose(g, poles=("a", "b"))
    rng = random.Random(29)
    for z, zp in fiber_pairs(g, 2, rng):
        seq = connect_sp(tree, z, zp, verify=True)
        assert seq.states[-1] == zp


def test_verify_sequence_catches_bad_chain():
    g = cycle_graph("abcd")
    z = tv(g.vertices, [0b0000, 0b1111])
    zp = tv(g.vertices, [0b0011, 0b1100])
    seq = MoveSequence(g, [z, zp])
    with pytest.raises(InvariantViolation):
        verify_sequence(seq)
