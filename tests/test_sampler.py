"""Fiber random walk: conservation, determinism, ergodicity."""

import random

import pytest

from markov_atlas import (Graph, TableVector, cycle_graph, extract_moves,
                          fiber_of, graph_marginals, random_walk,
                          walk_states)
from markov_atlas.errors import GroundSetMismatch, NotKernelMove
from markov_atlas.sampler import RNG_ALGORITHM, WalkConfig

from helpers import oracle_walk, visit_counts


def c4_setup(total_units):
    g = cycle_graph("abcd")
    z0 = TableVector.from_units(g.vertices, total_units)
    fib = fiber_of(g, z0)
    moves = extract_moves(fib, 4)
    return g, z0, fib, moves


def test_empty_move_list_is_identity():
    g, z0, _, _ = c4_setup([0b0000, 0b1111])
    res = random_walk(g, [], z0, WalkConfig(steps=50, seed=1))
    assert res.state == z0
    assert res.proposed == 0


def test_singleton_fiber_never_moves():
    g = Graph(("a", "b"), [(0, 1)])
    z0 = TableVector.from_units(g.vertices, [0b01, 0b10])
    fib = fiber_of(g, z0)
    assert fib.size == 1
    moves = extract_moves(fib, 4)
    res = random_walk(g, moves, z0, WalkConfig(steps=100, seed=2))
    assert res.state == z0


def test_nonkernel_move_rejected_at_load():
    g, z0, _, _ = c4_setup([0b0000])
    bad = TableVector.from_units(g.vertices, [0b0001]) - \
        TableVector.from_units(g.vertices, [0b0010])
    with pytest.raises(NotKernelMove):
        random_walk(g, [bad], z0, WalkConfig(steps=1, seed=0))


def test_zero_move_rejected_by_position():
    """The zero vector passes the kernel check but moves nothing; the
    walk names its position instead of counting it accepted."""
    g, z0, _, moves = c4_setup([0b0101, 0b0101, 0b1111, 0b1111])
    zero = TableVector(g.vertices, {})
    for walk in (random_walk, lambda *a: list(walk_states(*a))):
        with pytest.raises(ValueError, match=r"^move 2 is zero$"):
            walk(g, [moves[0], zero, moves[0]], z0,
                 WalkConfig(steps=3, seed=1))


def test_moves_checked_in_order_ground_set_first():
    """Each move is checked against the graph's vertices, then for zero
    marginals, in list order, before any step."""
    g, z0, _, moves = c4_setup([0b0101, 0b0101, 0b1111, 0b1111])
    bad = TableVector.from_units(g.vertices, [0b0001]) - \
        TableVector.from_units(g.vertices, [0b0010])
    other = TableVector(("b", "a", "c", "d"), moves[0].vector.entries)
    cfg = WalkConfig(steps=1, seed=0)
    with pytest.raises(NotKernelMove,
                       match=r"^TableVector\(.*\) has nonzero marginals$"):
        random_walk(g, moves + [bad, other], z0, cfg)
    with pytest.raises(GroundSetMismatch,
                       match=r"^\('b', 'a', 'c', 'd'\) vs "
                             r"\('a', 'b', 'c', 'd'\)$"):
        list(walk_states(g, moves + [other, bad], z0, cfg))


OTHER_ORDER = r"^\('b', 'a', 'c', 'd'\) vs \('a', 'b', 'c', 'd'\)$"


def test_start_over_other_vertices_rejected():
    """With moves or without: without them nothing is proposed, but the
    start is still checked."""
    g, _, _, moves = c4_setup([0b0101, 0b0101, 0b1111, 0b1111])
    z0 = TableVector.from_units(("b", "a", "c", "d"), [0b0101, 0b1111])
    for given in (moves, []):
        with pytest.raises(GroundSetMismatch, match=OTHER_ORDER):
            random_walk(g, given, z0, WalkConfig(steps=5, seed=0))
        with pytest.raises(GroundSetMismatch, match=OTHER_ORDER):
            list(walk_states(g, given, z0, WalkConfig(steps=5, seed=0)))


def test_start_checked_before_moves():
    """The start is checked for negative counts, then for its vertices,
    and only then are the moves read: with the start and a move both
    over other vertices, the start is the one reported."""
    g, _, _, moves = c4_setup([0b0101, 0b0101, 0b1111, 0b1111])
    other = TableVector(("d", "c", "b", "a"), moves[0].vector.entries)
    read = []

    def lazy():
        for mv in [other] + moves:
            read.append(mv)
            yield mv

    cfg = WalkConfig(steps=5, seed=0)
    z0 = TableVector.from_units(("b", "a", "c", "d"), [0b0101, 0b1111])
    with pytest.raises(GroundSetMismatch, match=OTHER_ORDER):
        random_walk(g, lazy(), z0, cfg)
    with pytest.raises(GroundSetMismatch, match=OTHER_ORDER):
        list(walk_states(g, lazy(), z0, cfg))
    negative = TableVector(z0.vertices, {0b0101: -1})
    with pytest.raises(ValueError, match="must be non-negative"):
        random_walk(g, lazy(), negative, cfg)
    assert not read


def test_marginals_conserved_along_trajectory():
    g, z0, _, moves = c4_setup([0b0101, 0b0101, 0b1111, 0b1111])
    ref = graph_marginals(z0, g)
    for state in walk_states(g, moves, z0, WalkConfig(steps=500, seed=5)):
        assert state.is_nonnegative()
        assert graph_marginals(state, g) == ref


def test_determinism_under_seed():
    g, z0, _, moves = c4_setup([0b0101, 0b0101, 0b1111, 0b1111])
    cfg = WalkConfig(steps=400, burn_in=50, seed=99)
    t1 = list(walk_states(g, moves, z0, cfg))
    t2 = list(walk_states(g, moves, z0, cfg))
    assert t1 == t2
    t3 = list(walk_states(g, moves, z0, WalkConfig(steps=400, burn_in=50,
                                                   seed=100)))
    assert t1 != t3


def test_walk_reaches_whole_fiber():
    g, z0, fib, moves = c4_setup([0b0101, 0b0101, 0b1111, 0b1111])
    counts = visit_counts(g, moves, z0, WalkConfig(steps=20000, seed=11))
    assert len(counts) == fib.size


def test_random_walk_ends_where_walk_states_ends():
    g, z0, _, moves = c4_setup([0b0101, 0b0101, 0b1111, 0b1111])
    for seed in (0, 1, 7, 42):
        for burn_in in (0, 5, 60):
            cfg = WalkConfig(steps=150, burn_in=burn_in, seed=seed)
            states = list(walk_states(g, moves, z0, cfg))
            res = random_walk(g, moves, z0, cfg)
            assert res.state == states[-1]
            moved = sum(a != b for a, b in zip([z0] + states, states))
            assert res.accepted == moved
            assert res.proposed == len(states) == burn_in + 150


def test_result_metadata():
    g, z0, _, moves = c4_setup([0b0101, 0b0101, 0b1111, 0b1111])
    res = random_walk(g, moves, z0, WalkConfig(steps=200, burn_in=10,
                                               seed=3))
    meta = res.metadata()
    assert meta["rng"] == RNG_ALGORITHM == "mt19937"
    assert meta["seed"] == 3
    assert meta["proposed"] == 210
    assert 0.0 <= meta["acceptance_rate"] <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(steps=0)
    with pytest.raises(ValueError):
        WalkConfig(steps=1, burn_in=-1)


# C6 as the cycle a-b-d-f-e-c, at total 6 (88 tables, 1,212 moves);
# P5 at total 6 (7,117 moves); K2,3 at total 8 (779 moves)
ORACLE_CASES = {
    "C6-t6": (Graph(tuple("abcdef"),
                    [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]),
              [20, 21, 29, 48, 50, 63], 1212),
    "P5-t6": (Graph(tuple("abcde"), [(i, i + 1) for i in range(4)]),
              [3, 6, 8, 16, 29, 29], 7117),
    "K23-t8": (Graph(tuple("abcde"),
                     [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
               [4, 6, 11, 13, 17, 18, 23, 25], 779),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_walk_matches_randrange_oracle(case):
    """State by state, burn-in included, the walk is the walk that
    drew with `randrange` and tested the whole move with `all()`; so is
    `random_walk`'s end state and acceptance count."""
    g, units, size = ORACLE_CASES[case]
    z0 = TableVector.from_units(g.vertices, units)
    moves = extract_moves(fiber_of(g, z0), 4)
    assert len(moves) == size
    for seed in (0, 1, 7, 2024):
        cfg = WalkConfig(steps=1500, burn_in=200, seed=seed)
        want = list(oracle_walk(moves, z0, seed, 1700))
        assert list(walk_states(g, moves, z0, cfg)) == want
        res = random_walk(g, moves, z0, cfg)
        assert res.state == want[-1]
        assert res.accepted == sum(
            a != b for a, b in zip([z0] + want, want))


def test_one_move_walk_matches_randrange_oracle():
    """With one move, each step still draws randrange(1) and then the
    sign; the vector form of the move walks the same way."""
    g, z0, _, moves = c4_setup([0b0101, 0b0101, 0b1111, 0b1111])
    for one in (moves[:1], [moves[0].vector]):
        for seed in (3, 4, 5):
            cfg = WalkConfig(steps=300, burn_in=40, seed=seed)
            want = list(oracle_walk(one, z0, seed, 340))
            assert len(set(want)) > 1
            assert list(walk_states(g, one, z0, cfg)) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257,
                               7117])
def test_getrandbits_draws_are_randrange(n):
    """The walk's draws: k = n.bit_length() bits, redrawn while >= n, for
    the move, then 2 bits, redrawn while >= 2, for the sign.  Interleaved
    so, they are the draws of randrange(n) and randrange(2)."""
    for seed in (0, 1, 99):
        ref = random.Random(seed)
        want = [(ref.randrange(n), ref.randrange(2)) for _ in range(400)]
        bits = random.Random(seed).getrandbits
        k = n.bit_length()
        got = []
        for _ in range(400):
            r = bits(k)
            while r >= n:
                r = bits(k)
            sign = bits(2)
            while sign >= 2:
                sign = bits(2)
            got.append((r, sign))
        assert got == want
