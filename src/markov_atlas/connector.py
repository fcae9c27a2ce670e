"""Constructive move-sequence connector for K4-minor-free graphs.

Given two non-negative tables with equal edge marginals on a graph
without a K4 minor, `connect_graph` produces an explicit chain of
intermediate tables whose consecutive differences all have L1 norm at
most 8 (degree at most 4), with every intermediate table non-negative
and sharing the same marginals.

The construction enumerates no fiber.  It makes one pass over the
block-cut forest (`graphs.block_cut_forest`).  Each block or isolated
vertex whose part of the two tables differs gets its own chain; then
the union of the pieces before piece j is joined to piece j by norm-4
swaps.

Every table inside the connector is a {labeling: count} dict in the
coordinates of the whole graph.  A sub-problem on some of the vertices
works on the parts `unit & mask` of the units, where `mask` holds the
bits of those vertices, and a step of its chain is the difference of
two such dicts: nothing is projected or repacked between levels.

One rule, `_lift`, applies a step on some of the vertices to the whole
table: across cut vertices, inside a block, and in `glue_cutsame`.  The
other vertices fall into groups that meet the stepped vertices only at
their key vertices, and each group moves with a released unit that
agrees there, so the lift keeps the step's norm and every edge
marginal.  The hand-off is steered toward the target: units the target
has keep their part, and a released unit takes first a new part that
makes it a unit the target still lacks.

Inside a 2-connected block the chain is driven by the block's
series-parallel tree (`graphs.block_sp_tree`, from the same reduction
that decides the K4 test): a serial node splits the tables at its join,
a parallel node between its children, each side taking the part of the
tables on the vertices of its subtree, and the cases run from a work
stack rather than by Python recursion.  The reduction builds the tree
bottom-up straight into nodes in the same bits (`_Node`): each holds
its pole bits, its join bit and the mask of its subtree's vertices, so
no case walks a subtree, and the nodes that the cases build for their
sub-problems carry masks too.  `connect_two_terminal` builds its tree
the same way, from the reduction between its given poles.  A pole edge
with one serial child closes a ring, which is re-poled at one of its
parallel nodes or, when it is a cycle, split into two paths.  The base
case is the triangle K3: the binary K3 model is the 2x2x2
no-three-way-interaction model, whose lattice kernel is spanned by one
degree-4 move, so each K3 fiber is a segment walked one move at a time.

For a piece with poles (u, v) the produced sequence additionally
guarantees: whenever a step changes the joint (u, v) marginal, that
step's norm is exactly 4.  This pole discipline is what lets a parent
parallel join interpolate the pole marginal one exchange at a time.

The three gluing primitives (`glue_cutsame`, `glue_swaps`,
`glue_cutchange`) work over arbitrary overlapping vertex sets and are
exact: the produced vectors meet their stated norm identities, which
`verify_sequence` re-checks at every step of a chain.
`glue_cutsame` is the lift of one step with one group; the connector
runs the cores of the other two on its own tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import GroundSetMismatch, InvariantViolation, ProjectionMismatch
from .graphs import (Graph, Piece, _sp_reduction, _tree, block_cut_forest,
                     block_sp_tree)
from .lattice import (TableVector, _kernel_test, graph_marginals, project,
                      vector_to_json)

Counts = Dict[int, int]  # labeling -> count, over one ground set's bits


# ---------------------------------------------------------------------
# tables as counts over the bits of one ground set

def _bit_of(vertices: Sequence[str]) -> Dict[str, int]:
    """The bit of each vertex in labelings over `vertices`."""
    return {v: 1 << i for i, v in enumerate(vertices)}


def _mask(bit: Dict[str, int], labels: Iterable[str]) -> int:
    return sum(bit[v] for v in set(labels))


def _embed(x: TableVector, bit: Dict[str, int]) -> Counts:
    """The counts of `x`, each labeling's bits moved to the bits that
    `bit` gives their vertices."""
    bits = [bit[v] for v in x.vertices]
    return {sum(b for j, b in enumerate(bits) if m >> j & 1): c
            for m, c in x.entries.items()}


def _part_counts(entries: Counts, mask: int) -> Counts:
    """Counts of the parts `unit & mask` of a table's units."""
    out: Counts = {}
    for u, c in entries.items():
        part = u & mask
        out[part] = out.get(part, 0) + c
    return out


def _dist(a: Counts, b: Counts) -> int:
    """The L1 norm of a - b."""
    return sum(abs(a.get(m, 0) - b.get(m, 0)) for m in a.keys() | b.keys())


def _step_parts(before: Counts, after: Counts) -> Tuple[List[int], List[int]]:
    """The labelings that the step before -> after removes and adds,
    each sorted."""
    gone: List[int] = []
    new: List[int] = []
    for m in before.keys() | after.keys():
        d = after.get(m, 0) - before.get(m, 0)
        if d:
            (new if d > 0 else gone).extend([m] * abs(d))
    return sorted(gone), sorted(new)


def _lift(cur: Counts, mask: int, gone: Sequence[int],
          new: Sequence[int], groups: Sequence[Tuple[int, int]],
          target: Optional[Counts]):
    """Apply to the whole table `cur`, in place, a step that replaces
    the parts `gone` by the parts `new` (sorted) on the vertices of
    `mask`, steered toward the table `target`.

    Each group (key mask, group mask) holds vertices outside `mask`
    whose edges reach `mask` only at the key vertices.  Per gone part
    the last units in (wanted by `target` first, then ascending) order
    are released.  In each group a released unit hands its group bits
    to a new part with the same key bits: first to one that makes its
    part on `mask | group mask` a part that `target` still lacks,
    otherwise to the smallest left.  So the lift has the step's norm
    and keeps every edge marginal that the step keeps.
    """
    tgt = target or {}

    def order(u):
        return tgt.get(u, 0) <= 0, u

    released = []
    for part in set(gone):
        released += sorted((u for u, c in cur.items() if u & mask == part
                            for _ in range(c)), key=order)[-gone.count(part):]
    released.sort(key=order)
    for u in released:
        cur[u] -= 1
        if not cur[u]:
            del cur[u]
    units = list(new)
    for key, gmask in groups:
        want = _part_counts(tgt, mask | gmask)
        for part, c in _part_counts(cur, mask | gmask).items():
            want[part] = want.get(part, 0) - c
        for bits in {u & key for u in released} | {q & key for q in new}:
            src = [u & gmask for u in released if u & key == bits]
            dst = [i for i, q in enumerate(new) if q & key == bits]
            if len(src) != len(dst):
                raise InvariantViolation("a step moved the marginal of "
                                         "the vertices a group hangs from")
            src.sort(key=lambda r: all(want.get(r | new[i], 0) <= 0
                                       for i in dst))
            for r in src:
                i = next((i for i in dst if want.get(r | new[i], 0) > 0),
                         dst[0])
                want[r | new[i]] = want.get(r | new[i], 0) - 1
                dst.remove(i)
                units[i] |= r
    for u in units:
        cur[u] = cur.get(u, 0) + 1


# ---------------------------------------------------------------------
# gluing primitives

def glue_cutsame(z: TableVector, zbar: TableVector, x2: Sequence[str],
                 prefer: Optional[TableVector] = None) -> TableVector:
    """Rewrite the X1 side of `z` to match `zbar` while freezing X2.

    X1 is the ground set of `zbar`; X1 and `x2` must cover the ground
    set of `z` and agree with it on Y = X1 & X2 projections.  The result
    z' satisfies project(z', X1) = zbar, project(z', X2) = project(z, X2)
    and ||z - z'|| = ||project(z, X1) - zbar||.

    This is `_lift` of the step project(z, X1) -> zbar with one group,
    the vertices outside X1 keyed on Y, steered toward `prefer` (a
    table over the ground set of `z`).
    """
    X = z.vertices
    X1 = zbar.vertices
    x2set = set(x2)
    if set(X1) | x2set != set(X):
        raise ProjectionMismatch("X1 and X2 do not cover the ground set")
    Y = tuple(v for v in X1 if v in x2set)
    if project(z, Y) != project(zbar, Y):
        raise ProjectionMismatch("z and zbar disagree on the overlap")
    if not (z.is_nonnegative() and zbar.is_nonnegative()):
        raise ValueError("glue_cutsame needs non-negative inputs")
    if prefer is not None and prefer.vertices != X:
        raise ProjectionMismatch("prefer is not over the ground set of z")

    bit = _bit_of(X)
    x1_bits = _mask(bit, X1)
    cur = dict(z.entries)
    _lift(cur, x1_bits, *_step_parts(_part_counts(cur, x1_bits),
                                     _embed(zbar, bit)),
          [(_mask(bit, Y), ((1 << len(X)) - 1) & ~x1_bits)],
          prefer.entries if prefer is not None else None)
    return TableVector(X, cur)


def glue_swaps(z: TableVector, zp: TableVector,
               x1: Sequence[str], x2: Sequence[str]) -> List[TableVector]:
    """Connect two tables with equal X1 and X2 projections by swaps.

    Returns the state chain [z, ..., zp]; every step has norm exactly 4
    and preserves both projections, and every state is non-negative.
    """
    X = z.vertices
    if zp.vertices != X:
        raise ProjectionMismatch("ground sets differ")
    if set(x1) | set(x2) != set(X):
        raise ProjectionMismatch("X1 and X2 do not cover the ground set")
    bit = _bit_of(X)
    return [TableVector(X, s) for s in _swap_states(
        z.entries, zp.entries, _mask(bit, x1), _mask(bit, x2))]


def _swap_states(z: Counts, zp: Counts, m1: int, m2: int) -> List[Counts]:
    """`glue_swaps` on counts over the bits of one ground set, the sides
    on the bits of `m1` and `m2`."""
    if _dist(_part_counts(z, m1), _part_counts(zp, m1)) or \
       _dist(_part_counts(z, m2), _part_counts(zp, m2)):
        raise ProjectionMismatch("side projections differ")
    if any(c < 0 for x in (z, zp) for c in x.values()):
        raise ValueError("glue_swaps needs non-negative inputs")
    cur = dict(z)
    states = [z]
    for _ in _swaps(cur, zp, m1, m2):
        states.append(dict(cur))
    return states


def _swaps(cur: Counts, tgt: Counts, m1bits: int, m2bits: int):
    """Take the counts `cur` to `tgt` (equal projections on the bits of
    `m1bits` and of `m2bits`, which cover every bit used) by norm-4
    swaps.  Applies each swap to `cur` in place, then yields it as the
    labelings (a, e) removed and (c, f) added."""
    while True:
        support = sorted(set(cur) | set(tgt))
        a = next((s for s in support
                  if cur.get(s, 0) > tgt.get(s, 0)), None)
        if a is None:
            return
        a1 = a & m1bits
        c = next(s for s in support
                 if cur.get(s, 0) < tgt.get(s, 0) and s & m1bits == a1)
        c2 = c & m2bits
        e = next(s for s in support
                 if cur.get(s, 0) > tgt.get(s, 0) and s & m2bits == c2)
        f = (e & m1bits) | (a & ~m1bits)
        for s, d in ((a, -1), (e, -1), (c, +1), (f, +1)):
            cur[s] = cur.get(s, 0) + d
            if cur[s] == 0:
                del cur[s]
        yield a, e, c, f


def glue_cutchange(z1: TableVector, z1p: TableVector,
                   z2: TableVector, z2p: TableVector,
                   x_order: Sequence[str]) -> Tuple[TableVector, TableVector]:
    """Lift two compatible side pairs to a pair over the union.

    Requires project agreement on the overlap Y and the tight-norm
    condition ||proj_Y(z1) - proj_Y(z1p)|| = ||z1 - z1p|| = ||z2 - z2p||.
    The lifts satisfy project(z, Xi) = zi, project(z', Xi) = zip and
    ||z - z'|| = ||z1 - z1p||.
    """
    X1 = z1.vertices
    X2 = z2.vertices
    if z1p.vertices != X1 or z2p.vertices != X2:
        raise ProjectionMismatch("side ground sets differ")
    X = tuple(x_order)
    if set(X) != set(X1) | set(X2):
        raise ProjectionMismatch("x_order does not cover X1 | X2")
    bit = _bit_of(X)
    z, zp = _cutchange(*(_embed(x, bit) for x in (z1, z1p, z2, z2p)),
                       _mask(bit, X1), _mask(bit, X2))
    return TableVector(X, z), TableVector(X, zp)


def _cutchange(z1: Counts, z1p: Counts, z2: Counts, z2p: Counts,
               m1: int, m2: int) -> Tuple[Counts, Counts]:
    """`glue_cutchange` on counts over the bits of one ground set, the
    sides on the bits of `m1` and `m2`: within each overlap class the
    sorted units of the two sides are paired in order."""
    y = m1 & m2
    if _dist(_part_counts(z1, y), _part_counts(z2, y)) or \
       _dist(_part_counts(z1p, y), _part_counts(z2p, y)):
        raise ProjectionMismatch("sides disagree on the overlap")
    d1 = _dist(z1, z1p)
    dy = _dist(_part_counts(z1, y), _part_counts(z1p, y))
    d2 = _dist(z2, z2p)
    if not (dy == d1 == d2):
        raise ProjectionMismatch(
            f"tight-norm condition fails: overlap {dy}, sides {d1}, {d2}")
    if any(c < 0 for x in (z1, z1p, z2, z2p) for c in x.values()):
        raise ValueError("glue_cutchange needs non-negative inputs")

    def lift_pairs(units1: Counter, units2: Counter) -> List[int]:
        by_y1: Dict[int, List[int]] = {}
        by_y2: Dict[int, List[int]] = {}
        for by_y, units in ((by_y1, units1), (by_y2, units2)):
            for m in sorted(units.elements()):
                by_y.setdefault(m & y, []).append(m)
        if {k: len(v) for k, v in by_y1.items()} != \
           {k: len(v) for k, v in by_y2.items()}:
            raise InvariantViolation("overlap class sizes differ in lift")
        return [a | b for key, ms1 in sorted(by_y1.items())
                for a, b in zip(ms1, by_y2[key])]

    c1, c1p, c2, c2p = map(Counter, (z1, z1p, z2, z2p))
    common = lift_pairs(c1 & c1p, c2 & c2p)
    plus = lift_pairs(c1 - c1p, c2 - c2p)
    minus = lift_pairs(c1p - c1, c2p - c2)
    return dict(Counter(common + plus)), dict(Counter(common + minus))


# ---------------------------------------------------------------------
# move sequences

@dataclass
class MoveSequence:
    """A chain of same-marginal tables z_0 .. z_l with bounded steps."""

    graph: Graph
    states: List[TableVector]
    poles: Optional[Tuple[str, str]] = None

    @property
    def steps(self) -> List[TableVector]:
        return [self.states[k] - self.states[k - 1]
                for k in range(1, len(self.states))]

    @property
    def length(self) -> int:
        return len(self.states) - 1

    def to_json(self) -> dict:
        steps = self.steps
        obj = {
            "graph": {"vertices": list(self.graph.vertices),
                      "edges": self.graph.edge_labels()},
            "states": [vector_to_json(s) for s in self.states],
            "steps": [vector_to_json(s) for s in steps],
            "norms": [s.l1() for s in steps],
        }
        if self.poles is not None:
            obj["poles"] = list(self.poles)
        return obj


def verify_sequence(seq: MoveSequence) -> dict:
    """Machine-check a MoveSequence; raises InvariantViolation on any
    failure, returns summary statistics otherwise.

    Checks: non-negativity and constant marginals of every state, then
    step norms in (0, 8], and (when poles are set) that every
    step changing the pole marginal has norm exactly 4.  Only state 0
    is read whole: once state k - 1 has passed, state k can go negative
    only where the step into it is nonzero, and it has state 0's
    marginals iff the step passes `lattice._kernel_test`.
    """
    g, states = seq.graph, seq.states
    if not states:
        raise InvariantViolation("empty state chain")
    if states[0].vertices != g.vertices:
        raise GroundSetMismatch(f"{states[0].vertices} vs {g.vertices}")
    if not states[0].is_nonnegative():
        raise InvariantViolation("state 0 is negative")
    test = _kernel_test(g)
    steps = []
    for k in range(1, len(states)):
        a, b = states[k - 1].entries, states[k].entries
        step = {m: b.get(m, 0) - a.get(m, 0) for m, _ in a.items() ^ b.items()}
        if any(b.get(m, 0) < 0 for m in step):
            raise InvariantViolation(f"state {k} is negative")
        if not test(states[k].vertices, step.items()):
            raise InvariantViolation(f"state {k} changed the marginals")
        steps.append(step)
    max_step = pole_changes = 0
    for k, step in enumerate(steps, 1):
        norm = sum(map(abs, step.values()))
        if norm == 0:
            raise InvariantViolation(f"step {k} is a no-op")
        if norm > 8:
            raise InvariantViolation(f"step {k} has norm {norm} > 8")
        max_step = max(max_step, norm)
        if seq.poles is not None and project(
                TableVector(g.vertices, step), seq.poles).entries:
            pole_changes += 1
            if norm != 4:
                raise InvariantViolation(
                    f"step {k} changes the pole marginal with norm {norm}")
    return {"length": seq.length, "max_step_norm": max_step,
            "pole_changing_steps": pole_changes}


# ---------------------------------------------------------------------
# recursion over a series-parallel tree

def _extend(states: List[Counts], more: Sequence[Counts]):
    if more[0] != states[-1]:
        raise InvariantViolation("sequence junction mismatch")
    states.extend(more[1:])


def _join_sides(z: Counts, zp: Counts, m1: int, m2: int,
                sides) -> List[Counts]:
    """States z .. zp across a node whose sides have the vertex masks
    m1 and m2: the steps of each (chain, pole mask, join mask) in
    `sides`, a chain on the first side and then one on the second,
    lifted onto the whole table toward zp, then swaps.  A step that
    keeps the marginal of its chain's poles keys the other vertices on
    both poles, so it keeps each pole's marginal with them too; any
    other step keys them on the join."""
    states = [z]
    cur = dict(z)
    for mask, (seq, pole_bits, join_bits) in zip((m1, m2), sides):
        for prev, s in zip(seq, seq[1:]):
            gone, new = _step_parts(prev, s)
            keeps = sorted(q & pole_bits for q in gone) == \
                sorted(q & pole_bits for q in new)
            _lift(cur, mask, gone, new,
                  [(pole_bits if keeps else join_bits, (m1 | m2) & ~mask)],
                  zp)
            states.append(dict(cur))
    if cur != zp:
        _extend(states, _swap_states(states[-1], zp, m1, m2))
    return states


def _uv_cells(x: Counts, ubit: int, vbit: int) -> Tuple[int, ...]:
    """The (u, v) marginal of `x`, u's value in the low bit."""
    part = _part_counts(x, ubit | vbit)
    return tuple(part.get(m, 0) for m in (0, ubit, vbit, ubit | vbit))


class _Node:
    """A node of a series-parallel tree in the bits of the connector's
    tables: its kind, pole bits `u` and `v`, children, the `join` bit of
    a serial node (0 otherwise), and `mask`, the bits of its vertices:
    a leaf's two pole bits, or the OR of its children's masks."""

    __slots__ = ("kind", "u", "v", "children", "join", "mask")

    def __init__(self, kind: str, u: int, v: int,
                 children: Tuple["_Node", ...] = (), join: int = 0):
        self.kind, self.u, self.v = kind, u, v
        self.children, self.join = children, join
        mask = 0
        for c in children:
            mask |= c.mask
        self.mask = mask or u | v


def _node(kind: str, p: int, q: int, children: Tuple[_Node, ...],
          w: Optional[int]) -> _Node:
    """A node of `graphs._tree`, given by vertex indices, as a `_Node`
    over the bits of the whole graph."""
    return _Node(kind, 1 << p, 1 << q, children, 0 if w is None else 1 << w)


def _connect_two_terminal(tree: _Node, z: Counts,
                          zp: Counts) -> List[Counts]:
    """States z .. zp with step norms <= 8 and the pole discipline for
    the tree's poles, on the graph of `tree`.  Assumes equal marginals
    and non-negative inputs, counts over the bits of the tree's nodes,
    with every unit inside `tree.mask`.

    Each case is a generator that yields its sub-problems (node, pole
    bits, tables) and is sent their chains; this loop runs them from an
    explicit stack, so the tree's depth is not bounded by the
    interpreter's recursion limit.
    """
    stack = [_case(tree, tree.u, tree.v, z, zp)]
    chain = None
    while stack:
        try:
            request = stack[-1].send(chain)
        except StopIteration as done:
            stack.pop()
            chain = done.value
        else:
            stack.append(_case(*request))
            chain = None
    return chain


def _case(t: _Node, u: int, v: int, z: Counts, zp: Counts):
    """Dispatch on the node kind, the poles u and v given as bits.
    Children may list their poles in either order; a parallel node has
    at most one leaf child, and none of its children is parallel."""
    if z == zp:
        return [z]
    if t.kind == "leaf":
        # a single edge pins the table; unequal endpoints cannot happen
        raise InvariantViolation("distinct tables on a single edge")
    if t.kind == "serial":
        return (yield from _case_serial(t, u, v, z, zp))
    edge = next((c for c in t.children if c.kind == "leaf"), None)
    others = tuple(c for c in t.children if c is not edge)
    if edge is None:
        return (yield from _case_parallel_no_edge(t, u, v, z, zp))
    if len(others) >= 2:
        return (yield from _case_parallel_edge(t, edge, others, u, v, z, zp))
    return (yield from _case_ring(edge, others[0], u, v, z, zp))


def _case_serial(t: _Node, u: int, v: int, z: Counts, zp: Counts):
    """Split at the join w between the poles; walk the u side, then
    the v side, then finish with swaps."""
    c1, c2 = t.children
    if u not in (c1.u, c1.v):
        c1, c2 = c2, c1
    w = t.join
    seq1 = yield c1, u, w, _part_counts(z, c1.mask), _part_counts(zp, c1.mask)
    seq2 = yield c2, w, v, _part_counts(z, c2.mask), _part_counts(zp, c2.mask)
    return _join_sides(z, zp, c1.mask, c2.mask,
                       ((seq1, u | w, w), (seq2, w | v, w)))


def _case_parallel_edge(t: _Node, edge: _Node, others: Tuple[_Node, ...],
                        u: int, v: int, z: Counts, zp: Counts):
    """Pole edge present and at least two other children: both sides
    keep a copy of the pole edge, so the pole marginal never moves."""
    side1 = _Node("parallel", t.u, t.v, (edge, others[0]))
    side2 = _Node("parallel", t.u, t.v, (edge,) + others[1:])
    m1, m2 = others[0].mask, side2.mask
    seq1 = yield side1, u, v, _part_counts(z, m1), _part_counts(zp, m1)
    seq2 = yield side2, u, v, _part_counts(z, m2), _part_counts(zp, m2)
    uv = u | v
    return _join_sides(z, zp, m1, m2, ((seq1, uv, uv), (seq2, uv, uv)))


def _case_parallel_no_edge(t: _Node, u: int, v: int, z: Counts, zp: Counts):
    """Poles not adjacent: either the pole marginal already agrees (add
    a virtual pole edge as a leaf and reuse the edge case), or
    interpolate it one norm-4 exchange at a time and connect within
    each plateau."""
    plus = _Node("parallel", t.u, t.v,
                 (_Node("leaf", t.u, t.v),) + t.children)
    if _part_counts(z, u | v) == _part_counts(zp, u | v):
        return (yield plus, u, v, z, zp)

    first, rest = t.children[0], t.children[1:]
    side2 = rest[0] if len(rest) == 1 else _Node("parallel", t.u, t.v, rest)
    m1, m2 = first.mask, side2.mask
    seq1 = yield first, u, v, _part_counts(z, m1), _part_counts(zp, m1)
    seq2 = yield side2, u, v, _part_counts(z, m2), _part_counts(zp, m2)

    # pole-marginal line: t0 + r*sign*(e00 + e11 - e01 - e10)
    t0 = _uv_cells(z, u, v)
    t1 = _uv_cells(zp, u, v)
    c = t1[0] - t0[0]
    if c == 0 or tuple(t1[i] - t0[i] for i in range(4)) != \
            (c, -c, -c, c):
        raise InvariantViolation("pole marginal difference is not an "
                                 "exchange multiple")
    m = abs(c)
    sign = 1 if c > 0 else -1

    def scoord(x: Counts) -> int:
        cells = _uv_cells(x, u, v)
        s = sign * (cells[0] - t0[0])
        if cells != (t0[0] + sign * s, t0[1] - sign * s,
                     t0[2] - sign * s, t0[3] + sign * s):
            raise InvariantViolation("pole marginal left the exchange line")
        return s

    def crossings(seq: List[Counts]) -> List[int]:
        svals = [scoord(x) for x in seq]
        ks = []
        k_prev = 0
        for r in range(1, m + 1):
            k = next((t for t in range(k_prev + 1, len(seq))
                      if svals[t - 1] == r - 1 and svals[t] == r), None)
            if k is None:
                raise InvariantViolation("missing pole-marginal crossing")
            ks.append(k)
            k_prev = k
        return ks

    ks1 = crossings(seq1)
    ks2 = crossings(seq2)

    states = [z]
    cur = z
    for r in range(1, m + 1):
        a_r, b_r = _cutchange(seq1[ks1[r - 1] - 1], seq1[ks1[r - 1]],
                              seq2[ks2[r - 1] - 1], seq2[ks2[r - 1]], m1, m2)
        _extend(states, (yield plus, u, v, cur, a_r))
        states.append(b_r)
        cur = b_r
    _extend(states, (yield plus, u, v, cur, zp))
    return states


def _chain(pieces: Sequence[Tuple[_Node, int, int]]) -> _Node:
    """A serial node through pieces (node, p, q), each q the next p,
    joined pairwise so that its depth is logarithmic."""
    while len(pieces) > 1:
        joined = [(_Node("serial", p, q, (t1, t2), w), p, q)
                  for (t1, p, w), (t2, _, q) in zip(pieces[::2],
                                                    pieces[1::2])]
        pieces = joined + list(pieces[len(joined) * 2:])
    return pieces[0][0]


def _case_ring(edge: _Node, ring: _Node, u: int, v: int, z: Counts,
               zp: Counts):
    """The pole edge and one serial child close a ring of blobs, each a
    leaf or a parallel node.  A ring of leaves is a cycle: K3 is the
    base case, and a longer cycle splits at u and the vertex halfway
    round into two paths, which the no-edge case joins (and, with the
    chord between them added, two shorter cycles).
    Otherwise the ring is re-poled at its first parallel blob, whose
    children gain the rest of the ring as one more child.  The caller's
    poles are an edge, whose marginal never moves, so their discipline
    holds for free."""
    blobs = []  # (node, p, q) from u to v
    stack = [(ring, u, v)]
    while stack:
        t, p, q = stack.pop()
        if t.kind != "serial":
            blobs.append((t, p, q))
            continue
        c1, c2 = t.children
        if p not in (c1.u, c1.v):
            c1, c2 = c2, c1
        stack += [(c2, t.join, q), (c1, p, t.join)]
    i = next((k for k, b in enumerate(blobs) if b[0].kind != "leaf"), None)
    if i is not None:
        blob, x, y = blobs[i]
        rest = _chain(blobs[i + 1:] + [(edge, v, u)] + blobs[:i])
        return (yield (_Node("parallel", x, y, blob.children + (rest,)),
                       x, y, z, zp))
    if len(blobs) == 2:
        return _triangle_states(z, zp, (u, blobs[0][2], v))
    cyc = [u] + [q for _, _, q in blobs]
    h = len(cyc) // 2
    halves = tuple(_chain([(_Node("leaf", a, b), a, b)
                           for a, b in zip(path, path[1:])])
                   for path in (cyc[:h + 1], cyc[h:] + cyc[:1]))
    return (yield (_Node("parallel", cyc[0], cyc[h], halves),
                   cyc[0], cyc[h], z, zp))


def _walk(z: Counts, step: Counts, times: int) -> List[Counts]:
    """The states z, z + step, ..., z + times * step."""
    states = [z]
    for _ in range(times):
        cur = dict(states[-1])
        for m, c in step.items():
            cur[m] = cur.get(m, 0) + c
            if not cur[m]:
                del cur[m]
        states.append(cur)
    return states


def _triangle_states(z: Counts, zp: Counts,
                     bits: Sequence[int]) -> List[Counts]:
    """Walk a K3 fiber on the vertices of `bits`, steps of norm
    exactly 8.

    The binary K3 model is the 2x2x2 no-three-way-interaction model,
    whose lattice kernel is spanned by one move: +1 on the labelings of
    even popcount, -1 on the odd ones.  So every fiber is a segment
    z + t*move, and every state on it is non-negative by convexity.
    """
    move = {0: 1}
    for b in bits:
        move.update({m | b: -c for m, c in move.items()})
    t = zp.get(0, 0) - z.get(0, 0)
    states = _walk(z, {m: c if t > 0 else -c for m, c in move.items()},
                   abs(t))
    if states[-1] != zp:
        raise InvariantViolation("K3 tables differ off the kernel move")
    return states


# ---------------------------------------------------------------------
# one pass over the block-cut forest

def _groups(pieces: Sequence[Piece], below: Sequence[int],
            heads: Iterable[int], inside: int, rest_key: int,
            full: int) -> List[Tuple[int, int]]:
    """Lift groups for the vertices outside `inside`: the pieces in
    `heads`, each with everything below it, grouped by the attach
    vertex they hang from, and the remaining vertices keyed on
    `rest_key`."""
    by_key: Dict[int, int] = {}
    rest = full & ~inside
    for h in heads:
        bit = 1 << pieces[h].attach
        by_key[bit] = by_key.get(bit, 0) | below[h]
        rest &= ~below[h]
    if rest:
        by_key[rest_key] = by_key.get(rest_key, 0) | rest
    return [(key, m & ~inside) for key, m in by_key.items()]


def _piece_states(tree: Optional[_Node], mask: int, z: Counts,
                  zp: Counts) -> List[Counts]:
    """States z .. zp on one piece with the vertex mask `mask`: a block
    of two or more edges, given by its series-parallel tree, or an
    isolated vertex (tree None)."""
    if tree is not None:
        return _connect_two_terminal(tree, z, zp)
    # isolated vertex: move one unit at a time between its labelings
    d = zp.get(mask, 0) - z.get(mask, 0)
    return _walk(z, {0: -1, mask: 1} if d > 0 else {0: 1, mask: -1}, abs(d))


def _connect_pieces(g: Graph, pieces: Sequence[Piece],
                    trees: Dict[int, _Node], z: Counts,
                    zp: Counts) -> List[Counts]:
    """States z .. zp over the pieces of `block_cut_forest(g)`, with
    the series-parallel tree of each piece j of two or more edges in
    `trees[j]`.

    First each piece whose part differs is walked to its target part
    by its own chain, every step lifted onto the whole table; a piece
    of one edge is skipped, since the edge's marginal fixes its part.
    Then for j = 1, 2, ... the union of pieces 0 .. j-1 is joined to
    piece j by norm-4 swaps, lifted the same way.  A lift keeps the
    part of every piece outside the vertices it changes, because such a
    piece lies in a single lift group plus at most that group's key
    vertex.
    """
    if z == zp:
        return [z]
    full = (1 << g.n) - 1
    masks = [sum(1 << v for v in p.vertices) for p in pieces]
    children: List[List[int]] = [[] for _ in pieces]
    for j, p in enumerate(pieces):
        if p.parent is not None:
            children[p.parent].append(j)
    below = list(masks)  # a piece with every piece hanging below it
    for j in reversed(range(len(pieces))):
        if pieces[j].parent is not None:
            below[pieces[j].parent] |= below[j]
    cur = dict(z)
    states = [z]

    for j, p in enumerate(pieces):
        if len(p.edges) == 1:
            continue
        part, target = _part_counts(z, masks[j]), _part_counts(zp, masks[j])
        if part == target:
            continue
        chain = _piece_states(trees.get(j), masks[j], part, target)
        key = 0 if p.attach is None else 1 << p.attach
        groups = _groups(pieces, below, children[j], masks[j], key, full)
        for s, t in zip(chain, chain[1:]):
            _lift(cur, masks[j], *_step_parts(s, t), groups, zp)
            states.append(dict(cur))

    union = 0
    hung = 0  # pieces j+1 .. hung-1 hang from pieces 0 .. j (BFS order)
    for j in range(len(pieces)):
        joined = union | masks[j]
        hung = max(hung, j + 1, *(c + 1 for c in children[j]))
        have = _part_counts(cur, joined)
        want = _part_counts(zp, joined)
        if have != want:
            groups = _groups(pieces, below, range(j + 1, hung), joined, 0,
                             full)
            for a, e, c, f in _swaps(have, want, union, masks[j]):
                _lift(cur, joined, sorted((a, e)), sorted((c, f)), groups,
                      zp)
                states.append(dict(cur))
        union = joined
    if states[-1] != zp:
        raise InvariantViolation("block-cut pass ended off the target")
    return states


# ---------------------------------------------------------------------
# public entry points

def _validate_pair(g: Graph, z: TableVector, zp: TableVector):
    if z.vertices != g.vertices or zp.vertices != g.vertices:
        raise ProjectionMismatch("tables not over the graph's vertex order")
    if not (z.is_nonnegative() and zp.is_nonnegative()):
        raise ValueError("tables must be non-negative")
    if graph_marginals(z, g) != graph_marginals(zp, g):
        raise ProjectionMismatch("tables have different marginals")


def connect_graph(g: Graph, z: TableVector, zp: TableVector) -> MoveSequence:
    """Chain z .. zp with every step of norm <= 8, for any graph without
    a K4 minor.  Raises NotK4MinorFree otherwise."""
    _validate_pair(g, z, zp)
    pieces = block_cut_forest(g)
    trees = {j: block_sp_tree(p.edges, _node)
             for j, p in enumerate(pieces) if len(p.edges) > 1}
    states = _connect_pieces(g, pieces, trees, z.entries, zp.entries)
    return MoveSequence(g, [TableVector(g.vertices, s) for s in states])


def connect_two_terminal(g: Graph, upole: str, vpole: str,
                         z: TableVector, zp: TableVector) -> MoveSequence:
    """Connector for a two-terminal series-parallel graph; the returned
    sequence carries the pole pair and obeys the pole discipline.

    The graph is reduced once with `upole` and `vpole` kept as poles;
    if it is not series-parallel between them, NotSeriesParallel is
    raised before the connector starts.
    """
    _validate_pair(g, z, zp)
    tree = _tree(*_sp_reduction(g, (upole, vpole)), _node)
    states = _connect_two_terminal(tree, z.entries, zp.entries)
    return MoveSequence(g, [TableVector(g.vertices, s) for s in states],
                        poles=(upole, vpole))
