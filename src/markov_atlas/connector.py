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
swaps.  Every step is lifted onto the whole table at the cut vertices:
each component of the rest of the graph meets the stepped vertices in
one vertex, so it moves with a released unit that has the same bit
there, and the lift keeps the step's norm and every edge marginal.

Inside a 2-connected block the chain is driven by the block's
series-parallel tree (`graphs.block_sp_tree`, from the same reduction
that decides the K4 test): a serial node splits the tables at its join,
a parallel node between its children, each side projected onto the
vertices of its subtree, and the cases run from a work stack rather
than by Python recursion.  A pole edge with one serial child closes a
ring, which is re-poled at one of its parallel nodes or, when it is a
cycle, split into two paths.  The base case is the triangle K3: the
binary K3 model is the 2x2x2 no-three-way-interaction model, whose
lattice kernel is spanned by one degree-4 move, so each K3 fiber is a
segment walked one move at a time.

For a piece with poles (u, v) the produced sequence additionally
guarantees: whenever a step changes the joint (u, v) marginal, that
step's norm is exactly 4.  This pole discipline is what lets a parent
parallel join interpolate the pole marginal one exchange at a time.

The three gluing primitives (`glue_cutsame`, `glue_swaps`,
`glue_cutchange`) work over arbitrary overlapping vertex sets and are
exact: the produced vectors meet their stated norm identities, which
`verify_sequence` re-checks at every step when requested.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InvariantViolation, ProjectionMismatch
from .graphs import (Graph, Piece, SPTree, block_cut_forest, block_sp_tree,
                     realize, sp_decompose)
from .lattice import (TableVector, graph_marginals, label_index, project,
                      restrict_mask, vector_to_json)


# ---------------------------------------------------------------------
# mask plumbing

def _positions(ground: Sequence[str], sub: Sequence[str]) -> List[int]:
    at = label_index(tuple(ground))
    return [at[v] for v in sub]


def _bitmask_of(ground: Sequence[str], sub: Sequence[str]) -> int:
    return _place((1 << len(sub)) - 1, _positions(ground, sub))


def _place(part_mask: int, positions: Sequence[int]) -> int:
    """Inverse of restrict_mask: spread packed bits back onto `positions`."""
    out = 0
    for j, p in enumerate(positions):
        if (part_mask >> j) & 1:
            out |= 1 << p
    return out


# ---------------------------------------------------------------------
# gluing primitives

def glue_cutsame(z: TableVector, zbar: TableVector, x2: Sequence[str],
                 prefer: Optional[TableVector] = None) -> TableVector:
    """Rewrite the X1 side of `z` to match `zbar` while freezing X2.

    X1 is the ground set of `zbar`; X1 and `x2` must cover the ground
    set of `z` and agree with it on Y = X1 & X2 projections.  The result
    z' satisfies project(z', X1) = zbar, project(z', X2) = project(z, X2)
    and ||z - z'|| = ||project(z, X1) - zbar||.

    Units of `prefer` (a table over the ground set of `z`) keep their
    X1 part first, and a new part goes first to a unit that it turns
    into a unit of `prefer`, as often as `prefer` has it; the rest take
    the new parts in sorted order.  The connector passes its target.
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
    want = Counter(prefer.units() if prefer is not None else ())

    # zbar's units are placed at the positions of X1 in X, so parts
    # compare with masked units of z
    pos_x1 = _positions(X, X1)
    x1_bits = _place((1 << len(X1)) - 1, pos_x1)
    y_bits = _bitmask_of(X, Y)
    bar_by_y: Dict[int, List[int]] = {}
    for m in zbar.units():
        part = _place(m, pos_x1)
        bar_by_y.setdefault(part & y_bits, []).append(part)
    z_by_y: Dict[int, List[int]] = {}
    for m in z.units():
        z_by_y.setdefault(m & y_bits, []).append(m)

    out_units: List[int] = []
    for ykey, full_units in sorted(z_by_y.items()):
        bar_units = bar_by_y.get(ykey, [])
        if len(bar_units) != len(full_units):
            raise InvariantViolation("overlap class sizes differ")
        # keep units whose X1 part already occurs in zbar, units of
        # `prefer` first
        avail = Counter(bar_units)
        deferred: List[int] = []
        for full in sorted(full_units, key=lambda m: want[m] <= 0):
            part = full & x1_bits
            if avail[part] > 0:
                avail[part] -= 1
                want[full] -= 1
                out_units.append(full)
            else:
                deferred.append(full & ~x1_bits)
        leftovers = sorted(avail.elements())
        if len(leftovers) != len(deferred):
            raise InvariantViolation("unmatched unit counts differ")
        # a unit that some new part turns into a unit of `prefer` picks
        # first; the others take what is left in sorted order
        for rest in sorted(deferred, key=lambda r: all(
                want[r | p] <= 0 for p in leftovers)):
            new = next((p for p in leftovers if want[rest | p] > 0),
                       leftovers[0])
            want[rest | new] -= 1
            leftovers.remove(new)
            out_units.append(rest | new)
    return TableVector.from_units(X, out_units)


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
    if project(z, tuple(x1)) != project(zp, tuple(x1)) or \
       project(z, tuple(x2)) != project(zp, tuple(x2)):
        raise ProjectionMismatch("side projections differ")
    if not (z.is_nonnegative() and zp.is_nonnegative()):
        raise ValueError("glue_swaps needs non-negative inputs")

    cur = dict(z.entries)
    states = [z]
    for _ in _swaps(cur, zp.entries, _bitmask_of(X, x1), _bitmask_of(X, x2)):
        states.append(TableVector(X, cur))
    return states


def _swaps(cur: Dict[int, int], tgt: Dict[int, int], m1bits: int,
           m2bits: int):
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
    Y = tuple(v for v in X1 if v in set(X2))
    if project(z1, Y) != project(z2, Y) or project(z1p, Y) != project(z2p, Y):
        raise ProjectionMismatch("sides disagree on the overlap")
    d1 = (z1 - z1p).l1()
    dy = (project(z1, Y) - project(z1p, Y)).l1()
    d2 = (z2 - z2p).l1()
    if not (dy == d1 == d2):
        raise ProjectionMismatch(
            f"tight-norm condition fails: overlap {dy}, sides {d1}, {d2}")
    for v in (z1, z1p, z2, z2p):
        if not v.is_nonnegative():
            raise ValueError("glue_cutchange needs non-negative inputs")

    pos_y1 = _positions(X1, Y)
    pos_y2 = _positions(X2, Y)
    pos_x1 = _positions(X, X1)
    pos_x2 = _positions(X, X2)

    def lift_pairs(units1: List[int], units2: List[int]) -> List[int]:
        by_y1: Dict[int, List[int]] = {}
        for m in sorted(units1):
            by_y1.setdefault(restrict_mask(m, pos_y1), []).append(m)
        by_y2: Dict[int, List[int]] = {}
        for m in sorted(units2):
            by_y2.setdefault(restrict_mask(m, pos_y2), []).append(m)
        if sorted((k, len(v)) for k, v in by_y1.items()) != \
           sorted((k, len(v)) for k, v in by_y2.items()):
            raise InvariantViolation("overlap class sizes differ in lift")
        out = []
        for ykey, ms1 in sorted(by_y1.items()):
            for m1, m2 in zip(ms1, by_y2[ykey]):
                out.append(_place(m1, pos_x1) | _place(m2, pos_x2))
        return out

    c1 = Counter(z1.units())
    c1p = Counter(z1p.units())
    c2 = Counter(z2.units())
    c2p = Counter(z2p.units())
    common = lift_pairs(sorted((c1 & c1p).elements()),
                        sorted((c2 & c2p).elements()))
    plus = lift_pairs(sorted((c1 - c1p).elements()),
                      sorted((c2 - c2p).elements()))
    minus = lift_pairs(sorted((c1p - c1).elements()),
                       sorted((c2p - c2).elements()))
    z = TableVector.from_units(X, common + plus)
    zp = TableVector.from_units(X, common + minus)
    return z, zp


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


def verify_sequence(seq: MoveSequence, max_norm: int = 8) -> dict:
    """Machine-check a MoveSequence; raises InvariantViolation on any
    failure, returns summary statistics otherwise.

    Checks: non-negativity and constant marginals of every state, step
    norms in (0, max_norm], and (when poles are set) that every step
    changing the pole marginal has norm exactly 4.
    """
    if not seq.states:
        raise InvariantViolation("empty state chain")
    g = seq.graph
    ref = graph_marginals(seq.states[0], g)
    max_step = 0
    pole_changes = 0
    for k, state in enumerate(seq.states):
        if not state.is_nonnegative():
            raise InvariantViolation(f"state {k} is negative")
        if graph_marginals(state, g) != ref:
            raise InvariantViolation(f"state {k} changed the marginals")
    for k in range(1, len(seq.states)):
        norm = (seq.states[k] - seq.states[k - 1]).l1()
        if norm == 0:
            raise InvariantViolation(f"step {k} is a no-op")
        if norm > max_norm:
            raise InvariantViolation(f"step {k} has norm {norm} > {max_norm}")
        max_step = max(max_step, norm)
        if seq.poles is not None:
            uv = seq.poles
            if project(seq.states[k - 1], uv) != project(seq.states[k], uv):
                pole_changes += 1
                if norm != 4:
                    raise InvariantViolation(
                        f"step {k} changes the pole marginal with norm {norm}")
    return {"length": seq.length, "max_step_norm": max_step,
            "pole_changing_steps": pole_changes}


# ---------------------------------------------------------------------
# recursion over a series-parallel tree

def _extend(states: List[TableVector], more: Sequence[TableVector]):
    if more[0] != states[-1]:
        raise InvariantViolation("sequence junction mismatch")
    states.extend(more[1:])


def _append_glued(states: List[TableVector], nxt: TableVector):
    if nxt != states[-1]:
        states.append(nxt)


def _labels(ground: Sequence[str], keep) -> Tuple[str, ...]:
    """The labels in `keep`, in ground-set order."""
    return tuple(x for x in ground if x in keep)


def _uv_cells(x: TableVector, ulab: str, vlab: str) -> Tuple[int, ...]:
    p = project(x, (ulab, vlab))
    return tuple(p.entries.get(m, 0) for m in range(4))


def _connect_two_terminal(tree: SPTree, u: str, v: str, z: TableVector,
                          zp: TableVector) -> List[TableVector]:
    """States z .. zp with step norms <= 8 and the pole discipline for
    (u, v), on the graph of `tree` with poles u and v.  Assumes equal
    marginals and non-negative inputs over the tree's vertices in
    ground-set order.

    Each case is a generator that yields its sub-problems (tree, poles,
    tables) and is sent their chains; this loop runs them from an
    explicit stack, so the tree's depth is not bounded by the
    interpreter's recursion limit.
    """
    stack = [_case(tree, u, v, z, zp)]
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


def _case(t: SPTree, u: str, v: str, z: TableVector, zp: TableVector):
    """Dispatch on the node kind.  Children may list their poles in
    either order; a parallel node has at most one leaf child, and none
    of its children is parallel."""
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


def _case_serial(t: SPTree, u: str, v: str, z: TableVector,
                 zp: TableVector):
    """Split at the join w between the poles; walk the u side, then
    the v side, then finish with swaps."""
    c1, c2 = t.children
    if u not in c1.poles:
        c1, c2 = c2, c1
    w = t.join
    X1 = _labels(z.vertices, c1.vertex_labels())
    X2 = _labels(z.vertices, c2.vertex_labels())
    seq1 = yield c1, u, w, project(z, X1), project(zp, X1)
    seq2 = yield c2, w, v, project(z, X2), project(zp, X2)

    states = [z]
    for seq, poles, hold, pole in ((seq1, (u, w), X2, u),
                                   (seq2, (w, v), X1, v)):
        # a step that keeps its side's pole marginal also holds the
        # outer pole, so the (u, v) marginal stays put
        hold_pole = _labels(z.vertices, set(hold) | {pole})
        for prev, s in zip(seq, seq[1:]):
            keeps = project(prev, poles) == project(s, poles)
            _append_glued(states, glue_cutsame(
                states[-1], s, hold_pole if keeps else hold, zp))
    if states[-1] != zp:
        _extend(states, glue_swaps(states[-1], zp, X1, X2))
    return states


def _case_parallel_edge(t: SPTree, edge: SPTree, others: Tuple[SPTree, ...],
                        u: str, v: str, z: TableVector, zp: TableVector):
    """Pole edge present and at least two other children: both sides
    keep a copy of the pole edge, so the pole marginal never moves."""
    side1 = SPTree("parallel", t.poles, (edge, others[0]))
    side2 = SPTree("parallel", t.poles, (edge,) + others[1:])
    X1 = _labels(z.vertices, others[0].vertex_labels())
    X2 = _labels(z.vertices, side2.vertex_labels())
    seq1 = yield side1, u, v, project(z, X1), project(zp, X1)
    seq2 = yield side2, u, v, project(z, X2), project(zp, X2)
    states = [z]
    for seq, hold in ((seq1, X2), (seq2, X1)):
        for s in seq[1:]:
            _append_glued(states, glue_cutsame(states[-1], s, hold, zp))
    if states[-1] != zp:
        _extend(states, glue_swaps(states[-1], zp, X1, X2))
    return states


def _case_parallel_no_edge(t: SPTree, u: str, v: str, z: TableVector,
                           zp: TableVector):
    """Poles not adjacent: either the pole marginal already agrees (add
    a virtual pole edge as a leaf and reuse the edge case), or
    interpolate it one norm-4 exchange at a time and connect within
    each plateau."""
    plus = SPTree("parallel", t.poles,
                  (SPTree("leaf", t.poles),) + t.children)
    if project(z, (u, v)) == project(zp, (u, v)):
        return (yield plus, u, v, z, zp)

    first, rest = t.children[0], t.children[1:]
    side2 = rest[0] if len(rest) == 1 else SPTree("parallel", t.poles, rest)
    X1 = _labels(z.vertices, first.vertex_labels())
    X2 = _labels(z.vertices, side2.vertex_labels())
    seq1 = yield first, u, v, project(z, X1), project(zp, X1)
    seq2 = yield side2, u, v, project(z, X2), project(zp, X2)

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

    def scoord(x: TableVector) -> int:
        cells = _uv_cells(x, u, v)
        s = sign * (cells[0] - t0[0])
        if cells != (t0[0] + sign * s, t0[1] - sign * s,
                     t0[2] - sign * s, t0[3] + sign * s):
            raise InvariantViolation("pole marginal left the exchange line")
        return s

    def crossings(seq: List[TableVector]) -> List[int]:
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
        a_r, b_r = glue_cutchange(seq1[ks1[r - 1] - 1], seq1[ks1[r - 1]],
                                  seq2[ks2[r - 1] - 1], seq2[ks2[r - 1]],
                                  z.vertices)
        _extend(states, (yield plus, u, v, cur, a_r))
        states.append(b_r)
        cur = b_r
    _extend(states, (yield plus, u, v, cur, zp))
    return states


def _chain(pieces: Sequence[Tuple[SPTree, str, str]]) -> SPTree:
    """A serial tree through pieces (tree, p, q), each q the next p,
    joined pairwise so that its depth is logarithmic."""
    while len(pieces) > 1:
        joined = [(SPTree("serial", (p, q), (t1, t2), w), p, q)
                  for (t1, p, w), (t2, _, q) in zip(pieces[::2],
                                                    pieces[1::2])]
        pieces = joined + list(pieces[len(joined) * 2:])
    return pieces[0][0]


def _case_ring(edge: SPTree, ring: SPTree, u: str, v: str, z: TableVector,
               zp: TableVector):
    """The pole edge and one serial child close a ring of blobs, each a
    leaf or a parallel node.  A ring of leaves is a cycle: K3 is the
    base case, and a longer cycle splits at u and the vertex halfway
    round into two paths, which the no-edge case joins (and, with the
    chord between them added, two shorter cycles).
    Otherwise the ring is re-poled at its first parallel blob, whose
    children gain the rest of the ring as one more child.  The caller's
    poles are an edge, whose marginal never moves, so their discipline
    holds for free."""
    blobs = []  # (tree, p, q) from u to v
    stack = [(ring, u, v)]
    while stack:
        t, p, q = stack.pop()
        if t.kind != "serial":
            blobs.append((t, p, q))
            continue
        c1, c2 = t.children
        if p not in c1.poles:
            c1, c2 = c2, c1
        stack += [(c2, t.join, q), (c1, p, t.join)]
    i = next((k for k, b in enumerate(blobs) if b[0].kind != "leaf"), None)
    if i is not None:
        blob, x, y = blobs[i]
        rest = _chain(blobs[i + 1:] + [(edge, v, u)] + blobs[:i])
        return (yield (SPTree("parallel", (x, y), blob.children + (rest,)),
                       x, y, z, zp))
    if len(blobs) == 2:
        return _triangle_states(z, zp)
    cyc = [u] + [q for _, _, q in blobs]
    h = len(cyc) // 2
    halves = tuple(_chain([(SPTree("leaf", (a, b)), a, b)
                           for a, b in zip(path, path[1:])])
                   for path in (cyc[:h + 1], cyc[h:] + cyc[:1]))
    return (yield (SPTree("parallel", (cyc[0], cyc[h]), halves),
                   cyc[0], cyc[h], z, zp))


def _triangle_states(z: TableVector, zp: TableVector) -> List[TableVector]:
    """Walk a K3 fiber, steps of norm exactly 8.

    The binary K3 model is the 2x2x2 no-three-way-interaction model,
    whose lattice kernel is spanned by one move: +1 on the labelings of
    even popcount, -1 on the odd ones.  So every fiber is a segment
    z + t*move, and every state on it is non-negative by convexity.
    """
    move = TableVector(z.vertices, {m: 1 - 2 * (bin(m).count("1") % 2)
                                    for m in range(8)})
    t = zp.entries.get(0, 0) - z.entries.get(0, 0)
    step = move if t > 0 else -move
    states = [z]
    for _ in range(abs(t)):
        states.append(states[-1] + step)
    if states[-1] != zp:
        raise InvariantViolation("K3 tables differ off the kernel move")
    return states


# ---------------------------------------------------------------------
# one pass over the block-cut forest

def _part_counts(entries: Dict[int, int], mask: int) -> Dict[int, int]:
    """Counts of the parts `unit & mask` of a table's units."""
    out: Dict[int, int] = {}
    for u, c in entries.items():
        part = u & mask
        out[part] = out.get(part, 0) + c
    return out


def _lift(cur: Dict[int, int], mask: int, gone: Sequence[int],
          new: Sequence[int], groups: Sequence[Tuple[int, int]]):
    """Apply to the whole table `cur`, in place, a step that replaces
    the parts `gone` by the parts `new` on the vertices of `mask`.

    Units whose part is still wanted stay as they are; one unit per
    gone part is released.  Each group (key bit, group mask) holds
    vertices outside `mask` whose edges reach `mask` at the key vertex
    only, or nowhere for key 0.  Every new part takes each group's bits
    from a released unit with the same key bit, so the lift has the
    step's norm and keeps every edge marginal that the step keeps.
    """
    released = []
    for part in gone:
        u = min(x for x in cur if x & mask == part)
        released.append(u)
        cur[u] -= 1
        if not cur[u]:
            del cur[u]
    units = list(new)
    for key, gmask in groups:
        for bit in ((0, key) if key else (0,)):
            src = [u for u in released if u & key == bit]
            dst = [i for i, q in enumerate(new) if q & key == bit]
            if len(src) != len(dst):
                raise InvariantViolation("a step moved the marginal of "
                                         "a cut vertex")
            for i, u in zip(dst, src):
                units[i] |= u & gmask
    for u in units:
        cur[u] = cur.get(u, 0) + 1


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


def _piece_states(tree: Optional[SPTree], z: TableVector,
                  zp: TableVector) -> List[TableVector]:
    """States z .. zp on one piece: a block of two or more edges, given
    by its series-parallel tree, or an isolated vertex (tree None)."""
    if tree is not None:
        return _connect_two_terminal(tree, *tree.poles, z, zp)
    if len(z.vertices) != 1:
        raise InvariantViolation("distinct tables on a single edge")
    # isolated vertex: shift units between the two labelings
    states = [z]
    cur = dict(z.entries)
    while cur != zp.entries:
        if cur.get(0, 0) > zp.entries.get(0, 0):
            src, dst = 0, 1
        else:
            src, dst = 1, 0
        cur[src] = cur.get(src, 0) - 1
        cur[dst] = cur.get(dst, 0) + 1
        cur = {k: c for k, c in cur.items() if c}
        states.append(TableVector(z.vertices, cur))
    return states


def _connect_pieces(g: Graph, pieces: Sequence[Piece],
                    trees: Dict[int, SPTree], z: TableVector,
                    zp: TableVector) -> List[TableVector]:
    """States z .. zp over the pieces of `block_cut_forest(g)`, with
    the series-parallel tree of each piece j of two or more edges in
    `trees[j]`.

    First each piece whose part differs is walked to its target part
    by its own chain, every step lifted onto the whole table.  Then for
    j = 1, 2, ... the union of pieces 0 .. j-1 is joined to piece j by
    norm-4 swaps, lifted the same way.  A lift keeps the part of every
    piece outside the vertices it changes, because such a piece lies in
    a single lift group plus at most that group's key vertex.
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
    cur = dict(z.entries)
    states = [z]

    for j, p in enumerate(pieces):
        if _part_counts(z.entries, masks[j]) == \
                _part_counts(zp.entries, masks[j]):
            continue
        labels = tuple(g.vertices[v] for v in p.vertices)
        chain = _piece_states(trees.get(j), project(z, labels),
                              project(zp, labels))
        key = 0 if p.attach is None else 1 << p.attach
        groups = _groups(pieces, below, children[j], masks[j], key, full)
        for s, t in zip(chain, chain[1:]):
            before, after = Counter(s.entries), Counter(t.entries)
            gone = sorted(_place(m, p.vertices)
                          for m in (before - after).elements())
            new = sorted(_place(m, p.vertices)
                         for m in (after - before).elements())
            _lift(cur, masks[j], gone, new, groups)
            states.append(TableVector(g.vertices, cur))

    union = 0
    hung = 0  # pieces j+1 .. hung-1 hang from pieces 0 .. j (BFS order)
    for j in range(len(pieces)):
        joined = union | masks[j]
        hung = max(hung, j + 1, *(c + 1 for c in children[j]))
        have = _part_counts(cur, joined)
        want = _part_counts(zp.entries, joined)
        if have != want:
            groups = _groups(pieces, below, range(j + 1, hung), joined, 0,
                             full)
            for a, e, c, f in _swaps(have, want, union, masks[j]):
                _lift(cur, joined, (a, e), (c, f), groups)
                states.append(TableVector(g.vertices, cur))
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


def connect_graph(g: Graph, z: TableVector, zp: TableVector,
                  verify: bool = False) -> MoveSequence:
    """Chain z .. zp with every step of norm <= 8, for any graph without
    a K4 minor.  Raises NotK4MinorFree otherwise."""
    _validate_pair(g, z, zp)
    pieces = block_cut_forest(g)
    trees = {}
    for j, p in enumerate(pieces):
        if len(p.edges) > 1:
            trees[j] = block_sp_tree(g.vertices, p.edges)
    seq = MoveSequence(g, _connect_pieces(g, pieces, trees, z, zp))
    if verify:
        verify_sequence(seq)
    return seq


def connect_two_terminal(g: Graph, upole: str, vpole: str,
                         z: TableVector, zp: TableVector,
                         verify: bool = False) -> MoveSequence:
    """Connector for a two-terminal series-parallel graph; the returned
    sequence carries the pole pair and obeys the pole discipline.

    The graph is reduced once with `upole` and `vpole` kept as poles;
    if it is not series-parallel between them, NotSeriesParallel is
    raised before the connector starts.
    """
    _validate_pair(g, z, zp)
    if not g.is_connected():
        raise ValueError("two-terminal connector needs a connected graph")
    return connect_sp(sp_decompose(g, (upole, vpole)), z, zp, verify)


def connect_sp(tree: SPTree, z: TableVector, zp: TableVector,
               verify: bool = False) -> MoveSequence:
    """Connector driven by a series-parallel decomposition tree, as
    `sp_decompose` returns it.

    The tree's realized graph is taken over the ground set of `z`.
    """
    g = realize(tree, z.vertices)
    if g.vertices != z.vertices:
        raise ProjectionMismatch("tree does not span the table's vertices")
    _validate_pair(g, z, zp)
    seq = MoveSequence(g, _connect_two_terminal(tree, *tree.poles, z, zp),
                       poles=tree.poles)
    if verify:
        verify_sequence(seq)
    return seq


def connect_cycle(g: Graph, z: TableVector,
                  zp: TableVector) -> MoveSequence:
    """Chain z .. zp on a cycle, steps of norm <= 8 (degree 4), built by
    the two-terminal recursion down to K3, whose fibers are segments
    along a single kernel move."""
    if not g.is_cycle():
        raise ValueError("graph is not a cycle")
    _validate_pair(g, z, zp)
    return MoveSequence(g, _piece_states(sp_decompose(g), z, zp))
