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

Inside a 2-connected block the chain recurses on two-terminal
series-parallel structure.  Its base case is the triangle K3: the
binary K3 model is the 2x2x2 no-three-way-interaction model, whose
lattice kernel is spanned by one degree-4 move, so each K3 fiber is a
segment walked one move at a time.  A longer cycle splits at two
opposite vertices into two paths, or, with the chord between them
added, into two shorter cycles.

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

from .errors import (InvariantViolation, NotK4MinorFree, ProjectionMismatch)
from .graphs import Graph, Piece, SPTree, block_cut_forest, \
    block_is_k4_minor_free, bridges, find_parallel3_poles, realize
from .lattice import (TableVector, graph_marginals, project, restrict_mask,
                      vector_to_json)


# ---------------------------------------------------------------------
# mask plumbing

def _positions(ground: Sequence[str], sub: Sequence[str]) -> List[int]:
    return [ground.index(v) for v in sub]


def _bitmask_of(ground: Sequence[str], sub: Sequence[str]) -> int:
    m = 0
    for v in sub:
        m |= 1 << ground.index(v)
    return m


def _place(part_mask: int, positions: Sequence[int]) -> int:
    """Inverse of restrict_mask: spread packed bits back onto `positions`."""
    out = 0
    for j, p in enumerate(positions):
        if (part_mask >> j) & 1:
            out |= 1 << p
    return out


# ---------------------------------------------------------------------
# gluing primitives

def glue_cutsame(z: TableVector, zbar: TableVector,
                 x2: Sequence[str]) -> TableVector:
    """Rewrite the X1 side of `z` to match `zbar` while freezing X2.

    X1 is the ground set of `zbar`; X1 and `x2` must cover the ground
    set of `z` and agree with it on Y = X1 & X2 projections.  The result
    z' satisfies project(z', X1) = zbar, project(z', X2) = project(z, X2)
    and ||z - z'|| = ||project(z, X1) - zbar||.
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

    pos_x1 = _positions(X, X1)
    pos_y_in_x1 = _positions(X1, Y)
    pos_y_in_x = _positions(X, Y)
    x1_bits = _bitmask_of(X, X1)

    bar_by_y: Dict[int, List[int]] = {}
    for m in zbar.units():
        bar_by_y.setdefault(restrict_mask(m, pos_y_in_x1), []).append(m)
    z_by_y: Dict[int, List[int]] = {}
    for m in z.units():
        z_by_y.setdefault(restrict_mask(m, pos_y_in_x), []).append(m)

    out_units: List[int] = []
    for ykey, full_units in sorted(z_by_y.items()):
        bar_units = bar_by_y.get(ykey, [])
        if len(bar_units) != len(full_units):
            raise InvariantViolation("overlap class sizes differ")
        # keep units whose X1 part already occurs in zbar
        avail = Counter(bar_units)
        deferred: List[int] = []
        for full in full_units:
            part = restrict_mask(full, pos_x1)
            if avail[part] > 0:
                avail[part] -= 1
                out_units.append(full)
            else:
                deferred.append(full)
        leftovers = sorted(avail.elements())
        if len(leftovers) != len(deferred):
            raise InvariantViolation("unmatched unit counts differ")
        for full, new_part in zip(deferred, leftovers):
            out_units.append((full & ~x1_bits) | _place(new_part, pos_x1))
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
# recursion

def _extend(states: List[TableVector], more: Sequence[TableVector]):
    if more[0] != states[-1]:
        raise InvariantViolation("sequence junction mismatch")
    for s in more[1:]:
        states.append(s)


def _append_glued(states: List[TableVector], nxt: TableVector):
    if nxt != states[-1]:
        states.append(nxt)


def _labels(g: Graph, idxs: Sequence[int]) -> Tuple[str, ...]:
    return tuple(g.vertices[i] for i in sorted(idxs))


def _separating_cut(g: Graph, u: int, v: int) -> Optional[int]:
    """Smallest vertex whose removal puts u and v in different
    components, or None."""
    adj = g.adj()
    for w in range(g.n):
        if w in (u, v):
            continue
        # BFS from u avoiding w
        seen = {u, w}
        stack = [u]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if v not in seen:
            return w
    return None


def _uv_cells(x: TableVector, ulab: str, vlab: str) -> Tuple[int, ...]:
    p = project(x, (ulab, vlab))
    return tuple(p.entries.get(m, 0) for m in range(4))


def _connect_two_terminal(g: Graph, u: int, v: int, z: TableVector,
                          zp: TableVector) -> List[TableVector]:
    """States z .. zp with step norms <= 8 and the pole discipline for
    (u, v).  Assumes equal marginals and non-negative inputs."""
    if z == zp:
        return [z]
    if g.m == 1:
        # a single edge pins the table; unequal endpoints cannot happen
        raise InvariantViolation("distinct tables on a single edge")
    w = _separating_cut(g, u, v)
    if w is not None:
        return _case_serial(g, u, v, w, z, zp)
    parts = bridges(g, u, v)
    if g.has_edge(u, v):
        if len(parts) >= 3:
            return _case_parallel_edge(g, u, v, parts, z, zp)
        if len(parts) != 2:
            raise InvariantViolation("edge uv with a single bridge")
        if g.is_cycle():
            return _cycle_states(g, z, zp)
        u2, v2, _ = find_parallel3_poles(g)
        return _connect_two_terminal(g, u2, v2, z, zp)
    return _case_parallel_no_edge(g, u, v, parts, z, zp)


def _side_setup(g: Graph, vert_idxs: Sequence[int], edge_idxs,
                z: TableVector, zp: TableVector):
    sub = g.subgraph(vert_idxs, edge_idxs)
    labels = sub.vertices
    return sub, labels, project(z, labels), project(zp, labels)


def _case_serial(g: Graph, u: int, v: int, w: int,
                 z: TableVector, zp: TableVector) -> List[TableVector]:
    """Split at a cut vertex w between the poles; walk the u side, then
    the v side, then finish with swaps."""
    adj = g.adj()
    seen = {u, w}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    side_u = sorted(seen)  # u's side plus w
    side_v = sorted((set(range(g.n)) - set(side_u)) | {w})
    G1, X1, z1, z1p = _side_setup(g, side_u, None, z, zp)
    G2, X2, z2, z2p = _side_setup(g, side_v, None, z, zp)
    ulab, vlab, wlab = g.vertices[u], g.vertices[v], g.vertices[w]
    seq1 = _connect_two_terminal(G1, G1.index(ulab), G1.index(wlab),
                                 z1, z1p)
    seq2 = _connect_two_terminal(G2, G2.index(wlab), G2.index(vlab),
                                 z2, z2p)

    states = [z]
    hold2_plus_u = _labels(g, sorted(set(side_v) | {u}))
    prev = seq1[0]
    for s in seq1[1:]:
        if project(prev, (ulab, wlab)) == project(s, (ulab, wlab)):
            nxt = glue_cutsame(states[-1], s, hold2_plus_u)
        else:
            nxt = glue_cutsame(states[-1], s, X2)
        _append_glued(states, nxt)
        prev = s
    hold1_plus_v = _labels(g, sorted(set(side_u) | {v}))
    prev = seq2[0]
    for s in seq2[1:]:
        if project(prev, (wlab, vlab)) == project(s, (wlab, vlab)):
            nxt = glue_cutsame(states[-1], s, hold1_plus_v)
        else:
            nxt = glue_cutsame(states[-1], s, X1)
        _append_glued(states, nxt)
        prev = s
    _extend(states, glue_swaps(states[-1], zp, X1, X2))
    return states


def _case_parallel_edge(g: Graph, u: int, v: int, parts,
                        z: TableVector, zp: TableVector) -> List[TableVector]:
    """Pole edge present and at least three bridges: both sides keep a
    copy of the pole edge, so the pole marginal never moves."""
    if not parts[0].is_edge:
        raise InvariantViolation("expected the uv edge bridge first")
    uv_edge = next(iter(parts[0].edges))
    b1 = parts[1]
    rest = parts[2:]
    edges1 = set(b1.edges) | {uv_edge}
    verts1 = set(b1.vertices) | {u, v}
    edges2 = {e for p in rest for e in p.edges} | {uv_edge}
    verts2 = {x for p in rest for x in p.vertices} | {u, v}
    G1, X1, z1, z1p = _side_setup(g, sorted(verts1), edges1, z, zp)
    G2, X2, z2, z2p = _side_setup(g, sorted(verts2), edges2, z, zp)
    ulab, vlab = g.vertices[u], g.vertices[v]
    seq1 = _connect_two_terminal(G1, G1.index(ulab), G1.index(vlab),
                                 z1, z1p)
    seq2 = _connect_two_terminal(G2, G2.index(ulab), G2.index(vlab),
                                 z2, z2p)
    states = [z]
    for s in seq1[1:]:
        _append_glued(states, glue_cutsame(states[-1], s, X2))
    for s in seq2[1:]:
        _append_glued(states, glue_cutsame(states[-1], s, X1))
    _extend(states, glue_swaps(states[-1], zp, X1, X2))
    return states


def _case_parallel_no_edge(g: Graph, u: int, v: int, parts, z: TableVector,
                           zp: TableVector) -> List[TableVector]:
    """Poles not adjacent: either the pole marginal already agrees (add
    a virtual pole edge and reuse the edge case), or interpolate it one
    norm-4 exchange at a time and connect within each plateau."""
    ulab, vlab = g.vertices[u], g.vertices[v]
    if project(z, (ulab, vlab)) == project(zp, (ulab, vlab)):
        g_plus = g.with_edge(u, v)
        return _connect_two_terminal(g_plus, u, v, z, zp)
    if len(parts) < 2:
        raise InvariantViolation("non-adjacent poles with a single bridge")

    b1 = parts[0]
    rest = parts[1:]
    edges1 = set(b1.edges)
    verts1 = set(b1.vertices) | {u, v}
    edges2 = {e for p in rest for e in p.edges}
    verts2 = {x for p in rest for x in p.vertices} | {u, v}
    G1, X1, z1, z1p = _side_setup(g, sorted(verts1), edges1, z, zp)
    G2, X2, z2, z2p = _side_setup(g, sorted(verts2), edges2, z, zp)
    seq1 = _connect_two_terminal(G1, G1.index(ulab), G1.index(vlab),
                                 z1, z1p)
    seq2 = _connect_two_terminal(G2, G2.index(ulab), G2.index(vlab),
                                 z2, z2p)

    # pole-marginal line: t0 + r*sign*(e00 + e11 - e01 - e10)
    t0 = _uv_cells(z, ulab, vlab)
    t1 = _uv_cells(zp, ulab, vlab)
    c = t1[0] - t0[0]
    if c == 0 or tuple(t1[i] - t0[i] for i in range(4)) != \
            (c, -c, -c, c):
        raise InvariantViolation("pole marginal difference is not an "
                                 "exchange multiple")
    m = abs(c)
    sign = 1 if c > 0 else -1

    def scoord(x: TableVector) -> int:
        cells = _uv_cells(x, ulab, vlab)
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

    g_plus = g.with_edge(u, v)
    states = [z]
    cur = z
    for r in range(1, m + 1):
        a_r, b_r = glue_cutchange(seq1[ks1[r - 1] - 1], seq1[ks1[r - 1]],
                                  seq2[ks2[r - 1] - 1], seq2[ks2[r - 1]],
                                  g.vertices)
        _extend(states, _connect_two_terminal(g_plus, u, v, cur, a_r))
        states.append(b_r)
        cur = b_r
    _extend(states, _connect_two_terminal(g_plus, u, v, cur, zp))
    return states


def _cycle_states(g: Graph, z: TableVector,
                  zp: TableVector) -> List[TableVector]:
    """States z .. zp on a cycle, steps of norm <= 8.

    K3 is the base case.  A longer cycle goes back through the
    two-terminal recursion with non-adjacent poles at distance n // 2:
    the cycle splits into two paths, and with the pole chord added into
    two shorter cycles.  The caller's poles, if any, are a cycle edge,
    whose marginal never moves, so their discipline holds for free.
    """
    if g.n == 3:
        return _triangle_states(g, z, zp)
    adj = g.adj()
    far, prev = 0, None
    for _ in range(g.n // 2):
        far, prev = min(w for w in adj[far] if w != prev), far
    return _connect_two_terminal(g, 0, far, z, zp)


def _triangle_states(g: Graph, z: TableVector,
                     zp: TableVector) -> List[TableVector]:
    """Walk a K3 fiber, steps of norm exactly 8.

    The binary K3 model is the 2x2x2 no-three-way-interaction model,
    whose lattice kernel is spanned by one move: +1 on the labelings of
    even popcount, -1 on the odd ones.  So every fiber is a segment
    z + t*move, and every state on it is non-negative by convexity.
    """
    move = TableVector(g.vertices, {m: 1 - 2 * (bin(m).count("1") % 2)
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


def _piece_states(sub: Graph, z: TableVector,
                  zp: TableVector) -> List[TableVector]:
    """States z .. zp on one piece: an isolated vertex or a block."""
    if sub.n == 1:
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
            states.append(TableVector(sub.vertices, cur))
        return states
    if sub.m == 1:
        raise InvariantViolation("distinct tables on a single edge")
    if sub.is_cycle():
        return _cycle_states(sub, z, zp)
    u, v, _ = find_parallel3_poles(sub)
    return _connect_two_terminal(sub, u, v, z, zp)


def _connect_pieces(g: Graph, pieces: Sequence[Piece], z: TableVector,
                    zp: TableVector) -> List[TableVector]:
    """States z .. zp over the pieces of `block_cut_forest(g)`.

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
        sub = g.subgraph(p.vertices, p.edges)
        chain = _piece_states(sub, project(z, sub.vertices),
                              project(zp, sub.vertices))
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
    if not all(block_is_k4_minor_free(g.subgraph(p.vertices, p.edges))
               for p in pieces if len(p.edges) > 1):
        raise NotK4MinorFree("graph contains a K4 minor")
    seq = MoveSequence(g, _connect_pieces(g, pieces, z, zp))
    if verify:
        verify_sequence(seq)
    return seq


def connect_two_terminal(g: Graph, upole: str, vpole: str,
                         z: TableVector, zp: TableVector,
                         verify: bool = False) -> MoveSequence:
    """Connector for a two-terminal series-parallel graph; the returned
    sequence carries the pole pair and obeys the pole discipline."""
    _validate_pair(g, z, zp)
    if not g.is_connected():
        raise ValueError("two-terminal connector needs a connected graph")
    seq = MoveSequence(
        g, _connect_two_terminal(g, g.index(upole), g.index(vpole),
                                 z, zp),
        poles=(upole, vpole))
    if verify:
        verify_sequence(seq)
    return seq


def connect_sp(tree: SPTree, z: TableVector, zp: TableVector,
               verify: bool = False) -> MoveSequence:
    """Connector driven by a series-parallel decomposition tree.

    The tree's realized graph is taken over the ground set of `z`.
    """
    g = realize(tree, z.vertices)
    if g.vertices != z.vertices:
        raise ProjectionMismatch("tree does not span the table's vertices")
    return connect_two_terminal(g, tree.poles[0], tree.poles[1], z, zp,
                                verify=verify)


def connect_cycle(g: Graph, z: TableVector,
                  zp: TableVector) -> MoveSequence:
    """Chain z .. zp on a cycle, steps of norm <= 8 (degree 4), built by
    the two-terminal recursion down to K3, whose fibers are segments
    along a single kernel move."""
    if not g.is_cycle():
        raise ValueError("graph is not a cycle")
    _validate_pair(g, z, zp)
    return MoveSequence(g, _cycle_states(g, z, zp))
