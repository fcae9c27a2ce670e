"""Fiber enumeration kernel: table enumeration and fiber analysis.

Tables are multisets of labelings, represented as non-decreasing tuples
of bitmasks, and a fiber is a list of tables, with no marginal key.  Cell
counts are in the layout of `lattice.edge_cells`, the one definition of
which cell a labeling falls in at each sorted edge: the budgets
`fiber_tables` takes are `MarginalSet.cells`.

One walk, `_walk`, makes every table: it places one unit per level,
in ascending order, over a packed counter, skips a unit that
overflows a field, and counts every table it makes against one cap.
Some fields must end full, and the next unit may not pass the last
labeling that can still fill the lowest of them not yet full (its
deadline).  It runs from an explicit stack, so no total meets the
recursion limit, and leaves no reference cycle.  `group_tables`
(every fiber of a total) counts the 1s at each vertex and the units
that are 1 at both ends of each edge, which with the total fix every
cell, and requires no field full; with some edges' cells fixed it
also counts those cells against them and requires them full.  Its
counter is a `WalkPlan`, built once per search of a graph for its
largest total, and read by every walk of that search: the
per-labeling increments are built by doubling over the vertices,
with no `edge_cells` call, and fields sized for the largest total
give every smaller total's walk the same groups in the same order.
`fiber_tables` (one fiber) counts every cell and requires all of
them full, so its work follows the fiber, not the total.
`_cell_fields` builds the fields of every cell counted against a
budget, ordered by deadline.

Distances are taken on occupancy ints (`_occupancy`): the L1 distance
of two tables is one `^` and `bit_count`.  `fiber_moves` also packs
each table's counts, so that the difference of two tables is one
subtraction.
"""

from __future__ import annotations

from itertools import combinations, compress
from operator import getitem
from struct import Struct
from typing import Dict, List, Optional, Sequence, Tuple

from ..lattice import edge_cells


class CapExceeded(Exception):
    """A walk made more tables than its cap; args[0] is its total."""


def _packed(rows: Sequence[Sequence[int]], width: int) -> List[int]:
    """One integer per row: 1 in the `width`-bit field of each index."""
    return [sum(1 << (width * idx) for idx in row) for row in rows]


def _walk(masks: Sequence[int], inc: Sequence[int], total: int, start: int,
          over: int, shift: int, full: int, deadline: Sequence[int],
          cap: int) -> Dict[int, List[Tuple[int, ...]]]:
    """The tables of `total` units from `masks` (ascending) that keep a
    counter, started at `start` and raised by `inc[i]` for each unit
    `masks[i]`, clear of the bits of `over`, and end with the fields at
    and above bit `shift` equal to `full`, in lexicographic order,
    grouped by the counter's final value in the order of their first
    tables; CapExceeded once it has made more than `cap` (no cap at 0).

    Fields only grow, so a labeling that sets a bit of `over` is
    skipped with every table through it.  The next unit's index is at
    most `deadline[b]`, where bit b - 1 is the lowest set bit of
    `full ^ (s >> shift)` (b = 0 once those fields are full): the last
    labeling that can still fill the lowest unfilled of them.  The
    stack holds (depth, index of the unit just placed, counter), pushed
    in reverse so that they pop in order, down to the unit before the
    last: it and the last unit are placed in two loops, with no push
    per table or per unit before the last."""
    if not total:
        return {start: [()]} if start >> shift == full else {}
    last = total - 1
    units = [0] * total
    groups: Dict[int, List[Tuple[int, ...]]] = {}
    group = groups.setdefault
    made = 0
    stack = [(0, 0, start)]
    pop, push = stack.pop, stack.append
    while stack:
        depth, lo, s = pop()
        if depth:
            units[depth - 1] = masks[lo]
        x = full ^ (s >> shift)
        end = deadline[(x & -x).bit_length()]
        if depth < last - 1:
            depth += 1
            for i in range(end, lo - 1, -1):
                t = s + inc[i]
                if not t & over:
                    push((depth, i, t))
            continue
        if depth < last:  # the unit before the last, then the last
            for j in range(lo, end + 1):
                u = s + inc[j]
                if u & over:
                    continue
                units[depth] = masks[j]
                x = full ^ (u >> shift)
                for i in range(j, deadline[(x & -x).bit_length()] + 1):
                    t = u + inc[i]
                    if not t & over and t >> shift == full:
                        units[last] = masks[i]
                        group(t, []).append(tuple(units))
                        made += 1
        else:  # the one unit of a walk of total 1
            for i in range(lo, end + 1):
                t = s + inc[i]
                if not t & over and t >> shift == full:
                    units[last] = masks[i]
                    group(t, []).append(tuple(units))
                    made += 1
        if cap and made > cap:
            raise CapExceeded(total)
    return groups


def _cell_fields(masks: Sequence[int], edges, budgets: Sequence[int]
                 ) -> Tuple[List[int], List[int], int, int, int, List[int]]:
    """(masks, inc, start, over, full, deadline) of a counter that
    counts the `edge_cells` on `edges` of the labelings of `masks`
    (ascending) against `budgets`, for `_walk`: the labelings that fall
    in no cell of budget 0, and one field per cell, ordered by the
    cell's deadline, the last of those labelings that falls in it (-1
    if none does).  Each field is started at top - 1 - budget, so that
    passing the budget sets its top bit, and a table that meets every
    budget ends with every field at top - 1."""
    rows = [edge_cells(m, edges) for m in masks]
    fits = [all(map(budgets.__getitem__, row)) for row in rows]
    masks = list(compress(masks, fits))
    rows = list(compress(rows, fits))
    last = [-1] * len(budgets)
    for i, row in enumerate(rows):
        for c in row:
            last[c] = i
    order = sorted(range(len(budgets)), key=last.__getitem__)
    field = {c: pos for pos, c in enumerate(order)}
    width = max(budgets, default=0).bit_length() + 1
    top = 1 << (width - 1)
    fields = _packed([range(len(budgets))], width)[0]
    full = (top - 1) * fields
    start = full - sum(budgets[c] << (width * pos)
                       for pos, c in enumerate(order))
    inc = _packed([[field[c] for c in row] for row in rows], width)
    deadline = [len(masks) - 1] + [last[order[b // width]]
                                   for b in range(width * len(order))]
    return masks, inc, start, top * fields, full, deadline


class WalkPlan:
    """The packed counter of every `group_tables` walk on one graph up
    to `max_total`: for a walk of total t <= max_total, h = t // 2
    fits its W = (max_total // 2).bit_length()-bit fields.

    Each vertex with an edge has a field of W + 1 bits, and each edge
    (i, j), i < j, above every vertex field, a field of W bits for the
    units that are 1 at both ends.  `inc[m]` is labeling m's increment:
    1 in the field of each vertex with an edge that m sets to 1, and in
    that of each edge that m sets to 1 at both ends.  It is built by
    doubling over the vertices: the increments of the labelings with
    bit v set are those without it, plus v's field and the field of
    each edge (u, v), u < v, whose bit u the labeling sets, so each
    edge is added once, at its larger end.  `width` is W, `ones` the
    sum of the vertex fields, and `shift` the bit above the edge
    fields."""

    __slots__ = ("n", "width", "inc", "ones", "shift")

    def __init__(self, n: int, edges, max_total: int):
        touched = sorted({v for e in edges for v in e})
        width = (max_total // 2).bit_length()
        low = (width + 1) * len(touched)
        field = {v: 1 << (width + 1) * pos for pos, v in enumerate(touched)}
        both = {(min(e), max(e)): 1 << (low + width * pos)
                for pos, e in enumerate(edges)}
        inc = [0]
        for v in range(n):
            step = [field.get(v, 0)]  # v's share, by the bits below v
            for u in range(v):
                add = both.get((u, v), 0)
                step += [x + add for x in step]
            inc += [x + y for x, y in zip(inc, step)]
        self.n, self.width, self.inc = n, width, inc
        self.ones = sum(field.values())
        self.shift = low + width * len(edges)


def group_tables(plan: WalkPlan, total: int, fixed=None, cap: int = 0
                 ) -> Dict[int, List[Tuple[int, ...]]]:
    """The fibers of tables with exactly `total` units on `plan`'s
    graph, at least one per orbit of vertex flips, as the walk groups
    them: each a list of tables, keyed by the walk's final counter, in
    the order of their first tables.  The keys are the walk's own and
    mean nothing outside it; a fiber's marginal cells are those of any
    of its tables.  ValueError if total // 2 does not fit the plan's
    fields.

    Flipping one vertex's bit in every unit maps fibers onto fibers and
    keeps L1 distances.  The count of 1s at a vertex with an edge is
    fixed by the marginals, and a flip takes it from c to total - c, so
    only tables whose every such count is at most total // 2 are
    enumerated.  Each returned fiber is complete, in lexicographic
    order.  Isolated vertices are not pruned: their bits are free inside
    a fiber.  CapExceeded if the walk makes more than `cap` tables (no
    cap at 0), counting only the tables it returns.

    The walk (`_walk`) counts on the plan's counter, per vertex with an
    edge, its 1s c, in a field started at 2^W - 1 - h (h = total // 2)
    so that passing h sets the field's top bit; and per edge (i, j) the
    units x that are 1 at both ends.  The edge's cells (00, 01, 10, 11)
    are (total - c_i - c_j + x, c_j - x, c_i - x, x), so the walk's
    groups are the fibers.  A table the walk keeps has x <= c_i <= h <
    2^W, so x fits its field; an edge field carries only once c_i has
    passed h, and that add is discarded.  So a plan with wider fields
    than the total needs gives the same groups in the same order, with
    other keys.  No field is required full, so every labeling is within
    the deadline.

    With `fixed`, a pair (sub_edges, cells) of some of the graph's
    edges and their `edge_cells` counts, only the fibers with those
    cells on sub_edges are walked and returned.  The counter gets one
    `_cell_fields` field per cell of sub_edges above the edge fields,
    counted against `cells` as `fiber_tables` counts, and the walk ends
    only tables that fill them: a labeling or a prefix that overfills a
    cell, or passes the deadline of a cell it has not filled, is
    skipped with every table through it."""
    half = total // 2
    if half >> plan.width:
        raise ValueError(f"a walk of total {total} does not fit fields "
                         f"of {plan.width} bits")
    top = 1 << plan.width
    start, over = plan.ones * (top - 1 - half), plan.ones * top
    inc, shift = plan.inc, plan.shift
    masks = [m for m, x in enumerate(inc) if not (start + x) & over]
    if fixed is None:
        return _walk(masks, [inc[m] for m in masks], total, start, over,
                     shift, 0, [len(masks) - 1], cap)
    masks, counts, cell_start, cell_over, full, deadline = _cell_fields(
        masks, *fixed)
    inc = [inc[m] + (c << shift) for m, c in zip(masks, counts)]
    return _walk(masks, inc, total, start + (cell_start << shift),
                 over + (cell_over << shift), shift, full, deadline, cap)


def fiber_tables(n: int, edges, budgets: Sequence[int], total: int,
                 candidates: Optional[Sequence[int]] = None,
                 cap: int = 0) -> List[Tuple[int, ...]]:
    """All tables with exactly `total` units whose per-edge cell counts
    equal `budgets` (length 4 * len(edges)), in lexicographic order.
    With `candidates`, only those labelings are placed, each once (a
    ValueError names any outside range(2^n)).  CapExceeded if there are
    more than `cap` (no cap at 0); the walk makes only these tables.

    The counter holds one `_cell_fields` field per cell, ordered by the
    cell's deadline: the last labeling, in candidate order, that falls
    in it.  Units are placed in ascending order, so a prefix whose next
    unit passes the deadline of an unfilled cell can never fill it; the
    walk (`_walk`, every field required full) places the next unit only
    up to the deadline of the lowest unfilled field.  Its work follows
    the fiber, not the total: one edge at total 10,000 is a walk of
    10,000 nodes, run from an explicit stack, so no total meets the
    recursion limit."""
    if len(budgets) != 4 * len(edges):
        raise ValueError("budgets length mismatch")
    masks = range(1 << n) if candidates is None else sorted(set(candidates))
    if masks and (masks[0] >> n or masks[-1] >> n):  # -1 if negative
        raise ValueError(f"candidates {[m for m in masks if m >> n]} are "
                         f"not labelings of {n} vertices")
    masks, inc, start, over, full, deadline = _cell_fields(masks, edges,
                                                           budgets)
    return _walk(masks, inc, total, start, over, 0, full, deadline,
                 cap).get(full, [])


def _occupancy(tables: Sequence[Tuple[int, ...]]) -> List[int]:
    """Per table of N units, the int with bit m*N + k set for the k-th
    copy of mask m, so that (a ^ b).bit_count() is an L1 distance."""
    size = len(tables[0]) if tables else 0
    out = []
    for t in tables:
        occ, prev = 0, -1
        for m in t:
            bit = bit << 1 if m == prev else 1 << (m * size)
            prev = m
            occ |= bit
        out.append(occ)
    return out


class _Row(dict):
    """The (mask, coefficient) items of one mask, keyed by coefficient,
    each made on first use, so that equal items are one tuple."""

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        self.mask = mask

    def __missing__(self, coefficient: int) -> Tuple[int, int]:
        item = self[coefficient] = (self.mask, coefficient)
        return item


# count-field widths of fiber_moves, with the struct codes that read
# them as signed little-endian integers
_FIELDS = ((8, "b"), (16, "h"), (32, "i"), (64, "q"))


def fiber_moves(tables: Sequence[Tuple[int, ...]],
                max_norm: int) -> List[Tuple[Tuple[int, int], ...]]:
    """Distinct differences of norm in (0, max_norm] between tables of
    one size (sorted tuples), as sorted (mask, coefficient) items, in
    ascending order, with the coefficient at the smallest mask positive.
    Equal items are one tuple: thousands of moves share a few dozen.

    Each of the F tables of N units is encoded once, as two ints: its
    occupancy (`_occupancy`), and its counts, field m holding the count
    of mask m, so that a - b is one int subtraction.
    For each table, one map/compress pipeline over the tables after it
    filters by norm, subtracts and adds the differences to a set, so
    the F^2 / 2 pairs are handled by C builtins.

    The tables are taken in lexicographic order.  If a < b, they agree
    up to some position p and a[p] < b[p], so mask a[p] is counted more
    often in a than in b, and no smaller mask is counted differently:
    a - b has a positive coefficient at its smallest mask, which is the
    canonical sign.

    A difference within max_norm has coefficients of absolute value at
    most min(N, max_norm // 2).  The fields are w = 8, 16, 32 or 64
    bits wide, the narrowest w with that bound at most 2^(w-1) - 1, so
    a difference has one value, and equal differences are equal ints.
    Only the distinct differences are decoded: adding 2^(w-1) * (1, ...,
    1) gives fields 2^(w-1) + c_m with no carry, and xor-ing it back
    leaves each c_m in w bits, read by one struct as a signed integer.
    The nonzero ones are looked up in one item table per mask, and the
    moves sorted."""
    half = max_norm // 2
    tables = sorted(tables)
    if len(tables) < 2 or not tables[0]:
        return []
    size = len(tables[0])
    nmasks = max(t[-1] for t in tables) + 1
    bound = min(size, half)
    width, code = next(((w, c) for w, c in _FIELDS if bound < 1 << (w - 1)),
                       (0, ""))
    if not width:
        raise ValueError(f"coefficients up to {bound} do not fit a machine "
                         "integer")
    unit = [1 << (width * m) for m in range(nmasks)]
    occupancy = _occupancy(tables)
    counts = [sum(map(unit.__getitem__, t)) for t in tables]
    norm = 2 * half
    seen = set()
    for i in range(len(tables) - 1):
        seen.update(map(counts[i].__sub__, compress(
            counts[i + 1:], map(norm.__ge__, map(int.bit_count, map(
                occupancy[i].__xor__, occupancy[i + 1:]))))))
    seen.discard(0)  # a table given twice
    offset = sum(unit) << (width - 1)
    rows = [_Row(m) for m in range(nmasks)]
    nbytes = nmasks * width // 8
    unpack = Struct(f"<{nmasks}{code}").unpack
    moves = []
    for diff in seen:
        fields = unpack(((offset + diff) ^ offset).to_bytes(nbytes, "little"))
        moves.append(tuple(map(getitem, compress(rows, fields),
                               filter(None, fields))))
    moves.sort()
    return moves


def _find(parent: List[int], x: int) -> int:
    """The root of x in the union-find forest `parent`, halving the
    path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def component_labels(tables: Sequence[Tuple[int, ...]],
                     max_norm: int) -> List[int]:
    """Union-find labels of the graph joining tables at L1 distance
    <= max_norm.  Labels are root indices."""
    f = len(tables)
    parent = list(range(f))
    occupancy = _occupancy(tables)
    for i in range(f):
        oi = occupancy[i]
        for j in range(i + 1, f):
            if _find(parent, i) == _find(parent, j):
                continue
            if (oi ^ occupancy[j]).bit_count() <= max_norm:
                parent[_find(parent, i)] = _find(parent, j)
    return [_find(parent, i) for i in range(f)]


def bottleneck_norm(tables: Sequence[Tuple[int, ...]], floor: int = 1) -> int:
    """Largest edge norm on a minimum spanning tree of the fiber under
    L1 distance, raised to 2 * floor (0 for fibers of size <= 1).  With
    the default floor this is the exact bottleneck: the smallest move
    norm whose threshold graph connects the fiber.

    Two tables of N units are within 2d of each other exactly when they
    share N - d units, so the threshold graph at 2d joins all tables
    with a common sub-multiset of N - d units, and contains the graphs
    at every smaller d.  The thresholds are tried from d = floor up,
    joining tables in a union-find; at 2N every pair is joined.  A
    fiber that the floor's threshold joins costs one pass, and a
    caller that compares the result only with bounds of at least
    2 * floor gets the answers of the exact bottleneck."""
    f = len(tables)
    if f <= 1:
        return 0
    if f == 2:
        a, b = _occupancy(tables)
        return max((a ^ b).bit_count(), 2 * floor)
    size = len(tables[0])
    parent = list(range(f))
    parts = f
    for d in range(floor, size):
        first: Dict[Tuple[int, ...], int] = {}
        for idx, t in enumerate(tables):
            for sub in combinations(t, size - d):
                other = first.setdefault(sub, idx)
                if other == idx:
                    continue
                a, b = _find(parent, other), _find(parent, idx)
                if a != b:
                    parent[a] = b
                    parts -= 1
                    if parts == 1:
                        return 2 * d
    return 2 * max(size, floor)
