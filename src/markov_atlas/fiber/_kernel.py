"""Fiber enumeration kernel: table enumeration and fiber analysis.

Tables are multisets of labelings, represented as non-decreasing tuples
of bitmasks, and a fiber is a list of tables, with no marginal key.  Cell
counts are in the layout of `lattice.edge_cells`, the one definition of
which cell a labeling falls in at each sorted edge: the budgets
`fiber_tables` takes are `MarginalSet.cells`.

`group_tables` (every fiber of a total) counts the 1s at each vertex
and the units that are 1 at both ends of each edge, which with the
total fix every cell; `fiber_tables` (one fiber) counts every cell
against its budget (`_budget_fields`), and `group_tables` can count
the cells of some edges so too, to walk only the fibers with those
cells.  Both set up one walk, `_walk`, over a packed counter whose
fields are sized from the total, and it counts every table it makes
against one cap.  Distances are taken on occupancy ints
(`_occupancy`): the L1 distance of two tables is one `^` and
`bit_count`.  `fiber_moves` also packs each table's counts, so that
the difference of two tables is one subtraction.
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
          over: int, cap: int) -> Dict[int, List[Tuple[int, ...]]]:
    """The tables of `total` units from `masks` (ascending) that keep a
    counter, started at `start` and raised by `inc[i]` for each unit
    `masks[i]`, clear of the bits of `over`, in lexicographic order,
    grouped by the counter's final value in the order of their first
    tables.  Fields only grow, so a labeling that sets a bit of `over`
    is skipped with every table through it.  The last unit is placed in
    a loop, with no call per table, and then CapExceeded if the walk
    has made more than `cap` tables in all (no cap at 0)."""
    fits = [not (start + d) & over for d in inc]
    masks = list(compress(masks, fits))
    inc = list(compress(inc, fits))
    if not total:
        return {start: [()]}
    n = len(masks)
    last = total - 1
    units = [0] * total
    groups: Dict[int, List[Tuple[int, ...]]] = {}
    group = groups.setdefault
    made = 0

    def place(depth: int, lo: int, s: int):
        nonlocal made
        if depth < last:
            for i in range(lo, n):
                t = s + inc[i]
                if not t & over:
                    units[depth] = masks[i]
                    place(depth + 1, i, t)
            return
        for i in range(lo, n):
            t = s + inc[i]
            if t & over:
                continue
            units[last] = masks[i]
            group(t, []).append(tuple(units))
            made += 1
        if cap and made > cap:
            raise CapExceeded(total)

    place(0, 0, start)
    return groups


def _budget_fields(budgets: Sequence[int]) -> Tuple[int, int, int, int]:
    """(width, start, over, full) of counter fields that count cells
    against `budgets`, one field per cell: each field is started at
    top - 1 - budget, so that passing the budget sets its top bit, and
    a table that meets every budget ends with every field at top - 1."""
    width = max(budgets, default=0).bit_length() + 1
    top = 1 << (width - 1)
    fields = _packed([range(len(budgets))], width)[0]
    full = (top - 1) * fields
    start = full - sum(b << (width * idx) for idx, b in enumerate(budgets))
    return width, start, top * fields, full


def group_tables(n: int, edges, total: int, fixed=None, cap: int = 0
                 ) -> Dict[int, List[Tuple[int, ...]]]:
    """The fibers of tables with exactly `total` units, at least one
    per orbit of vertex flips, as the walk groups them: each a list of
    tables, keyed by the walk's final counter, in the order of their
    first tables.  The keys are the walk's own and mean nothing outside
    it; a fiber's marginal cells are those of any of its tables.

    Flipping one vertex's bit in every unit maps fibers onto fibers and
    keeps L1 distances.  The count of 1s at a vertex with an edge is
    fixed by the marginals, and a flip takes it from c to total - c, so
    only tables whose every such count is at most total // 2 are
    enumerated.  Each returned fiber is complete, in lexicographic
    order.  Isolated vertices are not pruned: their bits are free inside
    a fiber.  CapExceeded if the walk makes more than `cap` tables (no
    cap at 0), those of the groups `fixed` drops included.

    The walk counts, per vertex with an edge, its 1s c, in a field of
    h.bit_length() + 1 bits (h = total // 2) started so that passing h
    sets the field's top bit; and per edge (i, j), above every vertex
    field, the units x that are 1 at both ends, in h.bit_length() bits.
    The edge's cells (00, 01, 10, 11) are (total - c_i - c_j + x,
    c_j - x, c_i - x, x), so the walk's groups are the fibers.  A table
    the walk keeps has x <= c_i <= h; an add that takes x past h takes
    c_i past h too and is discarded, and its carry stays above the
    vertex fields.

    With `fixed`, a pair (sub_edges, cells) of some of `edges` and their
    `edge_cells` counts, only the fibers with those cells on sub_edges
    are walked and returned.  The counter gets one field per cell of
    sub_edges above the edge fields, counted against `cells` as
    `fiber_tables` counts, and only the groups that end with those
    fields full are kept: a labeling or a prefix that overfills a cell
    is skipped with every table through it."""
    touched = sorted({v for e in edges for v in e})
    half = total // 2
    width = half.bit_length()
    low = (width + 1) * len(touched)
    ones = [0]  # the vertex fields of each labeling, one vertex at a time
    for v in range(n):
        field = 1 << (width + 1) * touched.index(v) if v in touched else 0
        ones += [x + field for x in ones]
    both = _packed([[c >> 2 for c in edge_cells(m, edges) if c & 3 == 3]
                    for m in range(1 << n)], width)
    inc = [x + (c << low) for x, c in zip(ones, both)]
    top = 1 << width
    start, over = ones[-1] * (top - 1 - half), ones[-1] * top
    if fixed is None:
        return _walk(range(1 << n), inc, total, start, over, cap)
    sub_edges, cells = fixed
    shift = low + width * len(edges)
    cell_width, cell_start, cell_over, full = _budget_fields(cells)
    counts = _packed([edge_cells(m, sub_edges) for m in range(1 << n)],
                     cell_width)
    inc = [x + (c << shift) for x, c in zip(inc, counts)]
    groups = _walk(range(1 << n), inc, total, start + (cell_start << shift),
                   over + (cell_over << shift), cap)
    return {key: tables for key, tables in groups.items()
            if key >> shift == full}


def fiber_tables(n: int, edges, budgets: Sequence[int], total: int,
                 candidates: Optional[Sequence[int]] = None,
                 cap: int = 0) -> List[Tuple[int, ...]]:
    """All tables with exactly `total` units whose per-edge cell counts
    equal `budgets` (length 4 * len(edges)), in lexicographic order.
    With `candidates`, only those labelings are placed, each once (a
    ValueError names any outside range(2^n)).  CapExceeded if there are
    more than `cap` (no cap at 0); every table the walk makes is one.

    The counter holds one `_budget_fields` field per cell; the fiber is
    the group that ends with every field full."""
    if len(budgets) != 4 * len(edges):
        raise ValueError("budgets length mismatch")
    width, start, over, full = _budget_fields(budgets)
    masks = range(1 << n) if candidates is None else sorted(set(candidates))
    if masks and (masks[0] >> n or masks[-1] >> n):  # -1 if negative
        raise ValueError(f"candidates {[m for m in masks if m >> n]} are "
                         f"not labelings of {n} vertices")
    inc = _packed([edge_cells(m, edges) for m in masks], width)
    return _walk(masks, inc, total, start, over, cap).get(full, [])


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
