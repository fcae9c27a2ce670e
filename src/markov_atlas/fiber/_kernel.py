"""Fiber enumeration kernel: table enumeration and fiber analysis.

Tables are multisets of labelings, represented as non-decreasing tuples
of bitmasks.  Marginal keys are `bytes` of the per-edge cell counts in
the layout of `lattice.edge_cells`, the one definition of which cell a
labeling falls in at each sorted edge: the same numbers as
`MarginalSet.cells` and as the budgets `fiber_tables` takes.

`fiber_moves` works on two int encodings of a table, made once per
call: an occupancy int (one bit per unit, so that the norm of the
difference of two tables is one `^` and `bit_count`) and a count-field
int (one field per labeling, so that the difference of two tables is
one subtraction and can be a set key).  Its fields are widened for
coefficients above 127, so they never wrap.
"""

from __future__ import annotations

from itertools import combinations, compress
from operator import getitem
from struct import Struct
from typing import Dict, List, Optional, Sequence, Tuple

from ..lattice import edge_cells

KERNEL_ID = "py"


class CapExceeded(Exception):
    pass


def _packed(rows: Sequence[Sequence[int]], width: int) -> List[int]:
    """One integer per row: 1 in the `width`-bit field of each index."""
    return [sum(1 << (width * idx) for idx in row) for row in rows]


def group_tables(n: int, edges,
                 total: int) -> Dict[bytes, List[Tuple[int, ...]]]:
    """Tables with exactly `total` units, grouped by marginal key, at
    least one fiber per orbit of vertex flips.

    Flipping one vertex's bit in every unit maps fibers onto fibers and
    keeps L1 distances.  The count of 1s at a vertex with an edge is
    fixed by the marginals, and a flip takes it from c to total - c, so
    only tables whose every such count is at most total // 2 are
    enumerated.  Each returned fiber is complete, in lexicographic
    order.  Isolated vertices are not pruned: their bits are free inside
    a fiber.  All C(2^n + total - 1, total) tables bound the work;
    callers check that number before calling."""
    num = 1 << n
    ncells = 4 * len(edges)
    if ncells and total > 255:
        raise ValueError("cell counts above 255 do not fit a byte key")
    # cell counts, one byte each in edge order, so that the key is the
    # little-endian bytes of their sum
    cell_inc = _packed([edge_cells(m, edges) for m in range(num)], 8)
    # per-vertex counts of 1s, one field each, started at an offset so
    # that a count above total // 2 sets the field's top bit
    width = total.bit_length() + 1
    top = 1 << (width - 1)
    touched = sorted({v for e in edges for v in e})
    one_inc = _packed([[v for v in touched if (mask >> v) & 1]
                       for mask in range(num)], width)
    over = sum(top << (width * v) for v in touched)
    start_ones = sum((top - 1 - total // 2) << (width * v) for v in touched)
    units = [0] * total
    groups: Dict[bytes, List[Tuple[int, ...]]] = {}

    def rec(depth: int, start: int, cells: int, ones: int):
        if depth == total:
            key = cells.to_bytes(ncells, "little")
            groups.setdefault(key, []).append(tuple(units))
            return
        for mask in range(start, num):
            grown = ones + one_inc[mask]
            if grown & over:
                continue
            units[depth] = mask
            rec(depth + 1, mask, cells + cell_inc[mask], grown)

    rec(0, 0, 0, start_ones)
    return groups


def fiber_tables(n: int, edges, budgets: Sequence[int], total: int,
                 candidates: Optional[Sequence[int]] = None,
                 cap: int = 0) -> List[Tuple[int, ...]]:
    """All tables with exactly `total` units whose per-edge cell counts
    equal `budgets` (length 4 * len(edges)), in lexicographic order.
    With `candidates`, only those labelings are placed, and only their
    increments are built."""
    ncells = 4 * len(edges)
    if len(budgets) != ncells:
        raise ValueError("budgets length mismatch")
    if total == 0:
        return [] if any(budgets) else [()]
    # budget left per cell, one field each, kept above the field's top
    # bit: taking a unit from an empty cell clears that bit
    width = max(budgets, default=0).bit_length() + 1
    top = 1 << (width - 1)
    full = sum(top << (width * idx) for idx in range(ncells))
    left = full + sum(b << (width * idx) for idx, b in enumerate(budgets))
    masks = range(1 << n) if candidates is None else sorted(candidates)
    inc = _packed([edge_cells(m, edges) for m in masks], width)
    if candidates is not None:
        inc = dict(zip(masks, inc))
    units = [0] * total
    out: List[Tuple[int, ...]] = []

    def fitting(cand: Sequence[int], left: int) -> List[int]:
        return [m for m in cand if (left - inc[m]) & full == full]

    def rec(depth: int, cand: List[int], left: int):
        if depth == total:
            if cap and len(out) >= cap:
                raise CapExceeded
            out.append(tuple(units))
            return
        for ci, mask in enumerate(cand):
            units[depth] = mask
            rest = left - inc[mask]
            rec(depth + 1, fitting(cand[ci:], rest), rest)

    rec(0, fitting(masks, left), left)
    return out


def _norm(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    """L1 distance between two same-size multisets (sorted tuples)."""
    i = j = inter = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        if a[i] == b[j]:
            inter += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return (la - inter) + (lb - inter)


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

    Each of the F tables of N units is encoded once, as two ints:
    - its occupancy, with bit m*N + k set for the k-th copy of mask m,
      so that (A ^ B).bit_count() is the norm of a - b;
    - its counts, field m holding the count of mask m, so that a - b is
      one int subtraction whose value is the difference.
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
    occupancy = []
    for t in tables:
        occ = 0
        prev = -1
        for m in t:
            bit = bit << 1 if m == prev else 1 << (m * size)
            prev = m
            occ |= bit
        occupancy.append(occ)
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


def component_labels(tables: Sequence[Tuple[int, ...]],
                     max_norm: int) -> List[int]:
    """Union-find labels of the graph joining tables at L1 distance
    <= max_norm.  Labels are root indices."""
    f = len(tables)
    parent = list(range(f))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(f):
        ti = tables[i]
        for j in range(i + 1, f):
            if find(i) == find(j):
                continue
            if _norm(ti, tables[j]) <= max_norm:
                parent[find(i)] = find(j)
    return [find(i) for i in range(f)]


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
        return max(_norm(tables[0], tables[1]), 2 * floor)
    size = len(tables[0])
    parent = list(range(f))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = f
    for d in range(floor, size):
        first: Dict[Tuple[int, ...], int] = {}
        for idx, t in enumerate(tables):
            for sub in combinations(t, size - d):
                other = first.setdefault(sub, idx)
                if other == idx:
                    continue
                a, b = find(other), find(idx)
                if a != b:
                    parent[a] = b
                    parts -= 1
                    if parts == 1:
                        return 2 * d
    return 2 * max(size, floor)
