"""Fiber enumeration kernel: table enumeration and fiber analysis.

Tables are multisets of labelings, represented as non-decreasing tuples
of bitmasks.  Marginal keys are `bytes` of the per-edge cell counts in
edge order (cells c00, c01, c10, c11; the first bit belongs to the
smaller-index endpoint).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

KERNEL_ID = "py"


class CapExceeded(Exception):
    pass


def _bump_table(n: int, edges: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """bump[labeling] = flat cell indices incremented by that labeling."""
    num = 1 << n
    bump = []
    for mask in range(num):
        row = []
        for e, (i, j) in enumerate(edges):
            cell = (((mask >> i) & 1) << 1) | ((mask >> j) & 1)
            row.append(4 * e + cell)
        bump.append(row)
    return bump


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
    cell_inc = _packed(_bump_table(n, edges), 8)
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
    equal `budgets` (length 4 * len(edges)), in lexicographic order."""
    if candidates is None:
        candidates = range(1 << n)
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
    inc = _packed(_bump_table(n, edges), width)
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

    rec(0, fitting(sorted(candidates), left), left)
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


def fiber_moves(tables: Sequence[Tuple[int, ...]],
                max_norm: int) -> List[Tuple[Tuple[int, int], ...]]:
    """Distinct differences of norm in (0, max_norm] between tables of
    one size (sorted tuples), as sorted (mask, coefficient) items, in
    ascending order.

    Each pair's difference is the two one-sided parts of one merge of
    its tables (the walk of `_norm`).  The parts are equally large, so
    the merge stops once one part holds more than max_norm // 2 units.
    The sign makes the coefficient at the smallest mask positive."""
    half = max_norm // 2
    seen = set()
    f = len(tables)
    for i in range(f):
        a = tables[i]
        la = len(a)
        for j in range(i + 1, f):
            b = tables[j]
            lb = len(b)
            plus: List[int] = []
            minus: List[int] = []
            p = q = 0
            while p < la and q < lb:
                x, y = a[p], b[q]
                if x == y:
                    p += 1
                    q += 1
                elif x < y:
                    plus.append(x)
                    p += 1
                else:
                    minus.append(y)
                    q += 1
                    if len(minus) > half:
                        break
            else:
                minus.extend(b[q:])
                if 0 < len(minus) <= half:
                    plus.extend(a[p:])
                    if minus[0] < plus[0]:
                        plus, minus = minus, plus
                    seen.add((tuple(plus), tuple(minus)))
    # equal items are one tuple: thousands of moves share a few dozen
    shared: Dict[Tuple[int, int], Tuple[int, int]] = {}
    moves = []
    while seen:
        plus, minus = seen.pop()
        coeffs: Dict[int, int] = {}
        for m in plus:
            coeffs[m] = coeffs.get(m, 0) + 1
        for m in minus:
            coeffs[m] = coeffs.get(m, 0) - 1
        moves.append(tuple([shared.setdefault(item, item)
                            for item in sorted(coeffs.items())]))
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


def bottleneck_norm(tables: Sequence[Tuple[int, ...]]) -> int:
    """Largest edge norm on a minimum spanning tree of the fiber under
    L1 distance (0 for fibers of size <= 1).  This is the smallest move
    norm whose threshold graph connects the fiber.

    Two tables of N units are within 2d of each other exactly when they
    share N - d units, so the threshold graph at 2d joins all tables
    with a common sub-multiset of N - d units.  The thresholds are tried
    from d = 1 up, joining tables in a union-find; at 2N every pair is
    joined."""
    f = len(tables)
    if f <= 1:
        return 0
    if f == 2:
        return _norm(tables[0], tables[1])
    size = len(tables[0])
    parent = list(range(f))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = f
    for d in range(1, size):
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
    return 2 * size
