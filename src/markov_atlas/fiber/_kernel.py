"""Fiber enumeration kernel: table enumeration and fiber analysis.

Tables are multisets of labelings, represented as non-decreasing tuples
of bitmasks.  Marginal keys are `bytes` of the per-edge cell counts in
edge order (cells c00, c01, c10, c11; the first bit belongs to the
smaller-index endpoint).
"""

from __future__ import annotations

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


def group_tables(n: int, edges,
                 total: int) -> Dict[bytes, List[Tuple[int, ...]]]:
    """All tables with exactly `total` units, grouped by marginal key.

    There are C(2^n + total - 1, total) of them; callers bound that
    number before calling."""
    bump = _bump_table(n, edges)
    num = 1 << n
    cells = [0] * (4 * len(edges))
    units = [0] * total
    groups: Dict[bytes, List[Tuple[int, ...]]] = {}

    def rec(depth: int, start: int):
        if depth == total:
            key = bytes(cells)
            groups.setdefault(key, []).append(tuple(units))
            return
        for mask in range(start, num):
            row = bump[mask]
            for idx in row:
                cells[idx] += 1
            units[depth] = mask
            rec(depth + 1, mask)
            for idx in row:
                cells[idx] -= 1

    if total == 0:
        groups[bytes(cells)] = [()]
    else:
        rec(0, 0)
    return groups


def fiber_tables(n: int, edges, budgets: Sequence[int], total: int,
                 candidates: Optional[Sequence[int]] = None,
                 cap: int = 0) -> List[Tuple[int, ...]]:
    """All tables with exactly `total` units whose per-edge cell counts
    equal `budgets` (length 4 * len(edges))."""
    bump = _bump_table(n, edges)
    if candidates is None:
        candidates = range(1 << n)
    cand = sorted(candidates)
    budgets = list(budgets)
    ncells = 4 * len(edges)
    if len(budgets) != ncells:
        raise ValueError("budgets length mismatch")
    cells = [0] * ncells
    units = [0] * total
    out: List[Tuple[int, ...]] = []

    def rec(depth: int, start: int):
        if depth == total:
            if cap and len(out) >= cap:
                raise CapExceeded
            out.append(tuple(units))
            return
        for ci in range(start, len(cand)):
            mask = cand[ci]
            row = bump[mask]
            ok = True
            for idx in row:
                cells[idx] += 1
                if cells[idx] > budgets[idx]:
                    ok = False
            if ok:
                units[depth] = mask
                rec(depth + 1, ci)
            for idx in row:
                cells[idx] -= 1

    if total == 0:
        if all(b == 0 for b in budgets):
            out.append(())
    else:
        rec(0, 0)
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
    norm whose threshold graph connects the fiber."""
    f = len(tables)
    if f <= 1:
        return 0
    INF = 1 << 60
    dist = [INF] * f
    used = [False] * f
    dist[0] = 0
    best = 0
    for _ in range(f):
        u = -1
        du = INF
        for i in range(f):
            if not used[i] and dist[i] < du:
                du = dist[i]
                u = i
        used[u] = True
        if du > best:
            best = du
        tu = tables[u]
        for i in range(f):
            if not used[i]:
                d = _norm(tu, tables[i])
                if d < dist[i]:
                    dist[i] = d
    return best
