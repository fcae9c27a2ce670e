"""Sparse integer vectors over binary vertex labelings.

A labeling of an ordered vertex set is packed into a bitmask: bit ``i``
holds the value at vertex ``i``.  A :class:`TableVector` maps labelings to
integer counts (zero entries are never stored), which keeps tables of
total ``N`` at no more than ``N`` support entries regardless of the number
of vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .errors import (GroundSetMismatch, InconsistentMarginals, NotKernelMove,
                     ParseError)


class TableVector:
    """Element of the integer lattice spanned by binary labelings."""

    __slots__ = ("vertices", "entries", "_hash")

    def __init__(self, vertices: Sequence[str], entries: Dict[int, int]):
        self.vertices = tuple(vertices)
        self.entries = {m: c for m, c in entries.items() if c != 0}
        top = 1 << len(self.vertices)
        for m in self.entries:
            if not 0 <= m < top:
                raise ValueError(f"labeling {m:#x} out of range for "
                                 f"{len(self.vertices)} vertices")
        self._hash = None

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, vertices) -> "TableVector":
        return cls(vertices, {})

    @classmethod
    def basis(cls, vertices, mask: int) -> "TableVector":
        return cls(vertices, {mask: 1})

    @classmethod
    def from_units(cls, vertices, units: Iterable[int]) -> "TableVector":
        entries: Dict[int, int] = {}
        for m in units:
            entries[m] = entries.get(m, 0) + 1
        return cls(vertices, entries)

    # -- basic queries -------------------------------------------------

    def key(self) -> tuple:
        return (self.vertices, tuple(sorted(self.entries.items())))

    def l1(self) -> int:
        return sum(abs(c) for c in self.entries.values())

    def total(self) -> int:
        """Signed sum of entries (the count of units for a table)."""
        return sum(self.entries.values())

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.entries.values())

    def units(self) -> List[int]:
        """Support labelings repeated by multiplicity, ascending.

        Only meaningful for non-negative vectors.
        """
        if not self.is_nonnegative():
            raise ValueError("units() requires a non-negative vector")
        out: List[int] = []
        for m in sorted(self.entries):
            out.extend([m] * self.entries[m])
        return out

    def support(self) -> List[int]:
        return sorted(self.entries)

    # -- arithmetic ----------------------------------------------------

    def _require_same_ground(self, other: "TableVector"):
        if self.vertices != other.vertices:
            raise GroundSetMismatch(
                f"{self.vertices} vs {other.vertices}")

    def __add__(self, other: "TableVector") -> "TableVector":
        self._require_same_ground(other)
        entries = dict(self.entries)
        for m, c in other.entries.items():
            entries[m] = entries.get(m, 0) + c
        return TableVector(self.vertices, entries)

    def __sub__(self, other: "TableVector") -> "TableVector":
        return self + (-other)

    def __neg__(self) -> "TableVector":
        return TableVector(self.vertices,
                           {m: -c for m, c in self.entries.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, TableVector)
                and self.vertices == other.vertices
                and self.entries == other.entries)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self) -> str:
        n = len(self.vertices)
        terms = " + ".join(
            f"{c}*e[{m:0{n}b}]" if c != 1 else f"e[{m:0{n}b}]"
            for m, c in sorted(self.entries.items()))
        return f"TableVector({terms or '0'})"


# -- projections -------------------------------------------------------

def restrict_mask(mask: int, positions: Sequence[int]) -> int:
    """Repack the bits at `positions` into a contiguous mask."""
    out = 0
    for j, i in enumerate(positions):
        if (mask >> i) & 1:
            out |= 1 << j
    return out


@lru_cache(maxsize=16)
def label_index(vertices: Tuple[str, ...]) -> Dict[str, int]:
    """Position of each label in an ordered vertex set.  Cached, so the
    dict is shared: callers must not change it.  The connector asks for
    the same few large vertex sets many times."""
    return {v: i for i, v in enumerate(vertices)}


def project(z: TableVector, targets: Sequence[str]) -> TableVector:
    """Linear projection restricting every labeling to `targets`.

    `targets` may list the kept vertices in any order; the result's
    vertex order is exactly `targets`.  An empty target set yields a
    vector over zero vertices whose single entry is the signed total.
    """
    at = label_index(z.vertices)
    try:
        positions = [at[v] for v in targets]
    except KeyError as exc:
        raise GroundSetMismatch(f"{exc} not in {z.vertices}") from None
    out: Dict[int, int] = {}
    for mask, c in z.entries.items():
        nm = restrict_mask(mask, positions)
        out[nm] = out.get(nm, 0) + c
    return TableVector(tuple(targets), out)


# -- marginals ---------------------------------------------------------

@dataclass(frozen=True)
class MarginalSet:
    """Per-edge 2x2 tables of a vector, plus the common total.

    `tables` maps each edge (pair of vertex indices, i < j) to cell
    counts (c00, c01, c10, c11) where the first bit is the value at the
    smaller-index vertex.
    """

    vertices: Tuple[str, ...]
    tables: Tuple[Tuple[Tuple[int, int], Tuple[int, int, int, int]], ...]
    total: int

    def table(self, i: int, j: int) -> Tuple[int, int, int, int]:
        if i > j:
            i, j = j, i
        for edge, cells in self.tables:
            if edge == (i, j):
                return cells
        raise KeyError((i, j))

    def key(self) -> tuple:
        return (self.tables, self.total)

    def validate(self):
        """Check non-negativity and a common per-edge total."""
        for edge, cells in self.tables:
            if any(c < 0 for c in cells):
                raise InconsistentMarginals(f"negative cell on edge {edge}")
            if sum(cells) != self.total:
                raise InconsistentMarginals(
                    f"edge {edge} sums to {sum(cells)}, expected {self.total}")


def graph_marginals(z: TableVector, g) -> MarginalSet:
    """All edge marginals of `z` with respect to graph `g`."""
    if z.vertices != g.vertices:
        raise GroundSetMismatch(f"{z.vertices} vs {g.vertices}")
    tables = []
    for (i, j) in sorted(g.edges):
        cells = [0, 0, 0, 0]
        for mask, c in z.entries.items():
            cells[(((mask >> i) & 1) << 1) | ((mask >> j) & 1)] += c
        tables.append(((i, j), tuple(cells)))
    return MarginalSet(z.vertices, tuple(tables), z.total())


@dataclass(frozen=True)
class Move:
    """A kernel element of the marginal map: all edge tables vanish."""

    vector: TableVector

    @property
    def degree(self) -> int:
        return self.vector.l1() // 2


def _kernel_test(g) -> Callable[[TableVector], bool]:
    """A test of whether a vector over g's vertices has zero total and
    zero edge marginals, from one packed sum over its entries.  It
    raises GroundSetMismatch for a vector over other vertices.

    No cell marginal exceeds the L1 norm of the vector in absolute
    value, so in fields of l1.bit_length() bits every cell is smaller
    than its field's 2**width.  The packed sum of c * increment(m) is
    then 0 exactly when every cell is 0: the lowest nonzero cell would
    leave a nonzero remainder modulo 2**width in its field.  Each
    labeling's increment (1 in field 4e + cell for the e-th sorted
    edge) is computed once per width for the life of the test.
    """
    edges = sorted(g.edges)
    increments: Dict[Tuple[int, int], int] = {}

    def test(u: TableVector) -> bool:
        if u.vertices != g.vertices:
            raise GroundSetMismatch(f"{u.vertices} vs {g.vertices}")
        if u.total():
            return False
        width = u.l1().bit_length()
        packed = 0
        for m, c in u.entries.items():
            step = increments.get((m, width))
            if step is None:
                step = 0
                for e, (i, j) in enumerate(edges):
                    cell = (((m >> i) & 1) << 1) | ((m >> j) & 1)
                    step |= 1 << (width * (4 * e + cell))
                increments[m, width] = step
            packed += c * step
        return packed == 0

    return test


def is_kernel_element(u: TableVector, g) -> bool:
    return _kernel_test(g)(u)


def as_moves(vectors: Iterable[TableVector], g) -> List[Move]:
    """Every vector as a move of g, checked in order with one kernel
    test: the first one over other vertices raises GroundSetMismatch,
    the first one with nonzero marginals NotKernelMove."""
    test = _kernel_test(g)
    moves = []
    for u in vectors:
        if not test(u):
            raise NotKernelMove(f"{u!r} has nonzero marginals")
        moves.append(Move(u))
    return moves


def as_move(u: TableVector, g) -> Move:
    return as_moves((u,), g)[0]


def canonical_sign(u: TableVector) -> TableVector:
    """Flip the sign so the entry at the smallest support mask is positive."""
    for m in sorted(u.entries):
        if u.entries[m] < 0:
            return -u
        return u
    return u


# -- text / JSON formats ----------------------------------------------

def _bits(mask: int, n: int) -> str:
    """A labeling of n vertices as a bit string, vertex 0 first."""
    return format(mask, f"0{n}b")[::-1] if n else ""


def _mask(bits: str, n: int, line=None) -> int:
    """Inverse of `_bits`; raises ParseError unless `bits` has n binary
    digits."""
    if len(bits) != n or set(bits) - {"0", "1"}:
        raise ParseError(f"bitstring must have {n} binary digits", line)
    return int(bits[::-1], 2) if n else 0


def format_vector(z: TableVector) -> str:
    n = len(z.vertices)
    lines = ["vertices: " + " ".join(z.vertices)]
    for mask in sorted(z.entries):
        lines.append(f"{_bits(mask, n)} {z.entries[mask]}")
    return "\n".join(lines) + "\n"


def parse_vector(text: str) -> TableVector:
    vertices = None
    entries: Dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if vertices is None:
            if not line.startswith("vertices:"):
                raise ParseError("expected 'vertices:' header", lineno)
            vertices = tuple(line[len("vertices:"):].split())
            if len(set(vertices)) != len(vertices):
                raise ParseError("duplicate vertex label", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected '<bits> <count>'", lineno)
        bits, count = parts
        mask = _mask(bits, len(vertices), lineno)
        try:
            entries[mask] = entries.get(mask, 0) + int(count)
        except ValueError:
            raise ParseError(f"bad count {count!r}", lineno) from None
    if vertices is None:
        raise ParseError("empty vector file")
    return TableVector(vertices, entries)


def vector_to_json(z: TableVector) -> dict:
    n = len(z.vertices)
    return {
        "vertices": list(z.vertices),
        "entries": {_bits(m, n): c for m, c in sorted(z.entries.items())},
    }


def vector_from_json(obj: dict) -> TableVector:
    vertices = tuple(obj["vertices"])
    entries: Dict[int, int] = {}
    for bits, c in obj["entries"].items():
        mask = _mask(bits, len(vertices))
        entries[mask] = entries.get(mask, 0) + int(c)
    return TableVector(vertices, entries)
