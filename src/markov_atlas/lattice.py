"""Sparse integer vectors over binary vertex labelings.

A labeling of an ordered vertex set is packed into a bitmask: bit ``i``
holds the value at vertex ``i``.  A :class:`TableVector` maps labelings to
integer counts (zero entries are never stored), which keeps tables of
total ``N`` at no more than ``N`` support entries regardless of the number
of vertices.

:func:`edge_cells` is the one definition of the cell layout: the e-th
edge (i, j) of `g.edges` owns cells 4e to 4e + 3, and a labeling falls
in cell 4e + 2 * bit_i + bit_j.  :class:`MarginalSet` stores its counts
in that layout, the enumeration kernel takes them as budgets, and the
kernel test packs them.  The kernel's fibers carry no key: the cells of a
fiber are the marginals of any of its tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import GroundSetMismatch, NotKernelMove, ParseError, _fields


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

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "TableVector") -> "TableVector":
        if self.vertices != other.vertices:
            raise GroundSetMismatch(
                f"{self.vertices} vs {other.vertices}")
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

def project(z: TableVector, targets: Sequence[str]) -> TableVector:
    """Linear projection restricting every labeling to `targets`.

    `targets` may list the kept vertices in any order; the result's
    vertex order is exactly `targets`.  An empty target set yields a
    vector over zero vertices whose single entry is the signed total.
    """
    at = {v: i for i, v in enumerate(z.vertices)}
    try:
        positions = [at[v] for v in targets]
    except KeyError as exc:
        raise GroundSetMismatch(f"{exc} not in {z.vertices}") from None
    out: Dict[int, int] = {}
    for mask, c in z.entries.items():
        nm = 0  # the bits at `positions`, repacked contiguously
        for j, i in enumerate(positions):
            if (mask >> i) & 1:
                nm |= 1 << j
        out[nm] = out.get(nm, 0) + c
    return TableVector(tuple(targets), out)


# -- marginals ---------------------------------------------------------

def edge_cells(mask: int, edges: Sequence[Tuple[int, int]]) -> List[int]:
    """The flat cell of labeling `mask` at each edge: 4e + 2 * bit_i +
    bit_j at the e-th edge (i, j) of `edges`, i < j, so that cells
    4e .. 4e + 3 count (00, 01, 10, 11) with the smaller-index vertex's
    value first."""
    return [4 * e + 2 * ((mask >> i) & 1) + ((mask >> j) & 1)
            for e, (i, j) in enumerate(edges)]


@dataclass(frozen=True)
class MarginalSet:
    """Per-edge 2x2 tables of a vector, plus the common total.

    `edges` are the graph's edges (i < j) in sorted order and `cells`
    their 4 * len(edges) counts in the layout of `edge_cells`: the
    numbers the enumeration kernel takes as budgets.
    """

    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[int, int], ...]
    cells: Tuple[int, ...]
    total: int

    def table(self, i: int, j: int) -> Tuple[int, int, int, int]:
        """The cells (c00, c01, c10, c11) of edge {i, j}."""
        try:
            e = self.edges.index((min(i, j), max(i, j)))
        except ValueError:
            raise KeyError((i, j)) from None
        return self.cells[4 * e:4 * e + 4]


def graph_marginals(z: TableVector, g) -> MarginalSet:
    """All edge marginals of `z` with respect to graph `g`."""
    if z.vertices != g.vertices:
        raise GroundSetMismatch(f"{z.vertices} vs {g.vertices}")
    cells = [0] * (4 * g.m)
    for mask, c in z.entries.items():
        for k in edge_cells(mask, g.edges):
            cells[k] += c
    return MarginalSet(z.vertices, g.edges, tuple(cells), z.total())


@dataclass(frozen=True)
class Move:
    """A kernel element of the marginal map: all edge tables vanish.

    `items` are its nonzero (mask, coefficient) pairs in ascending mask
    order, as `fiber.extract_moves` takes them from the enumeration
    kernel; the walk applies them as they are.  Built from a vector
    only by the kernel check (`as_moves`, or the sampler's check of the
    vectors it is given)."""

    vertices: Tuple[str, ...]
    items: Tuple[Tuple[int, int], ...]

    @property
    def vector(self) -> TableVector:
        return TableVector(self.vertices, dict(self.items))


def _kernel_test(g) -> Callable[..., bool]:
    """A test of whether (mask, coefficient) items over `vertices` have
    zero total and zero edge marginals on g, from one packed sum over
    the items.  It raises GroundSetMismatch for items over other
    vertices than g's.

    No cell marginal exceeds the L1 norm of the items in absolute
    value, so in fields of l1.bit_length() bits every cell is smaller
    than its field's 2**width.  The packed sum of c * increment(m) is
    then 0 exactly when every cell is 0: the lowest nonzero cell would
    leave a nonzero remainder modulo 2**width in its field.  Each
    labeling's increment (1 in the field of each of its `edge_cells`)
    is computed once per width for the life of the test.
    """
    # per width, each labeling's increment
    increments: Dict[int, Dict[int, int]] = {}

    def test(vertices: Sequence[str], items) -> bool:
        if vertices != g.vertices:
            raise GroundSetMismatch(f"{vertices} vs {g.vertices}")
        total = l1 = 0
        for _, c in items:
            total += c
            l1 += c if c > 0 else -c
        if total:
            return False
        width = l1.bit_length()
        row = increments.get(width)
        if row is None:
            row = increments[width] = {}
        packed = 0
        for m, c in items:
            step = row.get(m)
            if step is None:
                # digit by digit, linear in the edge count where a sum
                # of shifts is quadratic; one spare digit parses no edges
                digits = bytearray(b"0" * (1 + 4 * g.m * width))
                for k in edge_cells(m, g.edges):
                    digits[-1 - width * k] = 49  # "1"
                step = row[m] = int(digits, 2)
            packed += c * step
        return packed == 0

    return test


def _kernel_checked(moves: Iterable, g) -> Iterator[Move]:
    """Every Move or TableVector as a Move of g, checked in order with
    one kernel test: the first one over other vertices raises
    GroundSetMismatch, the first one with nonzero marginals
    NotKernelMove."""
    test = _kernel_test(g)
    for mv in moves:
        if not isinstance(mv, Move):
            mv = Move(mv.vertices, tuple(sorted(mv.entries.items())))
        if not test(mv.vertices, mv.items):
            raise NotKernelMove(f"{mv.vector!r} has nonzero marginals")
        yield mv


def as_moves(vectors: Iterable[TableVector], g) -> List[Move]:
    """Every vector as a move of g, checked as `_kernel_checked` checks
    them."""
    return list(_kernel_checked(vectors, g))


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
    return _parse_lines(_fields(text))


def _parse_lines(records: Iterable[Tuple[int, List[str]]]) -> TableVector:
    """A vector from the (line number, fields) records of `_fields`, so
    that the blocks of a moves file report errors by its line numbers."""
    vertices = None
    entries: Dict[int, int] = {}
    for lineno, parts in records:
        if vertices is None:
            if not parts[0].startswith("vertices:"):
                raise ParseError("expected 'vertices:' header", lineno)
            vertices = tuple(" ".join(parts)[len("vertices:"):].split())
            if len(set(vertices)) != len(vertices):
                raise ParseError("duplicate vertex label", lineno)
            continue
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
