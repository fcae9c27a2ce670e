"""Exception hierarchy for markov_atlas, and its text formats' line reader."""

from typing import Iterator, List, Tuple


class MarkovAtlasError(Exception):
    """Base class for all domain errors."""


class ParseError(MarkovAtlasError):
    """Malformed input file (carries a line number when available)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _fields(text: str) -> Iterator[Tuple[int, List[str]]]:
    """(line number, fields) of every line of `text` with text before
    its `#`: every text format's rule for comments and blank lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


class GroundSetMismatch(MarkovAtlasError):
    """Operands live over different vertex sets."""


class ProjectionMismatch(MarkovAtlasError):
    """Required projection equality between inputs does not hold."""


class NotSeriesParallel(MarkovAtlasError):
    """Series/parallel reduction of the graph did not terminate in an edge."""


class NoSuchPoles(MarkovAtlasError):
    """No vertex pair with three or more bridges exists (graph is a cycle)."""


class NotK4MinorFree(MarkovAtlasError):
    """The graph contains a K4 minor; the connector does not apply."""


class NotKernelMove(MarkovAtlasError):
    """A supplied move vector has nonzero marginals."""


class InvalidTriangulation(MarkovAtlasError):
    """Face list does not describe a closed simple triangulated surface."""


class NotTwoFaceColorable(MarkovAtlasError):
    """The dual graph of the triangulation contains an odd cycle."""


class ResourceLimitError(MarkovAtlasError):
    """A configured size limit would be exceeded; no partial result returned."""


class InvariantViolation(MarkovAtlasError):
    """Internal consistency check failed (a bug, not a user error)."""
