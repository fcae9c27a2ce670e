"""Resource caps for the exhaustive searches.

Defaults are sized for desk-scale experiments.  They can be overridden
process-wide through the environment variable ``MARKOV_ATLAS_LIMITS``,
a comma-separated list of ``key=value`` pairs, each value an integer
of at least 1, e.g.::

    MARKOV_ATLAS_LIMITS="max_total=10,max_fiber=2000000"
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import ResourceLimitError

_ENV_VAR = "MARKOV_ATLAS_LIMITS"


@dataclass(frozen=True)
class Limits:
    max_vertices: int = 16
    max_total: int = 8
    max_fiber: int = 1_000_000

    def exceeded(self, key: str, what: str) -> ResourceLimitError:
        """The error for `what` going over the cap named `key`."""
        return ResourceLimitError(
            f"{what} exceeds the cap {key} = {getattr(self, key)}; "
            f"raise it with {_ENV_VAR}=\"{key}=...\"")


def default_limits() -> Limits:
    """Limits from the environment, re-read on every call."""
    raw = os.environ.get(_ENV_VAR, "")
    limits = Limits()
    if not raw.strip():
        return limits
    overrides = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in Limits.__dataclass_fields__:
            raise ResourceLimitError(f"unknown limit {key!r} in {_ENV_VAR}")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise ResourceLimitError(
                f"limit {key!r} in {_ENV_VAR} is not an integer") from None
        if overrides[key] < 1:
            raise ResourceLimitError(
                f"limit {key!r} in {_ENV_VAR} must be at least 1")
    return replace(limits, **overrides)
