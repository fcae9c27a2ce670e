"""Random walk over a fiber using a fixed move set.

The walk is lazy Metropolis with a symmetric proposal: at each step pick
a (move, sign) pair uniformly and apply it iff the result stays
non-negative, otherwise stay put.  The uniform distribution on the
reachable set is stationary for this chain.

The draws come from the seeded Mersenne Twister's `getrandbits`, taken
as `randrange` takes them: for n moves, n.bit_length() bits, drawn
again while the value is >= n; then two bits for the sign, drawn again
while >= 2.  The trajectories are those of `randrange(n)` and
`randrange(2)`, drawn without their per-call overhead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from .errors import GroundSetMismatch
from .graphs import Graph
from .lattice import Move, TableVector, _kernel_checked

RNG_ALGORITHM = "mt19937"


@dataclass(frozen=True)
class WalkConfig:
    steps: int
    burn_in: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn-in must be >= 0")


@dataclass
class WalkResult:
    state: TableVector
    config: WalkConfig
    accepted: int
    proposed: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0

    def metadata(self) -> dict:
        return {
            "rng": RNG_ALGORITHM,
            "seed": self.config.seed,
            "steps": self.config.steps,
            "burn_in": self.config.burn_in,
            "proposed": self.proposed,
            "accepted": self.accepted,
            "acceptance_rate": self.acceptance_rate,
        }


def _checked_moves(g: Graph,
                   moves: Iterable) -> List[Tuple[Tuple[int, int], ...]]:
    """The (mask, coefficient) items of every move, Move or TableVector,
    each checked once, in order, as `as_moves` checks it: first against
    g's vertices, then for zero marginals.  `moves` may be lazy; it is
    read once.  A Move from `extract_moves` hands over its items as the
    kernel made them, equal items one tuple: a large fiber has
    thousands of moves over a few dozen.  The zero vector is in the
    kernel but moves nothing: once every move has passed the kernel
    test, a ValueError names the position of the first zero one."""
    deltas = [mv.items for mv in _kernel_checked(moves, g)]
    if not all(deltas):
        k = next(k for k, d in enumerate(deltas, 1) if not d)
        raise ValueError(f"move {k} is zero")
    return deltas


def _steps(g: Graph, moves: Iterable[Move], z0: TableVector,
           cfg: WalkConfig, counts: Dict[int, int]
           ) -> Tuple[int, Iterator[int]]:
    """Check the walk's start and moves, and return the number of
    proposals and an iterator that walks `counts`, a mutable copy of
    z0's entries, in place and yields the index (from 0, burn-in
    included) of each step whose proposal was accepted, once it is
    taken.  Most proposals are rejected, so no rejected step yields.

    Without moves nothing is proposed and nothing is yielded.
    """
    if not z0.is_nonnegative():
        raise ValueError("initial table must be non-negative")
    if z0.vertices != g.vertices:
        raise GroundSetMismatch(f"{z0.vertices} vs {g.vertices}")
    deltas = _checked_moves(g, moves)
    if not deltas:
        return 0, iter(())
    return cfg.burn_in + cfg.steps, _accepted(deltas, cfg, counts)


def _accepted(deltas: List[Tuple[Tuple[int, int], ...]], cfg: WalkConfig,
              counts: Dict[int, int]) -> Iterator[int]:
    """The step loop of `_steps` over its checked moves."""
    bits = random.Random(cfg.seed).getrandbits
    n = len(deltas)
    k = n.bit_length()
    get = counts.get
    for step in range(cfg.burn_in + cfg.steps):
        # the move, then the sign, each drawn as randrange(n) and
        # randrange(2) draw them: the draw order fixes the trajectory
        r = bits(k)
        while r >= n:
            r = bits(k)
        sign = bits(2)
        while sign >= 2:
            sign = bits(2)
        delta = deltas[r]
        # only the cells the signed move lowers can go negative
        if sign:  # subtract the move
            for m, c in delta:
                if c > 0 and get(m, 0) < c:
                    break
            else:
                for m, c in delta:
                    left = get(m, 0) - c
                    if left:
                        counts[m] = left
                    else:
                        del counts[m]
                yield step
        else:  # add the move
            for m, c in delta:
                if c < 0 and get(m, 0) < -c:
                    break
            else:
                for m, c in delta:
                    left = get(m, 0) + c
                    if left:
                        counts[m] = left
                    else:
                        del counts[m]
                yield step


def walk_states(g: Graph, moves: Iterable[Move], z0: TableVector,
                cfg: WalkConfig) -> Iterator[TableVector]:
    """Yield the state after every step (burn-in steps included).

    The trajectory is a deterministic function of (moves order, z0, cfg).
    """
    counts = dict(z0.entries)
    _, accepted = _steps(g, moves, z0, cfg, counts)
    state = z0
    done = 0  # the steps whose states have been yielded
    for step in accepted:
        for _ in range(step - done):
            yield state
        state = TableVector(z0.vertices, counts)
        yield state
        done = step + 1
    for _ in range(cfg.burn_in + cfg.steps - done):
        yield state


def random_walk(g: Graph, moves: Iterable[Move], z0: TableVector,
                cfg: WalkConfig) -> WalkResult:
    """Run the walk and return the final state with acceptance metadata."""
    counts = dict(z0.entries)
    proposed, accepted = _steps(g, moves, z0, cfg, counts)
    taken = sum(1 for _ in accepted)
    return WalkResult(TableVector(z0.vertices, counts), cfg, taken, proposed)
