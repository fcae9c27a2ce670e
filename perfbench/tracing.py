"""Per-layer tracing from the benchmark's side of the library boundary.

The library is not instrumented.  `Tracer.install` replaces each traced
public function with a timing wrapper in every `markov_atlas` module
that binds it (a function imported by name into another module, such
as `connector.blocks`, is bound there too), and then checks that no
module still holds an unwrapped original.

Spans are aggregated in memory per (op run, function): call count,
busy time (inclusive) and self time (busy time minus the time of
wrapped calls made inside it).  Keeping op runs apart lets the harness
take each run's times to the reference speed with that run's own
factor.  A few functions also feed counters from their arguments or
results.  Everything runs on one thread, and no layer
waits for another, so there are no wait metrics.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# (layer, module, function): the public functions the trace wraps.
TRACED = (
    ("fiber", "markov_atlas.fiber._kernel", "group_tables"),
    ("fiber", "markov_atlas.fiber._kernel", "fiber_tables"),
    ("fiber", "markov_atlas.fiber._kernel", "component_labels"),
    ("fiber", "markov_atlas.fiber._kernel", "bottleneck_norm"),
    ("fiber", "markov_atlas.fiber", "extract_moves"),
    ("connector", "markov_atlas.connector", "connect_graph"),
    ("connector", "markov_atlas.connector", "glue_cutsame"),
    ("connector", "markov_atlas.connector", "glue_swaps"),
    ("connector", "markov_atlas.connector", "glue_cutchange"),
    ("graphs", "markov_atlas.graphs", "blocks"),
    ("graphs", "markov_atlas.graphs", "cut_vertices"),
    ("graphs", "markov_atlas.graphs", "bridges"),
    ("graphs", "markov_atlas.graphs", "find_parallel3_poles"),
    ("graphs", "markov_atlas.graphs", "is_k4_minor_free"),
    ("graphs", "markov_atlas.graphs", "sp_decompose"),
    ("lattice", "markov_atlas.lattice", "project"),
    ("lattice", "markov_atlas.lattice", "graph_marginals"),
    ("sampler", "markov_atlas.sampler", "random_walk"),
    ("triangulation", "markov_atlas.triangulation", "certify_lower_bound"),
    ("cli", "markov_atlas.cli", "main"),
)
LAYERS = ("fiber", "connector", "graphs", "lattice", "sampler",
          "triangulation", "cli")
NAMES = tuple(f"{layer}.{fn}" for layer, _, fn in TRACED)
PROBE = "cap-probe"

# Functions each workload's layer table names.  A function missing from
# its workload's trace is reported (trace.expected_uncalled and a line on
# stderr) rather than fatal, because later changes remove some of these
# calls on purpose, e.g. fiber enumeration from the connector.
EXPECTED_CALLS = {
    "evidence": ("fiber.group_tables", "fiber.bottleneck_norm",
                 "fiber.component_labels", "fiber.fiber_tables",
                 "triangulation.certify_lower_bound"),
    # forests never reach the two-terminal recursion, so bridges,
    # find_parallel3_poles and glue_cutchange are expected on
    # connect-cyclic only
    "connect-forest": ("connector.connect_graph", "connector.glue_cutsame",
                       "connector.glue_swaps", "graphs.blocks",
                       "graphs.cut_vertices", "graphs.is_k4_minor_free",
                       "lattice.project", "lattice.graph_marginals"),
    "connect-cyclic": ("connector.connect_graph", "connector.glue_cutsame",
                       "connector.glue_swaps", "connector.glue_cutchange",
                       "fiber.fiber_tables", "graphs.blocks",
                       "graphs.bridges", "graphs.find_parallel3_poles",
                       "graphs.is_k4_minor_free", "lattice.project",
                       "lattice.graph_marginals"),
    "sample": ("sampler.random_walk", "fiber.extract_moves",
               "fiber.fiber_tables", "lattice.graph_marginals"),
}
# A whole layer missing from the trace of the workload built on it means
# the trace is blind, and the run fails.
REQUIRED_LAYER = {"evidence": "fiber", "connect-forest": "connector",
                  "connect-cyclic": "connector", "sample": "sampler"}
# The function (or functions, summed) predicted to have the largest self
# time on each workload.
PREDICTED_TOP = {
    "evidence": ("fiber.group_tables", "fiber.bottleneck_norm"),
    "connect-forest": ("connector.glue_cutsame",),
    "connect-cyclic": ("fiber.fiber_tables",),
    "sample": ("sampler.random_walk",),
}


class TraceBlind(RuntimeError):
    """The trace cannot see calls it is meant to see."""


class Tracer:
    """Span aggregation for the traced passes of one workload."""

    def __init__(self):
        self.active = False
        # index of the running op run; PROBE for cap-probe ops, which
        # count towards cli.errors only
        self.op: object = None
        # per (op run, function): [calls, busy_s, self_s]
        self.spans: Dict[Tuple[object, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        # per op run: fiber-layer time inside connect_graph
        self.cycle_fiber: Dict[object, float] = defaultdict(float)
        self.errors: Dict[Tuple[object, str], int] = defaultdict(int)
        self._stack: List[List[float]] = []  # [child time] per open span
        self._in_connect = 0
        self._installed: List[Tuple[object, str, Callable]] = []

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced function in every module that binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "markov_atlas"
                                         or name.startswith("markov_atlas."))]
        for (_, modname, fn), name in zip(TRACED, NAMES):
            original = getattr(sys.modules[modname], fn)
            wrapper = self._wrap(name, original)
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        bound += 1
            if bound == 0:
                raise TraceBlind(f"{name} is bound nowhere")
        for mod in modules:
            for attr, value in vars(mod).items():
                for _, _, original in self._installed:
                    if value is original:
                        raise TraceBlind(f"{mod.__name__}.{attr} still holds "
                                         f"an unwrapped original")

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        is_fiber = name.startswith("fiber.")
        is_connect = name == "connector.connect_graph"
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            if is_connect:
                self._in_connect += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if len(stack) == 2:  # raised out of the op's top library call
                    self.errors[(self.op, type(exc).__name__)] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                if is_connect:
                    self._in_connect -= 1
                rec = spans[(self.op, name)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
            if self.op != PROBE:
                if is_fiber and self._in_connect:
                    self.cycle_fiber[self.op] += dt
                if observe is not None:
                    observe(self.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- reporting -------------------------------------------------------

    def totals(self, scales: List[float]) -> Dict[str, List[float]]:
        """[calls, busy_s, self_s] per function, summed over op runs,
        times scaled by scales[op run]."""
        out = {name: [0, 0.0, 0.0] for name in NAMES}
        for (op, name), (calls, busy, own) in self.spans.items():
            if op == PROBE:
                continue
            rec = out[name]
            rec[0] += calls
            rec[1] += busy * scales[op]
            rec[2] += own * scales[op]
        return out


# -- counters fed from arguments and results --------------------------

def _obs_group_tables(c, args, kwargs, result):
    c["fiber.tables_enumerated"] += sum(len(v) for v in result.values())


def _obs_fiber_tables(c, args, kwargs, result):
    c["fiber.tables_enumerated"] += len(result)


def _obs_analysed(c, args, kwargs, result):
    f = len(args[0])
    c["fiber.fibers_analysed"] += 1
    c["fiber.nontrivial"] += f >= 2
    c["fiber.pairs_computed"] += f * (f - 1) // 2
    c["fiber.fiber_size_max"] = max(c["fiber.fiber_size_max"], f)


def _obs_extract_moves(c, args, kwargs, result):
    c["fiber.moves_extracted"] += len(result)


def _obs_connect_graph(c, args, kwargs, result):
    c["connector.states_emitted"] += len(result.states)


def _obs_glue_cutsame(c, args, kwargs, result):
    c["connector.glue_useful"] += result != args[0]


def _obs_random_walk(c, args, kwargs, result):
    c["sampler.steps"] += result.proposed
    c["sampler.accepted"] += result.accepted


_OBSERVERS = {
    "fiber.group_tables": _obs_group_tables,
    "fiber.fiber_tables": _obs_fiber_tables,
    "fiber.bottleneck_norm": _obs_analysed,
    "fiber.component_labels": _obs_analysed,
    "fiber.extract_moves": _obs_extract_moves,
    "connector.connect_graph": _obs_connect_graph,
    "connector.glue_cutsame": _obs_glue_cutsame,
    "sampler.random_walk": _obs_random_walk,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, ops_per_pass: int,
                  scales: List[float]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, per traced pass of the workload's op list,
    times at the reference speed (`scales` per op run).

    cli.errors.* count the errors of one traced pass plus those of the
    cap probe, which runs once per run.
    """
    tot = {name: [v / passes for v in rec]
           for name, rec in tracer.totals(scales).items()}
    c = {k: v / passes for k, v in tracer.counters.items()}
    cycle_fiber = sum(t * scales[op]
                      for op, t in tracer.cycle_fiber.items()) / passes
    out: Dict[str, Tuple[float, str]] = {}
    for name in NAMES:
        calls, busy, own = tot[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.self_s"] = (own, "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(tot[n][2] for n in NAMES
                                      if n.startswith(layer + ".")), "s")
    errors: Dict[str, float] = defaultdict(float)
    for (op, cls), k in tracer.errors.items():
        errors[cls] += k if op == PROBE else k / passes
    tables = c.get("fiber.tables_enumerated", 0)
    enum_busy = tot["fiber.group_tables"][1] + tot["fiber.fiber_tables"][1]
    analysed = c.get("fiber.fibers_analysed", 0)
    steps = c.get("sampler.steps", 0)
    out.update({
        "fiber.tables_enumerated": (tables, "count"),
        "fiber.tables_per_s": (_ratio(tables, enum_busy), "tables/s"),
        "fiber.fibers_analysed": (analysed, "count"),
        "fiber.nontrivial_frac": (_ratio(c.get("fiber.nontrivial", 0),
                                         analysed), "ratio"),
        "fiber.pairs_computed": (c.get("fiber.pairs_computed", 0), "count"),
        "fiber.fiber_size_max": (tracer.counters.get("fiber.fiber_size_max",
                                                     0), "count"),
        "fiber.moves_extracted": (c.get("fiber.moves_extracted", 0), "count"),
        "connector.cycle_fiber_s": (cycle_fiber, "s"),
        "connector.glue_useful_frac": (
            _ratio(c.get("connector.glue_useful", 0),
                   tot["connector.glue_cutsame"][0]), "ratio"),
        "connector.states_emitted": (c.get("connector.states_emitted", 0),
                                     "count"),
        "graphs.blocks_calls_per_op": (_ratio(tot["graphs.blocks"][0],
                                              ops_per_pass), "count"),
        "sampler.steps": (steps, "count"),
        "sampler.steps_per_s": (_ratio(steps, tot["sampler.random_walk"][1]),
                                "steps/s"),
        "sampler.acceptance_frac": (_ratio(c.get("sampler.accepted", 0),
                                           steps), "ratio"),
        "cli.errors.ResourceLimitError": (errors.pop("ResourceLimitError", 0),
                                          "count"),
        "cli.errors.other": (sum(errors.values()), "count"),
    })
    return out


def self_time_verdict(workload: str, metrics: Dict[str, Tuple[float, str]]
                      ) -> Tuple[bool, str]:
    """Does the predicted function (or sum) have the largest self time?"""
    predicted = PREDICTED_TOP[workload]
    own = {n: metrics[f"{n}.self_s"][0] for n in NAMES}
    pred_s = sum(own[n] for n in predicted)
    others = sorted(((s, n) for n, s in own.items() if n not in predicted),
                    reverse=True)
    top_s, top_n = others[0]
    total = sum(own.values())
    holds = pred_s >= top_s
    text = (f"predicted top self time: {' + '.join(predicted)} = "
            f"{pred_s:.4f} s ({_ratio(pred_s, total):.0%} of op time); "
            f"largest other: {top_n} = {top_s:.4f} s "
            f"({_ratio(top_s, total):.0%}) -> "
            f"{'confirmed' if holds else 'refuted'}")
    return holds, text
