"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad input data, structural
preconditions, resource limits), 2 usage error.  `--json` puts
machine-readable output on stdout; diagnostics always go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterator, List, Optional

from . import connector, fiber, sampler, triangulation, width
from .errors import MarkovAtlasError
from .graphs import parse_graph, sp_decompose
from .lattice import (Move, as_move, format_vector, parse_vector,
                      vector_to_json)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MarkovAtlasError(f"cannot read {path}: {exc.strerror}") from None


def _load_graph(path: str):
    return parse_graph(_read(path))


def _load_vector(path: str):
    return parse_vector(_read(path))


def _load_moves(path: str, g) -> List[Move]:
    """A moves file is a concatenation of vector blocks, each starting
    with its own 'vertices:' header."""
    blocks: List[List[str]] = []
    for raw in _read(path).splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("vertices:"):
            blocks.append([])
        if blocks and stripped:
            blocks[-1].append(raw)
    if not blocks:
        raise MarkovAtlasError(f"no move vectors found in {path}")
    return [as_move(parse_vector("\n".join(b)), g) for b in blocks]


def _json_chunks(obj) -> Iterator[str]:
    """The text of `json.dumps(obj, indent=2)` in pieces, from an
    explicit stack: a long ladder's tree nests deeper than the json
    module's recursion allows, and its indented text runs to hundreds
    of megabytes.  Scalars and keys are encoded by `json.dumps`."""
    stack: List[list] = []  # [items, closing bracket, depth, first?]

    def put(value, depth: int) -> str:
        if isinstance(value, dict) and value:
            items = [(json.dumps(k) + ": ", v) for k, v in value.items()]
            stack.append([iter(items), "}", depth + 1, True])
            return "{"
        if isinstance(value, (list, tuple)) and value:
            stack.append([iter([("", v) for v in value]), "]", depth + 1,
                          True])
            return "["
        return json.dumps(value)

    yield put(obj, 0)
    while stack:
        top = stack[-1]
        item = next(top[0], None)
        if item is None:
            stack.pop()
            yield "\n" + "  " * (top[2] - 1) + top[1]
            continue
        yield ("\n" if top[3] else ",\n") + "  " * top[2] + item[0]
        top[3] = False
        yield put(item[1], top[2])


def _emit(args, obj: dict, text: str):
    if args.json:
        json.dump(obj, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text + "\n")


# -- subcommands -------------------------------------------------------

def _cmd_width(args) -> int:
    g = _load_graph(args.graph)
    report = width.classify_width(
        g, evidence_max_total=args.max_total if args.evidence else None)
    text = f"{report.kind} {report.value} ({report.reason})"
    if report.search_degree is not None:
        text += (f"; search evidence: minimal connecting degree "
                 f"{report.search_degree} up to total {report.search_max_total}")
    _emit(args, report.to_json(), text)
    return 0


def _cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    poles = tuple(args.poles) if args.poles else None
    tree = sp_decompose(g, poles=poles)
    # --json or not, the output is the tree's JSON
    sys.stdout.writelines(_json_chunks(tree.to_json()))
    sys.stdout.write("\n")
    return 0


def _cmd_connect(args) -> int:
    g = _load_graph(args.graph)
    z = _load_vector(args.vec_a)
    zp = _load_vector(args.vec_b)
    seq = connector.connect_graph(g, z, zp)
    obj = seq.to_json()
    if args.verify:
        obj["verified"] = connector.verify_sequence(seq)
    text = (f"connected in {seq.length} steps, "
            f"max norm {max(obj['norms'], default=0)}")
    _emit(args, obj, text)
    return 0


def _cmd_certify(args) -> int:
    t = triangulation.load_triangulation(_read(args.triangulation))
    report = triangulation.certify_lower_bound(
        t, verify_fiber=args.verify_fiber)
    obj = report.to_json()
    if report.bound is None:
        _emit(args, obj, "no certificate: "
              + ("not clean" if not report.clean else "not 2-face-colorable"))
        return 1
    text = f"bound {report.bound} for the complete graph on {report.n} vertices"
    if args.verify_fiber:
        text += (", fiber verified"
                 if report.fiber_verified else ", fiber NOT verified")
    _emit(args, obj, text)
    return 0 if (not args.verify_fiber or report.fiber_verified) else 1


def _cmd_search_width(args) -> int:
    g = _load_graph(args.graph)
    degrees, witness = fiber.search_width(g, args.max_total, args.max_degree)
    rows = list(enumerate(degrees, start=1))
    out = {"per_total": [{"total": t, "min_degree": d} for t, d in rows]}
    lines = [f"total {t}: minimal connecting degree {d}" for t, d in rows]
    if args.max_degree is not None:
        if witness is None:
            out["witness"] = None
            lines.append(f"no fiber disconnected at degree {args.max_degree}")
        else:
            fib, (za, zb) = witness
            out["witness"] = {
                "fiber_size": fib.size,
                "component_a": vector_to_json(za),
                "component_b": vector_to_json(zb),
            }
            lines.append(f"degree-{args.max_degree} witness fiber "
                         f"(size {fib.size}); representatives:")
            lines.append(format_vector(za).rstrip())
            lines.append(format_vector(zb).rstrip())
    _emit(args, out, "\n".join(lines))
    return 0


def _cmd_sample(args) -> int:
    g = _load_graph(args.graph)
    z0 = _load_vector(args.vec)
    if args.moves:
        moves = _load_moves(args.moves, g)
    else:
        fib = fiber.fiber_of(g, z0)
        moves = fiber.extract_moves(fib, args.degree)
    cfg = sampler.WalkConfig(steps=args.steps, burn_in=args.burn_in,
                             seed=args.seed)
    result = sampler.random_walk(g, moves, z0, cfg)
    obj = {"final": vector_to_json(result.state), **result.metadata()}
    text = format_vector(result.state).rstrip() + "\n" + json.dumps(
        result.metadata(), indent=2)
    _emit(args, obj, text)
    return 0


# -- argument parsing --------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves no state in
    it, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="markov-atlas",
        description="Binary graph models: fibers, Markov widths, "
                    "move connectors, certificates, and sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output on stdout")

    p = sub.add_parser("width", help="classify the Markov width of a graph")
    p.add_argument("graph")
    p.add_argument("--evidence", action="store_true",
                   help="add fiber-search evidence")
    p.add_argument("--max-total", type=int, default=3,
                   help="table total cap for --evidence (default 3)")
    common(p)
    p.set_defaults(func=_cmd_width)

    p = sub.add_parser("decompose",
                       help="series-parallel decomposition tree")
    p.add_argument("graph")
    p.add_argument("--poles", nargs=2, metavar=("U", "V"))
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("connect",
                       help="degree-4 move sequence between two tables")
    p.add_argument("graph")
    p.add_argument("vec_a")
    p.add_argument("vec_b")
    p.add_argument("--verify", action="store_true",
                   help="re-check every step of the produced sequence")
    common(p)
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("certify",
                       help="triangulation lower-bound certificate")
    p.add_argument("triangulation")
    p.add_argument("--verify-fiber", action="store_true",
                   help="enumerate the certifying two-element fiber")
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("search-width",
                       help="minimal connecting degree per table total")
    p.add_argument("graph")
    p.add_argument("--max-total", type=int, required=True)
    p.add_argument("--max-degree", type=int,
                   help="also search for a fiber disconnected at this degree")
    common(p)
    p.set_defaults(func=_cmd_search_width)

    p = sub.add_parser("sample", help="random walk over a fiber")
    p.add_argument("graph")
    p.add_argument("vec")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--seed", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--moves", help="file of move vectors")
    group.add_argument("--degree", type=int, default=4,
                       help="derive moves from the fiber at this degree "
                            "(default 4)")
    common(p)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MarkovAtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
