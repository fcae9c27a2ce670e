"""Command-line interface: routing, formats, exit codes."""

import enum
import hashlib
import json
import os
import subprocess
import sys

import pytest

import markov_atlas
from markov_atlas import (connector, extract_moves, fiber, fiber_of,
                          lattice, parse_graph, sp_decompose)
from markov_atlas.cli import _build_parser, _json_chunks, main
from markov_atlas.connector import verify_sequence

from helpers import (assert_k4_minor, glued_octahedra, ladder_graph,
                     triangle_cactus)

C5 = "a b\nb c\nc d\nd e\ne a\n"
C4 = "a b\nb c\nc d\nd a\n"
K4 = "a b\na c\na d\nb c\nb d\nc d\n"
K5 = "".join(f"{a} {b}\n" for i, a in enumerate("abcde")
             for b in "abcde"[i + 1:])
THETA = "a b\na c\nc b\na d\nd b\n"
OCTA = ("0 1 4\n0 1 5\n1 2 4\n1 2 5\n2 3 4\n2 3 5\n"
        "3 0 4\n3 0 5\n")
VEC_C4 = "vertices: a b c d\n0101 2\n1111 2\n"
VEC_C4_B = "vertices: a b c d\n0111 2\n1101 2\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_width_text(files, capsys):
    code, out, _ = run(capsys, "width", files("c5.txt", C5))
    assert code == 0
    assert "exact 4" in out


def test_width_long_ladder(files, capsys, default_recursion_limit):
    """A 2x1000 ladder has no K4 minor; its series-parallel reduction
    runs without recursion."""
    k = 1000
    text = "".join(f"{a} {b}\n" for a, b in
                   [(f"u{i}", f"u{i + 1}") for i in range(k - 1)]
                   + [(f"w{i}", f"w{i + 1}") for i in range(k - 1)]
                   + [(f"u{i}", f"w{i}") for i in range(k)])
    code, out, _ = run(capsys, "width", files("ladder.txt", text))
    assert code == 0
    assert out.startswith("exact 4")


def test_width_json(files, capsys):
    code, out, _ = run(capsys, "width", files("k4.txt", K4), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["class"] == "lower-bound"
    assert obj["basis_degree"] == 6
    assert_k4_minor(parse_graph(K4), obj["k4_minor"])


def test_width_evidence(files, capsys):
    code, out, _ = run(capsys, "width", files("c4.txt", C4),
                       "--evidence", "--max-total", "4", "--json")
    assert code == 0
    assert json.loads(out)["search_degree"] == 4


def test_decompose(files, capsys):
    code, out, _ = run(capsys, "decompose", files("theta.txt", THETA),
                       "--poles", "a", "b", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "parallel"
    assert obj["poles"] == ["a", "b"]


def test_decompose_unknown_pole(files, capsys):
    code, out, err = run(capsys, "decompose", files("theta.txt", THETA),
                         "--poles", "a", "z")
    assert code == 1 and out == ""
    assert err == "error: 'z' is not a vertex of the graph\n"


class _Digest:
    """A stdout that keeps only the length and SHA-256 of its text."""

    def __init__(self):
        self.size = 0
        self.sha = hashlib.sha256()

    def write(self, text):
        self.size += len(text)
        self.sha.update(text.encode())

    def writelines(self, chunks):
        for text in chunks:
            self.write(text)

    def flush(self):
        pass


def test_decompose_long_ladder(files, monkeypatch, default_recursion_limit):
    """The 2x1000 ladder's tree nests thousands of levels deep.  Its
    JSON (300 MB indented) prints under the default recursion limit,
    as the same text as the chunked writer gives the tree's JSON."""
    g = ladder_graph(1000)
    text = "".join(f"{g.vertices[i]} {g.vertices[j]}\n"
                   for i, j in sorted(g.edges))
    out = _Digest()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["decompose", files("ladder.txt", text), "--json"]) == 0
    assert out.size > 10 ** 8
    again = _Digest()
    again.writelines(_json_chunks(sp_decompose(parse_graph(text))))
    again.write("\n")
    assert (again.size, again.sha.digest()) == (out.size, out.sha.digest())


def test_json_chunks_match_json_dumps():
    """The chunked writer gives the text of `json.dumps(indent=2)` on
    nested dicts, lists and tuples, empty containers and scalars, keys
    of every type json takes (one dict per type: 1 and True are one
    key), and on a chain's JSON, whose edges are tuples.  Flat
    containers of every scalar type, non-ASCII and control characters
    in values and keys, an IntEnum member and a str subclass (which
    take the item-by-item path), containers that mix scalars with
    containers, and lists of empty containers."""
    g = parse_graph(C4)
    z, zp = (markov_atlas.parse_vector(v) for v in (VEC_C4, VEC_C4_B))
    scalars = ["s", "", 0, -7, 10 ** 30, 1.5, float("nan"), float("inf"),
               float("-inf"), -0.0, 1e300, True, 1, False, 0, None]
    odd = "\u00e9\u2028\U0001f600 \x00\x1f\x7f\n\t\"\\/"
    Flag = enum.IntEnum("Flag", "A B")
    Label = type("Label", (str,), {})
    for obj in ({"a": [1, (2, 3), {"b": ()}], "c": {}, "d": [[]], "e": None},
                (1, [2, ("x", 3.5)], {"k": (True, False)}),
                [], (), {}, "text", 7, -1.25, None, False,
                {1: 2, -30: [3]}, {2.5: 1, -0.5: {}}, {True: 1}, {False: 0},
                {None: None}, {"s": {7: {True: [{None: 1.0}]}}},
                connector.connect_graph(g, z, zp).to_json(),
                scalars, tuple(scalars), [scalars, scalars[::-1]],
                {f"k{i}": v for i, v in enumerate(scalars)},
                {float("nan"): 1, float("inf"): 2, -0.0: 3, 1e300: None},
                {True: 1, "1": True}, [True, 1, 1.0],
                odd, [odd, "plain"], {odd: odd, "x": [odd]},
                Flag.B, [Flag.A, 2], {Flag.A: Flag.B, "f": (Flag.B,)},
                Label("lab"), [Label("a"), "b"], {Label("k"): Label("v")},
                {"a": 1, "b": [1, "x"], "c": {"d": None}, "e": "f",
                 "g": [[], {}], "h": 2.5},
                [{"a": [1, {"b": 2}], "c": 3}, 4, "five", [6, [7, []]]],
                [[], {}, (), [[]], {"x": {}}, [{}]]):
        assert "".join(_json_chunks(obj)) == json.dumps(obj, indent=2)


def test_json_chunks_rejects_other_keys():
    with pytest.raises(TypeError, match="not tuple"):
        "".join(_json_chunks({(1, 2): 3}))


def test_connect_success(files, capsys):
    code, out, _ = run(capsys, "connect", files("c4.txt", C4),
                       files("a.vec", VEC_C4), files("b.vec", VEC_C4_B),
                       "--verify", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["states"][0]["entries"] == {"0101": 2, "1111": 2}
    assert all(n <= 8 for n in obj["norms"])
    assert obj["verified"]["max_step_norm"] <= 8


def test_connect_verifies_once(files, capsys, monkeypatch):
    """--verify checks the chain once and reports that check's summary;
    the text output gives the same length and largest norm."""
    calls = []

    def counting(seq, *args, **kwargs):
        calls.append(seq)
        return verify_sequence(seq, *args, **kwargs)

    monkeypatch.setattr(connector, "verify_sequence", counting)
    paths = (files("c4.txt", C4), files("a.vec", VEC_C4),
             files("b.vec", VEC_C4_B))
    code, out, _ = run(capsys, "connect", *paths, "--verify", "--json")
    assert code == 0 and len(calls) == 1
    obj = json.loads(out)
    assert obj["verified"] == {"length": len(obj["steps"]),
                               "max_step_norm": max(obj["norms"]),
                               "pole_changing_steps": 0}
    assert obj["verified"] == verify_sequence(calls[0])
    code, out, _ = run(capsys, "connect", *paths)
    assert code == 0 and len(calls) == 1
    assert out == (f"connected in {len(obj['steps'])} steps, "
                   f"max norm {max(obj['norms'])}\n")


def test_connect_k4_is_domain_error(files, capsys):
    code, _, err = run(capsys, "connect", files("k4.txt", K4),
                       files("a.vec", VEC_C4), files("b.vec", VEC_C4))
    assert code == 1
    assert "K4" in err


def test_connect_missing_file(files, capsys):
    code, _, err = run(capsys, "connect", "/nonexistent/g.txt",
                       files("a.vec", VEC_C4), files("b.vec", VEC_C4))
    assert code == 1
    assert "/nonexistent/g.txt" in err


def test_certify(files, capsys):
    code, out, _ = run(capsys, "certify", files("oct.tri", OCTA),
                       "--verify-fiber", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"] == 4
    assert obj["fiber_verified"] is True
    assert obj["euler"] == 2


def test_certify_text_says_why_fiber_skipped(files, capsys, monkeypatch):
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", "max_fiber=1")
    code, out, _ = run(capsys, "certify", files("oct.tri", OCTA),
                       "--verify-fiber")
    assert code == 1
    assert out == (
        "bound 4 for the complete graph on 6 vertices, fiber NOT verified: "
        "the fiber of total 4 exceeds the cap max_fiber = 1; "
        "raise it with MARKOV_ATLAS_LIMITS=\"max_fiber=...\"\n")


@pytest.mark.parametrize("text", ["", "# a comment, no faces\n"])
def test_certify_without_faces_is_an_error(files, capsys, text):
    code, out, err = run(capsys, "certify", files("none.tri", text))
    assert code == 1
    assert out == ""
    assert err == "error: triangulation has no faces\n"


def test_certify_tetrahedron_fails(files, capsys):
    tetra = "a b c\na b d\na c d\nb c d\n"
    code, out, _ = run(capsys, "certify", files("t.tri", tetra))
    assert code == 1


def test_certify_unclean_fails(files, capsys):
    """Two octahedra glued along a face are 2-face-colorable but not
    clean."""
    code, out, err = run(capsys, "certify",
                         files("glued.tri", glued_octahedra()))
    assert (code, out, err) == (1, "no certificate: not clean\n", "")


@pytest.mark.parametrize("argv", [
    ("width", ("k5.txt", K5)),
    ("decompose", ("theta.txt", THETA), "--poles", "a", "b"),
    ("connect", ("c4.txt", C4), ("a.vec", VEC_C4), ("b.vec", VEC_C4_B),
     "--verify"),
    ("certify", ("oct.tri", OCTA), "--verify-fiber"),
    ("search-width", ("c4.txt", C4), "--max-total", "3", "--max-degree", "3"),
    ("sample", ("c4.txt", C4), ("a.vec", VEC_C4), "--steps", "40", "--seed",
     "3"),
], ids=lambda argv: argv[0])
def test_json_output_is_json_dumps_text(files, capsys, argv):
    """Every subcommand's --json output is the text `json.dumps(indent=2)`
    gives its object, and a newline."""
    argv = [files(*a) if isinstance(a, tuple) else a for a in argv]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_sample_text_metadata_is_json_dumps_text(files, capsys):
    args = ("sample", files("c4.txt", C4), files("a.vec", VEC_C4),
            "--steps", "40", "--seed", "3")
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    obj = json.loads(out)
    final = lattice.vector_from_json(obj.pop("final"))
    code, text, _ = run(capsys, *args)
    assert code == 0
    assert text == (lattice.format_vector(final).rstrip() + "\n"
                    + json.dumps(obj, indent=2) + "\n")


def test_search_width(files, capsys):
    code, out, _ = run(capsys, "search-width", files("c4.txt", C4),
                       "--max-total", "4", "--max-degree", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["per_total"][-1] == {"total": 4, "min_degree": 4}
    assert obj["witness"] is not None


def test_search_width_past_the_vertex_cap(files, capsys):
    """A 41-vertex cactus of triangles is searched by pieces; a witness
    needs the whole graph, which the vertex cap refuses."""
    text = "".join(f"{a} {b}\n" for a, b in triangle_cactus(20).edge_labels())
    path = files("cactus.txt", text)
    code, out, _ = run(capsys, "search-width", path, "--max-total", "4",
                       "--json")
    assert code == 0
    assert [r["min_degree"] for r in json.loads(out)["per_total"]] == \
        [1, 2, 2, 4]
    code, out, err = run(capsys, "search-width", path, "--max-total", "4",
                         "--max-degree", "3")
    assert (code, out) == (1, "")
    assert "41 vertices exceeds the cap max_vertices = 16" in err


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_search_width_degree_below_one_rejected(files, capsys, degree):
    code, out, err = run(capsys, "search-width", files("c4.txt", C4),
                         "--max-total", "3", "--max-degree", degree)
    assert (code, out, err) == (
        1, "", "error: degree bound must be >= 1\n")


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("key", ["max_total", "max_vertices", "max_fiber"])
def test_limits_below_one_rejected(files, capsys, monkeypatch, key, value):
    """A cap below 1 is an error that names it: `max_fiber=0` does not
    turn the fiber cap off, and the others do not refuse every search."""
    monkeypatch.setenv("MARKOV_ATLAS_LIMITS", f"{key}={value}")
    code, out, err = run(capsys, "search-width", files("c4.txt", C4),
                         "--max-total", "3")
    assert (code, out, err) == (
        1, "", f"error: limit '{key}' in MARKOV_ATLAS_LIMITS must be at "
        "least 1\n")


@pytest.mark.parametrize("total", ["0", "-2"])
def test_table_total_below_one_rejected(files, capsys, total):
    """A search up to a total below 1 is an error, not an empty result,
    and `width --evidence` does not drop it."""
    message = "error: table total must be >= 1\n"
    code, out, err = run(capsys, "search-width", files("c4.txt", C4),
                         "--max-total", total, "--max-degree", "2")
    assert (code, out, err) == (1, "", message)
    code, out, err = run(capsys, "width", files("c4.txt", C4), "--evidence",
                         "--max-total", total)
    assert (code, out, err) == (1, "", message)


def test_sample_reproducible(files, capsys):
    args = ("sample", files("c4.txt", C4), files("a.vec", VEC_C4),
            "--steps", "300", "--seed", "7", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["rng"] == "mt19937"
    assert obj["final"]["vertices"] == ["a", "b", "c", "d"]


# Start tables on C5 (a b c d e), units as bit strings, and walk seeds.
SAMPLE_C5 = [("00000 1\n11000 1\n01100 1\n10101 1\n", 3),
             ("10000 2\n01010 1\n00111 2\n11111 1\n", 11),
             ("11000 1\n01100 1\n00110 1\n00011 1\n10001 1\n"
              "10100 1\n01010 1\n", 29),
             ("00000 2\n10100 2\n01010 2\n11111 2\n", 5)]
SAMPLE_C5_DIGEST = (
    "d23b3c445b4e8009a55467b986d66065cc07abfa8737ea990c68f3d0120f59e6")


def test_sample_output_pinned(files, capsys):
    """`sample --json` on fixed C5 inputs, at degrees 2 and 4 and with
    burn-in: any change to the move list, its order or the walk shows
    here."""
    graph = files("c5.txt", C5)
    digest = hashlib.sha256()
    for k, (body, seed) in enumerate(SAMPLE_C5):
        vec = files(f"z{k}.vec", "vertices: a b c d e\n" + body)
        for degree in ("2", "4"):
            code, out, _ = run(capsys, "sample", graph, vec, "--steps", "400",
                               "--burn-in", "50", "--seed", str(seed),
                               "--degree", degree, "--json")
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == SAMPLE_C5_DIGEST


def test_sample_with_moves_file(files, capsys):
    moves = ("vertices: a b c d\n0101 2\n1111 2\n0111 -2\n1101 -2\n")
    code, out, _ = run(capsys, "sample", files("c4.txt", C4),
                       files("a.vec", VEC_C4), "--steps", "50",
                       "--seed", "1", "--moves", files("m.vec", moves),
                       "--json")
    assert code == 0
    assert json.loads(out)["proposed"] == 50
    # comments, blank lines and a header with no space after its colon
    spaced = ("# move\n\nvertices:a b c d  # header\n0101 2\n  \n"
              "1111 2 # twice\n0111 -2\n\t1101 -2\n")
    assert run(capsys, "sample", files("c4.txt", C4),
               files("a.vec", VEC_C4), "--steps", "50", "--seed", "1",
               "--moves", files("m2.vec", spaced), "--json") == (0, out, "")


MOVE_C4 = "vertices: a b c d\n0101 2\n1111 2\n0111 -2\n1101 -2\n"
NOT_KERNEL_C4 = "vertices: a b c d\n0101 1\n0111 -1\n"


@pytest.mark.parametrize("blocks, message", [
    ((MOVE_C4, NOT_KERNEL_C4),
     "error: TableVector(e[1010] + -1*e[1110]) has nonzero marginals\n"),
    ((MOVE_C4, "vertices: a b c d\n011 1\n"),
     "error: line 7: bitstring must have 4 binary digits\n"),
    # comments and blank lines count in the line numbers
    ((MOVE_C4, "# second\n\nvertices:a b c d  # header\n011 1 # short\n"),
     "error: line 9: bitstring must have 4 binary digits\n"),
    ((MOVE_C4, "vertices: a b c\n010 1\n"),
     "error: ('a', 'b', 'c') vs ('a', 'b', 'c', 'd')\n"),
    # a bad first block is reported before a malformed second one
    ((NOT_KERNEL_C4, "vertices: a b c d\n011 1\n"),
     "error: TableVector(e[1010] + -1*e[1110]) has nonzero marginals\n"),
], ids=["kernel", "parse", "parse-after-comments", "vertices",
        "first-block-first"])
def test_sample_moves_file_bad_block(files, capsys, blocks, message):
    """A moves file is parsed and checked block by block, in order: the
    first bad block's error is the one reported."""
    code, out, err = run(capsys, "sample", files("c4.txt", C4),
                         files("a.vec", VEC_C4), "--steps", "5",
                         "--seed", "1", "--moves",
                         files("m.vec", "".join(blocks)))
    assert (code, out, err) == (1, "", message)


def test_sample_zero_move_rejected(files, capsys):
    """A header-only block is the zero vector: in the kernel, but no
    move, so the walk refuses it, by position, rather than accept every
    step with the table unchanged."""
    graph = files("c3.txt", "a b\nb c\nc a\n")
    code, out, err = run(capsys, "sample", graph,
                         files("z.vec", "vertices: a b c\n000 2\n"),
                         "--steps", "3", "--seed", "1", "--moves",
                         files("m.vec", "vertices: a b c\n"))
    assert (code, out, err) == (1, "", "error: move 1 is zero\n")


@pytest.mark.parametrize("before, message", [
    ("0101 2\n", "error: line 1: expected 'vertices:' header\n"),
    ("# moves\n\n0101 2\n", "error: line 3: expected 'vertices:' header\n"),
    ("# moves\n\n", ""),
], ids=["entry", "entry-after-comment", "comment"])
def test_sample_moves_file_lines_before_first_header(files, capsys, before,
                                                     message):
    """Only comments and blank lines may come before the first block's
    header; anything else is a parse error, not a dropped line."""
    code, out, err = run(capsys, "sample", files("c4.txt", C4),
                         files("a.vec", VEC_C4), "--steps", "5",
                         "--seed", "1", "--moves",
                         files("m.vec", before + MOVE_C4))
    assert (code, err) == (1 if message else 0, message)
    assert bool(out) != bool(message)


def test_sample_moves_file_one_kernel_test(files, capsys, monkeypatch):
    """The walk checks the moves file's blocks as it reads them, with
    one kernel test whatever the number of blocks."""
    made = []
    real = lattice._kernel_test

    def counted(g):
        made.append(g)
        return real(g)

    monkeypatch.setattr(lattice, "_kernel_test", counted)
    code, _, _ = run(capsys, "sample", files("c4.txt", C4),
                     files("a.vec", VEC_C4), "--steps", "5", "--seed", "1",
                     "--moves", files("m.vec", MOVE_C4 * 3))
    assert code == 0 and len(made) == 1


@pytest.mark.parametrize("source", ["degree", "moves"])
def test_sample_checks_each_move_once(files, capsys, monkeypatch, source):
    """Extracted or read from a file, every move is kernel-tested
    exactly once before the walk."""
    calls = []
    real = lattice._kernel_test

    def counted(g):
        test = real(g)

        def counting(*args):
            calls.append(args)
            return test(*args)
        return counting

    monkeypatch.setattr(lattice, "_kernel_test", counted)
    g = parse_graph(C4)
    if source == "moves":
        extra, want = ("--moves", files("m.vec", MOVE_C4 * 3)), 3
    else:
        z0 = lattice.parse_vector(VEC_C4)
        extra, want = (), len(extract_moves(fiber_of(g, z0), 4))
    code, _, _ = run(capsys, "sample", files("c4.txt", C4),
                     files("a.vec", VEC_C4), "--steps", "5", "--seed", "1",
                     *extra)
    assert code == 0 and want > 1 and len(calls) == want


def test_sample_negative_start_reported_before_moves_file(files, capsys):
    """The moves file is read by the walk, after the start table's
    check, so a negative start table is the error reported."""
    code, out, err = run(capsys, "sample", files("c4.txt", C4),
                         files("a.vec", "vertices: a b c d\n0101 -1\n"),
                         "--steps", "5", "--seed", "1", "--moves",
                         files("m.vec", NOT_KERNEL_C4))
    assert (code, out, err) == (
        1, "", "error: initial table must be non-negative\n")


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_sample_degree_below_one_rejected(files, capsys, degree):
    code, out, err = run(capsys, "sample", files("c4.txt", C4),
                         files("a.vec", VEC_C4), "--steps", "5",
                         "--seed", "1", "--degree", degree)
    assert (code, out, err) == (
        1, "", "error: degree bound must be >= 1\n")


@pytest.fixture
def no_fiber(monkeypatch):
    def refuse(*args):
        raise AssertionError("fiber enumerated before the input checks")

    monkeypatch.setattr(fiber, "fiber_of", refuse)


@pytest.mark.parametrize("flags, message", [
    (("--steps", "0"), "steps must be >= 1"),
    (("--steps", "5", "--burn-in", "-1"), "burn-in must be >= 0"),
    (("--steps", "5", "--degree", "0"), "degree bound must be >= 1"),
    (("--steps", "0", "--degree", "0"), "steps must be >= 1"),
], ids=["steps", "burn-in", "degree", "steps-and-degree"])
def test_sample_checks_inputs_before_the_fiber(files, capsys, no_fiber,
                                               flags, message):
    """Bad walk settings are reported before the fiber is enumerated,
    which on a large fiber takes seconds."""
    code, out, err = run(capsys, "sample", files("c4.txt", C4),
                         files("a.vec", VEC_C4), "--seed", "1", *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("moves", [False, True], ids=["degree", "moves"])
def test_sample_negative_start_reported_first(files, capsys, no_fiber,
                                              moves):
    """Both move sources report a negative start table the same way,
    before the walk settings and before any fiber."""
    flags = ("--moves", files("m.vec", MOVE_C4)) if moves else ()
    code, out, err = run(capsys, "sample", files("c4.txt", C4),
                         files("a.vec", "vertices: a b c d\n0101 -1\n"),
                         "--steps", "0", "--seed", "1", *flags)
    assert (code, out, err) == (
        1, "", "error: initial table must be non-negative\n")


def test_usage_error_exit_2(files):
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2


def test_parser_built_once(files, capsys):
    """Runs share one parser, and one run's options do not leak into
    the next."""
    assert _build_parser() is _build_parser()
    graph, vec = files("c4.txt", C4), files("a.vec", VEC_C4)
    moves = files("m.vec", "vertices: a b c d\n0101 2\n1111 2\n"
                           "0111 -2\n1101 -2\n")
    code, out, _ = run(capsys, "sample", graph, vec, "--steps", "5",
                       "--seed", "1", "--moves", moves, "--json")
    assert code == 0
    args = _build_parser().parse_args(["sample", graph, vec, "--steps", "5",
                                       "--seed", "1"])
    assert args.moves is None and args.degree == 4 and not args.json
    with pytest.raises(SystemExit) as exc:
        main(["sample", graph, vec, "--steps", "5", "--seed", "1",
              "--moves", moves, "--degree", "2"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_python_dash_m(files):
    """`python -m markov_atlas` runs the same command line."""
    src = os.path.dirname(os.path.dirname(markov_atlas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "markov_atlas", "width", files("c5.txt", C5)],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("exact 4 ")
    done = subprocess.run([sys.executable, "-m", "markov_atlas"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 2
    assert "usage: markov-atlas" in done.stderr


def test_bad_vector_is_domain_error(files, capsys):
    code, _, err = run(capsys, "connect", files("c4.txt", C4),
                       files("bad.vec", "garbage\n"),
                       files("b.vec", VEC_C4))
    assert code == 1
    assert "line" in err


def _path_files(files, n):
    """A path on n vertices and two tables of total 2 with its marginals
    that differ by swapping the units' tails after the second vertex."""
    text = "".join(f"v{i} v{i + 1}\n" for i in range(n - 1))
    header = "vertices: " + " ".join(f"v{i}" for i in range(n)) + "\n"
    u, v = "0" * n, "10" + "1" * (n - 2)
    a = header + f"{u} 1\n{v} 1\n"
    b = header + f"{u[:2] + v[2:]} 1\n{v[:2] + u[2:]} 1\n"
    return files("path.txt", text), files("a.vec", a), files("b.vec", b)


@pytest.mark.parametrize("command", ["decompose", "connect"])
def test_closed_pipe_is_quiet(files, command):
    """A reader that closes stdout after one line ends the command with
    no traceback, whether the output is the streamed tree of `decompose`
    or the JSON of `connect --json`.  Both outputs run far past a pipe's
    buffer."""
    graph, a, b = _path_files(files, 2000 if command == "connect" else 400)
    argv = {"decompose": [graph], "connect": [graph, a, b, "--json"]}
    src = os.path.dirname(os.path.dirname(markov_atlas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "markov_atlas", command, *argv[command]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")
