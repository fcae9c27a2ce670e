"""Command-line interface: routing, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import markov_atlas
from markov_atlas import SPTree, connector, parse_graph, sp_decompose
from markov_atlas.cli import _build_parser, _json_chunks, main
from markov_atlas.connector import verify_sequence

from helpers import ladder_graph

C5 = "a b\nb c\nc d\nd e\ne a\n"
C4 = "a b\nb c\nc d\nd a\n"
K4 = "a b\na c\na d\nb c\nb d\nc d\n"
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
    assert len(obj["k4_minor"]) == 4


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
    and the tree read back from it prints the same text."""
    g = ladder_graph(1000)
    text = "".join(f"{g.vertices[i]} {g.vertices[j]}\n"
                   for i, j in sorted(g.edges))
    out = _Digest()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["decompose", files("ladder.txt", text), "--json"]) == 0
    assert out.size > 10 ** 8
    tree = SPTree.from_json(sp_decompose(parse_graph(text)).to_json())
    again = _Digest()
    again.writelines(_json_chunks(tree.to_json()))
    again.write("\n")
    assert (again.size, again.sha.digest()) == (out.size, out.sha.digest())


def test_json_chunks_match_json_dumps():
    """The chunked writer gives the text of `json.dumps(indent=2)` on
    nested dicts, lists and tuples, empty containers and scalars, and
    on a chain's JSON, whose edges are tuples."""
    g = parse_graph(C4)
    z, zp = (markov_atlas.parse_vector(v) for v in (VEC_C4, VEC_C4_B))
    for obj in ({"a": [1, (2, 3), {"b": ()}], "c": {}, "d": [[]], "e": None},
                (1, [2, ("x", 3.5)], {"k": (True, False)}),
                [], (), {}, "text", 7, -1.25, None, False,
                connector.connect_graph(g, z, zp).to_json()):
        assert "".join(_json_chunks(obj)) == json.dumps(obj, indent=2)


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


def test_certify_tetrahedron_fails(files, capsys):
    tetra = "a b c\na b d\na c d\nb c d\n"
    code, out, _ = run(capsys, "certify", files("t.tri", tetra))
    assert code == 1


def test_search_width(files, capsys):
    code, out, _ = run(capsys, "search-width", files("c4.txt", C4),
                       "--max-total", "4", "--max-degree", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["per_total"][-1] == {"total": 4, "min_degree": 4}
    assert obj["witness"] is not None


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
