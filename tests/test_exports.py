"""Every name the package exports, and every module-level function and
class of its modules, private ones included, has a caller outside the
tests."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "markov_atlas"

# names whose only callers are tests, each with why it stays
KEPT = {
    "as_moves": "the kernel check of vectors given as moves, which the "
                "lattice tests compare with the marginals; the package "
                "checks its moves through _kernel_checked",
    "connect_two_terminal": "the one way to test the pole discipline; "
                            "the pinned chains and acceptance 4 use it",
    "fiber_components": "a fiber's components under degree-k moves, "
                        "the definition the widths rest on",
    "kn_lower_bound_report": "the K_n lower bound that the paper's only-if "
                             "direction builds on",
    "walk_states": "the walk state by state, which the sampler's oracle "
                   "tests compare",
}


def exported():
    """The names `markov_atlas/__init__.py` imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def defined():
    """The functions and classes defined at the top level of the
    package's modules.  Methods are not scanned."""
    return {node.name for path in PACKAGE.rglob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def referenced(tree, strings=False):
    """Every Name, Attribute and imported name in `tree`, and with
    `strings` every string constant too."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.add(node.value)
    return out


def callers():
    """Names referenced by the package's modules other than
    `__init__.py`, by the README's python blocks, and by the benchmark,
    whose tracer looks its functions up by their names as strings."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        if path.name != "__init__.py" or path.parent != PACKAGE:
            names |= referenced(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S):
        names |= referenced(ast.parse(block))
    for path in (ROOT / "perfbench").glob("*.py"):
        names |= referenced(ast.parse(path.read_text()), strings=True)
    return names


def test_every_export_has_a_caller():
    """Exported names and module-level functions and classes alike: a
    helper left behind by a change fails here."""
    uncalled = (exported() | defined()) - callers()
    assert sorted(uncalled - set(KEPT)) == []
    # a kept name that gains a caller or is no longer defined leaves KEPT
    assert sorted(set(KEPT) - uncalled) == []
