"""Every name the package exports, and every function, method and
class of its modules, private ones included, has a caller outside the
tests (a method one that reads it as an attribute); and every
parameter with a default is set by such a caller."""

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

# defaulted parameters whose only setters are tests, each with why it
# stays
KEPT_PARAMETERS = {
    "glue_cutsame.prefer": "the steering toward a target, which the "
                           "cutsame tests check against their oracle; "
                           "the connector steers through _lift itself",
    "kn_lower_bound_report.triangulation": "a certificate for K_n other "
                                           "than the double wheel",
    "kn_lower_bound_report.verify_fiber": "the fiber check of that "
                                          "certificate, as certify's",
}


def exported():
    """The names `markov_atlas/__init__.py` imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def modules():
    return [ast.parse(path.read_text()) for path in PACKAGE.rglob("*.py")]


def defined():
    """(functions and classes, methods) of the package's modules,
    nested ones included; dunder methods are called by Python."""
    functions, methods = set(), set()
    for tree in modules():
        in_class = {id(f) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) for f in cls.body
                    if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            (methods if id(node) in in_class else functions).add(node.name)
    return functions, methods


def referenced(tree, strings=False):
    """(attributes, names) in `tree`: the names it reads as attributes
    (`x.name`) other than the CLI's parsed options (`args.name`), and
    with `strings` every string constant, which the benchmark's tracer
    passes to getattr; and its other Names and imported names."""
    attributes, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if getattr(node.value, "id", None) != "args":
                attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2]
                         for alias in node.names)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            attributes.add(node.value)
    return attributes, names


def caller_trees():
    """(tree, is benchmark) of the package's modules other than
    `__init__.py`, of the README's python blocks, and of the
    benchmark's modules."""
    trees = [(ast.parse(path.read_text()), False)
             for path in PACKAGE.rglob("*.py")
             if path.name != "__init__.py" or path.parent != PACKAGE]
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S):
        trees.append((ast.parse(block), False))
    trees += [(ast.parse(path.read_text()), True)
              for path in (ROOT / "perfbench").glob("*.py")]
    return trees


def callers():
    """(attributes, names) referenced by the caller trees; the
    benchmark's tracer looks its functions up by their names as
    strings."""
    attributes, names = set(), set()
    for tree, bench in caller_trees():
        a, n = referenced(tree, strings=bench)
        attributes |= a
        names |= n
    return attributes, names


def defaulted():
    """(function, parameter) -> the parameter's position among those a
    call passes (None if keyword-only), for every parameter with a
    default.  A method's position does not count `self`, and a class's
    `__init__` goes by the class's name."""
    out = {}
    for tree in modules():
        owner = {id(f): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for f in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            name = node.name
            positional = args.posonlyargs + args.args
            if id(node) in owner and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in node.decorator_list):
                positional = positional[1:]
                if name == "__init__":
                    name = owner[id(node)]
            first = len(positional) - len(args.defaults)
            for pos, arg in enumerate(positional[first:], first):
                out[name, arg.arg] = pos
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out[name, arg.arg] = None
    return out


def calls(trees):
    """(callee name, positional count, keyword names) of every call in
    `trees`; a call with *args or **kwargs passes everything (count
    None)."""
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords = {k.arg for k in node.keywords}
            starred = None in keywords or any(
                isinstance(a, ast.Starred) for a in node.args)
            yield name, None if starred else len(node.args), keywords


def passing(trees, params):
    """The members of `params` (defaulted()'s items) that some call in
    `trees` passes, and those that some call leaves out."""
    passed, left_out = set(), set()
    by_func = {}
    for (func, param), pos in params.items():
        by_func.setdefault(func, []).append((param, pos))
    for func, count, keywords in calls(trees):
        for param, pos in by_func.get(func, ()):
            if count is None or param in keywords or (
                    pos is not None and pos < count):
                passed.add(f"{func}.{param}")
            else:
                left_out.add(f"{func}.{param}")
    return passed, left_out


def test_every_export_has_a_caller():
    """Exported names and functions, methods and classes alike: a
    helper left behind by a change fails here.  A method counts as
    called only where something reads it as an attribute, so a local
    variable of the same name does not hide it."""
    functions, methods = defined()
    attributes, names = callers()
    uncalled = ((exported() | functions) - attributes - names
                | methods - attributes)
    assert sorted(uncalled - set(KEPT)) == []
    # a kept name that gains a caller or is no longer defined leaves KEPT
    assert sorted(set(KEPT) - uncalled) == []


def test_every_default_is_set_by_a_caller():
    """A parameter with a default that only tests set is an option no
    command uses: the caller can do the work itself, or the default is
    the one value.  A default that every call, tests included, overrides
    is dead code."""
    params = defaulted()
    names = {f"{func}.{param}" for func, param in params}
    outside = [tree for tree, _ in caller_trees()]
    passed, _ = passing(outside, params)
    unset = names - passed
    assert sorted(unset - set(KEPT_PARAMETERS)) == []
    assert sorted(set(KEPT_PARAMETERS) - unset) == []
    tests = [ast.parse(path.read_text())
             for path in (ROOT / "tests").glob("*.py")]
    _, left_out = passing(outside + tests, params)
    assert sorted(names - left_out) == []
