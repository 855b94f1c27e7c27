"""Source hygiene of the package, checked with the standard library's ast:
no module imports a name it never uses, no module-level private function,
class or constant goes unreferenced, no exception message is raised in two
places, no module constant is compared in two functions, no function takes a
parameter whose name starts with an underscore (a hook for tests), no module
uses numpy.random (mesh seeding draws numpy's stream itself, so no run pays
that import), and the test oracles evaluate no semivariogram with the code
they check and never import the mesh module."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dsmkit"
ORACLES = Path(__file__).resolve().parent / "_oracles.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree: ast.Module) -> dict:
    """Name bound by each import of the module -> line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _names(tree: ast.Module) -> set:
    """Names read or written as variables anywhere in the module."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = _names(tree)
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in _imported(tree).items()
        if name not in used
    ]
    assert unused == []


def _referenced(trees) -> set:
    """Names the modules read: as variables, as attributes or by import."""
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return referenced


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _unread_private_constants(trees: dict) -> list:
    """Every module-level private name bound by an assignment that no
    module reads, as "module:line name"."""
    referenced = _referenced(trees.values())
    return [
        f"{name}:{node.lineno} {target.id}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and _private(target.id)
        and target.id not in referenced
    ]


def test_every_private_function_and_class_is_referenced():
    trees = {path: _tree(path) for path in sorted(SRC.glob("*.py"))}
    referenced = _referenced(trees.values())
    unreferenced = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and _private(node.name)
        and node.name not in referenced
    ]
    assert unreferenced == []


def test_unread_private_constant_check_sees_one():
    tree = ast.parse("_A = 1\n_B: int = 2\n_C = 3\n__all__ = []\nx = _C + other._B\n")
    assert _unread_private_constants({"m": tree}) == ["m:1 _A"]


def test_every_private_constant_is_read():
    trees = {path.name: _tree(path) for path in sorted(SRC.glob("*.py"))}
    assert _unread_private_constants(trees) == []


def _message_text(node: ast.expr) -> str | None:
    """The constant text of an exception message: a string literal, or an
    f-string's literal parts with {} for each field; None for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def _repeated_raise_messages(trees: dict) -> list:
    """Every constant message text that more than one raise statement
    gives its exception as the first argument, as "text at module:line,
    ..."; a text of fields alone is no rule and is left out."""
    places = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                text = _message_text(node.exc.args[0])
                if text and text.replace("{}", "").strip():
                    places.setdefault(text, []).append(f"{name}:{node.lineno}")
    return [f"{text!r} at {', '.join(at)}" for text, at in places.items() if len(at) > 1]


def test_repeated_raise_message_check_sees_one():
    trees = {
        "a": ast.parse('raise E(f"seed {s} bad")\nraise E("plain")\nraise E(f"{x}")\n'),
        "b": ast.parse(
            'if x:\n    raise F(f"seed {t} bad") from None\nraise E(msg)\nraise E(f"{y}")\n'
        ),
    }
    assert _repeated_raise_messages(trees) == ["'seed {} bad' at a:1, b:2"]


def test_every_raise_message_is_written_once():
    # a message raised in two places is a rule written twice: the copies
    # can drift apart, so each rule lives in one function that callers call
    trees = {path.name: _tree(path) for path in sorted(SRC.glob("*.py"))}
    assert _repeated_raise_messages(trees) == []


_ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _module_constants(trees) -> set:
    """The UPPER_CASE names the modules bind at module level."""
    return {
        target.id
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
    }


def _constants_compared_twice(trees: dict) -> list:
    """Every module constant that an ordering or equality comparison (<,
    <=, >, >=, ==, !=) reads in more than one function, as "NAME in
    module:function, ..."; membership tests (in, not in) are left out, and
    code outside any function counts as the function <module>."""
    constants = _module_constants(trees.values())
    places = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{where.split(':')[0]}:{child.name}"
            elif isinstance(child, ast.Compare) and any(
                isinstance(op, _ORDERINGS) for op in child.ops
            ):
                for sub in ast.walk(child):
                    name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                    if name in constants:
                        places.setdefault(name, {})[where] = None
            visit(child, inner)

    for module, tree in trees.items():
        visit(tree, f"{module}:<module>")
    return [f"{name} in {', '.join(at)}" for name, at in sorted(places.items()) if len(at) > 1]


def test_constant_comparison_check_sees_one():
    trees = {
        "a": ast.parse(
            "LIMIT = 1\n_TOL = 2.0\nKINDS = ()\n"
            "def f(x):\n    return x < LIMIT or x > 2 * LIMIT\n"
            "def g(x):\n    return x in KINDS and abs(x) >= _TOL\n"
        ),
        "b": ast.parse(
            "from a import LIMIT, KINDS\n"
            "def h(x):\n    return -LIMIT <= x\n"
            "def k(x):\n    return x not in KINDS or x == Other.KINDS\n"
        ),
    }
    assert _constants_compared_twice(trees) == ["LIMIT in a:f, b:h"]


def test_every_limit_constant_is_compared_in_one_function():
    # a limit compared in two functions is a rule written twice: the
    # function that owns the rule compares it, and every other site calls
    # that function
    trees = {path.name: _tree(path) for path in sorted(SRC.glob("*.py"))}
    assert _constants_compared_twice(trees) == []


def _underscore_parameters(tree: ast.Module) -> list:
    """Every parameter of a function or lambda whose name starts with an
    underscore, as "line function parameter"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            every = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
            name = getattr(node, "name", "lambda")
            found += [f"{node.lineno} {name} {a.arg}" for a in every if a and a.arg.startswith("_")]
    return found


def test_underscore_parameter_check_sees_every_form():
    tree = ast.parse(
        "def f(a, _b=None, *_c, _d, **_e): pass\n"
        "def g(_h, /): pass\n"
        "k = lambda _m: _m\n"
        "def n(p, *q, r, **s): pass\n"
    )
    assert _underscore_parameters(tree) == [
        "1 f _b", "1 f _c", "1 f _d", "1 f _e", "2 g _h", "3 lambda _m"
    ]


def test_no_function_takes_an_underscore_parameter():
    # a parameter only tests pass (an insertion order, say) keeps code alive
    # that no caller of the package reaches
    found = [
        f"{path.name}:{entry}"
        for path in MODULES
        for entry in _underscore_parameters(_tree(path))
    ]
    assert found == []


def _numpy_random_uses(tree: ast.Module) -> list:
    """Line numbers of every `np.random` / `numpy.random` attribute and of
    every import of numpy.random or of a name from it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module.startswith("numpy.random") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names)
            )
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nrng = np.random.default_rng(1)",
        "import numpy\nnumpy.random.seed(1)",
        "import numpy.random",
        "from numpy.random import default_rng",
        "from numpy import random",
    ],
)
def test_numpy_random_check_sees_every_form(source):
    assert _numpy_random_uses(ast.parse(source)) != []


def test_no_module_uses_numpy_random():
    uses = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _numpy_random_uses(_tree(path))
    ]
    assert uses == []


def _module_imports(tree: ast.Module, module: str) -> list:
    """Every name the tree imports from dsmkit.<module>, the module itself
    included, as "line name"."""
    full = f"dsmkit.{module}"
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [f"{node.lineno} {a.name}" for a in node.names if a.name == full]
        elif isinstance(node, ast.ImportFrom) and node.module == full:
            names += [f"{node.lineno} {a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "dsmkit":
            names += [f"{node.lineno} {a.name}" for a in node.names if a.name == module]
    return names


def test_module_import_check_sees_every_form():
    tree = ast.parse(
        "import dsmkit.mesh\nfrom dsmkit.mesh import TriMesh\nfrom dsmkit import mesh, delaunay"
    )
    assert _module_imports(tree, "mesh") == ["1 dsmkit.mesh", "2 TriMesh", "3 mesh"]


def test_oracles_take_only_the_model_type_from_the_variogram_module():
    # the oracles write the semivariogram out themselves, so a wrong shape
    # in dsmkit.variogram cannot pass the tests that compare against them
    imported = _module_imports(_tree(ORACLES), "variogram")
    assert [name for name in imported if not name.endswith(" VariogramModel")] == []


def test_oracles_never_import_the_mesh_module():
    # the smoothing, quality and neighbour oracles work on arrays of their
    # own, so a change to dsmkit.mesh cannot pass the tests that compare
    # against them
    assert _module_imports(_tree(ORACLES), "mesh") == []
