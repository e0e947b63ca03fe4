"""Import hygiene of the prunemip modules.

Every module-level import in a module is used by that module (__init__.py is
exempt: its imports are the package's re-exports). The intra-package
`from .x import y` edges, at module level and inside functions, name no
other module's private member and form no cycle. No module holds an
`assert` statement, which `python -O` strips.

No linter ships with the project, so this walks the source with the
standard-library ast module.
"""

import ast
from pathlib import Path

import prunemip

PACKAGE = Path(prunemip.__file__).resolve().parent


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_module_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for p in modules for u in unused_imports(p)] == []


def test_detector_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport numpy as np\nfrom math import pi, tau\n\nx = np.ones(2) * tau\n")
    assert unused_imports(src) == ["mod.py:1: os", "mod.py:3: pi"]


def assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [a for p in modules for a in assert_statements(p)] == []


def test_detector_flags_an_assert(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n")
    assert assert_statements(src) == ["mod.py:3"]


def package_imports(path):
    """(module, name) of every `from .module import name` in the file, at any depth;
    `from . import name` reads from __init__."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module or "__init__", alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def import_cycle(graph):
    """One cycle of the module graph {module: imported modules} as
    [a, b, ..., a], or None."""
    done, path = set(), []

    def visit(mod):
        if mod in path:
            return path[path.index(mod):] + [mod]
        if mod in done:
            return None
        path.append(mod)
        for target in sorted(graph.get(mod, ())):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(mod)
        return None

    return next(filter(None, map(visit, sorted(graph))), None)


def test_package_imports_name_no_private_member_and_form_no_cycle():
    edges = {p.stem: package_imports(p) for p in PACKAGE.glob("*.py")}
    assert edges["encode"]  # the walk finds the edges, obbt_tighten's lazy one too
    assert ("lp", "solve_lp") in edges["encode"]
    private = [f"{mod} -> {target}.{name}" for mod, pairs in edges.items()
               for target, name in pairs if name.startswith("_") and not name.endswith("__")]
    assert private == []
    assert import_cycle({mod: {target for target, _ in pairs}
                         for mod, pairs in edges.items()}) is None


def test_graph_checks_flag_function_level_edges_and_cycles(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from . import __version__\nfrom .a import b as c\n\n"
                   "def f():\n    from .d import _e\n")
    assert package_imports(src) == [("__init__", "__version__"), ("a", "b"), ("d", "_e")]
    assert import_cycle({"x": {"a"}, "a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert import_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
