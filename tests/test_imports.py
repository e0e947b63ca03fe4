"""Every module-level import in a prunemip module is used by that module.

No linter ships with the project, so this walks the source with the
standard-library ast module. __init__.py is exempt: its imports are the
package's re-exports.
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
