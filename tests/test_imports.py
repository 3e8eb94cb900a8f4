"""Module boundaries: no specwin module imports another one's private names."""
import ast
from pathlib import Path

import specwin

SRC = Path(specwin.__file__).parent


def private_imports(path: Path) -> list[str]:
    """``from .x import _name`` imports in one source file, as text."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} from .{node.module} import {alias.name}")
    return found


def test_no_private_cross_module_imports():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    bad = [hit for path in files for hit in private_imports(path)]
    assert bad == []


def test_detects_a_private_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .windowing import Side, _hidden\nfrom os import _exit\n")
    assert private_imports(path) == ["mod.py:1 from .windowing import _hidden"]
