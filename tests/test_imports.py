"""Module boundaries: no specwin module imports another one's private names
or reaches into another object's private attributes."""
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


def _is_private(name: str) -> bool:
    """``_name``, but not a dunder (``__dict__``) or a sunder (``_value_``)."""
    return name.startswith("_") and not name.endswith("_")


def private_attributes(path: Path) -> list[str]:
    """``x._name`` accesses on anything but ``self`` or ``cls``, as text."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Attribute) or not _is_private(node.attr):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
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


def test_no_private_attribute_access():
    files = sorted(SRC.glob("*.py"))
    bad = [hit for path in files for hit in private_attributes(path)]
    assert bad == []


def test_detects_a_private_attribute(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "g._cache = {}\n"
        "x = g.axis._coord(1)\n"
        "y = self._ok + cls._ok + g.__dict__ + Side.NORTH._value_ + g.public\n"
    )
    assert private_attributes(path) == [
        "mod.py:1 g._cache",
        "mod.py:2 g.axis._coord",
    ]
