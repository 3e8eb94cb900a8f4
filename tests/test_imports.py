"""Module boundaries: no specwin module imports another one's private names
or reaches into another object's private attributes or ``__dict__``."""
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
    """``x._name`` and ``x.__dict__`` accesses on anything but ``self`` or
    ``cls``, as text."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Attribute):
            continue
        if not (_is_private(node.attr) or node.attr == "__dict__"):
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
        "y = self._ok + cls._ok + g.__doc__ + Side.NORTH._value_ + g.public\n"
    )
    assert private_attributes(path) == [
        "mod.py:1 g._cache",
        "mod.py:2 g.axis._coord",
    ]


def test_detects_a_foreign_dict(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        'cache = g.__dict__.setdefault("_cache", {})\n'
        "a = self.__dict__ | cls.__dict__ | vars(args)\n"
        "b = g.graph.__dict__\n"
    )
    assert sorted(private_attributes(path)) == [
        "mod.py:1 g.__dict__",
        "mod.py:3 g.graph.__dict__",
    ]
