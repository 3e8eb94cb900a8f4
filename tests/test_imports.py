"""Module boundaries: no specwin module imports another one's private names
or reaches into another object's private attributes or ``__dict__``, every
function, method and class specwin defines is used by specwin, and every
name a specwin module assigns at top level is read by specwin."""
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


# Names that specwin itself no longer uses but specbench/tracing.py still
# names, each with what the tracer does with it.
TRACED_ONLY = {
    "ExactCapExceeded": "caught around decode, to time exact work thrown away",
    "source_faces": "wrapped to count face scans",
    "sink_faces": "wrapped to count face scans",
    "incidence": "wrapped as the decoding_graph.incidence layer",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_definitions(paths) -> list[str]:
    """Functions, methods and classes defined in ``paths`` whose name is
    used nowhere in ``paths`` outside its own definition, then names a
    module of ``paths`` assigns at top level that nothing in ``paths``
    reads, as text.

    A use of a definition is a name, an attribute, an imported name or a
    string constant (``__all__`` lists names as strings); a read of an
    assigned name is a name or attribute loaded.  Dunders are left out:
    Python calls and reads them itself.
    """
    defs, uses, assigned, reads = [], [], [], set()
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def visit(node, path, enclosing):
        if isinstance(node, kinds):
            defs.append((path, node))
            enclosing = enclosing | {node}
        if isinstance(node, ast.Name):
            uses.append((node.id, enclosing))
            if isinstance(node.ctx, ast.Load):
                reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, enclosing))
            if isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
        elif isinstance(node, ast.alias):
            uses.append((node.name, enclosing))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses.append((node.value, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, path, enclosing)

    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        visit(tree, path, frozenset())
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                assigned += [(path, n) for n in ast.walk(target) if isinstance(n, ast.Name)]
    found = []
    for path, node in defs:
        name = node.name
        if _is_dunder(name):
            continue
        if not any(used == name and node not in where for used, where in uses):
            found.append(f"{path.name}:{node.lineno} {name}")
    for path, node in assigned:
        if not _is_dunder(node.id) and node.id not in reads:
            found.append(f"{path.name}:{node.lineno} {node.id}")
    return found


def test_no_dead_definitions():
    files = sorted(SRC.glob("*.py"))
    dead = unreferenced_definitions(files)
    assert sorted(hit.split()[-1] for hit in dead) == sorted(TRACED_ONLY)
    tracer = (SRC.parents[1] / "specbench" / "tracing.py").read_text()
    assert [name for name in TRACED_ONLY if name not in tracer] == []


def test_detects_a_dead_definition(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        '__all__ = ["public"]\n'
        "def public(): return _used()\n"
        "def _used(): return 1\n"
        "def _recursive(n): return _recursive(n - 1) if n else 0\n"
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    def method(self): return self.method\n"
        "    def called(self): return 2\n"
        "Box().called()\n"
        "_READ, _UNREAD = 1, 2\n"
        "_WRITTEN: int = _READ\n"
        "_WRITTEN += 1\n"
        "_NAMED_ONLY = 3\n"
        '_ALSO_NAMED_ONLY = "_NAMED_ONLY"\n'
    )
    assert unreferenced_definitions([path]) == [
        "mod.py:4 _recursive",
        "mod.py:7 method",
        "mod.py:10 _UNREAD",
        "mod.py:11 _WRITTEN",
        "mod.py:12 _WRITTEN",
        "mod.py:13 _NAMED_ONLY",
        "mod.py:14 _ALSO_NAMED_ONLY",
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
