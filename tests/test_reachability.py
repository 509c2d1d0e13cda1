"""Every def and class under src/ is reachable from a CLI command.

The source is parsed with ``ast``; nothing is imported or run.  Names are
followed from ``cli.main``, ``cli._HANDLERS`` and every module-level
statement:

* a bare name resolves to an enclosing function's local def, the module's
  own top-level def or class, or the def a ``from ... import`` binds it to;
* ``module.name``, for a module bound by an import, resolves to that
  module's top-level def;
* any other attribute ``x.name`` reaches every method or nested class
  called ``name`` of a reached class;
* a reached class reaches its dunder methods, which Python calls itself.

Annotations are not followed: with ``from __future__ import annotations``
they are never evaluated.  A definition that only tests reach fails here;
delete it, or move it into tests/helpers.py when a test needs it.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradeddiv"


class _Def:
    def __init__(self, module: str, qualname: str, node, scope, owner):
        self.module = module
        self.qualname = qualname
        self.node = node
        self.scope = scope  # innermost enclosing function _Def, or None
        self.owner = owner  # enclosing class _Def for methods, else None
        self.local: dict[str, _Def] = {}  # defs nested directly in a function body


def _is_annotation(parent, child) -> bool:
    if isinstance(parent, ast.arg) and child is parent.annotation:
        return True
    if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)) and child is parent.returns:
        return True
    return isinstance(parent, ast.AnnAssign) and child is parent.annotation


def _heads(node) -> list:
    """What a def or class statement evaluates where it stands: decorators,
    and default values or base classes."""
    heads = list(node.decorator_list)
    if isinstance(node, ast.ClassDef):
        return heads + node.bases + [k.value for k in node.keywords]
    return heads + node.args.defaults + [d for d in node.args.kw_defaults if d is not None]


def _uses(stmts):
    """Name ids and (base, attr) pairs in stmts, not entering nested defs or annotations."""
    names, attrs = set(), set()
    stack = [(None, s) for s in stmts]
    while stack:
        parent, node = stack.pop()
        if _is_annotation(parent, node):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend((node, h) for h in _heads(node))
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            attrs.add((base, node.attr))
        stack.extend((node, c) for c in ast.iter_child_nodes(node))
    return names, attrs


class _Package:
    def __init__(self, root: Path):
        self.defs: list[_Def] = []
        self.top: dict[str, dict[str, _Def]] = {}  # module -> name -> top-level def
        self.imports: dict[str, dict[str, tuple[str, str | None]]] = {}  # bound name -> (module, name)
        self.module_stmts: dict[str, list] = {}
        for path in sorted(root.glob("*.py")):
            module = path.stem
            tree = ast.parse(path.read_text(encoding="utf-8"))
            self.top[module] = {}
            self.imports[module] = {}
            self.module_stmts[module] = []
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    self.top[module][stmt.name] = self._collect(module, stmt, stmt.name, None, None)
                else:
                    self.module_stmts[module].append(stmt)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        bound = alias.asname or alias.name
                        if node.module is None:
                            self.imports[module][bound] = (alias.name, None)
                        else:
                            self.imports[module][bound] = (node.module, alias.name)

    def _collect(self, module, node, qualname, scope, owner) -> _Def:
        d = _Def(module, qualname, node, scope, owner)
        self.defs.append(d)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualname}.{stmt.name}"
                if isinstance(node, ast.ClassDef):
                    self._collect(module, stmt, name, scope, d)
                else:
                    d.local[stmt.name] = self._collect(module, stmt, name, d, None)
        return d

    def resolve_name(self, module: str, scope: _Def | None, name: str) -> _Def | None:
        while scope is not None:
            if name in scope.local:
                return scope.local[name]
            scope = scope.scope
        if name in self.top[module]:
            return self.top[module][name]
        target = self.imports[module].get(name)
        if target is not None and target[1] is not None and target[0] in self.top:
            return self.resolve_name(target[0], None, target[1])
        return None

    def reachable(self, roots: list[_Def]) -> set[int]:
        reached: set[int] = set()
        attr_names: set[str] = set()
        pending = list(roots)
        for module, stmts in self.module_stmts.items():
            pending += self._targets(module, None, stmts, attr_names)
        while True:
            while pending:
                d = pending.pop()
                if id(d) in reached:
                    continue
                reached.add(id(d))
                scope = d.scope if isinstance(d.node, ast.ClassDef) else d
                pending += self._targets(d.module, scope, d.node.body + _heads(d.node), attr_names)
            # methods: dunders of reached classes, and any method named by an attribute
            more = [
                d
                for d in self.defs
                if d.owner is not None
                and id(d.owner) in reached
                and id(d) not in reached
                and (d.node.name in attr_names or (d.node.name.startswith("__") and d.node.name.endswith("__")))
            ]
            if not more:
                return reached
            pending = more

    def _targets(self, module, scope, stmts, attr_names: set[str]) -> list[_Def]:
        names, attrs = _uses(stmts)
        out = [d for n in names if (d := self.resolve_name(module, scope, n)) is not None]
        for base, attr in attrs:
            bound = self.imports[module].get(base) if base is not None else None
            if bound is not None and bound[1] is None and bound[0] in self.top:
                if attr in self.top[bound[0]]:
                    out.append(self.top[bound[0]][attr])
            else:
                attr_names.add(attr)
        return out


def test_every_definition_is_reached_from_the_cli():
    pkg = _Package(PACKAGE)
    assert {"cli", "gradedalg", "realclass"} <= set(pkg.top)
    reached = pkg.reachable([pkg.top["cli"]["main"]])
    missing = sorted(f"{d.module}.{d.qualname}" for d in pkg.defs if id(d) not in reached)
    assert missing == []


def test_the_walk_follows_handlers_and_misses_an_unused_def(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .lib import run\n"
        "from . import util\n"
        "def _cmd(args):\n"
        "    def local():\n"
        "        return util.helper()\n"
        "    return run(local())\n"
        "_HANDLERS = {'x': _cmd}\n"
        "def main():\n"
        "    return _HANDLERS['x'](None)\n"
    )
    (tmp_path / "lib.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.v = 1\n"
        "    def used(self):\n"
        "        return self.v\n"
        "    def unused(self):\n"
        "        return 0\n"
        "def run(x):\n"
        "    return Box().used()\n"
        "def orphan(x: Box) -> Box:\n"
        "    return x\n"
    )
    (tmp_path / "util.py").write_text("def helper():\n    return 1\ndef spare():\n    return 2\n")
    pkg = _Package(tmp_path)
    reached = pkg.reachable([pkg.top["cli"]["main"]])
    missing = sorted(f"{d.module}.{d.qualname}" for d in pkg.defs if id(d) not in reached)
    assert missing == ["lib.Box.unused", "lib.orphan", "util.spare"]
