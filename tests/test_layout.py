"""What the library holds: only code that a command runs."""
import ast
import os

import pgsosp

SRC = os.path.dirname(pgsosp.__file__)


def _module_nodes(path):
    """{name: AST node} of a module's top-level defs, classes and
    assignments, dunders left out."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    nodes = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                nodes[name] = stmt
    return nodes


def _identifiers(node):
    """Every ast.Name id and ast.Attribute attr inside node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_module_name_is_reached_from_the_cli():
    # Nodes are (module, name); an identifier inside a node links it to
    # every node of that name, in any module, so the walk errs towards
    # reaching too much, never too little.  Methods are class members, not
    # nodes: a reached class keeps all of them, so the per-query family
    # methods, which perfbench's tracer wraps by name (`METHODS`), are not
    # judged here.
    nodes = {}
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            module = filename[:-3]
            for name, node in _module_nodes(os.path.join(SRC, filename)).items():
                nodes[module, name] = node
    by_name = {}
    for key in nodes:
        by_name.setdefault(key[1], []).append(key)

    reached, stack = set(), [("cli", "main")]
    while stack:
        key = stack.pop()
        if key in reached:
            continue
        reached.add(key)
        for ident in set(_identifiers(nodes[key])):
            stack.extend(by_name.get(ident, ()))
    unreached = sorted(f"{module}.{name}" for module, name in set(nodes) - reached)
    assert not unreached, f"no command reaches: {unreached}"
