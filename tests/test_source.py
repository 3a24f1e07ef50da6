import ast
from pathlib import Path

import carryideals

PACKAGE = Path(carryideals.__file__).parent


def _nodes():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def _name(node):
    # the last component of a name or attribute: lru_cache, functools.cache
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def test_no_assert_in_library():
    # assert is stripped under python -O; internal checks must raise
    # something other than AssertionError
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Assert):
            found.append(f"{name}:{node.lineno}")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _name(exc) == "AssertionError":
                found.append(f"{name}:{node.lineno}")
    assert not found, found


def test_no_unused_imports():
    # a deleted route must take its imports with it; __init__.py imports in
    # order to re-export, so it is exempt
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert not found, found


def test_no_unbounded_cache():
    # every cache needs an explicit finite maxsize: an unbounded one grows for
    # the life of the process
    found = []
    for name, node in _nodes():
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call):
                target = _name(deco.func)
                maxsize = [kw.value for kw in deco.keywords if kw.arg == "maxsize"]
                maxsize += deco.args[:1]
                bad = target == "cache" or (
                    target == "lru_cache"
                    and (
                        not maxsize
                        or (isinstance(maxsize[0], ast.Constant) and maxsize[0].value is None)
                    )
                )
            else:
                bad = _name(deco) in ("cache", "lru_cache")
            if bad:
                found.append(f"{name}:{node.lineno} {node.name}")
    assert not found, found


def test_no_test_only_library_code():
    # a public function or class that no library module refers to and the
    # package does not export serves only the tests: it belongs in
    # tests/oracles.py, or nowhere
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    referenced = {
        _name(node) for tree in trees.values() for node in ast.walk(tree)
    }
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced | exported
    ]
    assert not found, found


def test_no_private_imports_across_modules():
    # a module's _-prefixed names are its own; what another module needs goes
    # behind a public name, so a format known to two modules shows up here
    found = [
        f"{name}:{node.lineno} {alias.name}"
        for name, node in _nodes()
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "carryideals")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found, found
