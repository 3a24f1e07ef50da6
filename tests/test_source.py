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
