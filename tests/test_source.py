import ast
from pathlib import Path

import carryideals

PACKAGE = Path(carryideals.__file__).parent


def test_no_assert_in_library():
    # assert is stripped under python -O; internal checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
