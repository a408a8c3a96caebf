import ast
from pathlib import Path

import congcount

PACKAGE_DIR = Path(congcount.__file__).parent


def test_package_has_no_assert_statements():
    """Invariant checks must raise explicitly: python -O strips assert statements."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
