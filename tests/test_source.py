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


def test_cli_imports_nothing_from_the_oracle_module():
    """Methods are dispatched by congruence.distinct_count alone, so no second list grows in cli.py."""
    imported = []
    for node in ast.walk(ast.parse((PACKAGE_DIR / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if name.rsplit(".", 1)[-1] == "oracle"] == []
