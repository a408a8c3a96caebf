import ast
import dataclasses
import inspect
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


def test_no_public_callable_takes_a_cap():
    """Each resource cap is a module constant its counter reads when called, never a parameter."""
    found = []
    for name in congcount.__all__:
        obj = getattr(congcount, name)
        # a class is checked through its __init__; one inherited from a builtin has none to check
        fn = obj.__init__ if isinstance(obj, type) else obj
        if inspect.isfunction(fn):
            params = inspect.signature(fn).parameters
            found += [f"{name}({p})" for p in params if p in ("cap", "budget")]
    assert found == []


def test_graph_table_is_plain_data():
    """A graph table is read through its dicts alone: three fields, nothing else in the class body."""
    table_class = congcount.GraphCountTable
    assert [f.name for f in dataclasses.fields(table_class)] == ["k_max", "gprime", "g"]
    tree = ast.parse(inspect.getsource(table_class))
    # only the docstring (an expression) and annotated fields: no def, property or assignment
    body = tree.body[0].body
    extra = [
        getattr(node, "name", type(node).__name__)
        for node in body
        if not isinstance(node, (ast.AnnAssign, ast.Expr))
    ]
    assert extra == []


def test_brute_force_shares_no_code_with_the_other_counters():
    """brute_force_distinct is the ground truth the other routes are checked against, so it calls none of them."""
    others = {
        "lehmer_count",
        "pattern_count",
        "pattern_components",
        "iep_edge_subsets",
        "iep_partitions",
        "_partition_sum",
        "_edge_subset_signs",
        "check_condition",
        "distinct_count_formula",
    }
    tree = ast.parse(inspect.getsource(congcount.oracle.brute_force_distinct))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "TUPLE_BUDGET" in named  # the walk saw the body
    assert named & others == set()
