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
    """Methods are dispatched by methods.distinct_count alone, so no second list grows in cli.py."""
    imported = []
    for node in ast.walk(ast.parse((PACKAGE_DIR / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if name.rsplit(".", 1)[-1] == "oracle"] == []


def test_modules_import_downward_only():
    """The package's relative imports, deferred ones in functions too, form no cycle."""
    modules = {path.stem for path in PACKAGE_DIR.glob("*.py")}
    imports = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                # "from .m import x" imports m; "from . import m" imports each module named
                names = [node.module] if node.module else [alias.name for alias in node.names]
                targets |= {name.split(".")[0] for name in names} & modules
        imports[path.stem] = sorted(targets)

    def cycle_from(module, path):
        if module in path:
            return path[path.index(module) :] + [module]
        for target in imports[module]:
            found = cycle_from(target, path + [module])
            if found:
                return found
        return None

    cycle = next(filter(None, (cycle_from(module, []) for module in sorted(imports))), None)
    assert cycle is None, " → ".join(cycle)


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
        "_merged_count",
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


def test_work_counts_are_recorded_one_way():
    """Only the five public counters take stats, each makes it a dict once, and helpers return counts."""
    counters = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and "stats" in [a.arg for a in node.args.args]:
                counters[node.name] = node
    assert set(counters) == {
        "brute_force_distinct", "iep_edge_subsets", "iep_partitions",
        "connected_counts", "component_counts",
    }
    for name, node in counters.items():
        # the first statement after the docstring, and no other test of stats against None
        assert ast.unparse(node.body[1]) == "stats = {} if stats is None else stats", name
        tests = [
            ast.unparse(cmp) for cmp in ast.walk(node)
            if isinstance(cmp, ast.Compare) and ast.unparse(cmp.left) == "stats"
        ]
        assert tests == ["stats is None"], name


def test_one_function_counts_a_merged_congruence():
    """The oracle module merges a partition's blocks in one helper, its only lehmer_count caller."""
    tree = ast.parse(inspect.getsource(congcount.oracle))
    callers = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "lehmer_count"
    ]
    assert callers == ["_merged_count"]
