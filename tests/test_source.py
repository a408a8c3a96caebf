import ast
import inspect
import subprocess
import sys
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
    found, checked = [], set()
    for name in congcount.__all__:
        obj = getattr(congcount, name)
        # a class is checked through its __init__ and its __new__, which the named-tuple records
        # define instead; one inherited from a builtin is no Python function and has none to check
        for fn in (obj.__init__, obj.__new__) if isinstance(obj, type) else (obj,):
            if inspect.isfunction(fn):
                checked.add(name)
                params = inspect.signature(fn).parameters
                found += [f"{name}({p})" for p in params if p in ("cap", "budget")]
    assert {"CongruenceInstance", "ConditionReport", "GraphCountTable"} <= checked
    assert found == []


def test_graph_table_is_plain_data():
    """A graph table is read through its dicts alone: three fields, nothing else in the class body."""
    table_class = congcount.GraphCountTable
    assert table_class._fields == ("k_max", "gprime", "g")
    tree = ast.parse(inspect.getsource(table_class))
    # only the docstring (an expression) and __slots__ = (): no def, property or other assignment
    body = tree.body[0].body
    extra = [
        getattr(node, "name", ast.unparse(node))
        for node in body
        if not isinstance(node, ast.Expr) and ast.unparse(node) != "__slots__ = ()"
    ]
    assert extra == []


def test_cli_start_up_skips_introspection_modules():
    """A fresh `import congcount.cli` loads neither dataclasses nor typing, nor what they import.

    -I ignores PYTHONPATH and -S skips site, whose .pth files may load typing themselves.
    """
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import congcount.cli; print(*sorted(set(sys.modules) - before))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(PACKAGE_DIR.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(done.stdout.split())
    assert "congcount.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"} == set()


def test_cli_writes_json_without_the_json_module():
    """A fresh `import congcount.cli` and one `check --json --no-timing` call load no json module."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import congcount.cli; "
        "congcount.cli.main(['check', '--n', '6', '--coeffs', '2,4', '--json', '--no-timing']); "
        "print(*sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(PACKAGE_DIR.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == (
        '{"inputs": {"n": "6", "coeffs": ["2", "4"]}, '
        '"report": {"holds": false, "failing_subset": [1], "full_sum_gcd": "6"}}\n'
    )
    loaded = set(done.stderr.split())
    assert "congcount.cli" in loaded
    assert [name for name in loaded if name.lstrip("_").split(".")[0] == "json"] == []


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
        "_two_class_partition_sum",
        "_class_partition_sum",
        "_class_plan",
        "_edge_subset_signs",
        "check_condition",
        "distinct_count_formula",
    }
    tree = ast.parse(inspect.getsource(congcount.oracle.brute_force_distinct))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "TUPLE_BUDGET" in named  # the walk saw the body
    assert named & others == set()


def test_oracle_module_factors_nothing():
    """iep_partitions expands over the gcd-closure of the subset sums, so the oracles need no prime."""
    tree = ast.parse(inspect.getsource(congcount.oracle))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    named |= {alias.name for node in imports for alias in node.names}
    assert "PARTITION_STEP_BUDGET" in named  # the walk saw the bodies
    assert named & {"factor_partially", "factorize", "is_prime"} == set()


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


def test_one_function_accumulates_series_products():
    """series.py writes the truncated product once, and only the grid product and bivar_log call it.

    Accumulating means an augmented assignment to a subscript inside a for loop.
    """
    tree = ast.parse(inspect.getsource(congcount.series))
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    accumulating = [
        fn.name
        for fn in functions
        if any(
            isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript)
            for loop in ast.walk(fn)
            if isinstance(loop, ast.For)
            for node in ast.walk(loop)
        )
    ]
    callers = [
        fn.name
        for fn in functions
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_add_product"
    ]
    assert accumulating == ["_add_product"]
    assert callers == ["_mul", "bivar_log"]


def _calls_outside_comprehensions(node):
    """Names of the methods called in node's subtree, skipping comprehensions and generators."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            yield child.func.attr
        yield from _calls_outside_comprehensions(child)


def test_one_function_packs_graph_rows_and_one_unpacks_them():
    """graphenum convolves rows only as packed integers, packed in one function and unpacked in one.

    Packing makes one int of a whole row's bytes (int.from_bytes outside any
    comprehension); unpacking makes one bytes object of a whole packed int
    (.to_bytes outside any comprehension).  A list convolution writes
    coefficients into a list inside a for loop, which no function may do.
    """
    tree = ast.parse(inspect.getsource(congcount.graphenum))
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    calls = {fn.name: set(_calls_outside_comprehensions(fn)) for fn in functions}
    packers = [name for name, called in calls.items() if "from_bytes" in called]
    unpackers = [name for name, called in calls.items() if "to_bytes" in called]
    list_writers = [
        fn.name
        for fn in functions
        if any(
            isinstance(target, ast.Subscript)
            for loop in ast.walk(fn)
            if isinstance(loop, ast.For)
            for node in ast.walk(loop)
            for target in getattr(node, "targets", [getattr(node, "target", None)])
        )
    ]
    assert packers == ["_pack"]
    assert unpackers == ["_unpack"]
    assert list_writers == []


def test_one_function_builds_graph_rows_and_one_place_repacks_them():
    """graphenum's two tables come from one builder: it alone unpacks rows, reads the slot width and makes the table."""
    tree = ast.parse(inspect.getsource(congcount.graphenum))
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]

    def callers(callee):
        return [
            fn.name
            for fn in functions
            if fn.name != callee
            and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == callee
                for call in ast.walk(fn)
            )
        ]

    builders = callers("_unpack")
    assert len(builders) == 1
    assert callers("_slot_bytes") == builders
    assert callers("GraphCountTable") == builders
