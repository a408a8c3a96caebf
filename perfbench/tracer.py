"""Span tracer that wraps congcount's public functions from outside.

A function is wrapped wherever a congcount module binds it (cli.py, for
instance, imports check_condition by name), so every call site is seen
without touching the package.  Spans live in flat arrays: name id, parent
span index, start and end (perf_counter seconds).  Self time is a span's
duration minus the durations of its direct children.  Computed work counts
are taken from each call's arguments and result by per-function hooks.
"""

import json
from array import array
from math import comb
from time import perf_counter

import reference

# layer module -> its public functions that get a span
TRACED = {
    "cli": ("main",),
    "congruence": ("check_condition", "distinct_count_formula", "lehmer_count"),
    "oracle": ("pattern_count", "iep_edge_subsets", "iep_partitions", "brute_force_distinct"),
    "graphenum": ("connected_counts", "component_counts"),
    "series": (
        "series_log", "series_pow", "series_mul", "bivar_log", "bivar_pow",
        "bivar_mul", "deformed_exp_truncated", "deformed_exp_bivariate",
    ),
    "arith": ("gcd_many", "is_prime", "factorize", "euler_phi", "falling_factorial", "binomial"),
}

ROOT_SPAN = "call"


class Tracer:
    def __init__(self, package):
        self.modules = [package] + [getattr(package, m) for m in TRACED]
        self.names = [ROOT_SPAN]
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.computed = {}
        self.lehmer_terms = 0
        self.lehmer_nonzero = 0
        self._patches = []
        self._wrappers = {}
        for mod, funcs in TRACED.items():
            module = getattr(package, mod)
            for fn_name in funcs:
                original = getattr(module, fn_name)
                self._wrappers[original] = self._wrap(f"{mod}.{fn_name}", original)

    def _hook(self, name):
        return {
            "congruence.check_condition": self._on_check,
            "congruence.lehmer_count": self._on_lehmer,
            "oracle.iep_partitions": self._on_partitions,
            "oracle.iep_edge_subsets": self._on_edge_subsets,
            "oracle.brute_force_distinct": self._on_brute,
            "graphenum.connected_counts": self._on_table,
            "graphenum.component_counts": self._on_table,
        }.get(name)

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = self._hook(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack
        )

        def traced(*args, **kwargs):
            idx = len(name_of)
            up = stack[-1]
            name_of.append(name_id)
            parent.append(up)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(args, result, up)
            return result

        return traced

    # --- computed work counts, from arguments and results -----------------

    def _add(self, key, value):
        self.computed[key] = self.computed.get(key, 0) + value

    def _on_check(self, args, report, parent):
        self._add("congruence.check_condition.subsets_scanned",
                  reference.subsets_before(args[0].k, report.failing_subset))

    def _on_lehmer(self, args, result, parent):
        if parent >= 0 and self.names[self.name_of[parent]] == "oracle.iep_partitions":
            self.lehmer_terms += 1
            self.lehmer_nonzero += result != 0

    def _on_partitions(self, args, result, parent):
        self._add("oracle.iep_partitions.terms", reference.bell(args[0].k))

    def _on_edge_subsets(self, args, result, parent):
        self._add("oracle.iep_edge_subsets.terms", 2 ** comb(args[0].k, 2))

    def _on_brute(self, args, result, parent):
        inst = args[0]
        self._add("oracle.brute_force_distinct.tuples", reference.falling(inst.n, inst.k))

    def _on_table(self, args, table, parent):
        self._add("graphenum.table_entries", len(table.gprime) + len(table.g))

    # --- installing and recording ------------------------------------------

    def install(self):
        for module in self.modules:
            for attr, value in vars(module).items():
                if callable(value) and value in self._wrappers:
                    self._patches.append((module, attr, value))
        for module, attr, value in self._patches:
            setattr(module, attr, self._wrappers[value])

    def uninstall(self):
        for module, attr, value in self._patches:
            setattr(module, attr, value)
        self._patches.clear()

    def root(self):
        """Open a root span for one front-end call; returns its closer."""
        idx = len(self.name_of)
        self.name_of.append(0)
        self.parent.append(-1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)

        def close():
            self.stack.pop()
            self.end[idx] = perf_counter()

        return close

    # --- results ------------------------------------------------------------

    def summary(self):
        """Per span name: call count and self ms."""
        n = len(self.name_of)
        child = array("d", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            up = parent[i]
            if up >= 0:
                child[up] += end[i] - start[i]
        out = {name: {"calls": 0, "self_ms": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["self_ms"] += (end[i] - start[i] - child[i]) * 1000
        return out

    def write(self, path, meta):
        """Write every span: one JSON header line, then the four raw arrays."""
        header = dict(meta, names=self.names, spans=len(self.name_of),
                      arrays=[["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
