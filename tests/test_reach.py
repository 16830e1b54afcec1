"""Every routine in src/rbmlab is reached from the package's entry points, or
is on the short list below of routines kept on purpose.

The walk follows calls.  Its roots are the code each module runs on import
(module-level statements such as harness._DISPATCH, and class bodies),
cli.main and the routines in _KEPT.  A module-level function or class, or
a method, is reached when a reached definition reads its name (as a name or
an attribute); the walk then follows the names that definition reads.  A
reached class reaches its dunder methods, which Python itself calls.  So a
cluster of dead routines that only call each other stays unreached.

Names are matched across the package, not resolved through imports: a read
of a same-named field or routine also counts, so the walk can still miss a
dead routine.  Calls from outside the package (tests, the benchmark) are
not seen; _KEPT is for those.
"""

import ast
from collections import defaultdict
from pathlib import Path

import rbmlab

# (module, name) of the routines the package's entry points do not reach, and why each stays
_KEPT = {
    # oracles that tests compare the production routes against
    ("graphs", "evaluate_brute"),  # enumeration oracle of evaluate
    ("propagators", "b_profile"),  # pointwise oracle of b_kernel
    ("sampler", "sample_gue"),  # dense GUE, oracle of gue_eigenvalues; the benchmark traces it
    ("stats", "random_trace_zero"),  # test diagonal of acceptance criterion 7
    # called by the benchmark's graph-eval workload
    ("propagators", "theta_circ_at"),
    # evaluate's work bound, the count the benchmark's evaluator metric should read
    ("graphs", "graph_cost"),
    # graph calculus of acceptance criterion 6, which asserts their orders and truth table
    ("graphs", "scaling_order"),
    ("graphs", "is_doubly_connected"),
}


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in Path(rbmlab.__file__).parent.glob("*.py")}


def _reads(nodes) -> set:
    """Names read in nodes: loaded names and attributes, not assignments."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _graph(trees):
    """(roots, defs): the names module-level code reads, and name ->
    [(module, names its definition reads)] for every module-level function
    and class and every method that is not a dunder.  A class reads its
    bases, decorators and body outside those methods, dunders included."""
    roots, defs = set(), defaultdict(list)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name].append((mod, _reads([node])))
            elif isinstance(node, ast.ClassDef):
                methods = [
                    m for m in node.body if isinstance(m, ast.FunctionDef) and not _is_dunder(m.name)
                ]
                rest = [s for s in node.body if s not in methods]
                defs[node.name].append(
                    (mod, _reads([*node.decorator_list, *node.bases, *node.keywords, *rest]))
                )
                for m in methods:
                    defs[m.name].append((mod, _reads([m])))
            else:
                roots |= _reads([node])
    return roots, defs


def _reached(defs, roots) -> set:
    """The names reached from roots by following what each definition reads."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(r for _, reads in defs.get(name, ()) for r in reads)
    return seen


def test_every_routine_is_reached_or_kept_on_purpose():
    roots, defs = _graph(_trees())
    roots.add("main")  # cli.main, the rbm entry point
    every = {(mod, name) for name, ds in defs.items() for mod, _ in ds}
    reached = _reached(defs, roots)
    unreached = {(mod, name) for mod, name in every if name not in reached}
    kept = _reached(defs, roots | {name for _, name in _KEPT})
    dead = {(mod, name) for mod, name in every if name not in kept}
    assert not dead, f"reached from no entry point nor _KEPT: wire in or delete {sorted(dead)}"
    assert not _KEPT - unreached, f"reached or gone, drop from _KEPT: {sorted(_KEPT - unreached)}"


def test_the_walk_follows_calls_not_mentions():
    # a dead pair that calls each other is unreached; a caller reached from a root reaches both
    tree = ast.parse(
        "def _a():\n    return _b()\n"
        "def _b():\n    return _a()\n"
        "class C:\n    def __len__(self):\n        return _c()\n    def m(self):\n        return _a()\n"
        "def _c():\n    return 0\n"
        "X = C\n"
    )
    roots, defs = _graph({"mod": tree})
    assert roots == {"C"}
    assert _reached(defs, roots) == {"C", "_c"}
    assert _reached(defs, roots | {"m"}) == {"C", "_c", "m", "_a", "_b"}


def test_only_harness_builds_stat_reports():
    # statistics return numbers; harness alone names, defines and counts metrics
    builders = {
        mod
        for mod, tree in _trees().items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and (getattr(n.func, "id", None) == "StatReport" or getattr(n.func, "attr", None) == "StatReport")
    }
    assert builders == {"harness"}, f"StatReport built outside harness: {sorted(builders - {'harness'})}"


def test_only_run_builds_the_profile_and_the_report():
    # harness.run builds each run's one profile and report; experiments and chunks take them
    calls = sorted(
        (getattr(node, "name", "<module>"), n.func.id)
        for node in _trees()["harness"].body
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("_profile_for", "StatReport")
    )
    assert calls == [("run", "StatReport"), ("run", "_profile_for")], calls


def test_only_harness_maps_trials():
    # one trial map/reduce: harness alone chunks trials, maps the chunks and reduces them
    mappers = {
        mod
        for mod, tree in _trees().items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and {getattr(n.func, "id", None), getattr(n.func, "attr", None)} & {"_map_chunks", "_chunk_ranges"}
    }
    assert mappers == {"harness"}, f"trials mapped outside harness: {sorted(mappers - {'harness'})}"


def _exported(tree) -> set:
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }


def test_no_module_imports_a_name_it_never_reads():
    # the lint this suite stands in for; __init__ is exempt because it re-exports
    unused = []
    for mod, tree in _trees().items():
        if mod == "__init__":
            continue
        imported = {
            alias.asname or alias.name
            for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom))
            for alias in n.names
        }
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [(mod, name) for name in sorted(imported - read - _exported(tree))]
    assert not unused, f"imported, never read and not in __all__: {unused}"


# (module, function, parameter) a function takes and never reads, and why each stays
_UNREAD_PARAMETERS = {
    # run calls every experiment as fn(report, config, prof, workers); the unchunked ones map no trials
    ("harness", "_exp_profile", "workers"),
    ("harness", "_exp_propcheck", "workers"),
    ("harness", "_exp_graph", "workers"),
    # the expansion's graphs bind their sites later, through standard_bindings; the
    # benchmark's graph-eval workload calls it with a site triple
    ("graphs", "second_order_graphs", "a"),
    ("graphs", "second_order_graphs", "b1"),
    ("graphs", "second_order_graphs", "b2"),
}


def test_every_parameter_is_read():
    # a parameter no line reads is a setting that changes nothing; `_` and `*_` name what is discarded
    unread = set()
    for mod, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = fn.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
                read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread |= {(mod, fn.name, p) for p in params if p not in read and not p.startswith("_")}
    assert not unread - _UNREAD_PARAMETERS, f"parameters never read: {sorted(unread - _UNREAD_PARAMETERS)}"
    assert not _UNREAD_PARAMETERS - unread, f"read or gone, drop: {sorted(_UNREAD_PARAMETERS - unread)}"
