"""Every routine in src/rbmlab is called from other code in the package, or
is on the short list below of routines kept on purpose.

The walk is by name: a module-level function or class, or a method, counts
as reached when its name is read (as a name or an attribute) anywhere in
the package outside its own definition.  Dunder methods are called by
Python itself and are skipped.  A read of a same-named field or routine
also counts, so the walk can miss a dead routine.  Calls from outside the
package (tests, the benchmark) are not seen; the list is for those.
"""

import ast
from collections import Counter
from pathlib import Path

import rbmlab

# (module, name) of the routines no code in the package calls, and why each stays
_KEPT = {
    # oracles that tests compare the production routes against
    ("graphs", "evaluate_brute"),  # enumeration oracle of evaluate
    ("propagators", "b_profile"),  # pointwise oracle of b_kernel
    ("sampler", "sample_gue"),  # dense GUE, oracle of gue_eigenvalues; the benchmark traces it
    ("stats", "random_trace_zero"),  # test diagonal of acceptance criterion 7
    # documented file formats (README, "File formats")
    ("graphs", "serialize_graph"),
    ("graphs", "parse_graph"),
    # the profile and propagator CSV exports
    ("profile", "export_kernel_csv"),
    ("profile", "export_symbol_csv"),
    ("propagators", "export_kernel_csv"),
    # called by the benchmark's graph-eval workload
    ("propagators", "theta_circ_at"),
    # evaluate's work bound, the count the benchmark's evaluator metric should read
    ("graphs", "graph_cost"),
    # the coordinate <-> site index maps, which tests use
    ("lattice", "index_of"),
    ("lattice", "coord_of"),
}


def _names(node) -> Counter:
    """Names read in node: loaded names and attributes, not assignments."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
    return out


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def test_every_routine_is_reached_or_kept_on_purpose():
    trees = {p.stem: ast.parse(p.read_text()) for p in Path(rbmlab.__file__).parent.glob("*.py")}
    uses = sum((_names(t) for t in trees.values()), Counter())
    unreached = {
        (mod, d.name)
        for mod, tree in trees.items()
        for d in _definitions(tree)
        if not (d.name.startswith("__") and d.name.endswith("__"))
        and uses[d.name] == _names(d)[d.name]
    }
    assert not unreached - _KEPT, f"called by no code in src: wire in or delete {sorted(unreached - _KEPT)}"
    assert not _KEPT - unreached, f"reached or gone, drop from _KEPT: {sorted(_KEPT - unreached)}"


def test_only_harness_builds_stat_reports():
    # statistics return numbers; harness alone names, defines and counts metrics
    trees = {p.stem: ast.parse(p.read_text()) for p in Path(rbmlab.__file__).parent.glob("*.py")}
    builders = {
        mod
        for mod, tree in trees.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and (getattr(n.func, "id", None) == "StatReport" or getattr(n.func, "attr", None) == "StatReport")
    }
    assert builders == {"harness"}, f"StatReport built outside harness: {sorted(builders - {'harness'})}"
