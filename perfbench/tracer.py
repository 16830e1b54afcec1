"""Outside-in spans around the public functions of each rbmlab module.

The wrappers are installed from the benchmark, never from the package: every
name in a loaded ``rbmlab`` module that is bound to a traced function is
rebound to its wrapper, so calls made through the names that ``harness``,
``spectral``, ``stats``, ``sampler`` and ``cli`` imported are traced as well.
Methods are wrapped on their class.

Spans stay in memory, aggregated by (caller span, span); a span's self time
is its duration minus the time of the spans it caused.
"""

import functools
import os
import sys
import time

# (span name, module, attribute, class or None).  The span name is what the
# per-layer metrics are called; harness.persist is harness._write_outputs.
SPANS = (
    ("seeding.substream_rng", "rbmlab.seeding", "substream_rng", None),
    ("lattice.diff_flat", "rbmlab.lattice", "diff_flat", "TorusLattice"),
    ("profile.build_profile", "rbmlab.profile", "build_profile", None),
    ("profile.s_pairs", "rbmlab.profile", "s_pairs", "VarianceProfile"),
    ("sampler.sample_band", "rbmlab.sampler", "sample_band", None),
    ("sampler.ou_evolve", "rbmlab.sampler", "ou_evolve", None),
    ("sampler.sample_gue", "rbmlab.sampler", "sample_gue", None),
    ("spectral.resolvent", "rbmlab.spectral", "resolvent", None),
    ("spectral.eigensolve", "rbmlab.spectral", "eigensolve", None),
    ("spectral.second_order_terms", "rbmlab.spectral", "second_order_terms", None),
    ("propagators.PropagatorSet.build", "rbmlab.propagators", "build", "PropagatorSet"),
    ("stats.local_law_ratios", "rbmlab.stats", "local_law_ratios", None),
    ("stats.semicircle_distance", "rbmlab.stats", "semicircle_distance", None),
    ("stats.gap_ratio_mean", "rbmlab.stats", "gap_ratio_mean", None),
    ("graphs.evaluate", "rbmlab.graphs", "evaluate", None),
    ("harness.run", "rbmlab.harness", "run", None),
    ("harness.persist", "rbmlab.harness", "_write_outputs", None),
)

ROOT = "<root>"


def _resolvent_gflop(args, kwargs, out):
    # computed, not measured: 32/3 N^3 flops per dense complex inverse
    n = out.G.shape[0]
    return {"gflop": 32.0 / 3.0 * n**3 / 1e9}


def _evaluate_terms(args, kwargs, out):
    graph, ctx = args[0], args[1]
    return {"terms": float(ctx.N ** len(graph.internal_atoms))}


def _persist_bytes(args, kwargs, out):
    out_dir = args[0].out
    return {"bytes": float(sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file()))}


EXTRAS = {
    "spectral.resolvent": _resolvent_gflop,
    "graphs.evaluate": _evaluate_terms,
    "harness.persist": _persist_bytes,
}


class Tracer:
    """Aggregated span tree: edges[(caller, name)] = [calls, total_s, self_s]."""

    def __init__(self):
        self.edges = {}
        self.extras = {}
        self._stack = [[ROOT, 0.0]]  # [span name, time covered by its children]

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                caller = stack[-1]
                caller[1] += dur
                edge = self.edges.setdefault((caller[0], name), [0, 0.0, 0.0])
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[1]
            if extra is not None:
                acc = self.extras.setdefault(name, {})
                for key, val in extra(args, kwargs, out).items():
                    acc[key] = acc.get(key, 0.0) + val
            return out

        return traced

    def install(self):
        """Wrap every span target; rebind each module-level alias of it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "rbmlab" or k.startswith("rbmlab.")]
        for name, modname, attr, clsname in SPANS:
            owner = sys.modules[modname]
            if clsname is None:
                orig = getattr(owner, attr)
                wrapped = self.wrap(name, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
                continue
            cls = getattr(owner, clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))

    def summary(self):
        """Per-span calls, total and self time, the caller edges, and the
        time covered by top-level spans."""
        spans = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name, *_ in SPANS}
        for (caller, name), (calls, total, self_s) in self.edges.items():
            spans[name]["calls"] += calls
            spans[name]["total_s"] += total
            spans[name]["self_s"] += self_s
        for name, acc in self.extras.items():
            spans[name].update(acc)
        edges = [
            {"caller": c, "span": n, "calls": v[0], "total_s": v[1]}
            for (c, n), v in sorted(self.edges.items())
        ]
        return {"spans": spans, "edges": edges, "top_level_s": self._stack[0][1]}
