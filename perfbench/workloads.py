"""The three benchmark workloads: what one pass runs and how its output is
checked.

Each workload puts one ROADMAP target module at the centre of the work and
leaves the others nearly idle (LAYERS.md gives the reasons).  A pass of an
``rbm`` workload is one ``rbm`` command line; a pass of ``graph-eval-n512``
calls the library API.  The pass size is fixed here, so the work per pass
never depends on the machine; the run length only sets how many passes a
run makes.

Importing this module does not import rbmlab: run.py uses it for the
output checks without loading the program.
"""

import math
from dataclasses import dataclass
from typing import Callable

# graph-eval-n512 inputs
GRAPH_L, GRAPH_W, GRAPH_Z = 512, 8.0, 0.2 + 0.3j
GRAPH_DRAWS, GRAPH_TRIPLES = 4, 8
GAP_TOL = 1e-10  # acceptance criterion 6


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # rbm command line without --seed/--out; empty for API workloads
    check: Callable  # output dict -> list of (check name, passed)


def _finite_checks(metrics):
    out = []
    for key, m in sorted(metrics.items()):
        vals = [m["value"]] + ([] if m.get("stderr") is None else [m["stderr"]])
        out.append((f"finite:{key}", all(math.isfinite(v) for v in vals)))
    return out


def _value(metrics, key):
    return metrics[key]["value"]


def check_locallaw(metrics):
    ratios = [k for k in metrics if k.startswith("max_offdiag_ratio_eta_")]
    return _finite_checks(metrics) + [
        ("ratio_decreasing_in_eta==1", _value(metrics, "ratio_decreasing_in_eta") == 1.0),
        ("three eta ratios", len(ratios) == 3),
        ("ratios<=1e3", all(_value(metrics, k) <= 1e3 for k in ratios)),
        ("ks_distance<=0.08", _value(metrics, "ks_distance") <= 0.08),
    ]


def check_universality(metrics):
    stderr = math.hypot(
        metrics["band_gap_ratio_mean"]["stderr"], metrics["gue_gap_ratio_mean"]["stderr"]
    )
    return _finite_checks(metrics) + [
        ("gue_poisson_gap>0.15", _value(metrics, "gue_poisson_gap") > 0.15),
        ("band_gue_gap<=5*stderr", _value(metrics, "band_gue_gap") <= 5.0 * stderr),
    ]


def check_graph_eval(result):
    gaps = result["gaps"]
    checks = [(f"evaluations=={GRAPH_DRAWS * GRAPH_TRIPLES}", len(gaps) == GRAPH_DRAWS * GRAPH_TRIPLES)]
    checks += [(f"|gap|<=1e-10:{i}", math.isfinite(g) and g <= GAP_TOL) for i, g in enumerate(gaps)]
    return checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "locallaw-n1024",
            ("locallaw", "--dim", "2", "--size", "32", "--band", "4", "--psi", "gaussian",
             "--energy", "0.2", "--eta", "0.1,0.3,1.0", "--trials", "1"),
            check_locallaw,
        ),
        Workload(
            "universality-n400-flow",
            ("universality", "--dim", "1", "--size", "400", "--band", "400", "--psi",
             "gaussian", "--flow-time", "0.5", "--trials", "16"),
            check_universality,
        ),
        Workload(
            "graph-eval-n512",
            (),
            check_graph_eval,
        ),
    )
}


def rbm_argv(workload, seed, out_dir):
    return list(workload.argv) + ["--seed", str(seed), "--workers", "1",
                                  "--out", out_dir, "--format", "json"]


def graph_eval_inputs(seed):
    """Seeded site triples, one row of GRAPH_TRIPLES per draw."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return rng.integers(0, GRAPH_L, size=(GRAPH_DRAWS, GRAPH_TRIPLES, 3)).tolist()


def graph_eval(seed, triples):
    """Per draw: one resolvent, then for each site triple the four
    second-order graphs evaluated and compared with second_order_terms.
    Names are looked up on the modules at call time so traced wrappers apply."""
    import numpy as np

    from rbmlab import graphs, lattice, profile, propagators, sampler, spectral

    lat = lattice.TorusLattice(1, GRAPH_L)
    prof = profile.build_profile(profile.get_shape("gaussian"), GRAPH_W, lat)
    props = propagators.PropagatorSet.build(prof, GRAPH_Z)
    sites = np.arange(lat.N)
    gaps = []
    for t, draw_triples in enumerate(triples):
        ctx = spectral.resolvent(sampler.sample_band(prof, seed, t), GRAPH_Z, prof, check=False)
        for a, b1, b2 in draw_triples:
            bind = graphs.standard_bindings(a, b1, b2)
            total = sum(graphs.evaluate(g, ctx, props, bind) for g in graphs.second_order_graphs(a, b1, b2))
            _, lead, zm, corr = spectral.second_order_terms(ctx, props.theta_circ_at(a, sites), a, b1, b2)
            gaps.append(abs(total - (lead + zm + corr)))
    return {"gaps": gaps}
