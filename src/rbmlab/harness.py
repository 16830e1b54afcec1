"""Experiment orchestration: validated configurations, deterministic
seeding, worker-pool dispatch with fixed-order reduction, and atomic
persistence of manifests and metrics.

Flags, --config files, rerun manifests and configs built in code all pass
through cast_config; every output file goes through tables.write_text.

Reruns from a manifest reproduce every metric bit-for-bit for any worker
count: each trial draws from its own substream, work is split into
fixed-size chunks independent of the pool size, and reductions run in
chunk order.
"""

import dataclasses
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import CapacityError, NumericError, ValidationError
from .lattice import TorusLattice
from .profile import (
    _SHAPES,
    band_truncation_mass,
    build_profile,
    get_shape,
    mean_field_profile,
)
from .propagators import (
    PropagatorSet,
    dense_s_plus,
    dense_theta,
    dense_theta_circ,
)
from .sampler import ou_evolve, sample_band
from .seeding import _chunk_ranges, _map_chunks, seed_substream, substream_rng
from .spectral import (
    eigensolve,
    eigenvalues,
    gue_eigenvalues,
    resolvent,
    second_order_residual,
    second_order_terms,
    semicircle_m,
    t_three,
    ward_residual,
    zero_mode_split,
)
from .stats import (
    QUE_BOUND_MIN_DRAWS,
    StatReport,
    box_indicator,
    gap_ratio_mean,
    local_law_ratios,
    overlap_bound_check,
    pgon_average,
    que_bound_ratio,
    que_trace,
    semicircle_distance,
)
from .tables import site_table, table_text, write_text

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ResultRecord",
    "cast_config",
    "run",
    "rerun",
    "load_manifest",
    "parse_config_file",
    "seed_substream",
]

_DENSE_N_CAP = 8192
_TEXP2_SITES = ((0, 0, 0), (0, 1, 3), (2, 5, 5))
_PSI_NAMES = (*_SHAPES, "mean-field")
_SENTINEL_DEF = "max over resolvents of the Ward sentinel's relative deviation"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    d: int = 1
    L: int = 8
    W: float = 2.0
    psi: str = "gaussian"
    E: float = 0.2
    eta: tuple = (0.5,)
    trials: int = 10
    seed: int = 1
    flow_time: float = 0.0
    out: str | None = None
    fmt: str = "json"

    @property
    def N(self) -> int:
        return self.L**self.d

    def z(self, eta=None) -> complex:
        return complex(self.E, self.eta[0] if eta is None else eta)


@dataclass(frozen=True)
class ResultRecord:
    config: ExperimentConfig
    report: StatReport
    wall_time: float
    version: str

    @property
    def substream_keys(self) -> tuple:
        """The substream key of every trial, computed when read."""
        return tuple(seed_substream(self.config.seed, t) for t in range(self.config.trials))


def _as_int(v) -> int:
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(v)  # int() would silently truncate it
    return int(v)


def _as_text(v):
    if v is not None and not isinstance(v, str):
        raise ValueError(v)  # None passes _validate only for `out`
    return v


def _as_eta(v) -> tuple:
    if isinstance(v, str):
        v = [tok for tok in v.split(",") if tok.strip()]
    if not isinstance(v, (list, tuple)) or not v:
        raise ValueError(v)
    return tuple(map(float, v))


# config field -> cast, by the ExperimentConfig field type
_CASTS = {
    f.name: {int: _as_int, float: float, tuple: _as_eta}.get(f.type, _as_text)
    for f in dataclasses.fields(ExperimentConfig)
}


def cast_config(*sources: dict) -> ExperimentConfig:
    """The one way outside values become an ExperimentConfig.  Each source
    maps field names to text (flags, config files) or JSON values
    (manifests); a later source wins, and together they must name the
    experiment.  An unknown key or a value that does not cast, overridden
    or not, raises ValidationError.  Ranges are checked when the config runs."""
    cast = {}
    for values in sources:
        for key, val in values.items():
            if key not in _CASTS:
                raise ValidationError(f"unknown config key {key!r}")
            try:
                cast[key] = _CASTS[key](val)
            except (TypeError, ValueError):
                raise ValidationError(f"bad value {val!r} for config key {key!r}") from None
    if "experiment" not in cast:
        raise ValidationError("config names no experiment")
    return ExperimentConfig(**cast)


def _validate(config: ExperimentConfig):
    bad = []
    if config.experiment not in EXPERIMENTS:
        bad.append(f"experiment={config.experiment!r} not in {EXPERIMENTS}")
    if config.d < 1:
        bad.append(f"d={config.d} must be >= 1")
    if config.L < 2:
        bad.append(f"L={config.L} must be >= 2")
    if not (np.isfinite(config.W) and config.W >= 1):
        bad.append(f"W={config.W} must be finite and >= 1")
    if config.d * np.log2(max(config.L, 2)) > 30:
        bad.append(f"d*log2(L) = {config.d * np.log2(config.L):.1f} exceeds 30")
    if not all(np.isfinite(e) and e > 0 for e in config.eta):
        bad.append(f"eta={config.eta} must be finite and positive")
    labels = [f"{e:g}" for e in config.eta]  # per-eta metric names end in these
    clash = sorted({lab for lab in labels if labels.count(lab) > 1})
    if clash:
        bad.append(f"eta={config.eta} repeats the metric label(s) {clash}; labels must be distinct")
    if not abs(config.E) < 2:
        bad.append(f"E={config.E} must satisfy |E| < 2")
    if config.trials < 1:
        bad.append(f"trials={config.trials} must be >= 1")
    if not (np.isfinite(config.flow_time) and config.flow_time >= 0):
        bad.append(f"flow_time={config.flow_time} must be finite and >= 0")
    if config.fmt not in ("csv", "json"):
        bad.append(f"format={config.fmt!r} must be csv or json")
    if config.psi not in _PSI_NAMES:
        bad.append(f"psi={config.psi!r} unknown")
    if bad:
        raise ValidationError("invalid config: " + "; ".join(bad))
    if config.experiment != "profile" and config.N > _DENSE_N_CAP:
        raise CapacityError(
            f"dense experiments capped at N <= {_DENSE_N_CAP}, got N={config.N}"
        )


def _profile_for(config: ExperimentConfig):
    lat = TorusLattice(config.d, config.L)
    if config.psi == "mean-field":
        return mean_field_profile(lat)
    return build_profile(get_shape(config.psi), config.W, lat)


def _aux_master(seed: int, purpose: int) -> int:
    # disjoint master seeds for auxiliary random draws (site picks, oracles)
    return seed_substream(seed, 2**40 + purpose)


# --- experiments ----------------------------------------------------------


def _exp_profile(config, workers):
    prof = _profile_for(config)
    lat = prof.lattice
    kern = prof.kernel_fft
    sym_err = float(np.max(np.abs(kern - lat.reflect(kern))))
    lam = prof.symbol_fft.ravel()
    lam_rest = np.delete(lam, 0)
    gap = 1.0 - float(lam_rest.max()) if lam_rest.size else 1.0

    report = StatReport("profile", params=_params(config))
    report.add("row_sum_error", abs(kern.sum() - 1.0), "|sum_x f(x) - 1|")
    report.add("kernel_min", kern.min(), "min_x f(x)")
    report.add("kernel_symmetry_error", sym_err, "max_x |f(x) - f(-x)|")
    report.add("normalization_Z", prof.Z, "pre-normalization kernel mass")
    report.add("symbol_zero_mode", lam[0], "lambda_0 (must be 1)")
    report.add("symbol_max_rest", float(lam_rest.max()), "max_{k!=0} lambda_k")
    report.add("symbol_min", float(lam.min()), "min_k lambda_k")
    report.add("spectral_gap", gap, "1 - max_{k!=0} lambda_k")
    report.add(
        "gap_over_WL_sq", gap / (config.W / config.L) ** 2, "spectral gap / (W/L)^2"
    )
    report.add(
        "band_mass_tau_0.5",
        band_truncation_mass(prof, 0.5),
        "kernel mass at distance >= W^1.5",
    )
    report.tables["kernel"] = site_table(lat, kern, "x", "f")
    report.tables["symbol"] = site_table(lat, prof.symbol_fft, "k", "lambda")
    return report


def _ward_chunk(args):
    config, t0, t1 = args
    prof = _profile_for(config)
    rng = substream_rng(_aux_master(config.seed, 1), t0)
    z = config.z()
    n = prof.lattice.N
    worst = worst_scaled = worst_zm = worst_sentinel = 0.0
    for t in range(t0, t1):
        ctx = resolvent(sample_band(prof, config.seed, t), z, prof, check=False)
        worst_sentinel = max(worst_sentinel, ctx.ward_dev)
        resid = ward_residual(ctx)
        scale = 1e-9 * max(1.0, n * float(np.max(np.abs(ctx.G))) ** 2)
        a, b1, b2 = (int(rng.integers(0, n)) for _ in range(3))
        tc, zm = zero_mode_split(ctx, a, b1, b2)
        tt = t_three(ctx, a, b1, b2)
        rel = abs(tt - (tc + zm)) / max(abs(tt), 1e-300)
        worst = max(worst, resid)
        worst_scaled = max(worst_scaled, resid / scale)
        worst_zm = max(worst_zm, rel)
    return worst, worst_scaled, worst_zm, worst_sentinel


def _exp_wardcheck(config, workers):
    parts = _map_chunks(
        _ward_chunk, [(config, a, b) for a, b in _chunk_ranges(config.trials)], workers
    )
    report = StatReport("wardcheck", params=_params(config))
    report.add(
        "max_residual",
        max(p[0] for p in parts),
        "max over draws of the Ward identity residual",
        config.trials,
    )
    report.add(
        "max_scaled_residual",
        max(p[1] for p in parts),
        "residual / (1e-9 max(1, N |G|max^2)); pass iff <= 1",
        config.trials,
    )
    report.add(
        "max_zero_mode_rel_err",
        max(p[2] for p in parts),
        "max relative error of the zero-mode split reconstruction",
        config.trials,
    )
    report.add(
        "max_ward_sentinel_dev", max(p[3] for p in parts), _SENTINEL_DEF, config.trials
    )
    return report


def _exp_texp2(config, workers):
    prof = _profile_for(config)
    n = prof.lattice.N
    report = StatReport("texp2", params=_params(config))
    triples = [s for s in _TEXP2_SITES if max(s) < n] or [(0, 0, 0)]
    results = second_order_residual(
        prof, config.z(), triples, config.trials, config.seed, workers=workers
    )
    worst_z = 0.0
    for (a, b1, b2), res in zip(triples, results):
        key = f"sites_{a}_{b1}_{b2}"
        report.add(f"mean_re_{key}", res.mean.real, "mean residual, real part", res.trials, res.stderr_re)
        report.add(f"mean_im_{key}", res.mean.imag, "mean residual, imag part", res.trials, res.stderr_im)
        zr, zi = res.zscores
        report.add(f"z_re_{key}", zr, "|mean_re| / stderr_re", res.trials)
        report.add(f"z_im_{key}", zi, "|mean_im| / stderr_im", res.trials)
        worst_z = max(worst_z, zr, zi)
    report.add("max_zscore", worst_z, "largest componentwise z-score; pass iff <= 5")
    report.add("max_ward_sentinel_dev", results[0].max_ward_sentinel_dev, _SENTINEL_DEF, config.trials)
    return report


def _exp_propcheck(config, workers):
    prof = _profile_for(config)
    lat = prof.lattice
    n = lat.N
    rng = substream_rng(_aux_master(config.seed, 2), 0)
    report = StatReport("propcheck", params=_params(config))
    gaps = {"theta_circ": 0.0, "theta": 0.0, "s_plus": 0.0, "s_minus": 0.0}
    const_dev = 0.0
    sum_dev = 0.0
    for _ in range(5):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1.0))
        props = PropagatorSet.build(prof, z)
        d_tc = dense_theta_circ(prof, z)
        d_t = dense_theta(prof, z)
        d_sp = dense_s_plus(prof, z)
        gaps["theta_circ"] = max(gaps["theta_circ"], float(np.max(np.abs(d_tc - lat.kernel_matrix(props.theta_circ_fft)))))
        gaps["theta"] = max(gaps["theta"], float(np.max(np.abs(d_t - lat.kernel_matrix(props.theta_fft)))))
        gaps["s_plus"] = max(gaps["s_plus"], float(np.max(np.abs(d_sp - lat.kernel_matrix(props.s_plus_fft)))))
        gaps["s_minus"] = max(gaps["s_minus"], float(np.max(np.abs(d_sp.conj() - lat.kernel_matrix(props.s_minus_fft)))))
        shift = semicircle_m(z).imag / (n * z.imag)
        const_dev = max(const_dev, float(np.max(np.abs((d_t - d_tc) - shift))))
        sum_dev = max(sum_dev, abs(float(props.theta_circ_fft.sum())))
    for k, v in gaps.items():
        report.add(f"max_gap_{k}", v, f"max |dense - FFT| for {k} over 5 random z", 5)
    report.add("max_theta_shift_dev", const_dev, "max |(theta - theta_circ) - Im m/(N eta)|", 5)
    report.add("max_theta_circ_sum", sum_dev, "max |sum_x theta_circ(x)|", 5)
    return report


def _locallaw_draw(args):
    # per (draw, eta) the dense inverse is cheaper than one eigendecomposition
    # amortized over a short eta grid; the KS statistic needs eigenvalues
    # only once, computed without eigenvectors on draw 0
    config, prof, props_by_eta, t = args
    sample = sample_band(prof, config.seed, t)
    out = {"sentinel": 0.0}
    if t == 0:
        out["ks"] = semicircle_distance(eigenvalues(sample))
    for eta, props in props_by_eta.items():
        ctx = resolvent(sample, props.z, prof, check=False)
        out["sentinel"] = max(out["sentinel"], ctx.ward_dev)
        rep = local_law_ratios(ctx, props)
        out[eta] = (
            rep["max_offdiag_ratio"],
            rep["max_diag_gap"],
            rep.tables["ratio_shells"],
        )
        del ctx  # free this G before the next eta's inverse allocates its own
    return out


def _exp_locallaw(config, workers):
    # the propagators depend on (profile, z) only: build them once per eta
    prof = _profile_for(config)
    props_by_eta = {eta: PropagatorSet.build(prof, config.z(eta)) for eta in config.eta}
    draws = _map_chunks(
        _locallaw_draw,
        [(config, prof, props_by_eta, t) for t in range(config.trials)],
        workers,
    )
    report = StatReport("locallaw", params=_params(config))
    report.add(
        "ks_distance",
        draws[0]["ks"],
        "semicircle KS distance of the draw-0 spectrum",
    )
    etas = sorted(config.eta)
    maxima = []
    for eta in etas:
        ratio = max(d[eta][0] for d in draws)
        diag = max(d[eta][1] for d in draws)
        maxima.append(ratio)
        report.add(
            f"max_offdiag_ratio_eta_{eta:g}",
            ratio,
            "max over draws of max |G_xy|^2/(B_xy + 1/(N eta))",
            config.trials,
        )
        report.add(
            f"max_diag_gap_eta_{eta:g}",
            diag,
            "max over draws of max |G_xx - m|",
            config.trials,
        )
    decreasing = all(maxima[i] > maxima[i + 1] for i in range(len(maxima) - 1))
    report.add(
        "ratio_decreasing_in_eta",
        float(decreasing),
        "1 if the max ratio decreases along the ascending eta grid",
        config.trials,
    )
    report.add(
        "max_ward_sentinel_dev",
        max(d["sentinel"] for d in draws),
        _SENTINEL_DEF,
        config.trials * len(etas),
    )
    header, rows = draws[0][etas[-1]][2]
    report.tables["ratio_shells_eta_max"] = (header, rows)
    return report


def _gap_ratio_chunk(args):
    # all band draws before all GUE draws, the order of one pass per ensemble
    config, t0, t1 = args
    prof = _profile_for(config)
    band = []
    for t in range(t0, t1):
        sample = sample_band(prof, config.seed, t)
        if config.flow_time > 0:
            sample = ou_evolve(sample, config.flow_time, prof, _aux_master(config.seed, 3), t)
        band.append(gap_ratio_mean(eigenvalues(sample), kappa=0.5))
    del sample  # free the last band draw before the GUE draws allocate theirs
    gue = [
        gap_ratio_mean(gue_eigenvalues(config.N, _aux_master(config.seed, 4), t), kappa=0.5)
        for t in range(t0, t1)
    ]
    return band, gue


def _exp_universality(config, workers):
    parts = _map_chunks(
        _gap_ratio_chunk, [(config, a, b) for a, b in _chunk_ranges(config.trials)], workers
    )
    band = [v for p in parts for v in p[0]]
    gue = [v for p in parts for v in p[1]]
    rng = substream_rng(_aux_master(config.seed, 5), 0)
    poisson = [
        gap_ratio_mean(np.sort(rng.uniform(-2, 2, 10_000)), kappa=0.5)
        for _ in range(10)
    ]
    report = StatReport("universality", params=_params(config))
    for name, vals in (("band", band), ("gue", gue), ("poisson", poisson)):
        arr = np.asarray(vals)
        report.add(
            f"{name}_gap_ratio_mean",
            arr.mean(),
            f"mean bulk gap ratio, {name} ensemble (kappa=0.5)",
            arr.size,
            float(arr.std(ddof=1) / np.sqrt(arr.size)),
        )
    report.add(
        "band_gue_gap",
        abs(np.mean(band) - np.mean(gue)),
        "|band mean - GUE oracle mean|; universality iff small",
        config.trials,
    )
    report.add(
        "gue_poisson_gap",
        abs(np.mean(gue) - np.mean(poisson)),
        "|GUE mean - Poisson oracle mean|; must stay separated",
        config.trials,
    )
    return report


def _que_chunk(args):
    # every draw's dense-inverse trace feeds the bound; the first trials are
    # also eigendecomposed, and G is not built from spec, so the overlap
    # check's spectral trace checks one factorization against the other
    config, pi, t0, t1 = args
    prof = _profile_for(config)
    z = config.z()
    traces = np.empty(t1 - t0)
    worst_rel = sentinel = 0.0
    holds = 0
    for t in range(t0, t1):
        sample = sample_band(prof, config.seed, t)
        ctx = resolvent(sample, z, prof, check=False)
        sentinel = max(sentinel, ctx.ward_dev)
        tr_res = traces[t - t0] = que_trace(ctx, pi, "resolvent")
        if t < config.trials:
            _, _, ok, tr_spec = overlap_bound_check(eigensolve(sample), z, pi, l=2 * z.imag)
            worst_rel = max(worst_rel, abs(tr_res - tr_spec) / max(abs(tr_res), 1e-300))
            holds += ok
    return traces, worst_rel, holds, sentinel


def _exp_que(config, workers):
    prof = _profile_for(config)
    pi = box_indicator(prof.lattice, max(1, config.L // 2))
    draws = max(QUE_BOUND_MIN_DRAWS, config.trials)
    parts = _map_chunks(
        _que_chunk, [(config, pi, a, b) for a, b in _chunk_ranges(draws)], workers
    )
    bound_rep = que_bound_ratio(np.concatenate([p[0] for p in parts]), prof, pi)
    report = StatReport("que", params=_params(config))
    report.add(
        "trace_rel_gap_max",
        max(p[1] for p in parts),
        "max relative gap between the dense-inverse and spectral trace computations",
        config.trials,
    )
    report.add(
        "overlap_bound_holds_frac",
        sum(p[2] for p in parts) / config.trials,
        "fraction of draws where the overlap bound holds (must be 1)",
        config.trials,
    )
    for k, met in bound_rep.metrics.items():
        report.metrics[f"bound_{k}"] = met
    report.add("max_ward_sentinel_dev", max(p[3] for p in parts), _SENTINEL_DEF, draws)
    return report


def _exp_graph(config, workers):
    from .graphs import (
        Atom,
        AtomicGraph,
        Coefficient,
        Edge,
        EdgeKind,
        evaluate,
        is_doubly_connected,
        scaling_order,
        second_order_graphs,
        standard_bindings,
    )

    prof = _profile_for(config)
    n = prof.lattice.N
    z = config.z()
    props = PropagatorSet.build(prof, z)
    ctx = resolvent(sample_band(prof, config.seed, 0), z, prof, check=False)

    t3_graph = AtomicGraph(
        (Atom(0, False), Atom(1, False), Atom(2, False), Atom(3, True)),
        (
            Edge(0, 3, EdgeKind.WAVED),
            Edge(3, 1, EdgeKind.G_BLUE),
            Edge(3, 2, EdgeKind.G_RED),
        ),
        coeff=Coefficient(m_pow=1, mbar_pow=1),
    )
    a, b1, b2 = 0, 1 % n, 3 % n
    gap_t3 = abs(
        evaluate(t3_graph, ctx, props, standard_bindings(a, b1, b2))
        - t_three(ctx, a, b1, b2)
    )

    graphs = second_order_graphs(a, b1, b2)
    theta_row = prof.lattice.kernel_matrix(props.theta_circ_fft, a)
    _, lead, zm, corr = second_order_terms(ctx, theta_row, a, b1, b2)
    total = sum(
        evaluate(g, ctx, props, standard_bindings(a, b1, b2)) for g in graphs
    )
    gap_exp = abs(total - (lead + zm + corr))

    orders_ok = [scaling_order(g) for g in graphs] == [3, 0, 3, 3] and scaling_order(
        t3_graph
    ) == 2

    two = (Atom(0, True), Atom(1, True))
    dc_cases = [
        (AtomicGraph(two, (Edge(0, 1, EdgeKind.DIFFUSIVE), Edge(0, 1, EdgeKind.DIFFUSIVE))), True),
        (AtomicGraph(two, (Edge(0, 1, EdgeKind.DIFFUSIVE), Edge(0, 1, EdgeKind.FREE))), True),
        (AtomicGraph(two, (Edge(0, 1, EdgeKind.DIFFUSIVE),)), False),
    ]
    dc_ok = all(is_doubly_connected(g)[0] == want for g, want in dc_cases)

    report = StatReport("graph", params=_params(config))
    report.add("eval_gap_t_three", gap_t3, "|evaluate(t_three graph) - t_three|")
    report.add("eval_gap_expansion", gap_exp, "|sum of expansion graph values - spectral terms|")
    report.add("scaling_orders_ok", float(orders_ok), "1 if hand-derived orders match")
    report.add("doubly_connected_ok", float(dc_ok), "1 if the built-in truth table matches")
    report.add("max_ward_sentinel_dev", ctx.ward_dev, _SENTINEL_DEF)
    return report


def _exp_pgon(config, workers):
    prof = _profile_for(config)
    n = prof.lattice.N
    z = config.z()
    ctx = resolvent(sample_band(prof, config.seed, 0), z, prof, check=False)
    value, scale = pgon_average(ctx, np.arange(n), 2, "+-")
    ward_form = float(np.sum(np.imag(np.diagonal(ctx.G)))) / (n**2 * z.imag)
    report = StatReport("pgon", params=_params(config))
    report.add("value_re", value.real, "2-gon average, real part")
    report.add("value_im", value.imag, "2-gon average, imag part")
    report.add("comparison_scale", scale, "concentration scale g(K, W, eta)^(p-1)")
    report.add(
        "ward_gap",
        abs(value - ward_form),
        "|2-gon average - (N eta)^-1 N^-1 sum Im G_yy|",
    )
    report.add("max_ward_sentinel_dev", ctx.ward_dev, _SENTINEL_DEF)
    return report


_DISPATCH = {
    "profile": _exp_profile,
    "wardcheck": _exp_wardcheck,
    "texp2": _exp_texp2,
    "propcheck": _exp_propcheck,
    "locallaw": _exp_locallaw,
    "universality": _exp_universality,
    "que": _exp_que,
    "graph": _exp_graph,
    "pgon": _exp_pgon,
}

EXPERIMENTS = tuple(_DISPATCH)


def _params(config: ExperimentConfig) -> dict:
    d = dataclasses.asdict(config)
    d.pop("out")  # volatile; lives in the manifest, not in the metrics
    return d


# --- persistence ----------------------------------------------------------


def _write_outputs(config: ExperimentConfig, report: StatReport):
    out = config.out
    os.makedirs(out, exist_ok=True)
    manifest = {"config": dataclasses.asdict(config), "version": __version__, "seed": config.seed}
    write_text(os.path.join(out, "manifest.json"), json.dumps(manifest, indent=2, sort_keys=True))
    if config.fmt == "json":
        write_text(os.path.join(out, "metrics.json"), report.to_json())
    else:
        write_text(os.path.join(out, "metrics.csv"), report.csv_text())
    for name, (header, rows) in report.tables.items():
        write_text(os.path.join(out, f"{name}.csv"), table_text(header, rows))


def _require_finite(report: StatReport):
    # json.dumps would write NaN/Infinity tokens, which are not valid JSON
    for name, m in report.metrics.items():
        for what, v in (("value", m.value), ("stderr", m.stderr)):
            if v is not None and not np.isfinite(v):
                raise NumericError(f"metric {name!r} has non-finite {what} {v!r}")


def run(config: ExperimentConfig, workers: int = 1) -> ResultRecord:
    """Validate, dispatch, persist.  Deterministic for any worker count."""
    if workers < 1:
        raise ValidationError(f"workers={workers} must be >= 1")
    # a config built in code is cast too, so its manifest reruns byte for byte
    config = cast_config(dataclasses.asdict(config))
    _validate(config)
    t0 = time.perf_counter()
    report = _DISPATCH[config.experiment](config, workers)
    wall = time.perf_counter() - t0
    _require_finite(report)
    record = ResultRecord(config, report, wall, __version__)
    if config.out:
        _write_outputs(config, report)
    return record


def _read_text(path, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from None


def load_manifest(path: str) -> ExperimentConfig:
    try:
        raw = json.loads(_read_text(path, "manifest"))["config"]
    except (ValueError, TypeError, KeyError):
        raw = None
    if not isinstance(raw, dict):
        raise ValidationError(f"manifest {str(path)!r} is not JSON with a config object")
    return cast_config(raw)


def rerun(manifest_path: str, out: str | None = None, workers: int = 1) -> ResultRecord:
    config = load_manifest(manifest_path)
    if out is not None:
        config = dataclasses.replace(config, out=out)
    return run(config, workers=workers)


def parse_config_file(path: str) -> dict:
    """Flat key=value text; '#' starts a comment.  CLI flags override."""
    out = {}
    for raw in _read_text(path, "config file").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"bad config line {raw!r}; expected key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key] = val
    return out
