"""Experiment orchestration: validated configurations, deterministic
seeding, worker-pool dispatch with fixed-order reduction, and atomic
persistence of manifests and metrics.

Flags, --config files, rerun manifests and configs built in code all pass
through cast_config; every output file goes through tables.write_text.

Reruns from a manifest reproduce every metric bit-for-bit for any worker
count: each trial draws from its own substreams, _map_trials maps fixed-size
chunks of trials independent of the pool size, every chunk returns named
per-trial columns that _map_trials joins in trial order, and each
experiment reduces whole columns.
"""

import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, _lapack
from .errors import CapacityError, NumericError, ValidationError, WindowError
from .lattice import TorusLattice, row_blocks
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
    theta_circ,
)
from .sampler import ou_evolve, sample_band, sample_band_batch
from .seeding import _chunk_ranges, _map_chunks, seed_substream, substream_rng
from .spectral import (
    _second_order_batch,
    eigensolve,
    eigenvalues,
    gue_eigenvalues,
    resolvent,
    resolvent_stack,
    second_order_terms,
    semicircle_m,
    t_three,
    ward_residual,
    zero_mode_split,
)
from .stats import (
    GAP_RATIO_MIN_BULK,
    LOCAL_LAW_MAX_E,
    QUE_BOUND_MIN_DRAWS,
    SEMICIRCLE_MIN_EIGS,
    box_indicator,
    deloc_supnorm,
    gap_ratio_mean,
    local_law_ratios,
    overlap_bound_check,
    que_bound_ratio,
    que_trace,
    semicircle_distance,
)
from .tables import site_table, table_text, write_text

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "Metric",
    "ResultRecord",
    "StatReport",
    "cast_config",
    "run",
    "rerun",
    "load_manifest",
    "parse_config_file",
    "seed_substream",
]

_DENSE_N_CAP = 8192
# Metrics scale by W**-5 (que) and (W/L)**2 (profile); at W = 1e12 these
# stay within 1e60 of 1, far inside float64's range, while W**-5 underflows to 0
# near W = 1e65.  A band this wide already spans every lattice (L <= 2**30).
_MAX_BAND = 1e12
_TEXP2_SITES = ((0, 0, 0), (0, 1, 3), (2, 5, 5))
_TEXP2_MIN_TRIALS = 100  # fewest trials whose standard errors the z-test trusts
_PSI_NAMES = (*_SHAPES, "mean-field")
_PROFILE_FIELDS = ("d", "L", "W", "psi")  # the config fields _profile_for reads
_BULK_KAPPA = 0.5  # the bulk window |x| <= 2 - kappa of the gap ratios and the supnorm
_SENTINEL_DEF = "max over resolvents of the Ward sentinel's relative deviation"
# fewest sites an experiment's statistics take: the KS distance's eigenvalues,
# and the gap ratios' interior bulk points
_MIN_N = {"locallaw": SEMICIRCLE_MIN_EIGS, "universality": GAP_RATIO_MIN_BULK + 2}


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
class Metric:
    value: float
    definition: str
    n: int = 1
    stderr: float | None = None


@dataclass
class StatReport:
    """Named scalar metrics with definitions; optional row tables for CSV.
    The experiments below are the only code that names and defines them."""

    name: str
    params: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)  # name -> (header, rows)

    def add(self, name, value, definition, n=1, stderr=None):
        self.metrics[name] = Metric(float(value), definition, int(n), stderr)

    def __getitem__(self, name) -> float:
        return self.metrics[name].value

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "params": self.params,
            "metrics": {
                k: {
                    "value": m.value,
                    "stderr": m.stderr,
                    "n": m.n,
                    "definition": m.definition,
                }
                for k, m in self.metrics.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def csv_text(self) -> str:
        """Metrics as CSV text, one row per metric in name order; commas in
        a definition become semicolons, so no field is quoted."""
        rows = [
            [k, m.value, "" if m.stderr is None else m.stderr, m.n, m.definition.replace(",", ";")]
            for k, m in sorted(self.metrics.items())
        ]
        return table_text(["metric", "value", "stderr", "n", "definition"], rows)


@dataclass(frozen=True)
class ResultRecord:
    config: ExperimentConfig
    report: StatReport
    wall_time: float
    version: str


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
    if not 1 <= config.W <= _MAX_BAND:
        bad.append(f"W={config.W} must satisfy 1 <= W <= {_MAX_BAND:g}")
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
    elif config.experiment == "locallaw" and abs(config.E) > LOCAL_LAW_MAX_E:
        bad.append(f"E={config.E} must satisfy |E| <= {LOCAL_LAW_MAX_E} for locallaw, a bulk statistic")
    if config.trials < 1:
        bad.append(f"trials={config.trials} must be >= 1")
    elif config.experiment == "texp2" and config.trials < _TEXP2_MIN_TRIALS:
        bad.append(f"trials={config.trials} must be >= {_TEXP2_MIN_TRIALS} for texp2")
    if config.N < _MIN_N.get(config.experiment, 0):
        bad.append(f"N={config.N} must be >= {_MIN_N[config.experiment]} for {config.experiment}")
    if not (np.isfinite(config.flow_time) and config.flow_time >= 0):
        bad.append(f"flow_time={config.flow_time} must be finite and >= 0")
    if config.experiment in _DISPATCH:  # a field no metric reads must keep its default
        reads = ("experiment", *_PROFILE_FIELDS, *_DISPATCH[config.experiment][1], "out", "fmt")
        for f in dataclasses.fields(config):
            if f.name not in reads and getattr(config, f.name) != f.default:
                bad.append(f"{f.name}={getattr(config, f.name)!r} is not read by {config.experiment}; "
                           f"leave it at its default {f.default!r}")
        if "eta" in reads and len(config.eta) > 1 and config.experiment != "locallaw":
            bad.append(f"eta={config.eta} is a grid; {config.experiment} reads one eta, only locallaw a grid")
    if config.fmt not in ("csv", "json"):
        bad.append(f"format={config.fmt!r} must be csv or json")
    if config.psi not in _PSI_NAMES:
        bad.append(f"psi={config.psi!r} unknown")
    if config.out:
        head = os.path.abspath(config.out)
        while not os.path.lexists(head):  # the nearest part of the path that exists
            head = os.path.dirname(head)
        if not os.path.isdir(head):
            bad.append(f"out={config.out!r} is a file or lies under one; it must name a directory")
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


def _map_trials(fn, trials: int, workers: int, *shared, chunk=None):
    """fn((*shared, t0, t1)) over the chunks [t0, t1) of range(trials), of
    chunk trials each (default seeding._TRIAL_CHUNK).  Each call returns
    named columns, one entry per trial or per resolvent; each comes back
    joined across the chunks in trial order, so no metric depends on the
    chunking."""
    parts = _map_chunks(fn, [(*shared, t0, t1) for t0, t1 in _chunk_ranges(trials, chunk)], workers)
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def _columns(names, rows):
    # per-trial rows, one value per name -> {name: column}
    return dict(zip(names, np.asarray(rows, dtype=float).reshape(-1, len(names)).T))


def _add_sentinel(report, cols):
    sentinel = cols["sentinel"]
    report.add("max_ward_sentinel_dev", sentinel.max(), _SENTINEL_DEF, sentinel.size)


# --- experiments ----------------------------------------------------------


def _exp_profile(report, config, prof, workers):
    lat = prof.lattice
    kern = prof.kernel_fft
    sym_err = float(np.max(np.abs(kern - lat.reflect(kern))))
    lam = prof.symbol_fft.ravel()
    lam_rest = np.delete(lam, 0)
    gap = 1.0 - float(lam_rest.max()) if lam_rest.size else 1.0

    report.add("row_sum_error", abs(kern.sum() - 1.0), "|sum_x f(x) - 1|")
    report.add("kernel_min", kern.min(), "min_x f(x)")
    report.add("kernel_symmetry_error", sym_err, "max_x |f(x) - f(-x)|")
    report.add("normalization_Z", prof.Z, "pre-normalization kernel mass")
    report.add("symbol_zero_mode", lam[0], "lambda_0 (must be 1)")
    report.add("symbol_max_rest", float(lam_rest.max()), "max_{k!=0} lambda_k")
    report.add("symbol_min", float(lam.min()), "min_k lambda_k")
    report.add("spectral_gap", gap, "1 - max_{k!=0} lambda_k")
    report.add("gap_over_WL_sq", gap / (prof.W / config.L) ** 2, "spectral gap / (W/L)^2")
    report.add(
        "band_mass_tau_0.5",
        band_truncation_mass(prof, 0.5),
        "kernel mass at distance >= W^1.5",
    )
    report.tables["kernel"] = site_table(lat, kern, "x", "f")
    report.tables["symbol"] = site_table(lat, prof.symbol_fft, "k", "lambda")


def _ward_chunk(args):
    config, prof, t0, t1 = args
    z = config.z()
    n = prof.lattice.N
    rows = []
    for t in range(t0, t1):
        ctx = resolvent(sample_band(prof, config.seed, t), z, prof, check=False)
        resid = ward_residual(ctx)
        g_max = max(float(np.abs(ctx.G[r0:r1]).max()) for r0, r1 in row_blocks(n))  # no N x N |G|
        rng = substream_rng(_aux_master(config.seed, 1), t)  # the trial's site triple
        a, b1, b2 = (int(rng.integers(0, n)) for _ in range(3))
        tc, zm = zero_mode_split(ctx, a, b1, b2)
        tt = t_three(ctx, a, b1, b2)
        rel = abs(tt - (tc + zm)) / max(abs(tt), 1e-300)
        rows.append((resid, resid / (1e-9 * max(1.0, n * g_max**2)), rel, ctx.ward_dev))
    return _columns(("residual", "scaled_residual", "zero_mode_rel_err", "sentinel"), rows)


def _exp_wardcheck(report, config, prof, workers):
    cols = _map_trials(_ward_chunk, config.trials, workers, config, prof)
    for name, definition in (
        ("residual", "max over draws of the Ward identity residual"),
        ("scaled_residual", "residual / (1e-9 max(1, N |G|max^2)); pass iff <= 1"),
        ("zero_mode_rel_err", "max relative error of the zero-mode split reconstruction"),
    ):
        report.add(f"max_{name}", cols[name].max(), definition, config.trials)
    _add_sentinel(report, cols)


def _texp2_chunk(args):
    # the chunk's trials are drawn as one stack and inverted once; every site
    # triple's residual is read from that stack
    config, prof, triples, theta_rows, t0, t1 = args
    z = config.z()
    what = f"seed {config.seed}, trials [{t0}, {t1}), z={z}"
    G, dev = resolvent_stack(sample_band_batch(prof, config.seed, t0, t1), z, what)
    T, lead, zm, corr = _second_order_batch(G, semicircle_m(z), z.imag, prof, triples, theta_rows)
    return {"sentinel": dev, "residual": (T - lead - zm - corr).T}  # residual[t, i]: triple i


def _exp_texp2(report, config, prof, workers):
    # the residual T - leading - zero_mode - correction has mean zero: a z-test per triple
    lat = prof.lattice
    triples = [s for s in _TEXP2_SITES if max(s) < lat.N] or [(0, 0, 0)]
    theta_rows = lat.kernel_matrix(theta_circ(prof, config.z()), [a for a, _, _ in triples])
    cols = _map_trials(_texp2_chunk, config.trials, workers, config, prof, triples, theta_rows)
    n = config.trials
    worst_z = 0.0
    for (a, b1, b2), r in zip(triples, cols["residual"].T):
        mean = r.mean()
        se_re, se_im = np.sqrt(np.var(r.real) / n), np.sqrt(np.var(r.imag) / n)
        zr = abs(mean.real) / se_re if se_re else np.inf
        zi = abs(mean.imag) / se_im if se_im else np.inf
        key = f"sites_{a}_{b1}_{b2}"
        report.add(f"mean_re_{key}", mean.real, "mean residual, real part", n, float(se_re))
        report.add(f"mean_im_{key}", mean.imag, "mean residual, imag part", n, float(se_im))
        report.add(f"z_re_{key}", zr, "|mean_re| / stderr_re", n)
        report.add(f"z_im_{key}", zi, "|mean_im| / stderr_im", n)
        worst_z = max(worst_z, zr, zi)
    report.add("max_zscore", worst_z, "largest componentwise z-score; pass iff <= 5")
    _add_sentinel(report, cols)


def _exp_propcheck(report, config, prof, workers):
    lat = prof.lattice
    n = lat.N
    rng = substream_rng(_aux_master(config.seed, 2), 0)
    gaps = {"theta_circ": 0.0, "theta": 0.0, "s_plus": 0.0}
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
        shift = semicircle_m(z).imag / (n * z.imag)
        const_dev = max(const_dev, float(np.max(np.abs((d_t - d_tc) - shift))))
        sum_dev = max(sum_dev, abs(float(props.theta_circ_fft.sum())))
    for k, v in gaps.items():
        report.add(f"max_gap_{k}", v, f"max |dense - FFT| for {k} over 5 random z", 5)
    report.add("max_theta_shift_dev", const_dev, "max |(theta - theta_circ) - Im m/(N eta)|", 5)
    report.add("max_theta_circ_sum", sum_dev, "max |sum_x theta_circ(x)|", 5)


def _locallaw_chunk(args):
    # per (draw, eta) the dense inverse is cheaper than one eigendecomposition
    # amortized over a short eta grid; the KS statistic needs eigenvalues
    # only once, computed without eigenvectors on draw 0.  Each
    # factorization takes its own draw of trial t, which costs a fraction
    # of an inverse, so H is never held beside G
    config, prof, t0, t1 = args
    etas = sorted(config.eta)
    sentinel, diag, shells = [], [], []
    for t in range(t0, t1):
        for eta in etas:
            ctx = resolvent(sample_band(prof, config.seed, t), config.z(eta), prof, check=False)
            sentinel.append(ctx.ward_dev)
            gap, shell_max = local_law_ratios(ctx)
            diag.append(gap)
            shells.append(shell_max)
            del ctx  # free this G before the next draw allocates its H
    ks = [semicircle_distance(eigenvalues(sample_band(prof, config.seed, 0)))] if t0 == 0 else []
    shape = (t1 - t0, len(etas))
    return {"sentinel": sentinel, "diag": np.reshape(diag, shape),
            "shells": np.reshape(shells, shape + (-1,)), "ks": ks}


def _exp_locallaw(report, config, prof, workers):
    # one draw per chunk: a few heavy draws would all land in one serial chunk
    cols = _map_trials(_locallaw_chunk, config.trials, workers, config, prof, chunk=1)
    report.add("ks_distance", cols["ks"][0], "semicircle KS distance of the draw-0 spectrum")
    etas = sorted(config.eta)
    ratios = cols["shells"].max(axis=(0, 2))  # shells[t, i, s - 1]: draw t, etas[i], distance s
    for eta, ratio, diag in zip(etas, ratios, cols["diag"].max(axis=0)):
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
    report.add(
        "ratio_decreasing_in_eta",
        float(np.all(ratios[:-1] > ratios[1:])),
        "1 if the max ratio decreases along the ascending eta grid",
        config.trials,
    )
    _add_sentinel(report, cols)
    report.tables["ratio_shells_eta_max"] = (
        ["distance", "max_ratio"],
        [[s, v] for s, v in enumerate(cols["shells"][0, -1], start=1)],
    )


def _gap_ratio_chunk(args):
    # all band draws before all GUE draws, the order of one pass per ensemble
    config, prof, t0, t1 = args
    band = []
    for t in range(t0, t1):
        sample = sample_band(prof, config.seed, t)
        if config.flow_time > 0:
            sample = ou_evolve(sample, config.flow_time, _aux_master(config.seed, 3), t)
        band.append(gap_ratio_mean(eigenvalues(sample), kappa=_BULK_KAPPA))
    gue = [
        gap_ratio_mean(gue_eigenvalues(config.N, _aux_master(config.seed, 4), t), kappa=_BULK_KAPPA)
        for t in range(t0, t1)
    ]
    return {"band": band, "gue": gue}


def _exp_universality(report, config, prof, workers):
    cols = _map_trials(_gap_ratio_chunk, config.trials, workers, config, prof)
    band, gue = cols["band"], cols["gue"]
    rng = substream_rng(_aux_master(config.seed, 5), 0)
    poisson = [
        gap_ratio_mean(np.sort(rng.uniform(-2, 2, 10_000)), kappa=_BULK_KAPPA)
        for _ in range(10)
    ]
    for name, vals in (("band", band), ("gue", gue), ("poisson", poisson)):
        arr = np.asarray(vals)
        report.add(
            f"{name}_gap_ratio_mean",
            arr.mean(),
            f"mean bulk gap ratio, {name} ensemble (kappa={_BULK_KAPPA})",
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


def _que_chunk(args):
    # every draw's dense-inverse trace feeds the bound; the first trials are
    # also eigendecomposed, and G is not built from spec, so the overlap
    # check's spectral trace checks one factorization against the other;
    # each factorization takes its own draw of trial t
    config, prof, pi, t0, t1 = args
    z = config.z()
    draws, spectra = [], []
    for t in range(t0, t1):
        ctx = resolvent(sample_band(prof, config.seed, t), z, prof, check=False)
        tr_res = que_trace(ctx, pi)
        draws.append((tr_res, ctx.ward_dev))
        del ctx  # free this G before the eigensolve and the next draw's inverse
        if t < config.trials:
            spec = eigensolve(sample_band(prof, config.seed, t))
            _, _, ok, tr_spec = overlap_bound_check(spec, z, pi, l=2 * z.imag)
            try:
                supnorm = deloc_supnorm(spec, kappa=_BULK_KAPPA)
            except WindowError:
                supnorm = 0.0  # no bulk eigenvalue in this draw: it adds nothing
            spectra.append((abs(tr_res - tr_spec) / max(abs(tr_res), 1e-300), ok, supnorm))
            del spec  # free the eigenvectors before the next draw's inverse
    return _columns(("trace", "sentinel"), draws) | _columns(("rel_gap", "holds", "supnorm"), spectra)


def _exp_que(report, config, prof, workers):
    pi = box_indicator(prof.lattice, max(1, config.L // 2))
    draws = max(QUE_BOUND_MIN_DRAWS, config.trials)
    cols = _map_trials(_que_chunk, draws, workers, config, prof, pi)
    mean, se, bound = que_bound_ratio(cols["trace"], prof, pi)
    report.add(
        "trace_rel_gap_max",
        cols["rel_gap"].max(),
        "max relative gap between the dense-inverse and spectral trace computations",
        config.trials,
    )
    report.add(
        "overlap_bound_holds_frac",
        cols["holds"].sum() / config.trials,
        "fraction of draws where the overlap bound holds (must be 1)",
        config.trials,
    )
    supnorm = cols["supnorm"].max()
    if supnorm == 0.0:  # a unit eigenvector has max_x |u_x|^2 >= 1/N
        raise WindowError(
            f"no eigendecomposed draw has an eigenvalue in the bulk window |x| <= {2 - _BULK_KAPPA}"
        )
    report.add(
        "max_bulk_supnorm",
        supnorm,
        f"max over draws and bulk eigenvectors (|lambda| <= {2 - _BULK_KAPPA}) of max_x |u_x|^2",
        config.trials,
    )
    report.add(
        "bulk_supnorm_times_n",
        config.N * supnorm,
        "N * max_bulk_supnorm; 1 for a flat eigenvector",
        config.trials,
    )
    report.add(
        "bulk_supnorm_paper_ratio",
        supnorm / (prof.W**-5.0 * config.L ** (5.0 - config.d)),
        "max_bulk_supnorm / (W^-5 L^(5-d)); report-only: the bound is proved for d >= 7",
        config.trials,
    )
    report.add(
        "bound_trace_mean_abs", mean, "E|trace((Im G) Pi (Im G) Pi)| estimate", draws, se
    )
    report.add("bound_bound_scale", bound, "(sum_y |Pi_y|) * (max_x sum_y B_xy |Pi_y|)")
    report.add("bound_ratio", mean / bound, "trace_mean_abs / bound_scale", draws)
    report.add("bound_ratio_flagged", float(mean / bound > 100.0), "1 if ratio > 100")
    _add_sentinel(report, cols)


def _exp_graph(report, config, prof, workers):
    from .graphs import (
        Atom,
        AtomicGraph,
        Coefficient,
        Edge,
        EdgeKind,
        evaluate,
        second_order_graphs,
        standard_bindings,
    )

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

    report.add("eval_gap_t_three", gap_t3, "|evaluate(t_three graph) - t_three|")
    report.add("eval_gap_expansion", gap_exp, "|sum of expansion graph values - spectral terms|")
    report.add("max_ward_sentinel_dev", ctx.ward_dev, _SENTINEL_DEF)


_AT_Z = ("E", "eta", "trials", "seed")  # z = E + i eta[0]; locallaw alone reads the eta grid
# experiment -> (fn(report, config, prof, workers), which fills the report run made;
# the fields fn reads beyond the profile's, the only ones _validate lets leave their defaults)
_DISPATCH = {
    "profile": (_exp_profile, ()),
    "wardcheck": (_exp_wardcheck, _AT_Z),
    "texp2": (_exp_texp2, _AT_Z),
    "propcheck": (_exp_propcheck, ("seed",)),
    "locallaw": (_exp_locallaw, _AT_Z),
    "universality": (_exp_universality, ("trials", "seed", "flow_time")),
    "que": (_exp_que, _AT_Z),
    "graph": (_exp_graph, ("E", "eta", "seed")),
}

EXPERIMENTS = tuple(_DISPATCH)


def _params(config: ExperimentConfig, prof) -> dict:
    # the fields the metrics read; W is the profile's: L at mean-field, whatever --band says
    reads = ("experiment", *_PROFILE_FIELDS, *_DISPATCH[config.experiment][1])
    return {k: getattr(config, k) for k in reads} | {"W": prof.W}


# --- persistence ----------------------------------------------------------


def _write_outputs(config: ExperimentConfig, report: StatReport):
    out = config.out
    os.makedirs(out, exist_ok=True)
    manifest = {
        "config": dataclasses.asdict(config),
        "version": __version__,
        "seed": config.seed,
        "blas": _lapack.blas_info(),  # reruns are bit-identical at this thread count
    }
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
    """Validate; build the run's one profile and report; let the experiment
    fill the report; persist.  Deterministic for any worker count."""
    if workers < 1:
        raise ValidationError(f"workers={workers} must be >= 1")
    # a config built in code is cast too, so its manifest reruns byte for byte
    config = cast_config(dataclasses.asdict(config))
    _validate(config)
    t0 = time.perf_counter()
    prof = _profile_for(config)
    report = StatReport(config.experiment, params=_params(config, prof))
    _DISPATCH[config.experiment][0](report, config, prof, workers)
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
    """The config a manifest records, to rerun.  Prints one warning line on
    stderr when the BLAS thread count the manifest records differs from the
    current one: BLAS results, and so metrics, can differ in the last
    digits between thread counts."""
    try:
        manifest = json.loads(_read_text(path, "manifest"))
        raw = manifest["config"]
    except (ValueError, TypeError, KeyError):
        raw = None
    if not isinstance(raw, dict):
        raise ValidationError(f"manifest {str(path)!r} is not JSON with a config object")
    config = cast_config(raw)
    recorded = manifest.get("blas")
    if isinstance(recorded, dict):  # manifests written before the BLAS fields have none
        current = _lapack.blas_info()
        now = None if current is None else current["threads"]
        if recorded.get("threads") != now:
            print(
                f"warning: the manifest records {recorded.get('threads')} BLAS threads, this "
                f"run has {now}; metrics may differ from the recorded ones in the last digits",
                file=sys.stderr,
            )
    return config


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
