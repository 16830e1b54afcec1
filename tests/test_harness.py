import dataclasses
import json
import os
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rbmlab import _lapack, cli, harness
from rbmlab.errors import CapacityError, ValidationError
from rbmlab.harness import (
    ExperimentConfig,
    load_manifest,
    parse_config_file,
    rerun,
    run,
)
from rbmlab.lattice import TorusLattice
from rbmlab.profile import build_profile, get_shape
from rbmlab.sampler import ou_evolve, sample_band
from rbmlab.seeding import seed_substream, substream_rng
from rbmlab.spectral import SpectralData, eigensolve, gue_eigenvalues, resolvent
from rbmlab.stats import box_indicator, gap_ratio_mean, local_law_ratios, que_trace


def test_seed_substream_deterministic():
    assert seed_substream(42, 7) == seed_substream(42, 7)
    assert seed_substream(42, 7) != seed_substream(42, 8)
    assert seed_substream(41, 7) != seed_substream(42, 7)
    assert 0 <= seed_substream(2**63, 2**40) < 2**64


def test_seed_substream_collision_scan():
    keys = {seed_substream(123, t) for t in range(1_000_000)}
    assert len(keys) == 1_000_000


def test_substream_independence_smoke(small_profile):
    # entry mean across substreams is zero within standard error
    vals = np.array(
        [sample_band(small_profile, 5, t).matrix[0, 1].real for t in range(4000)]
    )
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean()) < 5 * se


def test_substream_rng_reproducible():
    a = substream_rng(9, 3).standard_normal(4)
    b = substream_rng(9, 3).standard_normal(4)
    assert np.array_equal(a, b)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return map(fn, args)


@pytest.mark.parametrize("workers,chunks,pool", [(64, 4, 4), (3, 5, 3), (2, 2, 2), (8, 1, None)])
def test_map_chunks_pool_never_bigger_than_the_work(monkeypatch, workers, chunks, pool):
    import concurrent.futures

    from rbmlab.seeding import _map_chunks

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    assert _map_chunks(abs, list(range(-chunks, 0)), workers) == list(range(chunks, 0, -1))
    assert _RecordingPool.sizes == ([] if pool is None else [pool])


def test_config_validation_errors():
    with pytest.raises(ValidationError, match="experiment"):
        run(ExperimentConfig("nope"))
    with pytest.raises(ValidationError, match="eta"):
        run(ExperimentConfig("wardcheck", eta=(-0.5,)))
    with pytest.raises(ValidationError, match="E="):
        run(ExperimentConfig("wardcheck", E=2.5))
    with pytest.raises(ValidationError, match="W="):
        run(ExperimentConfig("wardcheck", W=0.2))
    with pytest.raises(ValidationError, match="log2"):
        run(ExperimentConfig("wardcheck", d=4, L=512))
    nan, inf = float("nan"), float("inf")
    for field, value in (("W", nan), ("W", inf), ("W", 2 * harness._MAX_BAND), ("E", nan),
                         ("eta", (nan,)), ("eta", (0.5, inf)), ("flow_time", nan), ("flow_time", inf)):
        with pytest.raises(ValidationError, match=f"{field}="):
            run(ExperimentConfig("universality", **{field: value}))
    with pytest.raises(CapacityError, match="8192"):
        run(ExperimentConfig("wardcheck", d=1, L=16384))
    harness._validate(ExperimentConfig("universality", W=harness._MAX_BAND))  # the bound is admitted


def test_manifest_roundtrip(tmp_path):
    out = tmp_path / "run1"
    cfg = ExperimentConfig("wardcheck", d=1, L=16, W=2.0, trials=4, seed=11, out=str(out))
    record = run(cfg)
    loaded = load_manifest(out / "manifest.json")
    assert loaded == cfg
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11 and manifest["version"] == record.version
    assert (out / "metrics.json").exists()
    assert not [p for p in os.listdir(out) if p.endswith(".tmp")]


def test_manifest_records_the_blas_conditions(tmp_path, monkeypatch, capsys):
    cfg = ExperimentConfig("wardcheck", d=1, L=8, W=2.0, trials=2, seed=4, out=str(tmp_path / "a"))
    rec = run(cfg)
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    recorded = manifest["blas"]
    assert recorded == _lapack.blas_info()
    assert recorded["library"].startswith("libscipy_openblas64_") and recorded["threads"] >= 1
    assert rerun(tmp_path / "a" / "manifest.json").report.to_json() == rec.report.to_json()
    assert "warning:" not in capsys.readouterr().err
    # another thread count at rerun time: one warning line
    with monkeypatch.context() as m:
        m.setattr(_lapack, "blas_info", lambda: {**recorded, "threads": recorded["threads"] + 1})
        assert cli.main(["rerun", "--manifest", str(tmp_path / "a" / "manifest.json")]) == 0
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert len(warnings) == 1 and f"records {recorded['threads']} BLAS threads" in warnings[0]
    # without the bundled OpenBLAS the manifest records null; a manifest
    # without the field (written before it existed) reruns without a warning
    monkeypatch.setattr(_lapack, "_library", lambda: None)
    run(dataclasses.replace(cfg, out=str(tmp_path / "b")))
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["blas"] is None
    del manifest["blas"]
    (tmp_path / "b" / "manifest.json").write_text(json.dumps(manifest))
    rerun(tmp_path / "b" / "manifest.json")
    assert "warning:" not in capsys.readouterr().err


def test_locallaw_draw_never_holds_h_beside_g():
    # each factorization takes its own draw: the peak is one resolvent
    # (1.14 N^2 complex entries) or the draw, not H beside G (2.2 N^2)
    cfg = ExperimentConfig("locallaw", d=2, L=32, W=4.0, eta=(0.1, 0.3, 1.0), trials=1, seed=3)
    prof = harness._profile_for(cfg)
    n = prof.lattice.N
    tracemalloc.start()
    try:
        harness._locallaw_draw((cfg, prof, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * 16 * n * n, peak / (16 * n * n)


def test_ward_chunk_peak_memory_is_one_resolvent():
    # the residual scale's max |G_xy| is read in row blocks: the peak is a
    # resolvent (1.14 N^2 complex entries) and the chunk's block temporaries,
    # not G beside a real N x N |G| (1.51 N^2)
    cfg = ExperimentConfig("wardcheck", d=2, L=32, W=4.0, trials=1, seed=1)
    prof = harness._profile_for(cfg)
    n = prof.lattice.N
    tracemalloc.start()
    try:
        harness._ward_chunk((cfg, prof, 0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 16 * n * n, peak / (16 * n * n)


def test_rerun_bit_for_bit(tmp_path):
    out1 = tmp_path / "a"
    cfg = ExperimentConfig("wardcheck", d=2, L=6, W=2.0, trials=130, seed=3, out=str(out1))
    rec1 = run(cfg, workers=1)
    rec2 = rerun(out1 / "manifest.json", out=str(tmp_path / "b"), workers=2)
    assert rec1.report.to_json() == rec2.report.to_json()
    m1 = json.loads((tmp_path / "a" / "metrics.json").read_text())["metrics"]
    m2 = json.loads((tmp_path / "b" / "metrics.json").read_text())["metrics"]
    assert m1 == m2


def test_substream_keys_recorded(tmp_path):
    cfg = ExperimentConfig("wardcheck", d=1, L=8, W=2.0, trials=5, seed=13)
    rec = run(cfg)
    assert rec.wall_time >= 0.0


def test_texp2_experiment_statistical_zero():
    rec = run(ExperimentConfig("texp2", d=1, L=8, W=2.0, E=0.2, eta=(0.5,), trials=2000, seed=3))
    assert rec.report["max_zscore"] <= 5.0


def test_que_trace_check_flags_a_wrong_eigendecomposition(monkeypatch):
    cfg = ExperimentConfig("que", d=1, L=64, W=2.0, E=0.2, eta=(0.5,), trials=3, seed=6)
    assert run(cfg).report["trace_rel_gap_max"] <= 1e-10
    clean = harness.eigensolve

    def swapped(sample):
        # eigenvectors paired with the wrong eigenvalues: still orthonormal,
        # so only a second route to G can tell
        spec = clean(sample)
        return SpectralData(spec.eigenvalues, spec.eigenvectors[:, ::-1])

    monkeypatch.setattr(harness, "eigensolve", swapped)
    assert run(cfg).report["trace_rel_gap_max"] > 1e-3


def test_que_experiment_3d_smoke():
    rec = run(ExperimentConfig("que", d=3, L=8, W=4.0, E=0.2, eta=(0.2,), trials=3, seed=6))
    assert np.isfinite(rec.report["bound_ratio"])
    assert rec.report["overlap_bound_holds_frac"] == 1.0
    assert rec.report["trace_rel_gap_max"] <= 1e-8
    # a unit vector over N = 512 sites has max_x |u_x|^2 in [1/N, 1]
    sup = rec.report["max_bulk_supnorm"]
    assert 1.0 / 512 <= sup <= 1.0
    assert rec.report["bulk_supnorm_times_n"] == 512 * sup
    assert rec.report["bulk_supnorm_paper_ratio"] == sup / (4.0**-5 * 8.0**2)


def test_que_without_a_bulk_eigenvalue_exits_2(tmp_path, monkeypatch, capsys):
    clean = harness.eigensolve

    def shifted(sample):
        # every eigenvalue moved outside the bulk window |x| <= 1.5
        spec = clean(sample)
        return SpectralData(spec.eigenvalues + 10.0, spec.eigenvectors)

    monkeypatch.setattr(harness, "eigensolve", shifted)
    out = tmp_path / "que"
    args = ["que", "--dim", "1", "--size", "16", "--band", "2", "--trials", "2"]
    assert cli.main([*args, "--out", str(out)]) == 2
    assert "bulk window" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


def test_que_bound_averages_the_trace_draws(monkeypatch):
    # max(20, trials) draws feed the bound; only the first `trials` are
    # eigendecomposed
    cfg = ExperimentConfig("que", d=1, L=16, W=2.0, E=0.2, eta=(0.5,), trials=3, seed=6)
    clean = harness.eigensolve
    solved = []
    monkeypatch.setattr(harness, "eigensolve", lambda s: solved.append(s) or clean(s))
    rep = run(cfg).report
    assert len(solved) == 3
    prof = build_profile(get_shape("gaussian"), 2.0, TorusLattice(1, 16))
    pi = box_indicator(prof.lattice, 8)
    traces = [que_trace(resolvent(sample_band(prof, 6, t), cfg.z(), prof), pi) for t in range(20)]
    assert rep["bound_trace_mean_abs"] == pytest.approx(np.mean(np.abs(traces)), rel=1e-12)
    assert rep.metrics["bound_trace_mean_abs"].n == 20
    assert rep.metrics["max_ward_sentinel_dev"].n == 20


def test_mean_field_metrics_read_the_profile_band_not_the_flag(tmp_path):
    # the mean-field profile has W = L whatever --band says, and so do its
    # metrics and params: --band changes no byte of metrics.json
    outs = [tmp_path / band for band in ("2", "8")]
    for out in outs:
        args = ["profile", "--dim", "1", "--size", "8", "--psi", "mean-field", "--band", out.name]
        assert cli.main([*args, "--out", str(out)]) == 0
    a, b = ((out / "metrics.json").read_bytes() for out in outs)
    assert a == b
    rec = json.loads(a)
    assert rec["params"]["W"] == 8.0 and rec["metrics"]["gap_over_WL_sq"]["value"] == 1.0
    ratio = [
        run(ExperimentConfig("que", d=2, L=8, W=w, psi="mean-field", trials=2)).report["bulk_supnorm_paper_ratio"]
        for w in (2.0, 8.0)
    ]
    assert ratio[0] == ratio[1] > 0


def test_que_two_chunks_match_across_worker_counts():
    cfg = ExperimentConfig("que", d=1, L=16, W=2.0, E=0.2, eta=(0.5,), trials=70, seed=6)
    one = run(cfg, workers=1).report
    assert "max_bulk_supnorm" in one.metrics
    assert one.to_json() == run(cfg, workers=2).report.to_json()


def test_universality_experiment_with_flow():
    rec = run(
        ExperimentConfig("universality", d=1, L=80, W=80.0, trials=2, seed=5, flow_time=0.5)
    )
    for key in ("band_gap_ratio_mean", "gue_gap_ratio_mean", "poisson_gap_ratio_mean"):
        assert 0.0 <= rec.report[key] <= 1.0
    # the eigenvalue-only route reproduces the full eigensystem's spectrum
    prof = build_profile(get_shape("gaussian"), 80.0, TorusLattice(1, 80))
    band = [
        ou_evolve(sample_band(prof, 5, t), 0.5, harness._aux_master(5, 3), t)
        for t in range(2)
    ]
    want = np.mean([gap_ratio_mean(eigensolve(s).eigenvalues, kappa=0.5) for s in band])
    assert abs(rec.report["band_gap_ratio_mean"] - want) <= 1e-12
    # the GUE oracle is the tridiagonal-model spectrum of its own substream
    gue = [gue_eigenvalues(80, harness._aux_master(5, 4), t) for t in range(2)]
    want = np.mean([gap_ratio_mean(w, kappa=0.5) for w in gue])
    assert rec.report["gue_gap_ratio_mean"] == want


def test_locallaw_matches_per_draw_ratios():
    # each metric is the max over draws of local_law_ratios of that draw's
    # resolvent, computed here one draw and one eta at a time
    cfg = ExperimentConfig("locallaw", d=2, L=10, W=2.0, eta=(0.2, 0.6), trials=2, seed=8)
    rep = run(cfg).report
    prof = build_profile(get_shape("gaussian"), 2.0, TorusLattice(2, 10))
    for eta in cfg.eta:
        ratio = diag = 0.0
        for t in range(cfg.trials):
            ctx = resolvent(sample_band(prof, 8, t), cfg.z(eta), prof, check=False)
            gap, shell_max = local_law_ratios(ctx)
            ratio = max(ratio, shell_max.max())
            diag = max(diag, gap)
        assert rep[f"max_offdiag_ratio_eta_{eta:g}"] == ratio
        assert rep[f"max_diag_gap_eta_{eta:g}"] == diag
    # the shell table is draw 0's at the largest eta, one row per distance
    z = cfg.z(max(cfg.eta))
    ctx = resolvent(sample_band(prof, 8, 0), z, prof, check=False)
    _, shell_max = local_law_ratios(ctx)
    header, rows = rep.tables["ratio_shells_eta_max"]
    assert header == ["distance", "max_ratio"]
    assert rows == [[s, v] for s, v in enumerate(shell_max, start=1)]


def test_csv_format_output(tmp_path):
    out = tmp_path / "csvrun"
    rec = run(ExperimentConfig("profile", d=1, L=16, W=2.0, out=str(out), fmt="csv"))
    text = (out / "metrics.csv").read_text()
    assert text == rec.report.csv_text()
    lines = text.splitlines()
    assert lines[0] == "metric,value,stderr,n,definition"
    assert (out / "kernel.csv").exists() and (out / "symbol.csv").exists()


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\nexperiment = wardcheck\nd=1\nL = 16\nW=2\neta=0.3,0.6\ntrials=3\nseed=5\n"
    )
    raw = parse_config_file(path)
    assert raw["experiment"] == "wardcheck" and raw["eta"] == "0.3,0.6"
    with pytest.raises(ValidationError):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no equals sign here\n")
        parse_config_file(bad)


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rbmlab.cli", *args], capture_output=True, text=True
    )


def test_cli_success_and_exit_codes(tmp_path):
    out = tmp_path / "cli"
    res = _run_cli(
        "wardcheck", "--dim", "1", "--size", "16", "--band", "2", "--eta", "0.5",
        "--trials", "3", "--seed", "4", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert "max_residual" in res.stdout
    assert (out / "manifest.json").exists()

    assert _run_cli("wardcheck", "--eta", "-1").returncode == 2
    for workers in ("0", "-3"):
        assert cli.main(["wardcheck", "--trials", "2", "--workers", workers]) == 2
    assert _run_cli("wardcheck", "--size", "16384").returncode == 3
    for args in (
        ["universality", "--size", "64", "--band", "4", "--flow-time", "nan", "--trials", "2"],
        ["texp2", "--flow-time", "inf", "--trials", "100"],
        ["profile", "--band", "nan"],
        ["profile", "--band", "inf"],
        ["profile", "--band", "1e100"],  # finite, but (W/L)**2 overflows near 1e154
        ["que", "--band", "1e100", "--trials", "1"],  # W**-5 underflows to 0
        ["wardcheck", "--eta", "0.1,inf", "--trials", "2"],
    ):
        bad = tmp_path / args[0]
        assert cli.main([*args, "--out", str(bad)]) == 2, args
        assert not (bad / "metrics.json").exists()


@pytest.mark.parametrize("eta", ["0.3,0.3", "0.3,0.3000001,1.0"])
def test_eta_grid_with_colliding_labels_exits_2(tmp_path, eta):
    out = tmp_path / "locallaw"
    res = _run_cli(
        "locallaw", "--dim", "1", "--size", "64", "--band", "4", "--eta", eta,
        "--trials", "1", "--out", str(out),
    )
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and "label(s) ['0.3']" in res.stderr
    assert not (out / "metrics.json").exists()


def test_cli_exits_0_when_the_reader_closes_stdout_early():
    proc = subprocess.Popen(
        [sys.executable, "-m", "rbmlab.cli", "profile", "--dim", "1", "--size", "64", "--band", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0, err
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_band_wrap_warning_is_one_line(workers):
    res = _run_cli("texp2", "--dim", "1", "--size", "2", "--band", "1", "--trials", "130", "--workers", workers)
    assert res.returncode == 0, res.stderr
    assert res.stderr == "warning: L=2 <= 2W=2.0: band wraps around the torus\n"


@pytest.mark.parametrize(
    "args",
    [
        ["profile", "--dim", "1", "--size", "16", "--band", "1"],  # negative kernel entry
        ["universality", "--dim", "1", "--size", "16", "--trials", "2"],  # < 50 bulk eigenvalues
    ],
)
def test_inadmissible_input_exits_2_without_traceback(tmp_path, args):
    out = tmp_path / args[0]
    res = _run_cli(*args, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("under", [False, True])
def test_out_that_names_a_file_exits_2_before_the_run(tmp_path, monkeypatch, under):
    src = tmp_path / "src"
    assert cli.main(["profile", "--dim", "1", "--size", "8", "--out", str(src)]) == 0
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "run" if under else blocker
    # no experiment may start: the check comes before any draw
    monkeypatch.setitem(harness._DISPATCH, "profile", (lambda report, config, prof, workers: pytest.fail("ran"), ()))
    for args in (
        ["profile", "--dim", "1", "--size", "8", "--out", str(out)],
        ["rerun", "--manifest", str(src / "manifest.json"), "--out", str(out)],
    ):
        assert cli.main(args) == 2, args
    res = _run_cli("profile", "--dim", "1", "--size", "8", "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and "is a file or lies under one" in res.stderr
    assert "Traceback" not in res.stderr and len(res.stderr.splitlines()) == 1
    assert blocker.read_text() == "kept\n"


def test_flags_a_command_does_not_take_exit_2_before_the_run(tmp_path, monkeypatch, capsys):
    src = tmp_path / "src"
    assert cli.main(["profile", "--dim", "1", "--size", "8", "--out", str(src)]) == 0
    manifest = str(src / "manifest.json")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("trials=50\n")
    capsys.readouterr()
    for name in ("profile", "locallaw"):
        monkeypatch.setitem(harness._DISPATCH, name, (lambda *_: pytest.fail("ran"), harness._DISPATCH[name][1]))
    for args, stray in (
        (["rerun", "--manifest", manifest, "--trials", "50", "--dim", "2"], "--dim, --trials"),
        (["rerun", "--manifest", manifest, "--config", str(cfg)], "--config"),
        (["rerun", "--manifest", manifest, "--format", "csv", "--out", str(tmp_path / "r")], "--format"),
        (["locallaw", "--dim", "1", "--size", "64", "--manifest", manifest], "--manifest"),
    ):
        assert cli.main(args) == 2, args
        err = capsys.readouterr().err
        assert err == f"error: {args[0]} does not take {stray}\n", args
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("energy", ["1.95", "-1.95"])
def test_locallaw_outside_the_bulk_exits_2_before_any_draw(monkeypatch, capsys, energy):
    monkeypatch.setattr(harness, "sample_band", lambda *args: pytest.fail("drew"))
    args = ["locallaw", "--dim", "1", "--size", "64", "--eta", "0.1,0.2", "--trials", "2"]
    assert cli.main([*args, f"--energy={energy}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "|E| <= 1.9" in err and len(err.splitlines()) == 1
    harness._validate(ExperimentConfig("locallaw", E=-1.9))  # the bulk edge is admitted
    harness._validate(ExperimentConfig("wardcheck", E=1.95))  # only the bulk statistic needs the bulk


@pytest.mark.parametrize("mask,mode", [(0o022, 0o644), (0o027, 0o640)])
def test_output_files_take_the_umask_mode(tmp_path, mask, mode):
    out, prof = tmp_path / "run", tmp_path / "profile"
    old = os.umask(mask)
    try:
        run(ExperimentConfig("wardcheck", d=1, L=8, W=2.0, trials=2, out=str(out)))
        run(ExperimentConfig("profile", d=1, L=8, W=2.0, out=str(prof)))
    finally:
        os.umask(old)
    for path in (out / "manifest.json", out / "metrics.json", prof / "kernel.csv"):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path


@pytest.mark.parametrize("value,stderr", [(float("nan"), None), (1.0, float("inf"))])
def test_non_finite_metric_exits_4_without_metrics(tmp_path, monkeypatch, capsys, value, stderr):
    def nan_experiment(report, config, prof, workers):
        report.add("ok", 1.0, "finite", stderr=0.1)
        report.add("broken", value, "not finite", stderr=stderr)

    monkeypatch.setitem(harness._DISPATCH, "profile", (nan_experiment, ()))
    out = tmp_path / "nan"
    assert cli.main(["profile", "--out", str(out)]) == 4
    assert "'broken'" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("experiment", ["wardcheck", "locallaw", "graph", "texp2", "que"])
def test_corrupted_resolvent_exits_4_without_metrics(tmp_path, monkeypatch, capsys, experiment):
    from rbmlab import spectral

    clean_inv = spectral._block_inv

    def corrupted_inv(a):
        G = clean_inv(a)
        G[..., 1, 2] *= 1.01
        return G

    monkeypatch.setattr(spectral, "_block_inv", corrupted_inv)
    out = tmp_path / experiment
    trials = {"texp2": ["--trials", "100"], "graph": []}.get(experiment, ["--trials", "2"])  # texp2 needs 100
    args = [experiment, "--dim", "1", "--size", "16", "--band", "2", *trials]
    assert cli.main([*args, "--out", str(out)]) == 4
    assert "Ward sentinel" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


def test_resolvent_experiments_record_the_ward_sentinel():
    for experiment in ("wardcheck", "locallaw", "graph", "texp2", "que"):
        trials = {"texp2": 100, "graph": 10}.get(experiment, 2)  # graph reads no trials: the default
        eta = (0.1, 0.5) if experiment == "locallaw" else (0.1,)  # only locallaw reads a grid
        cfg = ExperimentConfig(experiment, d=1, L=16, W=2.0, eta=eta, trials=trials)
        assert 0.0 <= run(cfg).report["max_ward_sentinel_dev"] <= 1e-10, experiment


def test_propcheck_experiment_and_its_dense_cap(tmp_path):
    rep = run(ExperimentConfig("propcheck", d=2, L=6, W=2.0, seed=3)).report
    gaps = [k for k in rep.metrics if k.startswith("max_gap_")]
    assert len(gaps) == 3  # theta_circ, theta, s_plus; s_minus is s_plus conjugated
    assert all(rep[k] <= 1e-8 for k in gaps), {k: rep[k] for k in gaps}
    out = tmp_path / "big"
    assert cli.main(["propcheck", "--size", "513", "--out", str(out)]) == 3
    assert not (out / "metrics.json").exists()


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "c.cfg"
    # texp2 would fail on 2 trials: the experiment argument wins as well
    cfg.write_text("experiment=texp2\nd=1\nL=32\nW=4\ntrials=2\nseed=9\neta=0.4\n")
    out = tmp_path / "o"
    res = _run_cli("wardcheck", "--config", str(cfg), "--size", "16", "--out", str(out))
    assert res.returncode == 0, res.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["experiment"] == "wardcheck"
    assert manifest["config"]["L"] == 16  # flag wins
    assert manifest["config"]["W"] == 4.0  # file value kept


@pytest.mark.parametrize("line", ["L = abc", "trials = 2.5", "eta = x", "colour = red"])
def test_cli_config_file_bad_value_exits_2(tmp_path, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"d=1\n{line}\n")
    res = _run_cli("wardcheck", "--config", str(cfg), "--trials", "2")
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


def test_cli_missing_config_file_exits_2(tmp_path):
    res = _run_cli("profile", "--config", str(tmp_path / "missing.cfg"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


def _good_manifest():
    cfg = ExperimentConfig("wardcheck", d=1, L=8, W=2.0, trials=2, seed=1, out="x")
    return {"config": dataclasses.asdict(cfg), "version": "0", "seed": 1}


@pytest.mark.parametrize("defect", [
    "unknown key", "trials 2.5", "eta x", "malformed JSON", "missing file", "no config",
    "removed experiment",
])
def test_cli_rerun_bad_manifest_exits_2(tmp_path, defect):
    manifest = _good_manifest()
    text = None
    if defect == "unknown key":
        manifest["config"]["colour"] = "red"
    elif defect == "trials 2.5":
        manifest["config"]["trials"] = 2.5
    elif defect == "eta x":
        manifest["config"]["eta"] = "x"
    elif defect == "malformed JSON":
        text = json.dumps(manifest)[:-2]
    elif defect == "no config":
        del manifest["config"]
    elif defect == "removed experiment":  # written by rbm pgon, which is gone
        manifest["config"]["experiment"] = "pgon"
    path = tmp_path / "manifest.json"
    if defect != "missing file":
        path.write_text(text if text is not None else json.dumps(manifest))
    out = tmp_path / "out"
    res = _run_cli("rerun", "--manifest", str(path), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    if defect == "removed experiment":
        assert "experiment='pgon'" in res.stderr
    assert not (out / "metrics.json").exists()


def test_cast_config_casts_text_and_json_alike():
    from rbmlab.harness import cast_config

    text = {"experiment": "que", "L": "16", "W": "2", "eta": "0.1,0.5", "out": "o"}
    js = {"experiment": "que", "L": 16.0, "W": 2, "eta": [0.1, 0.5], "out": "o"}
    assert cast_config(text) == cast_config(js) == ExperimentConfig(
        "que", L=16, W=2.0, eta=(0.1, 0.5), out="o"
    )
    for bad in ({"L": 2.5}, {"L": "2.5"}, {"psi": 3}, {"eta": []}, {"eta": 0.5}, {"seed": None}):
        with pytest.raises(ValidationError, match="bad value"):
            cast_config({"experiment": "que", **bad})
    with pytest.raises(ValidationError, match="no experiment"):
        cast_config({"L": "16"})


def test_cli_rerun(tmp_path):
    out = tmp_path / "r1"
    res = _run_cli(
        "wardcheck", "--dim", "1", "--size", "8", "--band", "2",
        "--trials", "2", "--seed", "1", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    out2 = tmp_path / "r2"
    res2 = _run_cli("rerun", "--manifest", str(out / "manifest.json"), "--out", str(out2))
    assert res2.returncode == 0, res2.stderr
    a = json.loads((out / "metrics.json").read_text())["metrics"]
    b = json.loads((out2 / "metrics.json").read_text())["metrics"]
    assert a == b
    assert _run_cli("rerun").returncode == 2


# a tiny config per experiment, and a change of each field no profile reads
_TINY = {
    "profile": dict(d=1, L=8, W=2.0),
    "wardcheck": dict(d=1, L=8, W=2.0, trials=2),
    "texp2": dict(d=1, L=8, W=2.0, trials=100),
    "propcheck": dict(d=1, L=6, W=2.0),
    "locallaw": dict(d=1, L=16, W=2.0, eta=(0.2, 0.6), trials=2),
    "universality": dict(d=1, L=80, W=80.0, trials=2),
    "que": dict(d=1, L=16, W=2.0, trials=2),
    "graph": dict(d=1, L=8, W=2.0),
}
_NUDGES = {
    "E": lambda v: v + 0.1,
    "eta": lambda v: tuple(1.5 * e for e in v),
    "trials": lambda v: v + 1,
    "seed": lambda v: v + 1,
    "flow_time": lambda v: v + 0.5,
}


def _config_file(path, cfg):
    values = {k: v for k, v in dataclasses.asdict(cfg).items() if v is not None}
    path.write_text("".join(f"{k}={','.join(map(str, v)) if k == 'eta' else v}\n" for k, v in values.items()))
    return str(path)


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_each_experiment_reads_exactly_the_fields_its_table_names(tmp_path, monkeypatch, capsys, experiment):
    # a field the table names moves the metrics; any other field moves nothing, and off
    # its default it exits 2 before the run
    fn, reads = harness._DISPATCH[experiment]
    base = ExperimentConfig(experiment, **_TINY[experiment])
    report = json.loads(run(base).report.to_json())
    assert sorted(report["params"]) == sorted(("experiment", "d", "L", "W", "psi", *reads))
    for name, nudge in _NUDGES.items():
        cfg = dataclasses.replace(base, **{name: nudge(getattr(base, name))})
        if name in reads:
            assert json.loads(run(cfg).report.to_json())["metrics"] != report["metrics"], name
            continue
        with monkeypatch.context() as m:
            m.setattr(harness, "_validate", lambda config: None)
            assert json.loads(run(cfg).report.to_json())["metrics"] == report["metrics"], name
        with monkeypatch.context() as m:
            m.setitem(harness._DISPATCH, experiment, (lambda *_: pytest.fail("ran"), reads))
            out = tmp_path / name
            capsys.readouterr()
            assert cli.main([experiment, "--config", _config_file(tmp_path / "c.cfg", cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{name}=" in err and len(err.splitlines()) == 1, err
        assert not (out / "metrics.json").exists()
    if "eta" in reads and experiment != "locallaw":  # eta[0] only: a grid exits 2
        grid = dataclasses.replace(base, eta=(0.5, 0.9))
        with monkeypatch.context() as m:
            m.setattr(harness, "_validate", lambda config: None)
            assert json.loads(run(grid).report.to_json())["metrics"] == report["metrics"]
        with pytest.raises(ValidationError, match=r"eta=\(0\.5, 0\.9\) is a grid"):
            run(grid)


def test_an_unread_field_off_its_default_exits_2_from_flags_files_and_manifests(tmp_path, capsys):
    src = tmp_path / "src"
    assert cli.main(["profile", "--dim", "1", "--size", "8", "--seed", "1", "--out", str(src)]) == 0
    manifest = json.loads((src / "manifest.json").read_text())
    manifest["config"]["seed"] = 2
    (tmp_path / "seed2.json").write_text(json.dumps(manifest))
    (tmp_path / "seed2.cfg").write_text("seed=2\n")
    capsys.readouterr()
    for args in (
        ["profile", "--dim", "1", "--size", "8", "--seed", "2"],
        ["profile", "--dim", "1", "--size", "8", "--config", str(tmp_path / "seed2.cfg")],
        ["rerun", "--manifest", str(tmp_path / "seed2.json")],
        ["wardcheck", "--eta", "0.3,0.9"],
    ):
        out = tmp_path / "out"
        assert cli.main([*args, "--out", str(out)]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert ("eta=(0.3, 0.9)" if args[0] == "wardcheck" else "seed=2") in err, err
        assert not out.exists()
    assert cli.main(["wardcheck", "--eta", "0.3", "--trials", "2", "--out", str(tmp_path / "w")]) == 0
