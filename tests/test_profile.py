import os
import subprocess
import sys

import numpy as np
import pytest

from rbmlab.errors import ParameterError
from rbmlab.harness import ExperimentConfig, run
from rbmlab.lattice import TorusLattice
from rbmlab.profile import (
    band_truncation_mass,
    build_profile,
    get_shape,
    mean_field_profile,
)


def direct_kernel(psi, W, L):
    """O(L^2) direct summation of the defining Fourier sum (d=1 oracle)."""
    ks = np.fft.fftfreq(L) * L
    vals = np.array([psi.eval(np.array([2 * np.pi * W * k / L])) for k in ks])
    kern = np.array(
        [np.sum(vals * np.exp(2j * np.pi * ks * x / L)).real / L for x in range(L)]
    )
    return kern / kern.sum()


def test_kernel_normalization(small_profile):
    assert abs(small_profile.kernel_fft.sum() - 1.0) < 1e-12


def test_kernel_symmetry():
    prof = build_profile(get_shape("gaussian"), 2.0, TorusLattice(1, 16))
    k = prof.kernel_fft
    assert np.max(np.abs(k - k[np.mod(-np.arange(16), 16)])) < 1e-15


def test_kernel_against_direct_summation_oracle():
    psi = get_shape("gaussian")
    prof = build_profile(psi, 2.0, TorusLattice(1, 16))
    oracle = direct_kernel(psi, 2.0, 16)
    assert abs(prof.kernel_fft[0] - oracle[0]) < 1e-12
    assert np.max(np.abs(prof.kernel_fft - oracle)) < 1e-12


def test_row_sums_equal_one():
    prof = build_profile(get_shape("gaussian"), 2.0, TorusLattice(2, 8))
    S = prof.dense_matrix()
    assert np.max(np.abs(S.sum(axis=0) - 1.0)) < 1e-12
    assert np.max(np.abs(S.sum(axis=1) - 1.0)) < 1e-12


def test_symbol_kernel_dft_consistency():
    prof = build_profile(get_shape("gaussian"), 2.0, TorusLattice(2, 8))
    back = np.fft.ifftn(prof.symbol_fft)
    assert np.max(np.abs(back - prof.kernel_fft)) < 1e-12
    assert abs(prof.symbol_fft.ravel()[0] - 1.0) < 1e-14
    assert np.max(np.abs(prof.symbol_fft)) <= 1.0 + 1e-12


def test_gaussian_symbol_positive_with_gap():
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 64))
    lam = prof.symbol_fft.ravel()
    assert lam.min() > -1e-12  # positive up to FFT round-off near zero
    gap = 1.0 - np.delete(lam, 0).max()
    assert gap > 0.0
    # the gap scales like (W/L)^2; just record that the constant is sane
    assert gap / (4.0 / 64.0) ** 2 > 0.1


def test_shape_function_invariants():
    grid = np.linspace(-12, 12, 241)
    for name in ("gaussian", "compact-bump"):
        psi = get_shape(name)
        pts = grid[:, None]
        vals = psi.eval(pts)
        assert abs(psi.eval(np.zeros((1,))) - 1.0) < 1e-12
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
        assert np.max(np.abs(vals - psi.eval(-pts))) < 1e-12
        for k in range(1, 9):
            assert np.max(np.abs(vals) * (1 + np.abs(grid)) ** k) < np.inf


def test_bump_profile_admissible():
    prof = build_profile(get_shape("compact-bump"), 2.0, TorusLattice(1, 16))
    assert prof.kernel_fft.min() >= 0.0
    assert abs(prof.kernel_fft.sum() - 1.0) < 1e-12


def test_bump_table_is_built_on_first_use():
    # only the compact-bump shape reads the table, so importing the package
    # does not build it
    code = (
        "import numpy as np, rbmlab, rbmlab.profile as p\n"
        "assert p._bump_axis_table.cache_info().currsize == 0\n"
        "assert abs(p.get_shape('compact-bump').eval(np.zeros((1, 1)))[0] - 1.0) < 1e-12\n"
        "assert p._bump_axis_table.cache_info().currsize == 1\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_mean_field_profile():
    prof = mean_field_profile(TorusLattice(1, 8))
    assert np.all(prof.kernel_fft == 0.125)
    lam = prof.symbol_fft.ravel()
    assert lam[0] == 1.0 and np.all(lam[1:] == 0.0)
    assert abs(prof.kernel_fft.sum() - 1.0) < 1e-15


def test_band_truncation_mass_examples():
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 64))
    # direct-summation oracle: the cutoff W^(1+tau) sits at (W^tau) sigma for
    # this gaussian, so tau=0.5 is a 2-sigma tail and tau=1.3 a ~6-sigma one
    kern = prof.kernel_fft.ravel()
    dist = prof.lattice.distance_fft.ravel()
    for tau in (0.5, 1.3):
        oracle = kern[dist >= 4.0 ** (1 + tau)].sum()
        assert band_truncation_mass(prof, tau) == pytest.approx(oracle, abs=1e-15)
    assert band_truncation_mass(prof, 0.5) == pytest.approx(0.0601, abs=2e-3)
    assert band_truncation_mass(prof, 1.3) <= 1e-6
    assert band_truncation_mass(prof, tau=2.0) == 0.0  # W^(1+tau) > L/2


def test_build_profile_errors_and_warning():
    lat = TorusLattice(1, 16)
    with pytest.raises(ParameterError):
        build_profile(get_shape("gaussian"), 0.5, lat)
    with pytest.warns(UserWarning, match="band wraps"):
        build_profile(get_shape("gaussian"), 8.0, lat)
    with pytest.raises(ParameterError):
        get_shape("no-such-shape")


def test_s_lookup_matches_dense():
    prof = build_profile(get_shape("gaussian"), 2.0, TorusLattice(2, 6))
    S = prof.dense_matrix()
    n = prof.lattice.N
    for i in (0, 7, n - 1):
        assert np.array_equal(prof.s_row(i), S[i])
    assert np.max(np.abs(S - S.T)) == 0.0


def test_kernel_band_decay():
    # f(x) <= C_k W^-d (|x|/W)^-k empirically for k in {2, 4}
    prof = build_profile(get_shape("gaussian"), 4.0, TorusLattice(1, 64))
    dist = prof.lattice.distance_fft.ravel()
    kern = prof.kernel_fft.ravel()
    for k in (2, 4):
        sel = dist > 0
        bound = kern[sel] * (dist[sel] / 4.0) ** k * 4.0
        assert bound.max() < 50.0


def test_csv_exports(tmp_path):
    # the profile tables as `rbm profile --out` writes them
    out = tmp_path / "run"
    run(ExperimentConfig("profile", d=2, L=4, W=2.0, out=str(out)))
    kp, sp = out / "kernel.csv", out / "symbol.csv"
    lines = kp.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,f"
    assert len(lines) == TorusLattice(2, 4).N + 1
    total = sum(float(ln.rsplit(",", 1)[1]) for ln in lines[1:])
    assert abs(total - 1.0) < 1e-12
    assert sp.read_text().splitlines()[0] == "k1,k2,lambda"
    assert len(sp.read_text().splitlines()) == TorusLattice(2, 4).N + 1
    assert not list(out.glob("*.tmp"))  # written atomically, nothing left over
    assert b"\r" not in kp.read_bytes() + sp.read_bytes()
