"""Golden outputs: each command line below, run in-process through cli.main
with the BLAS thread count pinned to 1, writes the files under
tests/golden/<name>/ byte for byte.  Its manifest.json stays out of the
corpus, as it records the output directory.

Bytes are compared only on the BLAS library and kernel the corpus was made
on (tests/golden/blas.json); elsewhere the tests skip and name the one that
differs.  A change that moves a number regenerates the corpus, from the
root of the repository:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import itertools
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rbmlab import _lapack, cli, harness

GOLDEN = Path(__file__).parent / "golden"
# every experiment, one --format csv run, one mean-field run and one --workers 2 run
LINES = {
    "profile-d2-l16-w3": "profile --dim 2 --size 16 --band 3",
    "profile-meanfield": "profile --dim 1 --size 64 --psi mean-field",
    "propcheck": "propcheck --dim 2 --size 6 --band 2 --seed 3",
    "graph": "graph --dim 2 --size 12 --band 2 --eta 0.5 --seed 5",
    "locallaw": "locallaw --dim 2 --size 32 --band 3 --eta 0.1,0.3 --trials 2 --seed 5",
    "locallaw-csv": "locallaw --dim 2 --size 32 --band 3 --eta 0.1,0.3 --trials 2 --seed 5 --format csv",
    "que": "que --dim 1 --size 200 --band 10 --eta 0.05 --trials 4 --seed 2",
    "que-workers2": "que --dim 1 --size 16 --band 2 --trials 70 --seed 6 --workers 2",
    "universality": "universality --dim 1 --size 400 --band 400 --trials 40 --seed 3 --flow-time 0.3",
    "wardcheck-l6": "wardcheck --dim 2 --size 6 --band 2 --eta 0.3 --trials 130 --seed 5",
    "wardcheck-l8": "wardcheck --dim 2 --size 8 --band 2 --eta 0.3 --trials 50 --seed 7",
    "texp2-t2000": "texp2 --dim 1 --size 8 --band 2 --trials 2000 --seed 1",
    "texp2-t300": "texp2 --dim 1 --size 8 --band 2 --trials 300 --seed 4",
    "texp2-l160": "texp2 --dim 1 --size 160 --band 4 --trials 100 --seed 2",
}


def _run(name, out: Path) -> dict:
    """{file name: bytes} that line name writes into out on one BLAS
    thread, less its manifest.json; the thread count is restored after."""
    before = (_lapack.blas_info() or {}).get("threads")
    _lapack.set_blas_threads(1)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*LINES[name].split(), "--out", str(out)])
    finally:
        if before:
            _lapack.set_blas_threads(before)
    assert code == 0, f"{LINES[name]} exited {code}"
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def _first_difference(file, got: bytes, want: bytes) -> str:
    """The first metric (metrics files) or line (tables) where got differs from want."""
    if file == "metrics.json":
        g, w = json.loads(got), json.loads(want)
        for key in sorted(set(g["metrics"]) | set(w["metrics"])):
            if g["metrics"].get(key) != w["metrics"].get(key):
                return f"metric {key}: {g['metrics'].get(key)} != golden {w['metrics'].get(key)}"
        return f"params {g['params']} != golden {w['params']}"
    lines = itertools.zip_longest(got.decode().splitlines(), want.decode().splitlines(), fillvalue="")
    for i, (g, w) in enumerate(lines, start=1):
        if g != w:
            where = f"metric {(g or w).split(',')[0]}" if file == "metrics.csv" else f"line {i}"
            return f"{where}: {g!r} != golden {w!r}"
    return "bytes differ"  # line endings only


def _mismatches(name, written: dict) -> list:
    want = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    bad = []
    for file in sorted(set(written) | set(want)):
        if file not in want or file not in written:
            bad.append(f"{name}/{file}: {'not in the corpus' if file not in want else 'not written'}")
        elif written[file] != want[file]:
            bad.append(f"{name}/{file}: {_first_difference(file, written[file], want[file])}")
    return bad


def _require_corpus_blas():
    info = _lapack.blas_info()
    if info is None:
        pytest.skip("numpy's BLAS is not the bundled OpenBLAS the corpus was made on")
    made_on = json.loads((GOLDEN / "blas.json").read_text())
    for key in ("library", "kernel"):
        if info[key] != made_on[key]:
            pytest.skip(f"BLAS {key} {info[key]!r} differs from the corpus's {made_on[key]!r}")


@pytest.mark.parametrize("name", sorted(LINES))
def test_outputs_match_the_golden_corpus(name, tmp_path):
    _require_corpus_blas()
    bad = _mismatches(name, _run(name, tmp_path / name))
    assert not bad, "outputs differ from tests/golden; if the move is meant, list it in CHANGES.md and " \
                    "regenerate (PYTHONPATH=src python tests/test_golden.py):\n" + "\n".join(bad)


def test_a_one_ulp_move_fails_and_names_the_file_and_metric(tmp_path, monkeypatch):
    _require_corpus_blas()
    add = harness.StatReport.add

    def nudged(self, name, value, *rest):
        add(self, name, np.nextafter(float(value), np.inf) if name == "max_residual" else value, *rest)

    monkeypatch.setattr(harness.StatReport, "add", nudged)
    bad = _mismatches("wardcheck-l8", _run("wardcheck-l8", tmp_path / "out"))
    assert len(bad) == 1 and bad[0].startswith("wardcheck-l8/metrics.json: metric max_residual: "), bad


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for line in sorted(LINES):
        with tempfile.TemporaryDirectory() as tmp:
            files = _run(line, Path(tmp) / line)
        (GOLDEN / line).mkdir(parents=True)
        for file, data in files.items():
            (GOLDEN / line / file).write_bytes(data)
    blas = _lapack.blas_info()
    (GOLDEN / "blas.json").write_text(json.dumps({k: blas[k] for k in ("library", "kernel")}, indent=2) + "\n")
    print(f"wrote {len(LINES)} command lines' outputs and blas.json under {GOLDEN}")
