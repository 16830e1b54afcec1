"""The benchmark's hooks into the package, checked by one traced pass.

perfbench/tracer.py wraps functions it finds by module, class and name, and
the graph-eval workload calls the library API directly; a renamed function
or a changed signature would otherwise break only the benchmark.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_graph_eval_pass(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    result = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--workload", "graph-eval-n512",
         "--seed", "1", "--trace", "1", "--out", str(tmp_path), "--result", str(result)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    workloads = _load("workloads")
    failed = [name for name, ok in workloads.check_graph_eval(out) if not ok]
    assert not failed, failed
    # the wrappers were in effect: every draw's resolvent and every graph
    # evaluation went through a traced span
    spans = out["trace"]["spans"]
    draws, triples = workloads.GRAPH_DRAWS, workloads.GRAPH_TRIPLES
    assert spans["spectral.resolvent"]["calls"] == draws
    assert spans["spectral.second_order_terms"]["calls"] == draws * triples
    assert spans["graphs.evaluate"]["calls"] == 4 * draws * triples  # four graphs per triple
