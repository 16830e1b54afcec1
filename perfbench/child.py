"""One benchmark pass, run by run.py in a fresh process, as ``rbm`` runs.

Writes a JSON result with the monotonic time of the first call into the
program (``t_call``) and of its return (``t_end``), the workload's own
output where it has no output files, the span summary when traced, and the
numpy/BLAS configuration in effect.
"""

import argparse
import json
import sys
import time


def _blas_threads():
    """OpenBLAS thread count in effect, or None if numpy's BLAS is not the
    bundled scipy-openblas."""
    import ctypes
    import glob
    import os

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _runtime_info():
    import platform

    import numpy as np
    import rbmlab

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "rbmlab_file": rbmlab.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": deps.get("blas"),
        "blas_threads": _blas_threads(),
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory of the rbm run")
    p.add_argument("--result", required=True, help="where to write this pass's result")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import rbmlab.cli
    from workloads import WORKLOADS, graph_eval, graph_eval_inputs, rbm_argv

    wl = WORKLOADS[args.workload]
    if wl.argv:
        rbm_args = rbm_argv(wl, args.seed, args.out)
    else:
        triples = graph_eval_inputs(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    result = {"t_call": time.monotonic()}
    if wl.argv:
        code = rbmlab.cli.main(rbm_args)
    else:
        code = 0
        result.update(graph_eval(args.seed, triples))
    result["t_end"] = time.monotonic()
    if tracer is not None:
        result["trace"] = tracer.summary()
    result["info"] = _runtime_info()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
